"""Count the lines and the code lines of each module under ``src/``.

    python3 tools/src_lines.py [SRC]

SRC defaults to the ``src`` directory of the checkout that holds this
script.  A code line is a line that holds part of a token other than a
comment, a docstring or layout (newlines, indents).  A docstring is a
string-only statement; an f-string is never one.  The lines that a
multi-line token spans (a string) count as code unless it is a docstring.
The tool prints one row per module and a total row.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# tokens after which a new statement starts
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING, tokenize.NL, tokenize.COMMENT}


def code_lines(path):
    """The number of code lines of one Python file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    prev = tokenize.ENCODING        # the type of the last non-comment token
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                prev = tok.type
            continue
        nxt = next((t.type for t in tokens[i + 1:]
                    if t.type not in (tokenize.NL, tokenize.COMMENT)), None)
        docstring = (tok.type == tokenize.STRING and prev in _STATEMENT_START
                     and nxt in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return len(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("src", nargs="?", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[1] / "src")
    args = ap.parse_args(argv)
    rows = [(str(path.relative_to(args.src)),
             len(path.read_bytes().splitlines()), code_lines(path))
            for path in sorted(args.src.rglob("*.py"))]
    if not rows:
        raise SystemExit(f"error: no Python module under {args.src}")
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, n_lines, n_code in rows:
        print(f"{name:<{width}}  {n_lines:>6,}  {n_code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
