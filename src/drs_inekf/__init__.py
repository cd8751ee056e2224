"""Right-invariant EKF for legged locomotion on a moving rigid surface."""

from .liegroup import (GroupElement, adjoint, compose, inverse, sek3_exp,
                       sek3_log, skew, so3_exp, so3_log)
from .state import BiasState, FilterState, NoiseConfig, run_covariance
from .kinematics import KinematicModel, VirtualLeg
from .drs import PitchProfile, drs_pose_at, make_profile
from .filter import (FilterVariant, ImuSample, Observation, ProcessInput,
                     jump_propagate, orientation_observation,
                     position_observation, propagate, run_variant, update)
from .observability import observability_matrix, observability_report, tilt_sweep
from .sim import ScenarioConfig, ScenarioDataset, generate, load_jsonl, save_jsonl

__version__ = "0.1.0"

__all__ = [
    "GroupElement", "adjoint", "compose", "inverse", "sek3_exp", "sek3_log",
    "skew", "so3_exp", "so3_log",
    "BiasState", "FilterState", "NoiseConfig", "run_covariance",
    "KinematicModel", "VirtualLeg",
    "PitchProfile", "drs_pose_at", "make_profile",
    "FilterVariant", "ImuSample", "Observation", "ProcessInput",
    "jump_propagate", "orientation_observation", "position_observation",
    "propagate", "run_variant", "update",
    "observability_matrix", "observability_report", "tilt_sweep",
    "ScenarioConfig", "ScenarioDataset", "generate", "load_jsonl", "save_jsonl",
]
