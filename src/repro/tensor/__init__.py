"""Tensor program substrate.

This package replaces the role TVM's ``auto_scheduler`` plays in the paper: it
defines compute DAGs for the benchmark operators, generates Ansor-style
sketches, and represents low-level schedule states (tile sizes, compute-at
positions, parallel fusion, auto-unroll) together with the modification
actions of Table 3.
"""

from repro.tensor.dag import ComputeDAG, Iterator, Stage
from repro.tensor.workloads import (
    batch_gemm,
    conv1d,
    conv2d,
    conv2d_transpose,
    conv3d,
    elementwise,
    gemm,
    gemm_tanh,
    softmax,
)
from repro.tensor.sketch import Sketch, generate_sketches
from repro.tensor.schedule import Schedule
from repro.tensor.actions import (
    ActionSpace,
    ModificationAction,
    apply_action,
)
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.features import FEATURE_SIZE, batch_features
from repro.tensor.lowering import loop_structure, lower_schedule

__all__ = [
    "ComputeDAG",
    "Iterator",
    "Stage",
    "Sketch",
    "Schedule",
    "ActionSpace",
    "ModificationAction",
    "FEATURE_SIZE",
    "apply_action",
    "batch_features",
    "batch_gemm",
    "conv1d",
    "conv2d",
    "conv2d_transpose",
    "conv3d",
    "elementwise",
    "gemm",
    "gemm_tanh",
    "generate_sketches",
    "loop_structure",
    "lower_schedule",
    "sample_initial_schedules",
    "softmax",
]
