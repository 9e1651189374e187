"""Convergence-gated position locking for masked-diffusion sampling.

A desk-scale laboratory: a toy bidirectional masked-diffusion transformer
whose per-step compute shrinks as positions lock, exact GEMM-level FLOPs
accounting, and the machinery to verify the lock rule's terminal error
bound on measured and synthetic trajectories.
"""

from .analysis import (
    BoundReport,
    ConstantsReport,
    Trajectory,
    check_lock_bound,
    estimate_smoothness,
    lipschitz_constants,
    simulate_trajectory,
    tail_gain,
)
from .flops import GemmCounter, active_step_flops, baseline_step_flops
from .kernels import percentile_nearest_rank, spectral_norm
from .lockctl import (
    LockEvent,
    LockPolicy,
    apply_locks,
    evaluate_locks,
    probe_unlock,
)
from .model import (
    KVStore,
    ModelConfig,
    Weights,
    forward_partial,
    init_weights,
    load_weights,
    save_weights,
)
from .sampler import (
    RunConfig,
    RunResult,
    SamplerState,
    StepRecord,
    run_sampler,
    select_compute_rows,
    step,
    unmask_schedule,
    update_mask,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "ConstantsReport", "Trajectory", "check_lock_bound",
    "estimate_smoothness", "lipschitz_constants",
    "simulate_trajectory", "tail_gain",
    "GemmCounter", "active_step_flops", "baseline_step_flops",
    "LockEvent", "LockPolicy", "apply_locks", "evaluate_locks", "probe_unlock",
    "KVStore", "ModelConfig", "Weights",
    "forward_partial", "init_weights", "load_weights", "save_weights",
    "percentile_nearest_rank", "spectral_norm",
    "RunConfig", "RunResult", "SamplerState", "StepRecord", "run_sampler",
    "select_compute_rows", "step", "unmask_schedule", "update_mask",
    "__version__",
]
