"""Algorithmic FLOPs accounting: closed-form step costs plus a GEMM counter.

Only matrix multiplies are counted (Q/K/V/output projections, the two
attention products, and the three feed-forward matrices), at 2*m*n*k per
m x n x k product. The vocabulary head is excluded from the step cost and
tracked separately, and element-wise work (normalization, softmax,
activations, positional adds) is not counted at all. The closed-form step
cost and the instrumented counter must agree exactly, as integers, for
every step of every mode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InvalidInputError

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelConfig


class GemmCounter:
    """Accumulates exact multiply-add counts for instrumented forwards."""

    def __init__(self):
        self.flops = 0
        self.head_flops = 0

    def gemm(self, m: int, n: int, k: int) -> None:
        self.flops += 2 * m * n * k

    def gemm_head(self, m: int, n: int, k: int) -> None:
        self.head_flops += 2 * m * n * k


def per_row_step_flops(cfg: ModelConfig, seq_len: int) -> int:
    """GEMM cost contributed by one computed row of a length-N step.

    The attention products scale with the key count N but only one factor
    of the row count, so a step costs exactly (computed rows) * this value.
    """
    d, dh = cfg.d_model, cfg.head_dim
    return cfg.n_layers * (
        4 * cfg.n_heads * seq_len * dh  # scores and weighted values
        + 2 * d * d  # query projection
        + 2 * d * d  # output projection
        + 4 * d * cfg.kv_dim  # key and value projections
        + 6 * d * cfg.d_ff  # gated feed-forward
    )


def baseline_step_flops(cfg: ModelConfig, seq_len: int) -> int:
    """Per-step GEMM cost with every position computed."""
    if seq_len < 1:
        raise InvalidInputError("sequence length must be positive")
    return seq_len * per_row_step_flops(cfg, seq_len)
