"""Error-bound verification and model Lipschitz-constant estimation.

The central check: once a position's step-to-step posterior KL has dropped
below a threshold at some step, the sup-norm gap between its terminal and
lock-time log-posteriors is bounded by

    tail_gain * sqrt(lock-time KL),   tail_gain = L_sm * L / (1 - sqrt(rho))

where rho bounds the geometric decay of the KL tail, L the one-step logit
movement per sqrt(KL), and L_sm the logit-to-log-probability Lipschitz
constant. When rho and L are taken as the measured maxima over the same
tail, the bound holds unconditionally, so the verifier must report it
satisfied on every trajectory with rho < 1 - any violation is a bug.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import EstimateUndefinedError, InvalidInputError
from .model import Weights, forward_partial
from .numkit import (
    LOG_SOFTMAX_LIPSCHITZ,
    kl_from_log_probs_rows,
    row_norms,
    spectral_norm,
)
from .prng import normals, uniforms
from .sampler import RunConfig, SamplerState, unmask_schedule, update_mask

BOUND_SLACK = 1e-9


@dataclass
class Trajectory:
    """Per-step logit (or log-posterior) vectors for one position.

    ``step_kl[s]`` is the KL between steps s and s-1 (0-based arrays;
    step_kl[0] is infinity). Feeding log-posteriors instead of raw logits is
    equivalent: log-softmax is idempotent and KL only sees the normalized
    form.
    """

    logits: np.ndarray  # (T, V)
    step_kl: np.ndarray  # (T,)
    position: int = -1
    source: str = "synthetic"

    def __post_init__(self):
        if self.logits.ndim != 2 or len(self.logits) != len(self.step_kl):
            raise InvalidInputError("trajectory arrays are inconsistent")
        if not np.isfinite(self.logits).all():
            raise InvalidInputError("trajectory logits contain non-finite values")

    @property
    def n_steps(self) -> int:
        return len(self.logits)

    @classmethod
    def from_logits(cls, logits: np.ndarray, position: int = -1, source: str = "synthetic") -> "Trajectory":
        logits = np.asarray(logits, dtype=np.float64)
        traj = cls(logits=logits, step_kl=np.full(len(logits), np.inf), position=position, source=source)
        if len(logits) > 1:
            lp = kernels.log_softmax_rows(logits)
            traj.step_kl[1:] = kl_from_log_probs_rows(lp[1:], lp[:-1])
        return traj


class TailEstimate(NamedTuple):
    value: float
    pairs_used: int
    degenerate: bool  # every usable tail pair was 0 -> 0


def _tail_ratios(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``num / den`` over a tail and the pairs that count: a pair
    with both terms zero is skipped, a zero denominator alone gives infinity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.inf, num / den), (num != 0.0) | (den != 0.0)


def _max_ratio(ratios: np.ndarray, used: np.ndarray, lock_step: int) -> TailEstimate:
    """Largest counted ratio; 0 and degenerate if every pair was skipped."""
    if ratios.size == 0:
        raise EstimateUndefinedError(f"no tail steps after lock step {lock_step}")
    kept = ratios[used]
    return TailEstimate(float(kept.max()), kept.size, False) if kept.size else TailEstimate(0.0, 0, True)


def estimate_contraction(traj: Trajectory, lock_step: int) -> TailEstimate:
    """Largest ratio of consecutive tail KLs after ``lock_step`` (1-based).

    The whole tail is evaluated at once. Pairs where both KLs are zero are
    skipped; a zero KL followed by a positive one yields infinity (the
    geometric-decay premise fails). If every pair was skipped the estimate
    is 0 with the degenerate flag set.
    """
    kl = traj.step_kl
    return _max_ratio(*_tail_ratios(kl[lock_step:], kl[lock_step - 1 : -1]), lock_step)


def estimate_smoothness(traj: Trajectory, lock_step: int) -> TailEstimate:
    """Largest tail ratio of logit movement to sqrt of the prior step KL.

    The whole tail is evaluated at once; the per-step movement comes from
    ``row_norms``, which matches ``np.linalg.norm`` of each step bit for bit.
    A zero prior KL demands zero logit movement; otherwise the estimate is
    infinity (flagging a smoothness violation).
    """
    z = traj.logits
    movement = row_norms(z[lock_step:] - z[lock_step - 1 : -1])
    return _max_ratio(*_tail_ratios(movement, np.sqrt(traj.step_kl[lock_step - 1 : -1])), lock_step)


def tail_gain(log_softmax_lip: float, smoothness: float, contraction: float) -> float:
    """Gain converting lock-time sqrt(KL) into a terminal sup-norm bound."""
    if not 0.0 <= contraction < 1.0:
        raise InvalidInputError(f"contraction={contraction} outside [0, 1)")
    if log_softmax_lip <= 0 or smoothness < 0:
        raise InvalidInputError("log_softmax_lip must be > 0 and smoothness >= 0")
    return log_softmax_lip * smoothness / (1.0 - math.sqrt(contraction))


@dataclass
class BoundReport:
    """Outcome of the lock-bound check on one trajectory.

    ``growth_step`` is set only on an ``inapplicable`` report: the first
    tail step whose KL is at least the step before's (ratio >= 1).
    """

    status: str  # "ok" | "no_lock" | "inapplicable"
    lock_step: int | None = None
    lock_kl: float | None = None
    contraction: float | None = None
    smoothness: float | None = None
    log_softmax_lip: float = LOG_SOFTMAX_LIPSCHITZ
    gain: float | None = None
    lhs: float | None = None
    rhs: float | None = None
    holds: bool | None = None
    growth_step: int | None = None
    position: int = -1
    source: str = "synthetic"

    def to_dict(self) -> dict:
        return asdict(self)


def check_lock_bound(
    traj: Trajectory,
    epsilon: float,
    log_softmax_lip: float = LOG_SOFTMAX_LIPSCHITZ,
) -> BoundReport:
    """Verify the terminal-deviation bound at the first qualifying lock step.

    The lock step is the first step >= 2 whose KL is at most ``epsilon``.
    The tail constants are measured from the trajectory itself, so whenever
    the measured contraction is below 1 the reported bound must hold.
    """
    if traj.n_steps < 3:
        raise InvalidInputError("need at least 3 steps to check the bound")
    hits = np.flatnonzero(traj.step_kl[1:] <= epsilon)
    if hits.size == 0:
        return BoundReport(status="no_lock", log_softmax_lip=log_softmax_lip,
                           position=traj.position, source=traj.source)
    lock_step = int(hits[0]) + 2

    lock_kl = float(traj.step_kl[lock_step - 1])
    lp = kernels.log_softmax_rows(traj.logits[[lock_step - 1, traj.n_steps - 1]])
    found = BoundReport(
        status="ok", lock_step=lock_step, lock_kl=lock_kl, log_softmax_lip=log_softmax_lip,
        lhs=float(np.max(np.abs(lp[1] - lp[0]))), position=traj.position, source=traj.source,
    )
    if lock_step == traj.n_steps:
        # locking at the terminal step: the deviation is identically zero
        return replace(found, contraction=0.0, smoothness=0.0, gain=0.0, rhs=0.0, holds=True)

    kl = traj.step_kl
    kl_ratios, kl_used = _tail_ratios(kl[lock_step:], kl[lock_step - 1 : -1])
    rho = _max_ratio(kl_ratios, kl_used, lock_step)
    lsm = estimate_smoothness(traj, lock_step)
    if not rho.value < 1.0:
        growth = np.flatnonzero(kl_used & (kl_ratios >= 1.0))
        return replace(found, status="inapplicable", contraction=rho.value, smoothness=lsm.value,
                       growth_step=lock_step + 1 + int(growth[0]) if growth.size else None)
    gain = tail_gain(log_softmax_lip, lsm.value, rho.value) if np.isfinite(lsm.value) else np.inf
    rhs = gain * math.sqrt(lock_kl)
    return replace(found, contraction=rho.value, smoothness=lsm.value, gain=gain, rhs=float(rhs),
                   holds=bool(found.lhs <= rhs + BOUND_SLACK))


def simulate_trajectory(seed: int, vocab_size: int, n_steps: int, contraction_target: float, magnitude: float) -> Trajectory:
    """Synthetic logit path z_s = anchor + magnitude * target^(s/2) * dir.

    Consecutive logit differences decay geometrically with ratio exactly
    sqrt(target); for small magnitudes the KL tail then contracts at about
    ``target`` (KL is locally quadratic in the logit gap).
    """
    if not 0.0 < contraction_target < 1.0:
        raise InvalidInputError("contraction_target must lie in (0, 1)")
    if n_steps < 4:
        raise InvalidInputError("need at least 4 steps")
    anchor = normals(seed, vocab_size)
    direction = normals(seed ^ 0xD1FF, vocab_size)
    direction /= np.linalg.norm(direction)
    steps = np.arange(1, n_steps + 1)
    offsets = magnitude * contraction_target ** (steps / 2.0)
    logits = anchor[None, :] + offsets[:, None] * direction[None, :]
    return Trajectory.from_logits(logits, source="synthetic")


def battery_steps(contraction_target: float) -> int:
    """Step count keeping a synthetic KL tail above float64 round-off.

    A tail that decays below ~1e-15 collapses to exact zeros and the
    estimators then (correctly) refuse to certify geometric decay; sizing
    the run to the decay rate keeps every step informative.
    """
    if contraction_target <= 0.35:
        return 10
    if contraction_target <= 0.65:
        return 16
    return 24


def trajectories_from_history(history: np.ndarray, valid: np.ndarray) -> list[Trajectory]:
    """Per-position trajectories from a recorded (steps, N, V) posterior history.

    Only positions whose posterior is present at every step are returned
    (a baseline run computes every row every step, so that is all of them).
    """
    # each trajectory is a strided view of the history, not a copy: contiguous
    # copies check ~25% faster but hold the history twice (peak RSS 111 -> 151
    # MB on a d=128, N=192, 64-step baseline run)
    return [
        Trajectory.from_logits(history[:, i, :], position=i, source="sampled")
        for i in np.flatnonzero(valid.all(axis=0)).tolist()
    ]


# ---------------------------------------------------------------------------
# model-wide Lipschitz constants


@dataclass
class ConstantsReport:
    """Operator-norm and empirical Lipschitz constants of a weight set."""

    embedding_gain: float  # sqrt(2) * ||E||_2: posterior drift -> input drift
    head_norm: float
    per_layer: list[dict]
    attention_gain: float  # worst layer A_mha
    ffn_gain: float  # worst layer empirical FFN Lipschitz
    layernorm_gain: float  # worst layer empirical LN Lipschitz
    block_gain: float  # worst layer 1 + ffn * mha * ln
    network_gain: float  # head_norm * block_gain ** n_layers
    overall_gain: float  # network_gain * embedding_gain
    smoothness_bound: float  # overall_gain * (1 + tail_share)
    input_radius: float
    tail_share: float
    lipschitz_samples: int
    all_converged: bool

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "embedding_gain", "head_norm", "attention_gain", "ffn_gain",
            "layernorm_gain", "block_gain", "network_gain", "overall_gain",
            "smoothness_bound", "input_radius", "tail_share",
            "lipschitz_samples", "all_converged",
        )}
        d["per_layer"] = self.per_layer
        return d


def embedding_gain(embedding: np.ndarray) -> tuple[float, bool]:
    """sqrt(2) * spectral norm of the embedding: bounds expected-embedding
    movement by sqrt(KL) of the posterior movement (total variation route)."""
    sn = spectral_norm(embedding)
    return math.sqrt(2.0) * sn.value, sn.converged


def _empirical_lipschitz(fn, dim: int, radius: float, samples: int, seed: int) -> float:
    """Max output/input distance ratio over seeded point pairs in a ball."""
    # points: radius-scaled gaussian directions; pairs are consecutive rows
    raw = normals(seed, 2 * samples * dim).reshape(2 * samples, dim)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = uniforms(seed ^ 0xBA11, 2 * samples).reshape(2 * samples, 1) ** (1.0 / dim)
    pts = raw / norms * radii * radius
    x, y = pts[0::2], pts[1::2]
    fx, fy = fn(x), fn(y)
    num = np.linalg.norm(fx - fy, axis=1)
    den = np.linalg.norm(x - y, axis=1)
    keep = den > 1e-12
    return float((num[keep] / den[keep]).max())


def attention_head_gain(wq_h: np.ndarray, wk_h: np.ndarray, wv_h: np.ndarray,
                        seq_len: int, radius: float, head_dim: int) -> tuple[float, bool]:
    """Single-head attention Lipschitz bound from weight operator norms:
    ||Wv|| * (1 + ||Wq|| ||Wk|| / 2 * n * R^2 / sqrt(d_k))."""
    sq, sk, sv = spectral_norm(wq_h), spectral_norm(wk_h), spectral_norm(wv_h)
    gain = sv.value * (1.0 + sq.value * sk.value / 2.0 * seq_len * radius * radius / math.sqrt(head_dim))
    return gain, sq.converged and sk.converged and sv.converged


def lipschitz_constants(
    w: Weights,
    input_radius: float,
    tail_share: float = 0.0,
    seq_len: int | None = None,
    samples: int = 10_000,
    seed: int = 0,
) -> ConstantsReport:
    """Compose per-layer constants into a network-wide smoothness bound.

    Attention gains come from weight operator norms (power iteration); the
    gated feed-forward and layer norm are not globally Lipschitz, so their
    gains are measured empirically over ``samples`` seeded input pairs
    inside the given radius. ``tail_share`` is the assumed ratio of other
    positions' posterior movement to this position's own (0 attributes the
    whole step to one position).
    """
    if input_radius <= 0:
        raise InvalidInputError("input_radius must be positive")
    if tail_share < 0:
        raise InvalidInputError("tail_share must be >= 0")
    cfg = w.config
    n = seq_len if seq_len is not None else cfg.max_seq
    dh = cfg.head_dim
    converged = True

    emb_gain, ok = embedding_gain(w.embedding)
    converged &= ok
    head_sn = spectral_norm(w.head)
    converged &= head_sn.converged

    per_layer = []
    for li, layer in enumerate(w.layers):
        head_gains = []
        for h in range(cfg.n_heads):
            g = h // cfg.group_size
            gain, ok = attention_head_gain(
                layer.wq[:, h * dh : (h + 1) * dh],
                layer.wk[:, g * dh : (g + 1) * dh],
                layer.wv[:, g * dh : (g + 1) * dh],
                n, input_radius, dh,
            )
            head_gains.append(gain)
            converged &= ok
        wo_sn = spectral_norm(layer.wo)
        converged &= wo_sn.converged
        mha_gain = wo_sn.value * max(head_gains)

        def ffn(x, layer=layer):
            gate = x @ layer.w_gate
            return (gate / (1.0 + np.exp(-gate)) * (x @ layer.w_up)) @ layer.w_down

        ffn_gain = _empirical_lipschitz(ffn, cfg.d_model, input_radius, samples, seed + 101 * li)
        ln_gain = max(
            _empirical_lipschitz(
                lambda x, layer=layer: kernels.layernorm_rows(x, layer.ln1_gain, layer.ln1_bias),
                cfg.d_model, input_radius, samples, seed + 101 * li + 1,
            ),
            _empirical_lipschitz(
                lambda x, layer=layer: kernels.layernorm_rows(x, layer.ln2_gain, layer.ln2_bias),
                cfg.d_model, input_radius, samples, seed + 101 * li + 2,
            ),
        )
        per_layer.append({
            "layer": li,
            "attention_gain": mha_gain,
            "ffn_gain": ffn_gain,
            "layernorm_gain": ln_gain,
            "block_gain": 1.0 + ffn_gain * mha_gain * ln_gain,
        })

    att = max(p["attention_gain"] for p in per_layer)
    ffn_g = max(p["ffn_gain"] for p in per_layer)
    ln_g = max(p["layernorm_gain"] for p in per_layer)
    blk = max(p["block_gain"] for p in per_layer)
    net = head_sn.value * blk**cfg.n_layers
    overall = net * emb_gain
    return ConstantsReport(
        embedding_gain=emb_gain,
        head_norm=head_sn.value,
        per_layer=per_layer,
        attention_gain=att,
        ffn_gain=ffn_g,
        layernorm_gain=ln_g,
        block_gain=blk,
        network_gain=net,
        overall_gain=overall,
        smoothness_bound=overall * (1.0 + tail_share),
        input_radius=input_radius,
        tail_share=tail_share,
        lipschitz_samples=samples,
        all_converged=bool(converged),
    )


def calibrate_input_radius(w: Weights, run: RunConfig, prompt: np.ndarray) -> float:
    """Max post-normalization row norm over a short baseline run's states."""
    state = SamplerState.fresh(run, w, prompt)
    schedule = unmask_schedule(run.n_gen, run.steps)
    radius = 0.0
    for t, k_t in enumerate(schedule, start=1):
        state.t = t
        active = np.flatnonzero(~state.lock)
        result = forward_partial(
            w, state.tokens, state.mask_flags, active, state.kv, collect_stats=True,
        )
        radius = max(radius, result.post_ln_max_norm)
        lp = kernels.log_softmax_rows(result.logits)
        state.log_post[active] = lp
        state.log_post_valid[active] = True
        block = (run.n_prompt, run.n_prompt + run.n_gen)
        _, committed = update_mask(
            state.log_post, state.log_post_valid, state.mask_flags, k_t, block, 0.0,
            state.rng, mask_id=w.config.mask_id,
        )
        for pos, tok in committed.items():
            state.tokens[pos] = tok
            state.mask_flags[pos] = False
    return radius


def softmax_jacobian_sup(samples: int = 10_000, max_dim: int = 16, seed: int = 7) -> float:
    """Empirical sup of the softmax Jacobian spectral norm over random scores.

    The Jacobian diag(a) - a a^T is symmetric PSD; its largest eigenvalue is
    analytically at most 1/2, approached at two-point distributions.
    """
    sup = 0.0
    dims = (np.arange(samples) % (max_dim - 1)) + 2
    for dim in range(2, max_dim + 1):
        count = int((dims == dim).sum())
        if count == 0:
            continue
        scores = normals(seed + dim, count * dim).reshape(count, dim)
        # mix in larger scales so near-two-point distributions appear
        scales = 1.0 + 9.0 * uniforms(seed ^ 0x5CA1E + dim, count)[:, None]
        alpha = np.exp(scores * scales)
        alpha /= alpha.sum(axis=1, keepdims=True)
        jac = alpha[:, :, None] * np.eye(dim)[None, :, :] - alpha[:, :, None] * alpha[:, None, :]
        eigs = np.linalg.eigvalsh(jac)
        sup = max(sup, float(eigs[:, -1].max()))
    return sup


def stepwise_kl_curve(trace) -> list[tuple[int, float]]:
    """Per-step mean of finite step KLs over computed unmasked positions.

    Steps with no finite value (the first step, where every KL is infinite)
    are omitted.
    """
    return [(rec.t, rec.mean_step_kl) for rec in trace if rec.mean_step_kl is not None]
