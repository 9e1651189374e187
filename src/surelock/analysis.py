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
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import EstimateUndefinedError, InvalidInputError, NonFiniteError
from .model import Weights
from .numkit import (
    LOG_SOFTMAX_LIPSCHITZ,
    kl_from_log_probs_rows,
    row_norms,
    spectral_norm,
)
from .prng import normals, uniforms

BOUND_SLACK = 1e-9

#: the most logits (steps x vocabulary) one synthetic trajectory may have:
#: a trajectory is built whole, and its logits, log-probabilities and KL
#: temporaries are each 32 MiB at the cap
MAX_TRAJECTORY_LOGITS = 2**22


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
        """The batch of one of ``from_logit_batch``; ``logits`` is (T, V)."""
        [traj] = cls.from_logit_batch(np.asarray(logits, dtype=np.float64)[None], [position], source)
        return traj

    @classmethod
    def from_logit_batch(cls, logits: np.ndarray, positions=None, source: str = "synthetic") -> list["Trajectory"]:
        """One trajectory per (T, V) slab of a (B, T, V) stack, each a view of it.

        The step KLs of the whole batch come from one log-softmax over the
        stacked B*T rows and one row-wise KL; both are per-row operations,
        so each trajectory's ``step_kl`` is bit for bit its own batch of one.
        """
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 3:
            raise InvalidInputError("trajectory arrays are inconsistent")
        b, t, v = logits.shape
        positions = [-1] * b if positions is None else positions
        step_kl = np.full((b, t), np.inf)
        trajs = [cls(logits=z, step_kl=kl, position=p, source=source) for z, kl, p in zip(logits, step_kl, positions)]
        if t > 1:
            lp = kernels.log_softmax_rows(logits.reshape(b * t, v)).reshape(b, t, v)
            finite = np.isfinite(lp).all(axis=(1, 2))
            if not finite.all():
                bad = positions[int(np.flatnonzero(~finite)[0])]
                raise InvalidInputError(f"trajectory at position {bad}: log-softmax overflows")
            step_kl[:, 1:] = kl_from_log_probs_rows(
                lp[:, 1:].reshape(-1, v), lp[:, :-1].reshape(-1, v)).reshape(b, t - 1)
        return trajs


def _tail_ratios(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``num / den`` over a tail and the pairs that count: a pair
    with both terms zero is skipped, a zero denominator alone gives infinity."""
    nonzero = den != 0.0
    ratios = np.divide(num, den, out=np.full(num.shape, np.inf), where=nonzero)
    return ratios, nonzero | (num != 0.0)


def _max_ratio(ratios: np.ndarray, used: np.ndarray, lock_step: int) -> float:
    """Largest counted ratio; 0 if every pair was skipped."""
    if ratios.size == 0:
        raise EstimateUndefinedError(f"no tail steps after lock step {lock_step}")
    kept = ratios[used]
    return float(kept.max()) if kept.size else 0.0


def estimate_smoothness(traj: Trajectory, lock_step: int) -> float:
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

    ``contraction`` is the largest ratio of consecutive tail KLs after the
    lock step (0 -> 0 pairs skipped; 0 -> positive is infinite).
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


def check_lock_bound(traj: Trajectory, epsilon: float) -> BoundReport:
    """Verify the terminal-deviation bound at the first qualifying lock step.

    The lock step is the first step >= 2 whose KL is at most ``epsilon``.
    The tail constants are measured from the trajectory itself, so whenever
    the measured contraction is below 1 the reported bound must hold; an
    infinite gain gives an infinite right-hand side.
    """
    if traj.n_steps < 3:
        raise InvalidInputError("need at least 3 steps to check the bound")
    kl, z = traj.step_kl, traj.logits
    hits = np.flatnonzero(kl[1:] <= epsilon)
    if hits.size == 0:
        return BoundReport(status="no_lock", position=traj.position, source=traj.source)
    lock_step = int(hits[0]) + 2

    lock_kl = float(kl[lock_step - 1])
    lp = kernels.log_softmax_rows(z[[lock_step - 1, traj.n_steps - 1]])
    lhs = float(np.max(np.abs(lp[1] - lp[0])))
    common = {"lock_step": lock_step, "lock_kl": lock_kl, "lhs": lhs, "position": traj.position, "source": traj.source}
    if lock_step == traj.n_steps:
        # locking at the terminal step: the deviation is identically zero
        return BoundReport(status="ok", contraction=0.0, smoothness=0.0, gain=0.0, rhs=0.0,
                           holds=True, **common)

    kl_ratios, kl_used = _tail_ratios(kl[lock_step:], kl[lock_step - 1 : -1])
    rho = _max_ratio(kl_ratios, kl_used, lock_step)
    lsm = estimate_smoothness(traj, lock_step)
    if not rho < 1.0:
        growth = np.flatnonzero(kl_used & (kl_ratios >= 1.0))
        return BoundReport(status="inapplicable", contraction=rho, smoothness=lsm,
                           growth_step=lock_step + 1 + int(growth[0]) if growth.size else None,
                           **common)
    gain = tail_gain(LOG_SOFTMAX_LIPSCHITZ, lsm, rho) if np.isfinite(lsm) else np.inf
    rhs = gain * math.sqrt(lock_kl) if np.isfinite(gain) else np.inf  # inf * sqrt(0) would be NaN
    return BoundReport(status="ok", contraction=rho, smoothness=lsm, gain=gain,
                       rhs=float(rhs), holds=bool(lhs <= rhs + BOUND_SLACK), **common)


def validate_synthetic(vocab_size: int, n_steps: int, contraction_target: float) -> None:
    """Refuse a synthetic trajectory shape before anything is drawn."""
    if not 0.0 < contraction_target < 1.0:
        raise InvalidInputError("contraction_target must lie in (0, 1)")
    if n_steps < 4:
        raise InvalidInputError("need at least 4 steps")
    if vocab_size < 1:
        raise InvalidInputError(f"vocab_size must be at least 1, got {vocab_size}")
    if n_steps * vocab_size > MAX_TRAJECTORY_LOGITS:
        raise InvalidInputError(f"a trajectory of {n_steps} steps x {vocab_size} logits exceeds the cap of "
                                f"{MAX_TRAJECTORY_LOGITS} logits")


def simulate_trajectories(seeds, vocab_size: int, n_steps: int, contraction_target: float,
                          magnitude: float) -> list[Trajectory]:
    """Synthetic logit paths z_s = anchor + magnitude * target^(s/2) * dir, one per seed.

    Consecutive logit differences decay geometrically with ratio exactly
    sqrt(target); for small magnitudes the KL tail then contracts at about
    ``target`` (KL is locally quadratic in the logit gap). Seed ``s`` draws
    its anchor from stream ``s`` and its direction from ``s ^ 0xD1FF``; the
    whole batch is one draw, one log-softmax and one KL pass, and each
    trajectory equals ``simulate_trajectory(s, ...)`` bit for bit.
    """
    validate_synthetic(vocab_size, n_steps, contraction_target)
    seeds = list(seeds)
    draws = normals([*seeds, *(s ^ 0xD1FF for s in seeds)], vocab_size)
    anchor, direction = draws[: len(seeds)], draws[len(seeds) :]
    # row_norms matches np.linalg.norm of each row bit for bit; norm(axis=1) does not
    direction /= row_norms(direction)[:, None]
    offsets = magnitude * contraction_target ** (np.arange(1, n_steps + 1) / 2.0)
    logits = anchor[:, None, :] + offsets[None, :, None] * direction[:, None, :]
    return Trajectory.from_logit_batch(logits, source="synthetic")


def simulate_trajectory(seed: int, vocab_size: int, n_steps: int, contraction_target: float, magnitude: float) -> Trajectory:
    """The batch of one of ``simulate_trajectories``."""
    [traj] = simulate_trajectories([seed], vocab_size, n_steps, contraction_target, magnitude)
    return traj


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
    # each trajectory is a view of the history, not a copy. ``run_sampler``
    # records it position-major, so every view is one contiguous (steps, V)
    # block: the checks read whole rows, and the history is held only once.
    # Positions are scored one at a time: one batch over the whole history
    # would hold a second history-sized array of log-probabilities
    return [
        Trajectory.from_logits(history[:, i, :], position=i, source="sampled")
        for i in np.flatnonzero(valid.all(axis=0)).tolist()
    ]


# ---------------------------------------------------------------------------
# model-wide Lipschitz constants


@dataclass
class ConstantsReport:
    """Operator-norm bounds and sampled Lipschitz estimates of a weight set.

    The embedding, head and attention gains are bounds. The FFN and
    layer-norm gains are maxima over sampled input pairs: estimates from
    below, not bounds, and so is every gain composed from them.
    """

    embedding_gain: float  # sqrt(2) * ||E||_2: posterior drift -> input drift
    head_norm: float
    per_layer: list[dict]
    attention_gain: float  # worst layer A_mha
    ffn_gain: float  # worst layer sampled FFN estimate
    layernorm_gain: float  # worst layer sampled LN estimate (max of its two layer norms)
    block_gain: float  # worst layer (1 + mha * ln) * (1 + ffn * ln)
    network_gain: float  # head_norm * block_gain ** n_layers
    overall_gain: float  # network_gain * embedding_gain
    smoothness_bound: float  # overall_gain * (1 + tail_share)
    input_radius: float
    tail_share: float
    lipschitz_samples: int
    all_converged: bool

    def to_dict(self) -> dict:
        return asdict(self)


def embedding_gain(embedding: np.ndarray) -> tuple[float, bool]:
    """sqrt(2) * spectral norm of the embedding: bounds expected-embedding
    movement by sqrt(KL) of the posterior movement (total variation route)."""
    sn = spectral_norm(embedding)
    return math.sqrt(2.0) * sn.value, sn.converged


def _empirical_lipschitz(fn, dim: int, radius: float, samples: int, seed: int) -> float:
    """Max output/input distance ratio over seeded point pairs in a ball: a
    sampled estimate of the Lipschitz constant there, from below."""
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
    """Compose per-layer constants into a network-wide smoothness estimate.

    Attention gains come from weight operator norms (power iteration); the
    gated feed-forward and layer norm are not globally Lipschitz, so their
    gains are sampled estimates: the largest ratio over ``samples`` seeded
    input pairs inside the given radius, which can fall short of the true
    constant. A layer computes ``x += MHA(LN1 x)`` and then
    ``x += FFN(LN2 x)``, each with a residual, so its gain composes as
    ``(1 + mha * ln) * (1 + ffn * ln)`` with ``ln`` the larger of its two
    layer-norm estimates. ``tail_share`` is the assumed ratio of other
    positions' posterior movement to this position's own (0 attributes the
    whole step to one position). A report with a field that overflowed or
    is not finite raises ``NonFiniteError``.
    """
    if not 0.0 < input_radius < math.inf:
        raise InvalidInputError(f"input_radius must be positive and finite, got {input_radius}")
    if not 0.0 <= tail_share < math.inf:
        raise InvalidInputError(f"tail_share must be >= 0 and finite, got {tail_share}")
    if samples < 1:
        raise InvalidInputError(f"samples must be >= 1, got {samples}")
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
            "block_gain": (1.0 + mha_gain * ln_gain) * (1.0 + ffn_gain * ln_gain),
        })

    att = max(p["attention_gain"] for p in per_layer)
    ffn_g = max(p["ffn_gain"] for p in per_layer)
    ln_g = max(p["layernorm_gain"] for p in per_layer)
    blk = max(p["block_gain"] for p in per_layer)
    try:
        net = head_sn.value * blk**cfg.n_layers
    except OverflowError:  # a float power raises where a product gives inf
        net = math.inf
    overall = net * emb_gain
    report = ConstantsReport(
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
    fields = {**report.to_dict(), **{f"per_layer[{p['layer']}].{k}": v for p in per_layer for k, v in p.items()}}
    bad = [name for name, v in fields.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise NonFiniteError(f"constants report is not finite in {', '.join(bad)}")
    return report


def input_radius_bound(w: Weights) -> float:
    """Largest row norm any layer norm of ``w`` can output: the normalized
    row has norm at most sqrt(d), so ||LN(x)|| <= sqrt(d) * max|gain| +
    ||bias||, maximized over every layer's two layer norms."""
    root_d = math.sqrt(w.config.d_model)
    return max(
        root_d * float(np.abs(gain).max()) + float(np.linalg.norm(bias))
        for layer in w.layers
        for gain, bias in ((layer.ln1_gain, layer.ln1_bias), (layer.ln2_gain, layer.ln2_bias))
    )


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

