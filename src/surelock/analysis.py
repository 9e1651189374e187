"""Error-bound verification and model Lipschitz-constant bounds.

The central check: once a position's step-to-step posterior KL has dropped
below a threshold at some step, the sup-norm gap between its terminal and
lock-time log-posteriors is bounded by

    tail_gain * sqrt(lock-time KL),   tail_gain = L_sm * L / (1 - sqrt(rho))

where rho bounds the geometric decay of the KL tail, L the one-step logit
movement per sqrt(KL), and L_sm the logit-to-log-probability Lipschitz
constant. When rho and L are taken as the measured maxima over the same
tail, the bound holds unconditionally, so the verifier must report it
satisfied on every trajectory with rho < 1 - any violation is a bug.
A trajectory is reduced to three (T,) per-step arrays when it is built,
and the check reads nothing else. Each tail maximum is one IEEE division
and one ``fmax`` reduction: a 0/0 pair is NaN and skipped, x/0 is infinite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import InvalidInputError, InvalidStateError, require_finite
from .kernels import (LAYERNORM_EPS, LOG_SOFTMAX_LIPSCHITZ, SOFTMAX_JACOBIAN_SUP, kl_from_log_probs_rows,
                      row_norms, spectral_norm)
from .model import LayerWeights, Weights
from .prng import normals

BOUND_SLACK = 1e-9

#: the most logits (steps x vocabulary) one synthetic trajectory may have:
#: a trajectory is built whole, and its logits, log-probabilities and KL
#: temporaries are each 32 MiB at the cap
MAX_TRAJECTORY_LOGITS = 2**22


@dataclass
class Trajectory:
    """The per-step facts the lock-bound check reads for one position.

    0-based (T,) arrays over steps s:

    - ``step_kl[s]`` is the KL between steps s and s-1;
    - ``step_move[s]`` is the logit movement ``||z_s - z_{s-1}||_2``;
    - ``terminal_gap[s]`` is the sup-norm gap ``max_v |lp_{T-1} - lp_s|``
      of the log-posteriors to the terminal step's (0 at s = T-1).

    ``step_kl[0]`` and ``step_move[0]`` are infinity: step 0 has no step
    before it. A trajectory keeps no (T, V) logits: ``from_logit_batch``
    and ``trajectories_from_history`` reduce them to these arrays and hold
    no reference to them. Feeding
    log-posteriors instead of raw logits leaves ``step_kl`` and
    ``terminal_gap`` unchanged (log-softmax is idempotent and both only
    see the normalized form); ``step_move`` measures the vectors fed.
    """

    step_kl: np.ndarray  # (T,)
    step_move: np.ndarray  # (T,)
    terminal_gap: np.ndarray  # (T,)
    position: int = -1
    source: str = "synthetic"

    def __post_init__(self):
        if any(a.ndim != 1 or len(a) != len(self.step_kl) for a in (self.step_kl, self.step_move, self.terminal_gap)):
            raise InvalidInputError("trajectory arrays are inconsistent")

    @property
    def n_steps(self) -> int:
        return len(self.step_kl)

    @classmethod
    def from_logits(cls, logits: np.ndarray, position: int = -1, source: str = "synthetic") -> "Trajectory":
        """The batch of one of ``from_logit_batch``; ``logits`` is (T, V)."""
        [traj] = cls.from_logit_batch(np.asarray(logits, dtype=np.float64)[None], [position], source)
        return traj

    @classmethod
    def from_logit_batch(cls, logits: np.ndarray, positions=None, source: str = "synthetic") -> list["Trajectory"]:
        """One trajectory per (T, V) slab of a (B, T, V) stack.

        The whole batch takes one log-softmax over the stacked B*T rows, one
        row-wise KL, one logit difference with its ``row_norms`` and one
        in-place terminal gap on the log-probabilities. Each is a per-row
        operation, so every trajectory's per-step arrays are bit for bit its
        own batch of one, and equal to what a check would compute from the
        two rows it compares. An empty vocabulary is refused, and so is any
        non-finite log-probability, from a non-finite logit or an
        overflowing log-softmax.
        """
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 3:
            raise InvalidInputError("trajectory arrays are inconsistent")
        b, t, v = logits.shape
        if v == 0:
            raise InvalidInputError("trajectory logits have an empty vocabulary")
        positions = [-1] * b if positions is None else positions
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite row is refused just below
            lp = kernels.log_softmax_rows(logits.reshape(b * t, v)).reshape(b, t, v)
        finite = np.isfinite(lp).all(axis=(1, 2))
        if not finite.all():
            bad = positions[int(np.flatnonzero(~finite)[0])]
            raise InvalidInputError(f"trajectory at position {bad}: logits are not finite or log-softmax overflows")
        step_kl, step_move, terminal_gap = np.full((b, t), np.inf), np.full((b, t), np.inf), np.zeros((b, t))
        if t > 1:
            step_kl[:, 1:] = kl_from_log_probs_rows(
                lp[:, 1:].reshape(-1, v), lp[:, :-1].reshape(-1, v)).reshape(b, t - 1)
            step_move[:, 1:] = row_norms((logits[:, 1:] - logits[:, :-1]).reshape(-1, v)).reshape(b, t - 1)
            # lp_s - lp_{T-1} has the magnitude of lp_{T-1} - lp_s exactly; the terminal row's gap stays 0
            gap = lp[:, :-1]
            gap -= lp[:, -1:]
            np.abs(gap, out=gap)
            terminal_gap[:, :-1] = gap.max(axis=2)
        return [cls(kl, mv, gap, position=p, source=source)
                for kl, mv, gap, p in zip(step_kl, step_move, terminal_gap, positions)]


def _max_ratio(num: np.ndarray, den: np.ndarray, lock_step: int) -> float:
    """Largest per-pair ``num / den`` over a tail, by IEEE division: 0/0 is
    NaN, which ``fmax`` skips, and x/0 and an overflowing quotient are
    infinity; 0 if every pair was skipped."""
    if num.size == 0:
        raise InvalidInputError(f"no tail steps after lock step {lock_step}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(np.fmax.reduce(num / den, initial=0.0))


def estimate_smoothness(traj: Trajectory, lock_step: int) -> float:
    """Largest tail ratio of logit movement to sqrt of the prior step KL.

    Both come from the trajectory's per-step arrays, so the estimate is one
    pass over (T,) slices. A zero prior KL demands zero logit movement;
    otherwise the estimate is infinity (flagging a smoothness violation).
    """
    return _max_ratio(traj.step_move[lock_step:], np.sqrt(traj.step_kl[lock_step - 1 : -1]), lock_step)


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
    tail step whose KL is positive and at least the step before's (ratio >= 1).
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
    infinite gain gives an infinite right-hand side. Every statistic is
    read from the trajectory's (T,) per-step arrays: a check does no
    per-token work.
    """
    if traj.n_steps < 3:
        raise InvalidInputError("need at least 3 steps to check the bound")
    kl = traj.step_kl
    hits = np.flatnonzero(kl[1:] <= epsilon)
    if hits.size == 0:
        return BoundReport(status="no_lock", position=traj.position, source=traj.source)
    lock_step = int(hits[0]) + 2

    lock_kl = float(kl[lock_step - 1])
    lhs = float(traj.terminal_gap[lock_step - 1])
    common = {"lock_step": lock_step, "lock_kl": lock_kl, "lhs": lhs, "position": traj.position, "source": traj.source}
    if lock_step == traj.n_steps:
        # locking at the terminal step: the deviation is identically zero
        return BoundReport(status="ok", contraction=0.0, smoothness=0.0, gain=0.0, rhs=0.0,
                           holds=True, **common)

    rho = _max_ratio(kl[lock_step:], kl[lock_step - 1 : -1], lock_step)
    lsm = estimate_smoothness(traj, lock_step)
    if not rho < 1.0:
        tail = kl[lock_step - 1 :]
        growth = np.flatnonzero((tail[1:] >= tail[:-1]) & (tail[1:] > 0.0))
        return BoundReport(status="inapplicable", contraction=rho, smoothness=lsm,
                           growth_step=lock_step + 1 + int(growth[0]), **common)
    gain = tail_gain(LOG_SOFTMAX_LIPSCHITZ, lsm, rho)
    rhs = gain * math.sqrt(lock_kl) if math.isfinite(gain) else np.inf  # inf * sqrt(0) would be NaN
    return BoundReport(status="ok", contraction=rho, smoothness=lsm, gain=gain,
                       rhs=float(rhs), holds=bool(lhs <= rhs + BOUND_SLACK), **common)


def validate_synthetic(vocab_size: int, n_steps: int, contraction_target: float, magnitude: float) -> None:
    """Refuse a synthetic trajectory shape, or a magnitude that is not finite, before anything is drawn."""
    if not 0.0 < contraction_target < 1.0:
        raise InvalidInputError("contraction_target must lie in (0, 1)")
    require_finite("magnitude", magnitude)
    if n_steps < 4:
        raise InvalidInputError("need at least 4 steps")
    if vocab_size < 1:
        raise InvalidInputError(f"vocab_size must be at least 1, got {vocab_size}")
    if n_steps * vocab_size > MAX_TRAJECTORY_LOGITS:
        raise InvalidInputError(f"a trajectory of {n_steps} steps x {vocab_size} logits exceeds the cap of "
                                f"{MAX_TRAJECTORY_LOGITS} logits")


def synthetic_logits(seeds, vocab_size: int, n_steps: int, contraction_target: float,
                     magnitude: float) -> np.ndarray:
    """(B, T, V) synthetic logit paths z_s = anchor + magnitude * target^(s/2) * dir, one per seed.

    Consecutive logit differences decay geometrically with ratio exactly
    sqrt(target); for small magnitudes the KL tail then contracts at about
    ``target`` (KL is locally quadratic in the logit gap). Seed ``s`` draws
    its anchor from stream ``s`` and its direction from ``s ^ 0xD1FF``, in
    one draw for the whole batch; each slab equals the batch of one's.
    """
    validate_synthetic(vocab_size, n_steps, contraction_target, magnitude)
    seeds = list(seeds)
    draws = normals([*seeds, *(s ^ 0xD1FF for s in seeds)], vocab_size)
    anchor, direction = draws[: len(seeds)], draws[len(seeds) :]
    # row_norms matches np.linalg.norm of each row bit for bit; norm(axis=1) does not
    direction /= row_norms(direction)[:, None]
    offsets = magnitude * contraction_target ** (np.arange(1, n_steps + 1) / 2.0)
    return anchor[:, None, :] + offsets[None, :, None] * direction[:, None, :]


def simulate_trajectories(seeds, vocab_size: int, n_steps: int, contraction_target: float,
                          magnitude: float) -> list[Trajectory]:
    """``synthetic_logits`` scored as one batch; each equals ``simulate_trajectory(s, ...)`` bit for bit."""
    return Trajectory.from_logit_batch(synthetic_logits(seeds, vocab_size, n_steps, contraction_target, magnitude))


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


def trajectories_from_history(history, valid: np.ndarray) -> list[Trajectory]:
    """Per-position trajectories from a recorded run's posterior history.

    ``history`` is a ``sampler.PosteriorHistory`` or a dense (steps, N, V)
    array: either has a length, yields each step's (N, V) posterior in
    order and gives the last one at ``[-1]``. Only positions whose
    posterior is present at every step are returned (a baseline run
    computes every row every step, so that is all of them). The build is one
    pass over the steps: each takes the log-softmax of the kept rows, their
    KL to the step before, the norm of their movement and their sup gap to
    the final step's log-softmax, so only a few (N, V) arrays are held at a
    time. Every quantity is a per-row operation, so each trajectory equals
    ``Trajectory.from_logits`` of its own (steps, V) slice bit for bit, and
    a non-finite log-probability is refused naming the first such position,
    as ``Trajectory.from_logit_batch`` does. No trajectory keeps a view of
    the history.
    """
    keep = np.flatnonzero(valid.all(axis=0))
    t = len(history)
    shape = (keep.size, t)
    step_kl, step_move, terminal_gap = np.full(shape, np.inf), np.full(shape, np.inf), np.zeros(shape)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite row is refused below
        final = kernels.log_softmax_rows(history[-1][keep])
    bad = ~np.isfinite(final).all(axis=1)
    prev_z = prev_lp = None
    for s, z in enumerate(history):
        z = z[keep]
        with np.errstate(invalid="ignore", over="ignore"):
            lp = kernels.log_softmax_rows(z)
        bad |= ~np.isfinite(lp).all(axis=1)
        if bad.any():  # only the refusal is left to find: its first position
            continue
        if s > 0:
            step_kl[:, s] = kl_from_log_probs_rows(lp, prev_lp)
            step_move[:, s] = row_norms(z - prev_z)
        if s < t - 1:
            gap = lp - final
            np.abs(gap, out=gap)
            terminal_gap[:, s] = gap.max(axis=1)
        prev_z, prev_lp = z, lp
    if bad.any():
        raise InvalidInputError(f"trajectory at position {int(keep[np.flatnonzero(bad)[0]])}: logits are not "
                                f"finite or log-softmax overflows")
    return [Trajectory(kl, mv, gap, position=p, source="sampled")
            for kl, mv, gap, p in zip(step_kl, step_move, terminal_gap, keep.tolist())]


# ---------------------------------------------------------------------------
# model-wide Lipschitz constants

#: An upper bound on the SiLU's derivative. silu'(z) = s(z) (1 + z (1 - s(z))),
#: with s the logistic function, peaks at about 1.09984 near z = 2.3994.
SILU_DERIVATIVE_SUP = 1.1


@dataclass
class ConstantsReport:
    """Lipschitz bounds of a weight set, each from its weights in closed form.

    Every norm is exact (spectral norms are one LAPACK SVD each), so no field
    reports convergence. A layer's attention gain is ``||Wo|| * sqrt(sum_h
    A_h^2)`` over its heads' gains ``A_h``: the heads' outputs are
    concatenated before ``Wo``, so their movements add in quadrature, and the
    largest head alone can fall short by a factor of up to sqrt(H). The FFN
    gain (``ffn_gain``) and layer-norm gain (``layernorm_gain``) bound their
    maps' Jacobians, so every gain composed from them is a bound too.
    """

    embedding_gain: float  # sqrt(2) * ||E||_2: posterior drift -> input drift
    head_norm: float
    per_layer: list[dict]
    attention_gain: float  # worst layer A_mha = ||Wo|| * sqrt(sum_h A_h^2)
    ffn_gain: float  # worst layer gated-FFN bound on the input ball
    layernorm_gain: float  # worst layer max|gain| / sqrt(eps) (max of its two layer norms)
    block_gain: float  # worst layer (1 + mha * ln) * (1 + ffn * ln)
    network_gain: float  # head_norm * block_gain ** n_layers
    overall_gain: float  # network_gain * embedding_gain: the report's composed bound
    input_radius: float

    def to_dict(self) -> dict:
        return asdict(self)


def embedding_gain(embedding: np.ndarray) -> float:
    """sqrt(2) * spectral norm of the embedding: bounds expected-embedding
    movement by sqrt(KL) of the posterior movement (total variation route)."""
    return math.sqrt(2.0) * spectral_norm(embedding)


def attention_head_gain(wq_h: np.ndarray, wk_h: np.ndarray, wv_h: np.ndarray,
                        seq_len: int, radius: float, head_dim: int) -> float:
    """Single-head attention Lipschitz bound from weight operator norms and the
    softmax Jacobian's sup J = 1/2: ||Wv|| * (1 + ||Wq|| ||Wk|| J n R^2 / sqrt(d_k))."""
    sq, sk, sv = spectral_norm(wq_h), spectral_norm(wk_h), spectral_norm(wv_h)
    return sv * (1.0 + sq * sk * SOFTMAX_JACOBIAN_SUP * seq_len * radius * radius / math.sqrt(head_dim))


def _max_column_norm(mat: np.ndarray) -> float:
    """Largest column 2-norm of a finite matrix, taken on the matrix divided
    by its largest magnitude, so no square underflows or overflows."""
    top = float(np.abs(mat).max())
    return top * float(np.linalg.norm(mat / top, axis=0).max()) if top > 0.0 else 0.0


def ffn_gain(layer: LayerWeights, radius: float) -> float:
    """Lipschitz bound of ``model.feed_forward`` on rows in the ball of this radius.

    With g = x Wg and u = x Wu, moving x by dx moves ``(SiLU(g) * u) Wd`` by
    ``(SiLU'(g) * u * dx Wg + SiLU(g) * dx Wu) Wd``. Each unit has ``|u_j| <= R
    c(Wu)`` and ``|SiLU(g_j)| <= |g_j| <= R c(Wg)``, c the largest column 2-norm,
    and ``|SiLU'| <= S``, so the gain is at most ``R ||Wd|| (S c(Wu) ||Wg|| + c(Wg) ||Wu||)``.
    """
    return radius * spectral_norm(layer.w_down) * (
        SILU_DERIVATIVE_SUP * _max_column_norm(layer.w_up) * spectral_norm(layer.w_gate)
        + _max_column_norm(layer.w_gate) * spectral_norm(layer.w_up))


def layernorm_gain(gain: np.ndarray) -> float:
    """Lipschitz bound ``max|gain| / sqrt(eps)`` of ``kernels.layernorm_rows`` on every input.

    With c the centred row of width d and s = sqrt(var + eps), the Jacobian is
    ``diag(gain) (P - c c^T / (d s^2)) / s``, P the centring projection, whose
    middle factor has norm at most 1 (1 - var / s^2 along c, 1 or 0 elsewhere).
    """
    return float(np.abs(gain).max()) / math.sqrt(LAYERNORM_EPS)


def lipschitz_constants(
    w: Weights,
    input_radius: float,
    seq_len: int | None = None,
) -> ConstantsReport:
    """Compose per-layer bounds into one network-wide bound, ``overall_gain``.

    Attention and FFN gains bound their maps on rows inside ``input_radius``
    (a head's gain bounds its own output, and a layer's bounds its heads'
    concatenated outputs under ``Wo``); the layer-norm gain holds everywhere.
    A layer computes ``x += MHA(LN1 x)`` and then ``x += FFN(LN2 x)``, each with
    a residual, so its gain composes as ``(1 + mha * ln) * (1 + ffn * ln)`` with
    ``ln`` the larger of its two layer-norm gains. A report with a field
    that overflowed or is not finite, or a gain that underflowed to 0.0,
    raises ``InvalidStateError``.
    """
    if not 0.0 < input_radius < math.inf:
        raise InvalidInputError(f"input_radius must be positive and finite, got {input_radius}")
    cfg = w.config
    n = seq_len if seq_len is not None else cfg.max_seq
    dh = cfg.head_dim

    emb_gain = embedding_gain(w.embedding)
    head_norm = spectral_norm(w.head)

    per_layer = []
    for li, layer in enumerate(w.layers):
        head_gains = []
        for h in range(cfg.n_heads):
            g = h // cfg.group_size
            head_gains.append(attention_head_gain(
                layer.wq[:, h * dh : (h + 1) * dh],
                layer.wk[:, g * dh : (g + 1) * dh],
                layer.wv[:, g * dh : (g + 1) * dh],
                n, input_radius, dh,
            ))
        mha_gain = spectral_norm(layer.wo) * math.hypot(*head_gains)  # concatenated heads: root sum of squares
        ffn = ffn_gain(layer, input_radius)
        ln = max(layernorm_gain(layer.ln1_gain), layernorm_gain(layer.ln2_gain))
        per_layer.append({
            "layer": li,
            "attention_gain": mha_gain,
            "ffn_gain": ffn,
            "layernorm_gain": ln,
            "block_gain": (1.0 + mha_gain * ln) * (1.0 + ffn * ln),
        })

    att = max(p["attention_gain"] for p in per_layer)
    ffn_g = max(p["ffn_gain"] for p in per_layer)
    ln_g = max(p["layernorm_gain"] for p in per_layer)
    blk = max(p["block_gain"] for p in per_layer)
    try:
        net = head_norm * blk**cfg.n_layers
    except OverflowError:  # a float power raises where a product gives inf
        net = math.inf
    overall = net * emb_gain
    report = ConstantsReport(
        embedding_gain=emb_gain,
        head_norm=head_norm,
        per_layer=per_layer,
        attention_gain=att,
        ffn_gain=ffn_g,
        layernorm_gain=ln_g,
        block_gain=blk,
        network_gain=net,
        overall_gain=overall,
        input_radius=input_radius,
    )
    fields = {**report.to_dict(), **{f"per_layer[{p['layer']}].{k}": v for p in per_layer for k, v in p.items()}}
    bad = [name for name, v in fields.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise InvalidStateError(f"constants report is not finite in {', '.join(bad)}")
    # The attention, FFN and overall gains multiply norms, and a norm is 0.0
    # only for a zero matrix, so such a gain is positive unless a matrix it
    # multiplies is zero; a 0.0 where it must be positive underflowed. Every
    # other field is a norm times a factor of at least 1.
    positive = {"overall_gain": w.embedding.any() and w.head.any()}
    for li, layer in enumerate(w.layers):
        positive[f"per_layer[{li}].attention_gain"] = layer.wo.any() and layer.wv.any()
        positive[f"per_layer[{li}].ffn_gain"] = layer.w_down.any() and layer.w_up.any() and layer.w_gate.any()
    for name in ("attention_gain", "ffn_gain"):
        positive[name] = any(positive[f"per_layer[{li}].{name}"] for li in range(cfg.n_layers))
    underflowed = [name for name in fields if positive.get(name) and fields[name] == 0.0]
    if underflowed:
        raise InvalidStateError(f"constants report underflows to 0.0 in {', '.join(underflowed)}")
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

