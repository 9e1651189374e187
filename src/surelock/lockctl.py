"""Locking policy: the KL criterion, the confidence gate, and unlocking.

A position may lock once it is unmasked and its step-to-step posterior KL
falls below the policy threshold; an optional gate additionally restricts
candidates to the most confident fraction. A locked position is skipped by
later forwards, which read its K/V as of its last computation from the run's
store, and its reported log-posterior stays frozen. The optional unlock
protocol periodically probes locked rows with a fresh forward on a copy of
the store and releases those whose posterior has drifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from . import kernels
from .errors import ConfigError, InvalidInputError, InvalidStateError, require_finite, require_int
from .model import Weights, forward_partial
from .numkit import kl_from_log_probs_rows, percentile_nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from .sampler import SamplerState


@dataclass(frozen=True)
class LockPolicy:
    """Thresholds and toggles governing lock and unlock decisions.

    ``epsilon`` is the KL lock threshold and ``percentile`` the confidence
    gate cut (enabled via ``gate_enabled``). ``hybrid_fraction`` restricts
    per-step compute to that fraction of active rows in selection/hybrid
    modes. The unlock block: every ``probe_period`` steps locked rows are
    probed; a row unlocks when its proxy uncertainty exceeds the step's gate
    threshold, its drift exceeds ``epsilon_unlock``, and it has been locked
    strictly longer than ``min_locked_duration``. After an unlock the row
    cannot re-lock for ``relock_cooldown`` steps and must then pass the
    tightened threshold ``relock_tightening * epsilon``.
    """

    epsilon: float = 5e-3
    percentile: float = 20.0
    gate_enabled: bool = True
    hybrid_fraction: float | None = None
    unlock_enabled: bool = False
    probe_period: int = 4
    epsilon_unlock: float = 5e-2
    min_locked_duration: int = 2
    relock_cooldown: int = 4
    relock_tightening: float = 0.5

    def __post_init__(self):
        for name in ("epsilon", "percentile", "epsilon_unlock", "relock_tightening"):
            require_finite(name, getattr(self, name))
        if self.hybrid_fraction is not None:
            require_finite("hybrid_fraction", self.hybrid_fraction)
        for name in ("probe_period", "min_locked_duration", "relock_cooldown"):
            require_int(name, getattr(self, name))
        for name in ("gate_enabled", "unlock_enabled"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not 0.0 <= self.percentile <= 100.0:
            raise ConfigError("percentile must lie in [0, 100]")
        if not 0.0 < self.relock_tightening <= 1.0:
            raise ConfigError("relock_tightening must lie in (0, 1]")
        if min(self.probe_period, self.min_locked_duration, self.relock_cooldown) < 1:
            raise ConfigError("probe_period, min_locked_duration, relock_cooldown must be >= 1")
        if self.hybrid_fraction is not None and not 0.0 < self.hybrid_fraction <= 1.0:
            raise ConfigError("hybrid_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class LockEvent:
    position: int
    step: int
    kind: str  # "lock" | "unlock" | "relock"
    step_kl: float
    uncertainty: float


def uncertainty(log_probs: np.ndarray) -> float:
    """One minus the maximum probability of a log-posterior vector."""
    return float(1.0 - np.exp(np.max(log_probs)))


def threshold_for_deviation(delta: float, tail_gain: float) -> float:
    """KL threshold guaranteeing terminal log-prob deviation at most ``delta``.

    Inverts deviation = tail_gain * sqrt(KL): threshold = (delta/tail_gain)^2.
    """
    if tail_gain <= 0:
        raise InvalidInputError("tail_gain must be positive")
    if delta < 0:
        raise InvalidInputError("delta must be non-negative")
    return delta * delta / (tail_gain * tail_gain)


def evaluate_locks(
    candidates: Iterable[int],
    step_kl: Mapping[int, float],
    uncert: Mapping[int, float],
    policy: LockPolicy,
    t: int = 0,
    cooldown_until: Mapping[int, int] | None = None,
    ever_unlocked: frozenset[int] | set[int] = frozenset(),
) -> list[int]:
    """Positions among ``candidates`` that pass the lock test this step.

    The gate threshold is the nearest-rank percentile of candidate
    uncertainties. Positions still inside a re-lock cooldown are excluded
    outright; previously unlocked positions must meet the tightened KL
    threshold.
    """
    candidates = sorted(candidates)
    if not candidates:
        return []
    theta = percentile_nearest_rank([uncert[i] for i in candidates], policy.percentile)
    cooldown_until = cooldown_until or {}
    locked = []
    for i in candidates:
        if t <= cooldown_until.get(i, -1):
            continue
        eps = policy.epsilon * (policy.relock_tightening if i in ever_unlocked else 1.0)
        if step_kl[i] <= eps and (not policy.gate_enabled or uncert[i] <= theta):
            locked.append(i)
    return locked


def apply_locks(
    state: "SamplerState",
    to_lock: Iterable[int],
    computed: np.ndarray,
) -> None:
    """Set lock bits and record lock events.

    Every position must be among this step's ``computed`` rows, so the
    store already holds its lock-time K/V and ``log_post`` its posterior.
    """
    to_lock = sorted(to_lock)
    if not to_lock:
        return
    computed_rows = set(np.asarray(computed).tolist())
    for i in to_lock:
        if state.lock[i]:
            raise InvalidStateError(f"position {i} is already locked")
        if state.mask_flags[i]:
            raise InvalidStateError(f"position {i} is masked and cannot lock")
        if i not in computed_rows:
            raise InvalidStateError(f"position {i} was not computed this step")
        if not state.log_post_valid[i]:
            raise InvalidStateError(f"position {i} has no posterior to freeze")

    t = state.t
    for i in to_lock:
        state.lock[i] = True
        state.lock_step[i] = t
        kind = "relock" if i in state.ever_unlocked else "lock"
        state.events.append(
            LockEvent(position=i, step=t, kind=kind, step_kl=state.last_step_kl.get(i, float("inf")),
                      uncertainty=state.last_uncertainty.get(i, float("nan")))
        )


def probe_unlock(
    state: "SamplerState",
    w: Weights,
    policy: LockPolicy,
    gate_threshold: float,
    counter=None,
    rows: Iterable[int] | None = None,
) -> list[int]:
    """Locked rows whose probe shows drift past the unlock thresholds.

    Runs a full-depth forward restricted to the locked query rows on a copy
    of the K/V store (all other rows supply their latest stored K/V, and the
    probe's fresh K/V is discarded), compares the proxy posterior
    against the posterior frozen at lock time, and returns the rows where
    proxy uncertainty exceeds ``gate_threshold``, drift exceeds
    ``epsilon_unlock``, and the lock age strictly exceeds
    ``min_locked_duration``. The caller applies the release.
    """
    locked = np.flatnonzero(state.lock)
    if rows is None:
        rows = locked
    else:
        rows = np.asarray(sorted(rows), dtype=np.intp)
        if np.any(~state.lock[rows]):
            bad = rows[~state.lock[rows]].tolist()
            raise InvalidStateError(f"probe requested on unlocked rows {bad}")
    if rows.size == 0:
        return []

    result = forward_partial(w, state.tokens, state.mask_flags, rows, state.stale_view(), counter=counter)
    proxy_lp = kernels.log_softmax_rows(result.logits)
    frozen_lp = state.log_post[rows]
    drift = kl_from_log_probs_rows(proxy_lp, frozen_lp)

    out = []
    state.probe_diagnostics = {}
    for r, i in enumerate(rows):
        i = int(i)
        proxy_u = uncertainty(proxy_lp[r])
        state.probe_diagnostics[i] = (float(drift[r]), proxy_u)
        age = state.t - state.lock_step[i]
        if proxy_u > gate_threshold and drift[r] > policy.epsilon_unlock and age > policy.min_locked_duration:
            out.append(i)
    return out
