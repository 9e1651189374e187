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
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import kernels
from .errors import ConfigError, InvalidStateError, require_finite, require_int
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


def uncertainty_rows(log_probs: np.ndarray) -> np.ndarray:
    """One minus the maximum probability of each row of log-posteriors."""
    return 1.0 - np.exp(log_probs.max(axis=1))


def evaluate_locks(
    candidates: np.ndarray,
    step_kl: np.ndarray,
    uncert: np.ndarray,
    policy: LockPolicy,
    t: int,
    cooldown_until: np.ndarray,
    ever_unlocked: np.ndarray,
) -> list[int]:
    """Positions among ``candidates`` that pass the lock test at step ``t``,
    in ascending order. The four arrays are (N,) and indexed by position.

    The gate threshold is the nearest-rank percentile of candidate
    uncertainties. Positions still inside a re-lock cooldown are excluded
    outright; previously unlocked positions must meet the tightened KL
    threshold.
    """
    candidates = np.unique(np.asarray(candidates, dtype=np.intp))
    if candidates.size == 0:
        return []
    u = uncert[candidates]
    eps = np.where(ever_unlocked[candidates], policy.epsilon * policy.relock_tightening, policy.epsilon)
    passed = (step_kl[candidates] <= eps) & (t > cooldown_until[candidates])
    if policy.gate_enabled:
        passed &= u <= percentile_nearest_rank(u, policy.percentile)
    return candidates[passed].tolist()


def apply_locks(
    state: "SamplerState",
    to_lock: Iterable[int],
    computed: np.ndarray,
    step_kl: np.ndarray,
    uncert: np.ndarray,
) -> None:
    """Set lock bits and record lock events, each carrying its row's entry
    of this step's (N,) ``step_kl`` and ``uncert``.

    Every position must be among this step's ``computed`` rows, so the
    store already holds its lock-time K/V and ``log_post`` its posterior.
    """
    to_lock = np.unique(np.asarray(to_lock, dtype=np.intp))
    for refused, why in (
        (state.lock[to_lock], "already locked"),
        (state.mask_flags[to_lock], "still masked"),
        (~np.isin(to_lock, computed), "not computed this step"),
        (~state.kv.valid[to_lock], "no posterior to freeze"),
    ):
        if refused.any():
            raise InvalidStateError(f"cannot lock positions {to_lock[refused].tolist()}: {why}")

    t = state.t
    state.lock[to_lock] = True
    state.lock_step[to_lock] = t
    for i in to_lock.tolist():
        state.events.append(LockEvent(
            position=i, step=t, kind="relock" if state.ever_unlocked[i] else "lock",
            step_kl=float(step_kl[i]), uncertainty=float(uncert[i]),
        ))


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
    ``min_locked_duration``. Each probed row's drift and proxy uncertainty
    are kept in ``state.probe_drift`` and ``state.probe_uncertainty``. The
    caller applies the release.
    """
    if rows is None:
        rows = np.flatnonzero(state.lock)
    else:
        rows = np.asarray(sorted(rows), dtype=np.intp)
        if np.any(~state.lock[rows]):
            bad = rows[~state.lock[rows]].tolist()
            raise InvalidStateError(f"probe requested on unlocked rows {bad}")
    if rows.size == 0:
        return []

    logits = forward_partial(w, state.tokens, state.mask_flags, rows, state.stale_view(), counter=counter)
    proxy_lp = kernels.log_softmax_rows(logits)
    drift = kl_from_log_probs_rows(proxy_lp, state.log_post[rows])
    proxy_u = uncertainty_rows(proxy_lp)
    state.probe_drift.fill(np.nan)
    state.probe_uncertainty.fill(np.nan)
    state.probe_drift[rows] = drift
    state.probe_uncertainty[rows] = proxy_u
    age = state.t - state.lock_step[rows]
    unlock = (proxy_u > gate_threshold) & (drift > policy.epsilon_unlock) & (age > policy.min_locked_duration)
    return rows[unlock].tolist()
