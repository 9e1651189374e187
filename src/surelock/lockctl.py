"""Locking policy: the KL criterion, the confidence gate, and unlocking.

A position may lock once it is unmasked and its step-to-step posterior KL
falls below the policy threshold; an optional gate additionally restricts
candidates to the most confident fraction. A locked position is skipped by
later forwards, which read its K/V as of its last computation from the run's
store, and its reported log-posterior stays frozen. The optional unlock
protocol periodically probes locked rows with a fresh forward on a copy of
the store and releases those whose posterior has drifted.

Each decision returns the ``LockEvent``s it decides, carrying the facts it
was decided on: ``evaluate_locks`` the lock and relock events, and
``probe_unlock`` the unlock events. The state mutators (``apply_locks`` and
``SamplerState.release_locks``) only apply those events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import kernels
from .errors import ConfigError, InvalidStateError, require_fields
from .kernels import kl_from_log_probs_rows, percentile_nearest_rank
from .model import Weights, forward_partial

if TYPE_CHECKING:  # pragma: no cover
    from .sampler import SamplerState

#: the factor on ``epsilon`` a previously unlocked row must meet to lock again
RELOCK_TIGHTENING = 0.5


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
    tightened threshold ``RELOCK_TIGHTENING * epsilon``.
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

    def __post_init__(self):
        require_fields(LockPolicy, vars(self))
        if not 0.0 <= self.percentile <= 100.0:
            raise ConfigError("percentile must lie in [0, 100]")
        if min(self.probe_period, self.min_locked_duration, self.relock_cooldown) < 1:
            raise ConfigError("probe_period, min_locked_duration, relock_cooldown must be >= 1")
        if self.hybrid_fraction is not None and not 0.0 < self.hybrid_fraction <= 1.0:
            raise ConfigError("hybrid_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class LockEvent:
    """One lock decision about one position at one step. A lock or relock
    carries the position's step KL and uncertainty; an unlock carries its
    probe's drift and proxy uncertainty."""

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
) -> list[LockEvent]:
    """Events for the positions among ``candidates`` that pass the lock test
    at step ``t``, in ascending position order, each carrying its entries of
    ``step_kl`` and ``uncert``. The three arrays are (N,) and indexed by
    position.

    The gate threshold is the nearest-rank percentile of candidate
    uncertainties. Positions still inside a re-lock cooldown are excluded
    outright. A previously unlocked position (``cooldown_until >= 0``) must
    meet the tightened KL threshold, and its event is a relock; this is the
    one place that rule is read.
    """
    candidates = np.unique(np.asarray(candidates, dtype=np.intp))
    if candidates.size == 0:
        return []
    u = uncert[candidates]
    released = cooldown_until[candidates] >= 0
    eps = np.where(released, policy.epsilon * RELOCK_TIGHTENING, policy.epsilon)
    passed = (step_kl[candidates] <= eps) & (t > cooldown_until[candidates])
    if policy.gate_enabled:
        passed &= u <= percentile_nearest_rank(u, policy.percentile)
    return [
        LockEvent(position=i, step=t, kind="relock" if again else "lock",
                  step_kl=float(step_kl[i]), uncertainty=float(uncert[i]))
        for i, again in zip(candidates[passed].tolist(), released[passed].tolist())
    ]


def apply_locks(state: "SamplerState", events: list[LockEvent], computed: np.ndarray) -> None:
    """Lock the positions of ``events`` at the current step and record the
    events.

    Every position must be among this step's ``computed`` rows, so the
    store already holds its lock-time K/V and ``log_post`` its posterior.
    """
    to_lock = np.asarray([e.position for e in events], dtype=np.intp)
    for refused, why in (
        (state.lock[to_lock], "already locked"),
        (state.masked[to_lock], "still masked"),
        (~np.isin(to_lock, computed), "not computed this step"),
    ):
        if refused.any():
            raise InvalidStateError(f"cannot lock positions {to_lock[refused].tolist()}: {why}")
    state.lock_step[to_lock] = state.t
    state.events.extend(events)


def probe_unlock(
    state: "SamplerState",
    w: Weights,
    policy: LockPolicy,
    gate_threshold: float,
    counter=None,
    rows: Iterable[int] | None = None,
) -> list[LockEvent]:
    """Unlock events for the locked rows whose probe shows drift past the
    unlock thresholds.

    Runs a full-depth forward restricted to the locked query rows on a copy
    of the K/V store (all other rows supply their latest stored K/V, and the
    probe's fresh K/V is discarded), compares the proxy posterior
    against the posterior frozen at lock time, and returns an event, in
    ascending position order, for each row where proxy uncertainty exceeds
    ``gate_threshold``, drift exceeds ``epsilon_unlock``, and the lock age
    strictly exceeds ``min_locked_duration``. Each event carries its row's
    drift and proxy uncertainty. The caller applies the release.
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

    logits = forward_partial(w, state.tokens, state.masked, rows, state.stale_view(), counter=counter)
    proxy_lp = kernels.log_softmax_rows(logits)
    drift = kl_from_log_probs_rows(proxy_lp, state.log_post[rows])
    proxy_u = uncertainty_rows(proxy_lp)
    age = state.t - state.lock_step[rows]
    unlock = (proxy_u > gate_threshold) & (drift > policy.epsilon_unlock) & (age > policy.min_locked_duration)
    return [
        LockEvent(position=i, step=state.t, kind="unlock", step_kl=d, uncertainty=u)
        for i, d, u in zip(rows[unlock].tolist(), drift[unlock].tolist(), proxy_u[unlock].tolist())
    ]
