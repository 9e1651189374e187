"""Iterative masked-diffusion sampling with optional position locking.

Four modes share one step routine:

  baseline   every non-locked position is computed, nothing ever locks
  surelock   KL-gated permanent locking; locked rows are skipped and serve
             their stored K/V
  selection  only the most volatile fraction of active rows is computed
             each step; the rest reuse stale posteriors and K/V
  hybrid     selection restricted to non-locked rows, plus locking

Each step embeds the current token sequence, runs the row-partitioned
forward (which refreshes the computed rows in the run's one K/V store),
commits the scheduled number of highest-confidence masked positions,
evaluates the lock rule on freshly computed unmasked rows, and (optionally,
every probe period) probes locked rows for unlocking. All randomness flows
from one splitmix64 stream per run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, InvalidInputError, InvalidStateError, require_fields, require_seed
from .flops import GemmCounter, per_row_step_flops
from .kernels import kl_from_log_probs_rows, percentile_nearest_rank
from .lockctl import LockEvent, LockPolicy, apply_locks, evaluate_locks, probe_unlock, uncertainty_rows
from .model import KVStore, Weights, forward_partial
from .prng import SplitMix64

MODES = ("baseline", "surelock", "selection", "hybrid")
LOCKING_MODES = ("surelock", "hybrid")
SELECTING_MODES = ("selection", "hybrid")


@dataclass(frozen=True)
class RunConfig:
    """Shape and policy of one sampling run."""

    n_prompt: int
    n_gen: int
    steps: int
    policy: LockPolicy = field(default_factory=LockPolicy)
    mode: str = "baseline"
    block_length: int | None = None
    temperature: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_fields(RunConfig, vars(self))
        require_seed("seed", self.seed)
        if self.mode not in MODES:
            raise ConfigError(f"mode {self.mode!r} not one of {MODES}")
        if self.n_prompt < 0 or self.n_gen < 1:
            raise ConfigError("need n_prompt >= 0 and n_gen >= 1")
        if not 1 <= self.steps <= self.n_gen:
            raise ConfigError(f"steps={self.steps} must lie in [1, n_gen={self.n_gen}]")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        bl = self.block_length
        if bl is not None:
            if bl < 1 or self.n_gen % bl != 0:
                raise ConfigError(f"block_length={bl} must divide n_gen={self.n_gen}")
            n_blocks = self.n_gen // bl
            if self.steps % n_blocks != 0:
                raise ConfigError(f"steps={self.steps} must split evenly over {n_blocks} blocks")
            if self.steps // n_blocks > bl:
                raise ConfigError("more steps per block than positions to unmask")
        if self.mode in SELECTING_MODES and self.policy.hybrid_fraction is None:
            raise ConfigError(f"mode {self.mode!r} requires policy.hybrid_fraction")

    @property
    def n_positions(self) -> int:
        return self.n_prompt + self.n_gen


def unmask_schedule(n_gen: int, steps: int) -> list[int]:
    """Balanced per-step unmask counts: first n_gen % steps steps get the
    ceiling, the rest the floor; the counts sum to n_gen."""
    if not 1 <= steps <= n_gen:
        raise ConfigError(f"steps={steps} must lie in [1, n_gen={n_gen}]")
    base, rem = divmod(n_gen, steps)
    return [base + 1] * rem + [base] * (steps - rem)


def select_compute_rows(active: np.ndarray, last_step_kl: np.ndarray, fraction: float) -> np.ndarray:
    """The ceil(fraction * |active|) rows with the largest last observed
    step KL (``last_step_kl`` is indexed by position), ties to the lowest
    index; rows never scored hold +inf, so they rank first."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidInputError(f"fraction={fraction} outside (0, 1]")
    active = np.asarray(active, dtype=np.intp)
    count = math.ceil(fraction * active.size)
    ranked = np.lexsort((active, -last_step_kl[active]))
    return np.sort(active[ranked[:count]])


def update_mask(
    log_post: np.ndarray,
    mask_flags: np.ndarray,
    k_t: int,
    block: tuple[int, int],
    temperature: float,
    rng: SplitMix64,
    mask_id: int | None = None,
) -> tuple[list[int], list[int]]:
    """Choose the k_t highest-confidence masked in-block positions, in
    ascending order, and the token committed at each (argmax at temperature
    0, tempered categorical draw otherwise). Ties break toward the lowest
    position index; draws happen in ascending position order. The mask id
    is an absorbing-state marker, not vocabulary, so it is never committed:
    confidence and draws range over the other ids. A tempered distribution
    that is not finite raises ``InvalidStateError``. Does not mutate any
    input."""
    lo, hi = block
    in_block = lo + np.flatnonzero(mask_flags[lo:hi])
    if k_t > in_block.size:
        raise InvalidStateError(f"asked to unmask {k_t} of {in_block.size} masked positions")
    ids = np.arange(log_post.shape[1])
    if mask_id is not None:
        ids = ids[ids != mask_id]
    restricted = log_post[np.ix_(in_block, ids)]
    confidence = np.exp(restricted.max(axis=1))
    picked = np.sort(np.lexsort((in_block, -confidence))[:k_t])
    chosen = in_block[picked].tolist()

    if temperature == 0.0:
        tokens = ids[np.argmax(restricted[picked], axis=1)].tolist()
    else:
        tokens = []
        for row in restricted[picked]:
            with np.errstate(over="ignore"):  # an overflowing quotient is -inf; no finite top is refused below
                tempered = row / temperature
            top = tempered.max()
            if not np.isfinite(top):  # e.g. a temperature so small every logit overflows
                raise InvalidStateError(f"temperature {temperature} gives a non-finite distribution")
            probs = np.exp(tempered - top)
            probs /= probs.sum()
            tokens.append(int(ids[rng.categorical(probs)]))
    return chosen, tokens


@dataclass
class SamplerState:
    """Mutable per-run state; one writer at a time. Every per-position
    quantity is one (N,) array indexed by position."""

    tokens: np.ndarray  # (N,) token ids; masked positions carry mask_id
    unmask_step: np.ndarray  # (N,) int, the step a row was committed at; 0 for the prompt, -1 while masked
    lock_step: np.ndarray  # (N,) int, the step a locked row locked at; -1 when not locked
    kv: KVStore  # every row's last computed K/V, written by each forward (step 1 writes all rows)
    log_post: np.ndarray  # (N, V) latest reported log-posteriors
    last_step_kl: np.ndarray  # (N,) latest step KL; +inf until scored and again after a release
    cooldown_until: np.ndarray  # (N,) int, last step of the latest re-lock cooldown; -1 until first released
    events: list[LockEvent]
    rng: SplitMix64
    t: int = 0

    @classmethod
    def fresh(cls, run: RunConfig, w: Weights, prompt: np.ndarray) -> "SamplerState":
        cfg = w.config
        n = run.n_positions
        if n > cfg.max_seq:
            raise ConfigError(f"{n} positions exceed max_seq={cfg.max_seq}")
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.shape != (run.n_prompt,):
            raise InvalidInputError(f"prompt length {prompt.shape} != n_prompt={run.n_prompt}")
        if prompt.size and (prompt.min() < 0 or prompt.max() >= cfg.vocab_size):
            raise InvalidInputError("prompt token ids outside vocabulary")
        if np.any(prompt == cfg.mask_id):
            raise InvalidInputError("prompt may not contain the mask token")

        tokens = np.full(n, cfg.mask_id, dtype=np.int64)
        tokens[: run.n_prompt] = prompt
        unmask_step = np.zeros(n, dtype=np.int64)
        unmask_step[run.n_prompt :] = -1
        return cls(
            tokens=tokens,
            unmask_step=unmask_step,
            lock_step=np.full(n, -1, dtype=np.int64),
            kv=KVStore.empty(cfg, n),
            log_post=np.full((n, cfg.vocab_size), np.nan),
            last_step_kl=np.full(n, np.inf),
            cooldown_until=np.full(n, -1, dtype=np.int64),
            events=[],
            rng=SplitMix64(run.seed),
        )

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def masked(self) -> np.ndarray:
        """(N,) bool, True while masked: a read-only view of ``unmask_step``."""
        masked = self.unmask_step < 0
        masked.flags.writeable = False
        return masked

    @property
    def lock(self) -> np.ndarray:
        """(N,) bool, True while locked: a read-only view of ``lock_step``."""
        lock = self.lock_step >= 0
        lock.flags.writeable = False
        return lock

    def stale_view(self) -> KVStore:
        """A private copy of the K/V store, for a forward whose K/V must not
        persist (the unlock probe): every row reads its most recent K/V, and
        locked rows' entries are their lock-time values."""
        return self.kv.copy()

    def release_locks(self, events: list[LockEvent], policy: LockPolicy) -> None:
        """Apply unlock ``events`` and record them: each position's lock state
        clears, and its cooldown timer starts. The row's stored K/V and its
        reported log-posterior stay as they are until it is next computed."""
        rows = np.asarray([e.position for e in events], dtype=np.intp)
        if not self.lock[rows].all():
            raise InvalidStateError(f"cannot unlock positions {rows[~self.lock[rows]].tolist()}: not locked")
        self.lock_step[rows] = -1
        self.cooldown_until[rows] = self.t + policy.relock_cooldown
        self.last_step_kl[rows] = np.inf  # rank as unscored if selection resumes
        self.events.extend(events)


@dataclass
class StepRecord:
    """The row counts, FLOPs and scores of one diffusion step. The positions it
    commits, locks and unlocks are held once, by ``unmask_step`` and the events."""

    t: int
    active_rows: int  # M_t: non-locked positions at step start
    computed_rows: int  # C_t: rows actually pushed through the model
    flops_counted: int
    head_flops: int
    probe_flops: int
    step_kl: np.ndarray  # (N,) this step's KL per position; NaN on rows not computed
    uncert: np.ndarray  # (N,) this step's uncertainty per position; NaN likewise
    mean_step_kl: float | None
    wall_seconds: float


def step(
    state: SamplerState,
    run: RunConfig,
    w: Weights,
    k_t: int,
    block: tuple[int, int],
) -> StepRecord:
    """Advance the sampler by one diffusion step, mutating ``state``. The
    step counts its own GEMMs: its record's FLOPs are its counters' totals."""
    t0 = time.perf_counter()
    counter, probe_counter = GemmCounter(), GemmCounter()
    cfg = w.config
    policy = run.policy
    state.t += 1
    t = state.t
    n = state.n

    active = np.flatnonzero(~state.lock)
    m_t = int(active.size)
    fraction = policy.hybrid_fraction if run.mode in SELECTING_MODES else 1.0
    # step 1 computes every row, so each later step has a posterior and K/V
    # to reuse for any row; at fraction 1 the rule returns ``active`` itself
    computed = active if t == 1 else select_compute_rows(active, state.last_step_kl, fraction)

    logits = forward_partial(w, state.tokens, state.masked, computed, state.kv, counter=counter)
    if not np.isfinite(logits).all():
        raise InvalidStateError(f"step {t}: the forward produced non-finite logits")
    lp = kernels.log_softmax_rows(logits)

    # step KL against each row's previous reported posterior; there is none at step 1
    kl_vals = np.full(computed.size, np.inf) if t == 1 else kl_from_log_probs_rows(lp, state.log_post[computed])
    u_vals = uncertainty_rows(lp)

    state.log_post[computed] = lp

    step_kl = np.full(n, np.nan)
    uncert = np.full(n, np.nan)
    step_kl[computed] = kl_vals
    uncert[computed] = u_vals
    state.last_step_kl[computed] = kl_vals

    chosen, committed = update_mask(state.log_post, state.masked, k_t, block, run.temperature, state.rng,
                                    mask_id=cfg.mask_id)
    state.tokens[chosen] = committed
    state.unmask_step[chosen] = t

    if run.mode in LOCKING_MODES:
        candidates = computed[~state.masked[computed]]
        locked = evaluate_locks(candidates, step_kl, uncert, policy, t=t, cooldown_until=state.cooldown_until)
        apply_locks(state, locked, computed)

    if policy.unlock_enabled and t % policy.probe_period == 0 and state.lock.any():
        gate_threshold = percentile_nearest_rank(u_vals, policy.percentile)
        state.release_locks(probe_unlock(state, w, policy, gate_threshold, counter=probe_counter), policy)

    # summed in ascending position order, which the trace bytes depend on
    finite_unmasked = kl_vals[~state.masked[computed] & np.isfinite(kl_vals)]
    mean_kl = float(np.mean(finite_unmasked)) if finite_unmasked.size else None

    return StepRecord(
        t=t,
        active_rows=m_t,
        computed_rows=int(computed.size),
        flops_counted=counter.flops,
        head_flops=counter.head_flops,
        probe_flops=probe_counter.flops,
        step_kl=step_kl,
        uncert=uncert,
        mean_step_kl=mean_kl,
        wall_seconds=time.perf_counter() - t0,
    )


@dataclass
class RunResult:
    """A finished run. Its row totals are sums over ``trace``, the run's one
    per-step ledger of row counts; the positions each step committed, locked
    or unlocked are held only by ``unmask_step`` and ``events``. A step that
    computes C of N rows costs exactly C * ``row_flops`` GEMM FLOPs, so every
    closed-form FLOPs figure is that field times a row count."""

    tokens: np.ndarray
    unmask_step: np.ndarray  # (N,) the step each position was committed at; 0 for the prompt
    trace: list[StepRecord]
    row_flops: int  # per_row_step_flops(config, N): the GEMM cost of one computed row
    events: list[LockEvent]
    wall_seconds: float
    # (S, N, V) reported log-posteriors: a transposed view of a position-major
    # (N, S, V) block, so each position's trajectory history[:, i] is contiguous
    history: np.ndarray | None = None
    history_valid: np.ndarray | None = None  # (S, N)

    @property
    def total_flops_base(self) -> int:
        return len(self.trace) * len(self.tokens) * self.row_flops

    @property
    def total_flops_actual(self) -> int:
        return self.row_flops * sum(r.computed_rows for r in self.trace)

    @property
    def ratio(self) -> float:
        """The run's F_actual / F_base: exactly the micro-average of C_t / N over steps."""
        return self.total_flops_actual / self.total_flops_base

    @property
    def total_head_flops(self) -> int:
        return sum(r.head_flops for r in self.trace)

    @property
    def total_probe_flops(self) -> int:
        return sum(r.probe_flops for r in self.trace)

    @property
    def active_ratio(self) -> float:
        """Micro-average of M_t / N over steps."""
        return sum(r.active_rows for r in self.trace) / (len(self.trace) * len(self.tokens))

    @property
    def counter_matches(self) -> bool:
        """The instrumented GEMM count equals the closed-form cost at every step."""
        return all(r.flops_counted == r.computed_rows * self.row_flops for r in self.trace)

    @property
    def e2e_tps(self) -> float:
        produced = int(np.count_nonzero(self.unmask_step))  # every position but the prompt's
        return produced / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    def step_tps(self) -> list[float]:
        commits = np.bincount(self.unmask_step, minlength=len(self.trace) + 1)[1:].tolist()
        return [c / r.wall_seconds if r.wall_seconds > 0 else float("inf") for c, r in zip(commits, self.trace)]


def run_sampler(
    run: RunConfig,
    w: Weights,
    prompt: np.ndarray,
    record_trajectories: bool = False,
) -> RunResult:
    """Run the configured sampler to completion.

    The generation region starts fully masked; prompt positions are
    unmasked from the start (and become lock candidates once step KL is
    defined). Blocks, when shorter than the generation region, are
    processed left to right with the step budget split evenly among them.
    """
    state = SamplerState.fresh(run, w, prompt)
    n = state.n
    block_len = run.block_length or run.n_gen
    n_blocks = run.n_gen // block_len
    steps_per_block = run.steps // n_blocks
    schedule = unmask_schedule(block_len, steps_per_block)

    records: list[StepRecord] = []
    history = (np.full((n, run.steps, w.config.vocab_size), np.nan).transpose(1, 0, 2)
               if record_trajectories else None)
    history_valid = np.zeros((run.steps, n), dtype=bool) if record_trajectories else None

    t_start = time.perf_counter()
    for b in range(n_blocks):
        block = (run.n_prompt + b * block_len, run.n_prompt + (b + 1) * block_len)
        for k_t in schedule:
            records.append(step(state, run, w, k_t, block))
            if record_trajectories:
                history[state.t - 1] = state.log_post
                history_valid[state.t - 1] = state.kv.valid
    wall = time.perf_counter() - t_start

    if state.masked.any():
        raise InvalidStateError("schedule finished with masked positions remaining")

    return RunResult(
        tokens=state.tokens.copy(),
        unmask_step=state.unmask_step.copy(),
        trace=records,
        row_flops=per_row_step_flops(w.config, n),
        events=list(state.events),
        wall_seconds=wall,
        history=history,
        history_valid=history_valid,
    )
