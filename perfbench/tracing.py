"""Per-layer tracing of surelock from outside the package.

A traced round swaps module attributes for timing wrappers at the call sites
the package itself uses, and restores them afterwards; nothing under ``src/``
changes and outputs must stay byte-identical (the runner checks digests).

* ``sampler`` imports ``forward_partial``, ``evaluate_locks``, ``apply_locks``,
  ``probe_unlock`` and ``kl_from_log_probs_rows`` by name, so they are patched
  in ``surelock.sampler``; ``surelock.lockctl.forward_partial`` is the probe
  forward. ``model`` calls ``kernels.*`` through the module, so the kernels
  are patched in ``surelock.kernels``. Methods are patched on their class.
* Phase boundaries inside ``forward_partial`` come from its public ``counter``
  hook: ``surelock.sampler.GemmCounter`` is replaced by a subclass that
  timestamps every gemm call. Per layer the calls arrive as Q, K, V, two per
  head for attention, the output projection, up, gate and down, then the head
  once per forward. Together with the layer-norm and attention kernel spans
  this splits the forward into the named phases below; the remainder
  (validation, embedding, result assembly) is reported as uncovered.
"""

from __future__ import annotations

import time
from collections import defaultdict

import surelock.analysis
import surelock.cli
import surelock.kernels
import surelock.lockctl
import surelock.prng
import surelock.sampler

perf = time.perf_counter

PHASES = ("ln", "qkv", "kv_assemble", "attention", "out_proj", "ffn", "head")
FLOAT_BYTES = 8


class TraceError(RuntimeError):
    """The forward's call sequence no longer matches the phase map."""


def _forward_plan(cfg, n: int, c: int) -> list[tuple[str, tuple | None, str | None, str | None]]:
    """Expected (event, gemm shape, phase of the gap before it, phase of its own span)
    for one ``forward_partial`` call over ``c`` computed rows of ``n``."""
    d, kv, dh, dff = cfg.d_model, cfg.kv_dim, cfg.head_dim, cfg.d_ff
    plan = []
    for layer in range(cfg.n_layers):
        # before the first layer norm: validation and embedding (uncovered);
        # before a later one: the previous layer's FFN residual add
        plan.append(("ln", None, None if layer == 0 else "ffn", "ln"))
        plan.append(("gemm", (c, d, d), "qkv", None))
        plan.append(("gemm", (c, kv, d), "qkv", None))
        plan.append(("gemm", (c, kv, d), "qkv", None))
        # per-layer cache copy and scatter of fresh K/V rows
        plan.append(("attn", None, "kv_assemble", "attention"))
        for _ in range(cfg.n_heads):
            plan.append(("gemm", (c, n, dh), "attention", None))
            plan.append(("gemm", (c, dh, n), "attention", None))
        plan.append(("gemm", (c, d, d), "out_proj", None))
        plan.append(("ln", None, "out_proj", "ln"))  # gap: attention residual add
        plan.append(("gemm", (c, dff, d), "ffn", None))
        plan.append(("gemm", (c, dff, d), "ffn", None))
        plan.append(("gemm", (c, d, dff), "ffn", None))
    plan.append(("head", (c, cfg.vocab_size, d), "head", None))
    return plan


class Tracer:
    """Accumulates span times and counts while installed.

    Every key is accumulated globally and, when ``mode`` is set, also under
    ``<mode>.<key>``. A span's self time is its duration minus the time of
    the traced spans it directly encloses.
    """

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.mode: str | None = None
        self._stack: list[float] = []
        self._timeline: list | None = None
        self._patches: list = []
        self._plans: dict = {}

    # -- bookkeeping ------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value
        if self.mode is not None:
            self.totals[f"{self.mode}.{key}"] += value

    def _mark(self, event: str, begin: float, end: float, shape: tuple | None = None) -> None:
        if self._timeline is not None:
            self._timeline.append((event, begin, end, shape))

    def _timed(self, name: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += t1 - t0
            tracer.add(f"{name}.s", t1 - t0)
            tracer.add(f"{name}.self_s", t1 - t0 - child)
            tracer.add(f"{name}.calls", 1)
            if after is not None:
                after(args, kwargs, t0, t1)
            return out

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- forward phases -------------------------------------------------------

    def _forward_before(self, args, kwargs) -> None:
        self._timeline = []

    def _forward_after(self, probe: bool):
        def after(args, kwargs, t0, t1):
            w, tokens, _mask, active = args[:4]
            timeline, self._timeline = self._timeline, None
            self._account_forward(w.config, len(tokens), len(active), timeline, t0, t1)
            self.add("model.rows", len(active))
            if probe:
                self.add("lockctl.probe_forward.s", t1 - t0)
                self.add("lockctl.probe_rows", len(active))

        return after

    def _account_forward(self, cfg, n: int, c: int, timeline: list, t0: float, t1: float) -> None:
        key = (cfg, n, c)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _forward_plan(cfg, n, c)
        if len(timeline) != len(plan):
            raise TraceError(f"forward emitted {len(timeline)} events, phase map expects {len(plan)}")
        prev = t0
        flops = 0
        for (event, begin, end, shape), (want, want_shape, gap_phase, own_phase) in zip(timeline, plan):
            if event != want or (want_shape is not None and shape != want_shape):
                raise TraceError(f"forward event {event}{shape} where the phase map expects {want}{want_shape}")
            if gap_phase is not None:
                self.add(f"model.phase.{gap_phase}.s", begin - prev)
            if own_phase is not None:
                self.add(f"model.phase.{own_phase}.s", end - begin)
            if shape is not None:
                flops += 2 * shape[0] * shape[1] * shape[2]
            prev = end
        self.add("model.gemm_flops", flops)

    def _counter_class(self, base):
        tracer = self

        class TimedGemmCounter(base):
            def gemm(self, m, n, k):
                t = perf()
                tracer._mark("gemm", t, t, (m, n, k))
                super().gemm(m, n, k)

            def gemm_head(self, m, n, k):
                t = perf()
                tracer._mark("head", t, t, (m, n, k))
                super().gemm_head(m, n, k)

        return TimedGemmCounter

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        sampler, lockctl, kernels = surelock.sampler, surelock.lockctl, surelock.kernels
        state = sampler.SamplerState

        def kernel_span(event):
            return lambda args, kwargs, t0, t1: self._mark(event, t0, t1)

        def attention_after(args, kwargs, t0, t1):
            q, k_all = args[0], args[1]
            # attention_rows gathers K and V to one table per query head
            n_rows, heads, dh = k_all.shape[0], q.shape[1], q.shape[2]
            self.add("kernels.attention_rows.gather_bytes", 2 * n_rows * heads * dh * FLOAT_BYTES)
            self._mark("attn", t0, t1)

        p = self._patch
        p(sampler, "forward_partial", lambda f: self._timed(
            "model.forward", f, self._forward_before, self._forward_after(probe=False)))
        p(lockctl, "forward_partial", lambda f: self._timed(
            "model.forward", f, self._forward_before, self._forward_after(probe=True)))
        p(sampler, "GemmCounter", self._counter_class)
        p(kernels, "layernorm_rows", lambda f: self._timed("kernels.layernorm_rows", f, after=kernel_span("ln")))
        p(kernels, "attention_rows", lambda f: self._timed("kernels.attention_rows", f, after=attention_after))
        p(kernels, "log_softmax_rows", lambda f: self._timed("kernels.log_softmax_rows", f))
        p(sampler, "kl_from_log_probs_rows", lambda f: self._timed("numkit.kl_rows", f))
        p(lockctl, "kl_from_log_probs_rows", lambda f: self._timed("numkit.kl_rows", f))
        p(sampler, "step", lambda f: self._timed("sampler.step", f))
        p(sampler, "update_mask", lambda f: self._timed("sampler.update_mask", f))
        p(sampler, "select_compute_rows", lambda f: self._timed("sampler.select_compute_rows", f))
        p(state, "stale_view", lambda f: self._timed("sampler.stale_view", f))
        p(state, "release_locks", lambda f: self._timed("sampler.release_locks", f))
        p(sampler, "evaluate_locks", lambda f: self._timed("lockctl.evaluate_locks", f))
        p(sampler, "apply_locks", lambda f: self._timed("lockctl.apply_locks", f))
        p(sampler, "probe_unlock", lambda f: self._timed("lockctl.probe_unlock", f))
        p(surelock.prng.SplitMix64, "categorical", lambda f: self._timed("prng.categorical", f))
        p(surelock.analysis, "check_lock_bound", lambda f: self._counted_bound_check(f))
        p(surelock.analysis, "simulate_trajectory", lambda f: self._timed("analysis.simulate_trajectory", f))
        p(surelock.cli, "_build", lambda f: self._timed("cli.build", f))
        p(surelock.cli, "init_weights", lambda f: self._timed("model.init_weights", f))

    def _counted_bound_check(self, fn):
        timed = self._timed("analysis.check_lock_bound", fn)

        def wrapper(*args, **kwargs):
            report = timed(*args, **kwargs)
            self.add("analysis.applicable", report.status == "ok")
            return report

        return wrapper

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.mode = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
