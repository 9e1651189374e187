"""The benchmark's workloads.

Each workload derives every input (weights, prompt, run seed, CLI seeds) from
the benchmark seed, prepares itself in ``setup`` and then yields one round of
operations at a time. An operation is one sampler run or one CLI call; it
carries its wall time, an output digest and any problem found. The runner
checks digests and invariants and turns rounds into metrics with
``round_metrics``.

Why these two (one client, closed loop, rounds back to back):

* ``mid-modes`` - a 4-layer d=128 model at N=192, all four modes. The forward
  is most of the wall time and attention about half of a forward, so a
  forward or K/V-cache change shows here. The probe/unlock path is off.
* ``gqa-churn`` - the same shape with grouped K/V heads, 4 blocks and the
  unlock protocol on: about 45 unlocks and relocks per locking run rewrite
  the per-layer caches while steps read them, and probes are a large share
  of the locking modes' time. Each round ends with a short CLI tail (a
  temperature-1.0 ``surelock sweep`` on the toy model and ``surelock
  simulate``), which keeps the ``cli``, ``prng`` and synthetic-trajectory
  layers measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import surelock.cli
from surelock import LockPolicy, ModelConfig, RunConfig, analysis, init_weights, run_sampler
from surelock.cli import DEFAULT_MODEL, random_prompt

perf = time.perf_counter

MODES = ("baseline", "surelock", "selection", "hybrid")
LOCKING_MODES = ("surelock", "hybrid")


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def run_digest(result) -> str:
    """Generated tokens, lock events (position, step, kind) and per-step C_t."""
    return sha256(
        np.ascontiguousarray(result.tokens, dtype=np.int64).tobytes(),
        json.dumps([[e.position, e.step, e.kind] for e in result.events]).encode(),
        json.dumps([rec.computed_rows for rec in result.trace]).encode(),
    )


def flops_ratio(result) -> float:
    """(F_actual + probe FLOPs) / F_base; exact counts."""
    return (result.total_flops_actual + result.total_probe_flops) / result.total_flops_base


def event_counts(result) -> dict[str, int]:
    counts = {"lock": 0, "unlock": 0, "relock": 0}
    for e in result.events:
        counts[e.kind] += 1
    return counts


@dataclass
class Op:
    key: str  # names the operation within a round; repeats share the key
    mode: str | None  # sampler mode its time is attributed to, if any
    wall: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    runs: list = field(default_factory=list)  # (RunConfig, RunResult, seconds) per sampler run
    count: int = 0  # bound-checked trajectories


def rotated(items: tuple, r: int) -> tuple:
    k = r % len(items)
    return items[k:] + items[:k]


class CliTail:
    """A temperature-1.0 ``surelock sweep`` of the README toy model plus
    ``surelock simulate``, both through ``cli.main``."""

    EPS_LIST = "5e-4,5e-3,5e-2"
    SIMULATE_COUNT = 200
    RUN = {"n_prompt": 16, "n_gen": 16, "steps": 16}

    def __init__(self, seed: int, workdir: Path):
        self.seeds = f"{2 * seed},{2 * seed + 1}"
        self.simulate_seed = self.SIMULATE_COUNT * seed
        self.workdir = workdir
        self.config_path = workdir / "toy.json"
        self.config_path.write_text(json.dumps({
            "model": DEFAULT_MODEL, "weights_seed": 1234 + seed,
            "run": self.RUN, "policy": {"hybrid_fraction": 0.5},
        }))
        # the CLI's sampler runs are checked like direct ones: record each at
        # the boundary the CLI calls through
        self._run_sampler = surelock.cli.run_sampler
        self._captured: list = []
        surelock.cli.run_sampler = self._capture

    def _capture(self, run, *args, **kwargs):
        t0 = perf()
        result = self._run_sampler(run, *args, **kwargs)
        self._captured.append((run, result, perf() - t0))
        return result

    def _cli(self, key: str, argv: list[str]) -> tuple[Op, str]:
        self._captured = []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf()
            try:
                rc = surelock.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code
            wall = perf() - t0
        op = Op(key, None, wall, runs=self._captured)
        if rc != 0:
            op.problems.append(f"surelock {argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")
        return op, out.getvalue()

    def sweep(self) -> Op:
        csv_path = self.workdir / "sweep" / "sweep.csv"
        csv_path.unlink(missing_ok=True)
        op, _ = self._cli("tail.sweep", [
            "sweep", "--config", str(self.config_path), "--mode", "hybrid", "--eps-list", self.EPS_LIST,
            "--seeds", self.seeds, "--temperature", "1.0", "--out", str(csv_path.parent),
        ])
        data = csv_path.read_bytes() if csv_path.exists() else b""
        op.digest = sha256(data, *(run_digest(res).encode() for _, res, _ in op.runs))
        return op

    def simulate(self) -> Op:
        op, out = self._cli("tail.simulate", [
            "simulate", "--count", str(self.SIMULATE_COUNT), "--seed", str(self.simulate_seed),
        ])
        op.count = self.SIMULATE_COUNT
        op.digest = sha256(out.encode())
        found = re.search(r"\((\d+) applicable of (\d+)\)", out)
        if found is None or int(found[1]) != self.SIMULATE_COUNT:
            op.problems.append(f"simulate: expected {self.SIMULATE_COUNT}/{self.SIMULATE_COUNT} "
                               f"applicable, got {out.strip()!r}")
        return op

    def close(self) -> None:
        surelock.cli.run_sampler = self._run_sampler


class SamplerWorkload:
    """All four modes on one model and prompt, in rotating order, each
    followed by a bound check of the baseline's recorded trajectories."""

    def __init__(self, name: str, seed: int, model: dict, run: dict, policy: dict,
                 min_phase_coverage: float = 0.0, flops_order: bool = False, churn: bool = False,
                 tail: CliTail | None = None):
        self.name = name
        self.cfg = ModelConfig(**model)
        self.weights_seed = 1000 + seed
        self.prompt_seed = 2000 + seed
        self.runs = {
            mode: RunConfig(mode=mode, seed=3000 + seed, policy=LockPolicy(**policy), **run)
            for mode in MODES
        }
        self.min_phase_coverage = min_phase_coverage
        self.flops_order = flops_order
        self.churn = churn
        self.tail = tail

    def setup(self) -> float:
        """Weights, prompt and one warm-up run of every mode; returns the
        ``init_weights`` seconds."""
        t0 = perf()
        self.w = init_weights(self.cfg, self.weights_seed)
        init_s = perf() - t0
        self.prompt = random_prompt(self.cfg, self.runs["baseline"].n_prompt, self.prompt_seed)
        for mode in MODES:
            result = run_sampler(self.runs[mode], self.w, self.prompt, record_trajectories=mode == "baseline")
            if mode == "baseline":
                self.trajectories = analysis.trajectories_from_history(result.history, result.history_valid)
        return init_s

    def plan(self, r: int):
        # one bound-check pass (~50 ms) after each sampler run, so that the
        # round's bound.traj_s samples the whole round, not one instant
        for i, mode in enumerate(rotated(MODES, r)):
            yield mode, mode, lambda mode=mode: self._sample(mode)
            yield f"verify.{i}", None, lambda i=i: self._verify(f"verify.{i}")
        if self.tail is not None:
            yield "tail.sweep", None, self.tail.sweep
            yield "tail.simulate", None, self.tail.simulate

    def _sample(self, mode: str) -> Op:
        run = self.runs[mode]
        t0 = perf()
        result = run_sampler(run, self.w, self.prompt)
        wall = perf() - t0
        op = Op(mode, mode, wall, run_digest(result), runs=[(run, result, wall)])
        if self.churn and mode in LOCKING_MODES:
            counts = event_counts(result)
            if counts["unlock"] == 0 or counts["relock"] == 0:
                op.problems.append(f"{mode}: no unlock/relock churn ({counts})")
        return op

    def _verify(self, key: str) -> Op:
        t0 = perf()
        reports = [analysis.check_lock_bound(traj, math.inf) for traj in self.trajectories]
        wall = perf() - t0
        outcome = [[r.position, r.status, r.holds] for r in reports]
        op = Op(key, None, wall, sha256(json.dumps(outcome).encode()), count=len(reports))
        if any(r.status == "ok" and not r.holds for r in reports):
            op.problems.append("lock bound violated on a baseline trajectory")
        return op

    def round_metrics(self, ops: list[Op]) -> dict[str, float]:
        by = {op.key: op for op in ops}
        base_wall = by["baseline"].wall
        m = {}
        for mode in MODES:
            run, result, wall = by[mode].runs[0]
            m[f"{mode}.tok_s"] = run.n_gen / wall
            if mode != "baseline":
                m[f"{mode}.wall_ratio"] = wall / base_wall
                m[f"{mode}.flops_ratio"] = flops_ratio(result)
        m["sweep.points_s"] = len(MODES) / sum(by[mode].wall for mode in MODES)
        checks = [op for op in ops if op.count]
        m["bound.traj_s"] = sum(op.count for op in checks) / sum(op.wall for op in checks)
        return m

    def check_metrics(self, m: dict[str, float]) -> list[str]:
        if self.flops_order and not m["hybrid.flops_ratio"] < m["surelock.flops_ratio"] < 1.0:
            return [f"{self.name}: expected hybrid < surelock < 1 in flops_ratio, got "
                    f"{m['hybrid.flops_ratio']} and {m['surelock.flops_ratio']}"]
        return []

    def close(self) -> None:
        if self.tail is not None:
            self.tail.close()


MID_MODEL = {"vocab_size": 256, "d_model": 128, "n_layers": 4, "n_heads": 8, "d_ff": 256, "max_seq": 256}
MID_RUN = {"n_prompt": 64, "n_gen": 128, "steps": 64}

NAMES = ("mid-modes", "gqa-churn")


def make(name: str, seed: int, workdir: Path) -> SamplerWorkload:
    if name == "mid-modes":
        return SamplerWorkload(name, seed, MID_MODEL, MID_RUN, {"epsilon": 5e-3, "hybrid_fraction": 0.5},
                               min_phase_coverage=0.95, flops_order=True)
    if name == "gqa-churn":
        return SamplerWorkload(
            name, seed, {**MID_MODEL, "n_kv_heads": 2}, {**MID_RUN, "block_length": 32},
            {"epsilon": 5e-2, "hybrid_fraction": 0.5, "unlock_enabled": True, "probe_period": 2,
             "epsilon_unlock": 1e-5, "percentile": 50.0},
            churn=True, tail=CliTail(seed, workdir),
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
