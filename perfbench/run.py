"""End-to-end and per-layer benchmark of the surelock sampler modes.

Run from the repository root:

    python3 perfbench/run.py --workload mid-modes --seed 0 --seconds 45 --trace 0

One process, one client, rounds back to back (closed loop). With ``--trace 0``
it reports every end-to-end metric listed in ``BENCHMARK.json``; with
``--trace 1`` it alternates untraced and traced rounds and reports every
per-layer metric. Earlier stdout lines carry a readable table, the
environment, the output digests and the wall-vs-FLOPs gap per mode; the last
line is the JSON result. The exit code is 1 when an output check fails and 2
when the package is missing.
"""

import os
import sys
import time

START = time.perf_counter()
# pin BLAS to one thread before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
# Per-layer times of paths mid-modes never takes (probe/unlock, tempered
# draws, synthetic trajectories, the CLI). They are printed in the table, but
# the result line carries only the metrics of BENCHMARK.json, each of which
# is measured on every workload.
TABLE_ONLY = ("sampler.release_locks.s", "lockctl.probe_unlock.s", "lockctl.probe_forward.s",
              "prng.categorical.s", "analysis.simulate_trajectory.s", "cli.build.s")

perf = time.perf_counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    from surelock import kernels

    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kernels_backend": kernels.backend_name(),
        "git_commit": git_commit(),
    }


class Checker:
    """Failure accounting per operation: an operation fails when it raised,
    exited non-zero, broke a run invariant, failed a workload sanity check,
    or its digest differs from the reference (reference seed) or from the
    first run of the same operation in this process."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ops, label: str) -> bool:
        from surelock.cli import check_run_invariants

        clean = True
        for op in ops:
            self.attempted += 1
            problems = list(op.problems)
            for run, result, _ in op.runs:
                problems += check_run_invariants(result, run)
            if op.digest:
                first = self.first.setdefault(op.key, op.digest)
                if op.digest != first:
                    problems.append("output digest differs from this seed's first run")
                if self.reference is not None and self.reference.get(op.key) != op.digest:
                    problems.append("output digest differs from the reference")
            if problems:
                self.failed += 1
                clean = False
                self.problems += [f"{label} {op.key}: {p}" for p in problems]
        return clean

    def note(self, problems: list[str]) -> None:
        self.problems += problems


def run_round(workload, r: int, tracer=None) -> list:
    from workloads import Op

    ops = []
    for key, mode, fn in workload.plan(r):
        if tracer is not None:
            tracer.mode = mode
        gc.collect()  # start every operation from the same collector state
        try:
            op = fn()
        except Exception as exc:  # an operation that raises counts as failed; the round goes on
            op = Op(key, mode, problems=[f"raised {type(exc).__name__}: {exc}"])
        ops.append(op)
    return ops


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in rounds) for key in rounds[0]}


def layer_metrics(totals: dict, ops: list, init_s: float, modes) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    from tracing import PHASES
    from workloads import event_counts

    t = dict(totals)

    def get(key):
        return t.get(key, 0.0)

    fwd = get("model.forward.s")
    m = {
        "model.forward.s": fwd,
        "model.forward.calls": get("model.forward.calls"),
        "model.rows": get("model.rows"),
        "model.us_per_row": 1e6 * fwd / get("model.rows"),
        "model.gflop_s": get("model.gemm_flops") / fwd / 1e9,
        "model.init_weights.s": init_s,  # the set-up's call, which setup_s pays
    }
    for mode in modes:
        mode_fwd, mode_rows = get(f"{mode}.model.forward.s"), get(f"{mode}.model.rows")
        m[f"{mode}.model.forward.s"] = mode_fwd
        m[f"{mode}.model.rows"] = mode_rows
        m[f"{mode}.model.us_per_row"] = 1e6 * mode_fwd / mode_rows if mode_rows else 0.0
    for phase in PHASES:
        m[f"model.phase.{phase}.s"] = get(f"model.phase.{phase}.s")
    m["model.phase_coverage"] = sum(m[f"model.phase.{p}.s"] for p in PHASES) / fwd
    for key in ("kernels.attention_rows.s", "kernels.attention_rows.calls", "kernels.layernorm_rows.s",
                "kernels.log_softmax_rows.s", "numkit.kl_rows.s", "sampler.step.s", "sampler.step.self_s",
                "sampler.update_mask.s", "sampler.select_compute_rows.s", "sampler.stale_view.s",
                "sampler.stale_view.calls", "sampler.release_locks.s", "lockctl.evaluate_locks.s",
                "lockctl.apply_locks.s", "lockctl.probe_unlock.s", "lockctl.probe_forward.s",
                "lockctl.probe_rows", "prng.categorical.s", "prng.categorical.calls",
                "analysis.check_lock_bound.s", "analysis.check_lock_bound.calls",
                "analysis.simulate_trajectory.s", "cli.build.s"):
        m[key] = get(key)
    m["kernels.attention_rows.gather_mb"] = get("kernels.attention_rows.gather_bytes") / 1e6
    checks = get("analysis.check_lock_bound.calls")
    m["analysis.applicable_share"] = get("analysis.applicable") / checks if checks else 0.0

    results = [result for op in ops for _, result, _ in op.runs]
    events = {"lock": 0, "unlock": 0, "relock": 0}
    for result in results:
        for kind, n in event_counts(result).items():
            events[kind] += n
    m["lockctl.locks"] = events["lock"]
    m["lockctl.unlocks"] = events["unlock"]
    m["lockctl.relocks"] = events["relock"]
    m["lockctl.unlock_yield"] = events["unlock"] / m["lockctl.probe_rows"] if m["lockctl.probe_rows"] else 0.0
    m["flops.base"] = sum(r.total_flops_base for r in results)
    m["flops.counted"] = sum(rec.flops_counted for r in results for rec in r.trace)
    m["flops.probe"] = sum(r.total_probe_flops for r in results)
    m["flops.head"] = sum(r.total_head_flops for r in results)
    return m


def load_reference(workload: str, seed: int) -> dict | None:
    doc = json.loads((BENCH_DIR / "reference.json").read_text())
    if seed != doc["seed"]:
        return None
    return doc["digests"].get(workload, {})


def measure(args, workload, checker: Checker, import_s: float, count_keys: list[str]) -> tuple[dict, dict]:
    """Set up, run rounds for ``args.seconds`` and return (metrics, info).

    ``count_keys`` name the per-layer counts, which must repeat exactly in
    every traced round.
    """
    from tracing import Tracer
    from workloads import MODES

    setup_walls, init_walls = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = perf()
        init_walls.append(workload.setup())
        setup_walls.append(perf() - t0)
    # the first set-up starts at process start and includes the imports
    setup_s = statistics.median(import_s + wall for wall in setup_walls)
    init_s = statistics.median(init_walls)

    rounds, layer_rounds, overheads = [], [], []
    r = 0
    t_start = perf()
    while r == 0 or perf() - t_start < args.seconds:
        if not args.trace:
            ops = run_round(workload, r)
            if checker.check(ops, f"round {r}"):
                rounds.append(workload.round_metrics(ops))
            r += 1
            continue
        # traced and untraced rounds alternate which goes first
        walls = {}
        for traced in ((False, True) if (r // 2) % 2 == 0 else (True, False)):
            tracer = Tracer() if traced else None
            t0 = perf()
            with tracer if traced else nullcontext():
                ops = run_round(workload, r, tracer)
            walls[traced] = perf() - t0
            label = f"round {r} ({'traced' if traced else 'untraced'})"
            if checker.check(ops, label) and traced:
                layer_rounds.append(layer_metrics(tracer.totals, ops, init_s, MODES))
            r += 1
        overheads.append(walls[True] - walls[False])

    info = {"rounds": r, "setup_walls": setup_walls}
    if not args.trace:
        if not rounds:
            return {}, info
        metrics = median_metrics(rounds)
        info["per_round"] = {key: [m[key] for m in rounds] for key in rounds[0]}
        checker.note(workload.check_metrics(metrics))
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        info["gap"] = {mode: metrics[f"{mode}.wall_ratio"] - metrics[f"{mode}.flops_ratio"]
                       for mode in MODES if mode != "baseline"}
        return metrics, info
    if not layer_rounds:
        return {}, info
    metrics = median_metrics(layer_rounds)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    for key in count_keys:
        if len({m[key] for m in layer_rounds}) != 1:
            checker.note([f"count {key} differs between traced rounds"])
    if metrics["model.phase_coverage"] < workload.min_phase_coverage:
        checker.note([f"named phases cover {metrics['model.phase_coverage']:.3f} of forward time, "
                      f"below {workload.min_phase_coverage}"])
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "surelock" / "__init__.py").is_file():
        print(f"perfbench: no surelock package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(ROOT / "src"))
    import surelock
    import workloads

    if Path(surelock.__file__).resolve().parent != ROOT / "src" / "surelock":
        print(f"perfbench: imported surelock from {surelock.__file__}, not this checkout", file=sys.stderr)
        return 2
    import_s = perf() - START

    checker = Checker(load_reference(args.workload, args.seed))
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        workload = workloads.make(args.workload, args.seed, Path(tmp))
        try:
            count_keys = [item["name"] for item in spec["per_layer"] if item["unit"] == "count"]
            metrics, info = measure(args, workload, checker, import_s, count_keys)
        finally:
            workload.close()

    missing = [item["name"] for item in wanted if item["name"] not in metrics]
    if missing and not checker.problems:
        checker.note([f"metrics not produced: {missing}"])
    out = {}
    for item in wanted:
        value = metrics.get(item["name"], 0.0)
        if item["unit"] == "count" and float(value).is_integer():
            value = int(value)
        out[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"{item['name']:<36} {value:>16.6g} {item['unit']}")
    for name in TABLE_ONLY if args.trace else ():
        print(f"{name:<36} {metrics.get(name, 0.0):>16.6g} s")
    for mode, gap in info.get("gap", {}).items():
        print(f"gap {mode}: wall_ratio - flops_ratio = {gap:.4f}")
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **info,
        "env": environment(), "digests": checker.first,
    }))
    correct = not checker.problems
    print(json.dumps({"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
