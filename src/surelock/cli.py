"""Command-line front end: runs, sweeps, bound checks, and reports.

Subcommands:

  run          one sampling run; writes trace.jsonl and summary.json
               (byte-stable given config+seed) and timing.json (informational)
  sweep        cross-product of threshold/percentile/step/length/seed lists,
               one CSV row per point
  verify-bound lock-bound check over stored trajectories or a fresh run
  simulate     synthetic-trajectory bound battery
  constants    Lipschitz-bound report of the model's weights
  flops-check  counter-vs-formula equality proof over built-in configs

Exit codes: 0 ok, 2 configuration error, 3 invariant violation, mapped by
``main`` alone: every exit 3 is its one ``invariant violation: ...`` line. A
command that finds a broken invariant writes its outputs, then raises.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict, fields
from itertools import islice, product
from pathlib import Path

import numpy as np

from . import analysis
from .errors import (ConfigError, InvalidInputError, InvalidStateError, read_json, require_fields,
                     require_finite, require_float_array, require_int, require_keys, require_seed,
                     write_text)
from .flops import baseline_step_flops
from .kernels import SOFTMAX_JACOBIAN_SUP
from .lockctl import LockPolicy
from .model import ModelConfig, init_weights, load_weights
from .prng import uniforms
from .sampler import MODES, LOCKING_MODES, RunConfig, RunResult, run_sampler

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

DEFAULT_MODEL = {
    "vocab_size": 32,
    "d_model": 32,
    "n_layers": 2,
    "n_heads": 2,
    "d_ff": 64,
    "max_seq": 64,
}
DEFAULT_RUN = {"n_prompt": 16, "n_gen": 16, "steps": 16, "mode": "baseline", "seed": 0}
# the most trajectories one ``simulate`` battery may check: every report is
# kept for the summary line and --out, about 3 KB each while --out is written
MAX_BATTERY = 100_000
# a battery batch's logits stay under this many bytes (or one trajectory), so
# the battery's memory does not grow with --count
BATTERY_BATCH_BYTES = 2**20
CONFIG_KEYS = ("model", "run", "policy", "weights_path", "weights_seed", "weight_scale",
               "prompt_tokens", "output_dir")
CONFIG_SECTIONS = {"model": ModelConfig, "run": RunConfig, "policy": LockPolicy}


def random_prompt(cfg: ModelConfig, n_prompt: int, seed: int) -> np.ndarray:
    """Deterministic prompt ids avoiding the mask token."""
    u = uniforms(seed ^ 0x9C0FFEE, n_prompt)
    ids = (u * (cfg.vocab_size - 1)).astype(np.int64)
    ids[ids >= cfg.mask_id] += 1
    return ids


# ---------------------------------------------------------------------------
# config assembly


def _load_config_file(path: str | None) -> dict:
    """The config document at ``path`` ({} for none), refused unless every value it holds is well typed and
    ``run.mode`` is a mode, whatever the flags override; range and cross-field rules wait for the merge."""
    doc = {} if path is None else require_keys(f"config {path}", read_json(path, "config"), CONFIG_KEYS)
    for name, cls in CONFIG_SECTIONS.items():  # a section's keys are its class's fields but the sections
        keys = [f.name for f in fields(cls) if f.name not in CONFIG_SECTIONS]
        require_fields(cls, require_keys(f"config section {name!r}", doc.get(name, {}), keys))
    if (mode := doc.get("run", {}).get("mode", MODES[0])) not in MODES:  # as RunConfig refuses it
        raise ConfigError(f"mode {mode!r} not one of {MODES}")
    for key, rule in (("weights_path", _require_path), ("weights_seed", require_seed),
                      ("weight_scale", require_finite), ("output_dir", _require_path)):
        if key in doc:
            rule(key, doc[key])
    return doc


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    out.update({k: v for k, v in override.items() if v is not None})
    return out


def _prompt_tokens(value, name: str = "prompt_tokens") -> np.ndarray:
    """Prompt ids from the config's ``prompt_tokens`` or from ``--prompt``:
    a list of integers (a bool is not one) that fit in int64."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    for i, tok in enumerate(value):
        require_int(f"{name}[{i}]", tok)
    try:
        return np.asarray(value, dtype=np.int64)
    except OverflowError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _require_path(name: str, value) -> str:
    """``value``, refused unless it is a non-empty string: an empty path
    would silently name the current directory, or no file at all."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty path, got {value!r}")
    return value


def _build(args, points=({},)):
    """Weights, the parsed config document, and one ``(run, prompt, echo)``
    per point. A point is a dict of ``RunConfig``/``LockPolicy`` field
    values; values apply in order defaults, config file, flags, point. The
    file is read and the weights built and scaled once, and every point is
    validated before this returns."""
    doc = _load_config_file(args.config)

    if "weights_path" in doc:
        for key in ("model", "weights_seed"):  # a weight file carries its own model config and values
            if key in doc:
                raise ConfigError(f"config keys {key!r} and 'weights_path' are alternatives; set one")
        w = load_weights(doc["weights_path"])
    else:
        cfg = ModelConfig.from_dict(_merge(DEFAULT_MODEL, doc.get("model", {})))
        w = init_weights(cfg, doc.get("weights_seed", 1234))
    cfg = w.config
    scale = doc.get("weight_scale", 1.0) if args.weight_scale is None else args.weight_scale
    require_finite("weight_scale", scale)
    if scale != 1.0:
        w = w.scaled(float(scale))

    # flags, like points, set RunConfig/LockPolicy fields; a flag's dest is its field name, and a
    # command without the flag leaves the field to the file
    flags = {f.name: getattr(args, f.name, None) for cls in (RunConfig, LockPolicy) for f in fields(cls)}
    file_run = _merge(DEFAULT_RUN, doc.get("run", {}))

    fixed_prompt = _prompt_tokens(doc["prompt_tokens"]) if "prompt_tokens" in doc else None
    if getattr(args, "prompt", None) is not None:
        fixed_prompt = _prompt_tokens(_parse_list(args.prompt, int, "--prompt"), "--prompt")

    policy_fields = {f.name for f in fields(LockPolicy)}
    runs = []
    for point in points:
        values = _merge(flags, point)
        run_dict = _merge(file_run, {k: v for k, v in values.items() if k not in policy_fields})
        policy_dict = _merge(doc.get("policy", {}), {k: v for k, v in values.items() if k in policy_fields})
        run = RunConfig(policy=LockPolicy(**policy_dict), **run_dict)
        if run.n_positions > cfg.max_seq:  # before a prompt of that length is drawn
            raise ConfigError(f"{run.n_positions} positions exceed max_seq={cfg.max_seq}")
        prompt = random_prompt(cfg, run.n_prompt, run.seed) if fixed_prompt is None else fixed_prompt
        echo = {"model": asdict(cfg), "run": run_dict, "policy": policy_dict,
                "weight_scale": scale, "prompt_tokens": prompt.tolist()}
        runs.append((run, prompt, echo))
    return w, doc, runs


# ---------------------------------------------------------------------------
# serialization


def _float_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if np.isfinite(x) else ("inf" if x > 0 else "-inf")


def _csv_text(rows) -> str:
    """Rows as CSV text, with the csv module's \\r\\n line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def emit_trace(result: RunResult, out_dir: Path) -> None:
    """Write trace.jsonl, one JSON object per step; byte-stable across reruns. A step's commits come from
    ``unmask_step``, its locks (relocks too) and unlocks from the events, each in ascending position order."""
    n, row_flops = len(result.tokens), result.row_flops
    changed = {}  # (step, is an unlock) -> positions
    for e in result.events:
        changed.setdefault((e.step, e.kind == "unlock"), []).append(e.position)
    rows = ({
        "t": rec.t,
        "M_t": rec.active_rows,
        "C_t": rec.computed_rows,
        "F_base": n * row_flops,
        "F_actual": rec.computed_rows * row_flops,
        "F_counted": rec.flops_counted,
        "head_flops": rec.head_flops,
        "probe_flops": rec.probe_flops,
        "ratio": rec.computed_rows / n,
        "newly_unmasked": np.flatnonzero(result.unmask_step == rec.t).tolist(),
        "newly_locked": changed.get((rec.t, False), []),
        "newly_unlocked": changed.get((rec.t, True), []),
        "mean_D": _float_or_none(rec.mean_step_kl),
    } for rec in result.trace)
    write_text(out_dir / "trace.jsonl", "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def write_summary(result: RunResult, echo: dict, out_dir: Path) -> None:
    summary = {
        "config": echo,
        "seed": echo["run"]["seed"],
        "tokens": result.tokens.tolist(),
        "totals": {
            "F_base": result.total_flops_base,
            "F_actual": result.total_flops_actual,
            "ratio": result.ratio,
            "head_flops": result.total_head_flops,
            "probe_flops": result.total_probe_flops,
        },
        "active_ratio": result.active_ratio,
        "computed_ratio": result.ratio,
        "steps": len(result.trace),
        "lock_events": [
            {"position": e.position, "step": e.step, "kind": e.kind,
             "step_kl": _float_or_none(e.step_kl), "uncertainty": _float_or_none(e.uncertainty)}
            for e in result.events
        ],
        "counter_matches": result.counter_matches,
    }
    write_text(out_dir / "summary.json", json.dumps(summary, sort_keys=True, indent=1) + "\n")


def write_timing(result: RunResult, out_dir: Path) -> None:
    timing = {
        "wall_seconds": result.wall_seconds,
        "e2e_tps": result.e2e_tps,
        "step_tps": result.step_tps(),
        "step_seconds": [rec.wall_seconds for rec in result.trace],
    }
    write_text(out_dir / "timing.json", json.dumps(timing, indent=1) + "\n")


def check_run_invariants(result: RunResult, run: RunConfig) -> list[str]:
    """Accounting identities that must hold for every completed run."""
    problems = []
    if not result.counter_matches:
        problems.append("instrumented GEMM counter disagrees with the closed-form step cost")
    for rec in result.trace:
        if rec.computed_rows > rec.active_rows:
            problems.append(f"step {rec.t}: computed more rows than were active")
    if run.mode in LOCKING_MODES and not run.policy.unlock_enabled:
        m = [rec.active_rows for rec in result.trace]
        if any(b > a for a, b in zip(m, m[1:])):
            problems.append("active-row count increased despite locking being permanent")
    return problems


def _require_none(problems: list[str]) -> None:
    """Raise one ``InvalidStateError`` naming every problem, if there is any."""
    if problems:
        raise InvalidStateError("; ".join(problems))


def _require_bounds_hold(reports: list[analysis.BoundReport], label: str, ids) -> None:
    """Raise if an applicable report's bound fails, naming how many do and the first ten's ``ids``."""
    bad = [i for i, r in zip(ids, reports) if r.status == "ok" and not r.holds]
    _require_none([f"lock bound violated on {len(bad)} trajectories; first {label}: {bad[:10]}"] if bad else [])


# ---------------------------------------------------------------------------
# subcommands


def _require_directory(target: Path, directory: Path) -> Path:
    """``target``, refused with ``ConfigError`` if ``directory``, which is to hold
    it, cannot be created: its nearest existing ancestor (itself, if it exists)
    is not a directory."""
    for existing in (directory, *directory.parents):
        if os.path.exists(existing):
            if not os.path.isdir(existing):
                raise ConfigError(f"cannot write {target}: {existing} is not a directory")
            break
    return target


def _resolve_out(args, doc: dict) -> Path:
    """The output directory, refused here, before any sampling, if it cannot be created."""
    out = doc.get("output_dir", "out") if args.out is None else _require_path("--out", args.out)
    return _require_directory(Path(out), Path(out))


def _check_out_file(out: str | None) -> None:
    """Refuse, before any work, an empty ``--out``, or one at a directory or in one that cannot be created."""
    if out is not None:
        _require_path("--out", out)
        if os.path.isdir(out):
            raise ConfigError(f"cannot write {out}: it is a directory")
        _require_directory(Path(out), Path(out).parent)


def _trajectory_chunks(result: RunResult):
    """trajectories.json in chunks, one per position present at every step:
    together they are ``json.dumps`` of the list of ``{"position",
    "log_probs"}`` items, but only one position's values are ever Python
    lists at once."""
    yield "["
    for k, i in enumerate(np.flatnonzero(result.history_valid.all(axis=0)).tolist()):
        yield (", " if k else "") + json.dumps({"position": i, "log_probs": result.history[:, i].tolist()})
    yield "]"


def cmd_run(args) -> None:
    w, doc, [(run, prompt, echo)] = _build(args)
    out_dir = _resolve_out(args, doc)
    result = run_sampler(run, w, prompt, record_trajectories=args.record_trajectories)
    emit_trace(result, out_dir)
    write_summary(result, echo, out_dir)
    write_timing(result, out_dir)
    if args.record_trajectories:
        write_text(out_dir / "trajectories.json", _trajectory_chunks(result))
    print(f"run: mode={run.mode} steps={len(result.trace)} F_actual/F_base={result.ratio:.4f} "
          f"active_ratio={result.active_ratio:.4f} -> {out_dir}")
    _require_none(check_run_invariants(result, run))


def _parse_list(text: str, cast, flag: str) -> list:
    """Comma-separated values; an empty list or a value ``cast`` rejects is
    a configuration error."""
    try:
        values = [cast(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} was given but is empty")
    return values


def cmd_sweep(args) -> None:
    points = [{}]
    for key, text, cast, flag in (("epsilon", args.eps_list, float, "--eps-list"),
                                  ("percentile", args.m_list, float, "--m-list"),
                                  ("steps", args.steps_list, int, "--steps-list"),
                                  ("n_gen", args.ngen_list, int, "--ngen-list"),
                                  ("seed", args.seeds, int, "--seeds")):
        if text is not None:
            values = _parse_list(text, cast, flag)
            points = [{**p, key: v} for p in points for v in values]
    if args.ngen_list is not None and args.steps is None and args.steps_list is None:  # one token per step
        points = [{**p, "steps": p["n_gen"]} for p in points]

    w, doc, runs = _build(args, points)
    out_dir = _resolve_out(args, doc)
    rows, problems = [], []
    for i, (run, prompt, _) in enumerate(runs):
        result = run_sampler(run, w, prompt)
        problems += [f"point {i}: {p}" for p in check_run_invariants(result, run)]
        rows.append({
            "epsilon": run.policy.epsilon,
            "percentile": run.policy.percentile,
            "steps": run.steps,
            "n_gen": run.n_gen,
            "seed": run.seed,
            "F_base": result.total_flops_base,
            "F_actual": result.total_flops_actual,
            "ratio": result.ratio,
            "active_ratio": result.active_ratio,
            "locks": sum(1 for e in result.events if e.kind in ("lock", "relock")),
            "unlocks": sum(1 for e in result.events if e.kind == "unlock"),
        })

    path = out_dir / "sweep.csv"
    write_text(path, _csv_text([list(rows[0]), *(row.values() for row in rows)]))
    print(f"sweep: {len(rows)} points -> {path}")
    _require_none(problems)


def _load_trajectories(path: str) -> list[analysis.Trajectory]:
    """Trajectories from a ``run --record-trajectories`` file."""
    doc = read_json(path, "trajectories")
    if not isinstance(doc, list):
        raise ConfigError(f"trajectories {path} must be a JSON array, got {type(doc).__name__}")
    trajs = []
    for k, item in enumerate(doc):
        require_keys(f"trajectory {k}", item, ("log_probs", "position"), required=("log_probs",))
        require_int(f"trajectory {k} position", position := item.get("position", -1))
        log_probs = require_float_array(f"trajectory {k} log_probs", item["log_probs"])
        trajs.append(analysis.Trajectory.from_logits(log_probs, position, "sampled"))
    return trajs


def cmd_verify_bound(args) -> None:
    if np.isnan(args.eps):
        raise ConfigError("--eps must be a number or inf, got nan")
    _check_out_file(args.out)
    if args.trajectories is not None:
        # every input besides --trajectories, --eps and --out configures the fresh run
        unused = [f"--{k.replace('_', '-')}" for k, v in vars(args).items()
                  if v is not None and k not in ("command", "fn", "trajectories", "eps", "out")]
        if unused:
            raise ConfigError(f"--trajectories replaces the fresh run; cannot use {', '.join(unused)}")
        trajs = _load_trajectories(args.trajectories)
    else:
        w, _, [(run, prompt, _)] = _build(args, [{"mode": "baseline"}])
        result = run_sampler(run, w, prompt, record_trajectories=True)
        trajs = analysis.trajectories_from_history(result.history, result.history_valid)

    reports = [analysis.check_lock_bound(t, args.eps) for t in trajs]
    applicable = [r for r in reports if r.status == "ok"]
    held = sum(1 for r in applicable if r.holds)
    print(f"verify-bound: {len(trajs)} trajectories, {len(applicable)} applicable, "
          f"{held} hold, {len(reports) - len(applicable)} not applicable")
    if args.out:
        write_text(args.out, json.dumps([r.to_dict() for r in reports], indent=1))
    _require_bounds_hold(reports, "positions", [r.position for r in reports])


def _battery(cells: list[tuple[float, int, int]], count: int, seed: int,
             magnitude: float) -> list[analysis.BoundReport]:
    """The bound reports of the battery's ``count`` synthetic trajectories, in index order.

    Trajectory ``i`` has seed ``seed + i`` and the (rho, vocab, steps) of
    cell ``i % len(cells)``. Each cell's indices are built in
    ``simulate_trajectories`` batches of as many as keep a batch's logits
    under ``BATTERY_BATCH_BYTES`` (at least one), and each report is written
    at its index. A trajectory is bit-identical in any batch, so the reports
    do not depend on the batching, and memory does not grow with ``count``.
    """
    reports = [None] * count
    for c, (rho, vocab, steps) in enumerate(cells):
        indices = range(c, count, len(cells))
        per_batch = max(1, BATTERY_BATCH_BYTES // (8 * vocab * steps))
        for start in range(0, len(indices), per_batch):
            batch = indices[start : start + per_batch]
            trajs = analysis.simulate_trajectories([seed + i for i in batch], vocab, steps, rho, magnitude)
            for i, traj in zip(batch, trajs):
                reports[i] = analysis.check_lock_bound(traj, float("inf"))
    return reports


def cmd_simulate(args) -> None:
    _check_out_file(args.out)
    rho_targets = _parse_list(args.rho_targets, float, "--rho-targets")
    vocab_sizes = _parse_list(args.vocab_sizes, int, "--vocab-sizes")
    if not 1 <= args.count <= MAX_BATTERY:
        raise ConfigError(f"--count must lie in [1, {MAX_BATTERY}], got {args.count}")
    # only the first ``count`` cells are used; each is checked before any is drawn
    cells = [(rho, vocab, args.steps if args.steps is not None else analysis.battery_steps(rho))
             for rho, vocab in islice(product(rho_targets, vocab_sizes), args.count)]
    for rho, vocab, steps in cells:
        analysis.validate_synthetic(vocab, steps, rho, args.magnitude)
    reports = _battery(cells, args.count, args.seed, args.magnitude)
    applicable = [r for r in reports if r.status == "ok"]
    held = sum(1 for r in applicable if r.holds)
    print(f"simulate: {held}/{args.count} bound holds ({len(applicable)} applicable of {args.count})")
    if args.out:
        write_text(args.out, json.dumps([r.to_dict() for r in reports], indent=1))
    _require_bounds_hold(reports, "seeds", range(args.seed, args.seed + args.count))


def cmd_constants(args) -> None:
    _check_out_file(args.out)
    w, _, [(run, _, _)] = _build(args)
    radius = args.radius if args.radius is not None else analysis.input_radius_bound(w)
    report = analysis.lipschitz_constants(w, radius, seq_len=run.n_positions)
    doc = report.to_dict()
    doc["softmax_jacobian_sup"] = SOFTMAX_JACOBIAN_SUP
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        write_text(args.out, text + "\n")
    print(text)


FLOPS_CHECK_CONFIGS = [
    # the hand-derived config: per-step baseline cost 11264 at N=4
    {"model": {"vocab_size": 8, "d_model": 8, "n_layers": 2, "n_heads": 2, "d_ff": 16, "max_seq": 8},
     "run": {"n_prompt": 2, "n_gen": 2, "steps": 2}},
    {"model": DEFAULT_MODEL, "run": {"n_prompt": 16, "n_gen": 16, "steps": 16}},
    # grouped key/value sharing
    {"model": {"vocab_size": 16, "d_model": 24, "n_layers": 3, "n_heads": 4, "n_kv_heads": 2,
               "d_ff": 40, "max_seq": 32}, "run": {"n_prompt": 4, "n_gen": 8, "steps": 8}},
]


def cmd_flops_check(args) -> None:
    problems = []
    for spec_i, entry in enumerate(FLOPS_CHECK_CONFIGS):
        cfg = ModelConfig.from_dict(entry["model"])
        w = init_weights(cfg, 99 + spec_i)
        base_run = dict(entry["run"])
        n = base_run["n_prompt"] + base_run["n_gen"]
        print(f"config {spec_i}: baseline per-step FLOPs at N={n}: "
              f"{baseline_step_flops(cfg, n)}")
        for mode in MODES:
            policy = LockPolicy(epsilon=5e-2, hybrid_fraction=0.8)
            run = RunConfig(policy=policy, mode=mode, seed=11, **base_run)
            result = run_sampler(run, w, random_prompt(cfg, run.n_prompt, run.seed))
            match = result.counter_matches
            problems += [] if match else [f"config {spec_i} mode {mode}: counter disagrees with the formula"]
            print(f"  mode={mode:9s} steps={len(result.trace)} counter vs formula: {'exact' if match else 'MISMATCH'}")
    _require_none(problems)


# ---------------------------------------------------------------------------


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that sample with a lock policy; each dest is its field name."""
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--eps", type=float, dest="epsilon", help="KL lock threshold")
    p.add_argument("--percentile", type=float, help="confidence gate percentile")
    p.add_argument("--no-gate", action="store_false", dest="gate_enabled", default=None,
                   help="disable the confidence gate")
    p.add_argument("--fraction", type=float, dest="hybrid_fraction", help="computed fraction for selection/hybrid")
    p.add_argument("--unlock", action="store_true", dest="unlock_enabled", default=None,
                   help="enable the unlock protocol")


def _add_model_run_flags(p: argparse.ArgumentParser, sampling: bool = True) -> None:
    """The model and run-shape flags; ``sampling`` adds the ones only a sampling run reads."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--n-prompt", type=int, dest="n_prompt")
    p.add_argument("--n-gen", type=int, dest="n_gen")
    p.add_argument("--steps", type=int)
    p.add_argument("--weight-scale", type=float, dest="weight_scale")
    if sampling:
        p.add_argument("--block-length", type=int, dest="block_length")
        p.add_argument("--temperature", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--prompt", help="comma-separated prompt token ids")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="surelock")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one sampler configuration")
    _add_model_run_flags(p)
    _add_policy_flags(p)
    p.add_argument("--out", help="output directory (default: config output_dir or ./out)")
    p.add_argument("--record-trajectories", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="grid of runs, one CSV row per point")
    _add_model_run_flags(p)
    _add_policy_flags(p)
    p.add_argument("--eps-list", dest="eps_list")
    p.add_argument("--m-list", dest="m_list")
    p.add_argument("--steps-list", dest="steps_list")
    p.add_argument("--ngen-list", dest="ngen_list")
    p.add_argument("--seeds")
    p.add_argument("--out", help="output directory (default: config output_dir or ./out)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify-bound", help="lock-bound check on trajectories")
    _add_model_run_flags(p)
    p.add_argument("--trajectories", help="trajectories.json from a recorded run, instead of a fresh one")
    p.add_argument("--eps", type=float, default=float("inf"), help="the bound's lock threshold (default: inf)")
    p.add_argument("--out", help="write per-trajectory reports here")
    p.set_defaults(fn=cmd_verify_bound)

    p = sub.add_parser("simulate", help="synthetic-trajectory bound battery")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--rho-targets", dest="rho_targets", default="0.3,0.6,0.9")
    p.add_argument("--vocab-sizes", dest="vocab_sizes", default="8,64")
    p.add_argument("--steps", type=int, help="trajectory length; default fits the decay rate")
    p.add_argument("--magnitude", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("constants", help="model Lipschitz bounds report")
    _add_model_run_flags(p, sampling=False)
    p.add_argument("--radius", type=float, help="input radius; default: the layer-norm output bound")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("flops-check", help="prove counter == formula on builtin configs")
    p.set_defaults(fn=cmd_flops_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: every parse fills a
    fresh namespace, so no call's values reach the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.fn(args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidStateError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
