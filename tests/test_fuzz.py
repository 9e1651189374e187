"""Deterministic sweep over random configurations: every run must satisfy
the accounting identities and structural invariants regardless of shape."""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surelock import LockPolicy, ModelConfig, RunConfig, init_weights, run_sampler, save_weights
from surelock.cli import main, random_prompt
from surelock.model import MAX_PARAMS

CASES = list(range(18))


def build_case(case):
    rng = np.random.default_rng(9000 + case)
    n_heads = int(rng.choice([1, 2, 4]))
    kv_choices = [h for h in (1, 2, 4) if n_heads % h == 0 and h <= n_heads]
    cfg = ModelConfig(
        vocab_size=int(rng.integers(8, 40)),
        d_model=int(n_heads * rng.integers(2, 9)),
        n_layers=int(rng.integers(1, 4)),
        n_heads=n_heads,
        n_kv_heads=int(rng.choice(kv_choices)),
        d_ff=int(rng.integers(4, 48)),
        max_seq=96,
    )
    n_gen = int(rng.integers(2, 20))
    steps = int(rng.integers(1, n_gen + 1))
    mode = ("baseline", "surelock", "selection", "hybrid")[case % 4]
    policy = LockPolicy(
        epsilon=float(rng.choice([1e-6, 1e-3, 1e-1])),
        percentile=float(rng.choice([0.0, 20.0, 50.0, 100.0])),
        gate_enabled=bool(rng.integers(0, 2)),
        hybrid_fraction=float(rng.uniform(0.5, 1.0)),
        unlock_enabled=bool(case % 5 == 0),
        probe_period=int(rng.integers(1, 4)),
        epsilon_unlock=float(rng.choice([1e-12, 1e-2])),
        min_locked_duration=int(rng.integers(1, 4)),
        relock_cooldown=int(rng.integers(1, 4)),
    )
    run = RunConfig(
        n_prompt=int(rng.integers(0, 8)),
        n_gen=n_gen,
        steps=steps,
        mode=mode,
        seed=case,
        temperature=float(rng.choice([0.0, 0.0, 0.8])),
        policy=policy,
    )
    return cfg, run


@pytest.mark.parametrize("case", CASES)
def test_random_configuration_invariants(case):
    cfg, run = build_case(case)
    w = init_weights(cfg, 100 + case)
    prompt = random_prompt(cfg, run.n_prompt, case)
    res = run_sampler(run, w, prompt)

    assert res.counter_matches
    assert sum(len(r.newly_unmasked) for r in res.trace) == run.n_gen
    assert cfg.mask_id not in res.tokens.tolist()
    assert res.total_flops_actual <= res.total_flops_base

    locked = set()
    for rec in res.trace:
        assert 0 <= rec.computed_rows <= rec.active_rows <= run.n_positions
        for p in rec.newly_locked:
            assert res.unmask_step[p] <= rec.t and p not in locked
            locked.add(p)
        for p in rec.newly_unlocked:
            assert p in locked
            locked.discard(p)
    if run.mode in ("surelock", "hybrid") and not run.policy.unlock_enabled:
        m = [rec.active_rows for rec in res.trace]
        assert all(b <= a for a, b in zip(m, m[1:]))

    # identical rerun, bit for bit
    res2 = run_sampler(run, w, random_prompt(cfg, run.n_prompt, case))
    assert np.array_equal(res.tokens, res2.tokens)
    assert [r.computed_rows for r in res.trace] == [r.computed_rows for r in res2.trace]


# ---------------------------------------------------------------------------
# the CLI's exit-code contract under malformed input: 0 ok, 2 configuration
# error, 3 invariant violation, and never an uncaught exception

TINY = {
    "model": {"vocab_size": 8, "d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 8, "max_seq": 16},
    "weights_seed": 3,
    "run": {"n_prompt": 2, "n_gen": 4, "steps": 4, "seed": 1},
    "policy": {"hybrid_fraction": 0.5},
}
SECTION_KEYS = {
    None: ["weights_path", "weights_seed", "weight_scale", "prompt_tokens", "output_dir", "modle"],
    "model": ["vocab_size", "d_model", "n_layers", "n_heads", "n_kv_heads", "d_ff", "max_seq", "mask_id", "dim"],
    "run": ["n_prompt", "n_gen", "steps", "mode", "block_length", "temperature", "seed", "stpes"],
    "policy": ["epsilon", "percentile", "gate_enabled", "hybrid_fraction", "unlock_enabled", "probe_period",
               "epsilon_unlock", "min_locked_duration", "relock_cooldown", "eps"],
}
# file names are plain letters, so every output lands in the example's own
# directory
SMALL_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True), st.text(alphabet="xyz", max_size=3),
    st.lists(st.integers(-2, 9), max_size=5), st.dictionaries(st.sampled_from(["a", "seed"]), st.integers(0, 3)),
)
# a model dimension beyond the parameter cap must be rejected before anything
# is shaped or allocated
MODEL_JUNK = st.one_of(SMALL_JUNK, st.integers(MAX_PARAMS + 1, 2**80))
JUNK = st.one_of(SMALL_JUNK, st.sampled_from([2**70, -(2**70)]))
FLAG_VALUES = st.sampled_from(["", "x", "nan", "inf", "-inf", "-1", "0", "1", "2", "3", "0.5", "1e9", "1e80",
                               "1e-13", "1e-200", "2,3", "1,,2", "99999999999999999999999"])
COMMON_FLAGS = ["--n-prompt", "--n-gen", "--steps", "--weight-scale"]
# only the sampling commands take the sampling flags and, apart from
# verify-bound, the lock policy; any other command would stop at argparse's
# rejection
SAMPLING_FLAGS = ["--block-length", "--temperature", "--seed", "--prompt"]
POLICY_FLAGS = ["--mode", "--eps", "--percentile", "--fraction"]
POLICY_SWITCHES = ["--no-gate", "--unlock"]
COMMAND_FLAGS = {
    "run": [*COMMON_FLAGS, *SAMPLING_FLAGS, *POLICY_FLAGS],
    "sweep": [*COMMON_FLAGS, *SAMPLING_FLAGS, *POLICY_FLAGS, "--eps-list", "--m-list", "--steps-list",
              "--ngen-list", "--seeds"],
    "verify-bound": [*COMMON_FLAGS, *SAMPLING_FLAGS, "--trajectories", "--eps"],
    "constants": [*COMMON_FLAGS, "--radius"],
    # simulate reads no config file, so it takes only its own flags and runs without --config
    "simulate": ["--count", "--rho-targets", "--vocab-sizes", "--steps", "--magnitude", "--seed"],
}
CONFIG_COMMANDS = [command for command in COMMAND_FLAGS if command != "simulate"]


@st.composite
def config_documents(draw):
    doc = json.loads(json.dumps(TINY))
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(list(SECTION_KEYS)))
        junk = MODEL_JUNK if section == "model" else JUNK
        if section is not None and draw(st.integers(0, 4)) == 0:
            doc[section] = draw(junk)  # the whole section
        elif section is None or isinstance(doc.get(section), dict):
            target = doc if section is None else doc[section]
            target[draw(st.sampled_from(SECTION_KEYS[section]))] = draw(junk)
    return draw(st.sampled_from([doc] * 9 + [[doc]]))  # now and then not an object


@contextlib.contextmanager
def working_directory(path):
    """``path`` as the working directory for the block (``contextlib.chdir`` needs Python 3.11)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_cli(argv, doc=None, weights=None, err=None) -> int:
    """``cli.main`` in a fresh directory; argparse's rejection counts as its
    exit code. ``doc`` is written as the config file and ``weights`` as
    ``weights.json``; stderr goes to ``err`` when given."""
    with tempfile.TemporaryDirectory() as tmp, working_directory(tmp), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err or io.StringIO()):
        if weights is not None:
            Path("weights.json").write_text(json.dumps(weights))
        if doc is not None:
            Path("config.json").write_text(json.dumps(doc))
            argv = [*argv, "--config", "config.json"]
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(CONFIG_COMMANDS), doc=config_documents())
def test_malformed_config_keeps_the_exit_code_contract(command, doc):
    assert run_cli([command], doc) in (0, 2, 3)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(COMMAND_FLAGS)))
    flags = draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=3, unique=True))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(FLAG_VALUES)]
    for switch in POLICY_SWITCHES if command in ("run", "sweep") else []:
        if draw(st.booleans()):
            argv.append(switch)
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=command_lines())
# simulate's sizes once ended in tracebacks: an empty or negative vocabulary,
# and a trajectory too large to shape
@example(argv=["simulate", "--vocab-sizes", "0"])
@example(argv=["simulate", "--vocab-sizes", "-1"])
@example(argv=["simulate", "--steps", "99999999999999999999999", "--count", "1"])
def test_malformed_flags_keep_the_exit_code_contract(argv):
    assert run_cli(argv, None if argv[0] == "simulate" else TINY) in (0, 2, 3)


def tiny_weight_file() -> dict:
    """The weight file ``save_weights`` writes for TINY's model, as parsed JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights.json"
        save_weights(init_weights(ModelConfig.from_dict(TINY["model"]), 3), path)
        return json.loads(path.read_text())


WEIGHTS = tiny_weight_file()
REQUIRED_MODEL_KEYS = ["vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq"]


def with_tensor(name: str, value) -> dict:
    doc = copy.deepcopy(WEIGHTS)
    doc["tensors"][name] = value
    return doc


def spelled(tensor):
    """``tensor`` with every number written as a string that spells it."""
    return json.loads(json.dumps(tensor), parse_float=str, parse_int=str)


def with_element(name: str, index: int, value) -> dict:
    """WEIGHTS with the scalar at flat ``index`` of tensor ``name`` set to ``value``."""
    arr = np.array(WEIGHTS["tensors"][name], dtype=object)
    arr.flat[index % arr.size] = value
    return with_tensor(name, arr.tolist())


@st.composite
def malformed_weight_files(draw):
    """A weight file that each loader must refuse: every fault drawn here is one."""
    doc = copy.deepcopy(WEIGHTS)
    name = draw(st.sampled_from(sorted(doc["tensors"])))
    tensor = doc["tensors"][name]
    fault = draw(st.sampled_from(["not-object", "config", "config-key", "config-missing", "seed", "top-key",
                                  "tensors", "missing", "extra", "shape", "ragged", "string", "null",
                                  "non-finite", "spelled", "numeric-string", "bool"]))
    if fault == "not-object":
        return draw(st.sampled_from([[doc], None, 3, "weights"]))
    if fault == "config":
        doc["config"] = draw(st.one_of(st.lists(st.integers(0, 9), max_size=3), st.none(), st.text(max_size=3)))
    elif fault == "config-key":
        doc["config"][draw(st.sampled_from(["dim", "vocab", "seed", "config"]))] = draw(SMALL_JUNK)
    elif fault == "config-missing":
        del doc["config"][draw(st.sampled_from(REQUIRED_MODEL_KEYS))]
    elif fault == "seed":
        doc["seed"] = draw(st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3)))
    elif fault == "top-key":
        if draw(st.booleans()):
            del doc[draw(st.sampled_from(["config", "tensors"]))]
        else:
            doc[draw(st.sampled_from(["model", "weights", "tensor"]))] = draw(SMALL_JUNK)
    elif fault == "tensors":
        doc["tensors"] = draw(st.one_of(st.just(list(doc["tensors"].values())), st.none(), st.integers()))
    elif fault == "missing":
        del doc["tensors"][name]
    elif fault == "extra":
        doc["tensors"][draw(st.sampled_from(["bias", "layers.1.wq", "head.bias"]))] = tensor
    elif fault == "shape":
        doc["tensors"][name] = draw(st.sampled_from([[tensor], tensor[:-1], tensor[0], 0.5]))
    elif fault == "ragged":
        doc["tensors"][name][0] = [tensor[0]] * 2
    elif fault == "spelled":
        doc["tensors"][name] = spelled(tensor)
    else:
        value = {"string": draw(st.text(alphabet="xyz", max_size=3)), "null": None,
                 "non-finite": draw(st.sampled_from([float("inf"), -float("inf"), float("nan")])),
                 "numeric-string": draw(st.sampled_from(["0.01", "-2", "1e-3"])),
                 "bool": draw(st.booleans())}[fault]
        if draw(st.booleans()):
            return with_element(name, draw(st.integers(0, 10**6)), value)
        doc["tensors"][name] = value
    return doc


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["run", "sweep", "verify-bound", "constants"]), weights=malformed_weight_files())
# these six once ended in a traceback with exit 1
@example(command="run", weights=[WEIGHTS])
@example(command="run", weights={**WEIGHTS, "config": [WEIGHTS["config"]]})
@example(command="run", weights={**WEIGHTS, "config": {**WEIGHTS["config"], "dim": 8}})
@example(command="run", weights={**WEIGHTS, "tensors": list(WEIGHTS["tensors"].values())})
@example(command="run", weights=with_tensor("head", [[0.0] * 8] * 7 + [[0.0] * 7]))
@example(command="run", weights=with_tensor("head", "x"))
# these two loaded, numpy parsing the strings and upcasting the bool, and exited 0
@example(command="run", weights=with_tensor("head", spelled(WEIGHTS["tensors"]["head"])))
@example(command="run", weights=with_element("head", 3, True))
def test_malformed_weight_file_keeps_the_exit_code_contract(command, weights):
    """Each is refused with exit 2 and one ``config error:`` line, and no
    exception escapes ``cli.main``."""
    err = io.StringIO()
    assert run_cli([command], {"weights_path": "weights.json", "run": TINY["run"]}, weights, err) == 2
    assert err.getvalue().startswith("config error:") and err.getvalue().count("\n") == 1
