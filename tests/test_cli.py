import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surelock import analysis, cli, errors
from surelock.cli import main
from surelock.lockctl import LockPolicy
from surelock.kernels import SOFTMAX_JACOBIAN_SUP, spectral_norm
from surelock.model import MAX_PARAMS, ModelConfig, init_weights, save_weights
from surelock.sampler import MODES, RunConfig

TOY = {
    "model": {"vocab_size": 16, "d_model": 16, "n_layers": 2, "n_heads": 2, "d_ff": 32, "max_seq": 32},
    "weights_seed": 41,
    "run": {"n_prompt": 4, "n_gen": 8, "steps": 8, "seed": 9},
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TOY))
    return str(path)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestRunCommand:
    def test_baseline_outputs(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", config_file, "--mode", "baseline", "--out", str(out)]) == 0
        rows = read_jsonl(out / "trace.jsonl")
        assert len(rows) == 8
        assert all(r["ratio"] == 1.0 for r in rows)
        assert set(rows[0]) >= {"t", "M_t", "C_t", "F_base", "F_actual", "ratio",
                                "newly_unmasked", "newly_locked", "mean_D"}
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["tokens"]) == 12
        assert summary["counter_matches"] is True
        timing = json.loads((out / "timing.json").read_text())
        assert timing["wall_seconds"] > 0

    def test_rerun_is_byte_identical(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run", "--config", config_file, "--mode", "surelock",
                         "--eps", "0.05", "--out", str(out)]) == 0
        for name in ("trace.jsonl", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unsatisfiable_eps_matches_baseline_files(self, tmp_path, config_file):
        out_b, out_s = tmp_path / "base", tmp_path / "lock"
        assert main(["run", "--config", config_file, "--mode", "baseline", "--out", str(out_b)]) == 0
        assert main(["run", "--config", config_file, "--mode", "surelock", "--eps", "-1",
                     "--out", str(out_s)]) == 0
        tok_b = json.loads((out_b / "summary.json").read_text())["tokens"]
        tok_s = json.loads((out_s / "summary.json").read_text())["tokens"]
        assert tok_b == tok_s

    def test_surelock_ratio_non_increasing(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", config_file, "--mode", "surelock",
                     "--eps", "0.05", "--out", str(out)]) == 0
        ratios = [r["ratio"] for r in read_jsonl(out / "trace.jsonl")]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_run_writes_three_files(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", config_file, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "timing.json", "trace.jsonl"]

    def test_relock_tightening_is_not_a_policy_key(self, tmp_path, capsys):
        """The re-lock factor is the constant ``lockctl.RELOCK_TIGHTENING``; a
        config that still sets it is refused before any sampling, by name."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TOY, "policy": {"relock_tightening": 0.5}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "relock_tightening" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,keys,allowed", [
        ("model", ["width", "dim"], ["vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq",
                                     "n_kv_heads", "mask_id"]),
        ("run", ["stpes", "policy"], ["n_prompt", "n_gen", "steps", "mode", "block_length", "temperature", "seed"]),
        ("policy", ["eps", "relock_tightening"], ["epsilon", "percentile", "gate_enabled", "hybrid_fraction",
                                                  "unlock_enabled", "probe_period", "epsilon_unlock",
                                                  "min_locked_duration", "relock_cooldown"]),
    ])
    def test_every_unknown_section_key_is_named(self, tmp_path, capsys, section, keys, allowed):
        """A section's keys are its class's fields (``run`` takes no
        ``policy``); every unknown one is named, with the allowed set, in one
        line, before any sampling."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TOY, section: {**TOY.get(section, {}), **dict.fromkeys(keys, 1)}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"config error: config section {section!r} has unknown keys "
                                           f"{sorted(keys)}; allowed: {allowed}\n")
        assert not (tmp_path / "o").exists()

    def test_require_keys_names_every_unknown_and_missing_key(self):
        with pytest.raises(errors.ConfigError) as info:
            errors.require_keys("thing", {"b": 1, "z": 2, "a": 3}, ("a", "c", "d"), required=("c", "a", "d"))
        assert str(info.value) == ("thing has unknown keys ['b', 'z'] and missing keys ['c', 'd']; "
                                   "allowed: ['a', 'c', 'd']")
        with pytest.raises(errors.ConfigError, match="^thing must be a JSON object, got list$"):
            errors.require_keys("thing", [], ("a",))
        doc = {"a": 1}
        assert errors.require_keys("thing", doc, ("a", "c"), required=("a",)) is doc

    def test_require_fields_applies_the_annotation_rules(self):
        """``int``, finite ``float`` and ``bool`` fields are checked, ``| None``
        admits None, and other annotations and non-field keys are not read."""
        ok = {"steps": 8, "block_length": None, "temperature": 0.5, "mode": 3, "policy": "x", "other": "y"}
        errors.require_fields(RunConfig, ok)
        errors.require_fields(LockPolicy, {"gate_enabled": np.True_, "hybrid_fraction": None})
        for cls, values, message in (
            (RunConfig, {"steps": None}, "steps must be an integer, got None"),
            (RunConfig, {"block_length": 2.0}, "block_length must be an integer, got 2.0"),
            (RunConfig, {"temperature": float("inf")}, "temperature must be a finite number, got inf"),
            (LockPolicy, {"hybrid_fraction": "x"}, "hybrid_fraction must be a finite number, got 'x'"),
            (LockPolicy, {"unlock_enabled": 1}, "unlock_enabled must be true or false, got 1"),
        ):
            with pytest.raises(errors.ConfigError, match=f"^{message}$"):
                errors.require_fields(cls, values)

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"run": {"steps": 99, "n_gen": 8}}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_mode_needs_fraction(self, config_file, tmp_path):
        assert main(["run", "--config", config_file, "--mode", "selection",
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_integer_prompt_is_config_error(self, tmp_path, config_file, capsys):
        """An empty --prompt is an error too, not a request for the random prompt."""
        for prompt in ("a,b", ""):
            assert main(["run", "--config", config_file, "--prompt", prompt,
                         "--out", str(tmp_path / "o")]) == 2
            assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nan_temperature_is_config_error(self, tmp_path, config_file, capsys):
        assert main(["run", "--config", config_file, "--temperature", "nan",
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_non_finite_tempered_distribution_is_invariant_violation(self, tmp_path, config_file, capsys, recwarn):
        out = tmp_path / "o"
        assert main(["run", "--config", config_file, "--temperature", "1e-310", "--out", str(out)]) == 3
        assert "invariant violation:" in capsys.readouterr().err
        assert not out.exists()
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("section,key,value", [
        ("run", "steps", 2.5),
        ("run", "seed", True),
        ("policy", "epsilon_unlock", "x"),
        (None, "weight_scale", "x"),
        (None, "weights_seed", "x"),
        ("model", None, [1]),
        ("run", None, [1]),
        ("policy", None, 3),
        (None, None, [1]),
        (None, "prompt_tokens", ["x"]),
        (None, "prompt_tokens", [1.5, 2, 3, 4]),
        (None, "weights_path", 3),
        (None, "modle", {}),  # a misspelled top-level key
        (None, "weights_path", ""),  # refused, not read as "no weight file"
        ("policy", "epsilon", "x"),
        ("run", "mode", "surelok"),  # the --mode below overrides it
        ("policy", "unlock_enabled", "yes"),  # the --unlock below overrides it
        ("run", "seed", None),  # not taken as "use the default"
    ])
    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys, section, key, value):
        """``value`` replaces ``section.key``; a None section means a top-level
        key, a None key the whole section, and both None the whole document.
        The file is checked whole when it is read, so a key with a flag is
        refused with that flag overriding it too. The error is one line
        naming the key, and nothing is written."""
        if key is None:
            doc = value if section is None else {**TOY, section: value}
        elif section is None:
            doc = {**TOY, key: value}
        else:
            doc = {**TOY, section: {**TOY.get(section, {}), key: value}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        # --n-gen 16 lets --steps 16 complete a valid run
        overriding = {"steps": ["--steps", "16", "--n-gen", "16"], "seed": ["--seed", "0"],
                      "weight_scale": ["--weight-scale", "1"], "epsilon": ["--eps", "1e-3"]}
        for flags in ([], overriding[key]) if key in overriding else ([],):
            assert main(["run", "--config", str(path), "--mode", "surelock", "--unlock", *flags,
                         "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert "config error:" in err and (key is None or key in err)
            assert err.startswith("config error:") and err.count("\n") == 1
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("where", ["--seed", "run", "weights_seed"])
    def test_seed_outside_the_stream_range_is_config_error(self, tmp_path, capsys, where, seed):
        """The streams keep a seed's low 64 bits, so a seed outside [0, 2**64)
        would draw another seed's stream: a ``--seed``, the file's run seed or
        its ``weights_seed`` there exits 2 with one line, and nothing is written."""
        doc = {**TOY, "run": {**TOY["run"], "seed": seed}} if where == "run" else dict(TOY)
        if where == "weights_seed":
            doc["weights_seed"] = seed
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        flags = ["--seed", str(seed)] if where == "--seed" else []
        assert main(["run", "--config", str(path), *flags, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and "2**64" in err
        assert not (tmp_path / "o").exists()

    def test_largest_seed_runs(self, tmp_path):
        """2**64 - 1, the last seed in range, is a run seed and a weights seed."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TOY, "weights_seed": 2**64 - 1}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--seed", str(2**64 - 1), "--temperature", "1",
                     "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 2**64 - 1

    @pytest.mark.parametrize("key,value", [("vocab_size", 2**70), ("n_layers", 10**8)])
    def test_model_above_the_parameter_cap_is_config_error(self, tmp_path, capsys, key, value):
        """Rejected from the closed-form count, before any tensor is built."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {key: value}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"above the cap of {MAX_PARAMS}" in err

    def test_mistyped_output_dir_is_config_error(self, tmp_path, capsys, monkeypatch):
        """``output_dir`` is checked when the file is read, so it is refused
        with ``--out`` overriding it too. An empty one is refused, not taken
        as the current directory."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        for value in (3, ""):
            path.write_text(json.dumps({**TOY, "output_dir": value}))
            for out in ([], ["--out", "o"]):
                assert main(["run", "--config", str(path), *out]) == 2
                assert "output_dir" in capsys.readouterr().err
                assert list(tmp_path.iterdir()) == [path]

    def test_overflowing_weight_scale_is_invariant_violation(self, tmp_path, config_file, capsys, recwarn):
        """The attention scores overflow silently; the logits check refuses them."""
        assert main(["run", "--config", config_file, "--weight-scale", "1e80",
                     "--out", str(tmp_path / "o")]) == 3
        assert "invariant violation:" in capsys.readouterr().err
        assert [str(w.message) for w in recwarn] == []

    def test_large_finite_weight_scale_runs_without_warning(self, tmp_path, recwarn):
        """At scale 300 some SiLU gates are below -709, so exp(-gate)
        overflows to inf and the gate is the exact limit -0.0: the run
        succeeds with finite output and warns about nothing."""
        assert main(["run", "--weight-scale", "300", "--out", str(tmp_path / "o")]) == 0
        assert [str(w.message) for w in recwarn] == []

    def test_overflowing_layer_norm_is_invariant_violation(self, tmp_path, capsys, recwarn):
        """At scale 1e40 a later layer norm's variance overflows; the run
        stops at exit 3 instead of continuing on the bias alone, with no
        warning."""
        assert main(["run", "--weight-scale", "1e40", "--out", str(tmp_path / "o")]) == 3
        assert "invariant violation:" in capsys.readouterr().err
        assert [str(w.message) for w in recwarn] == []

    def test_weights_file_not_json_is_config_error(self, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text("not json")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"weights_path": str(weights), "run": TOY["run"]}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_model_and_weights_path_are_exclusive(self, tmp_path, capsys, monkeypatch):
        """A weight file replaces both the model section and the weights
        seed: either key set with it exits 2, naming both, before the weight
        file is read."""
        monkeypatch.setattr(cli, "load_weights", lambda path: pytest.fail("weight file read"))
        weights = tmp_path / "w.json"
        save_weights(init_weights(ModelConfig.from_dict(cli.DEFAULT_MODEL), 0), weights)
        path = tmp_path / "config.json"
        for key, value in (("model", {"vocab_size": 64}), ("weights_seed", 5)):
            path.write_text(json.dumps({"weights_path": str(weights), key: value}))
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert "config error:" in err and repr(key) in err and "'weights_path'" in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["baseline", "surelock", "hybrid"])
    def test_saved_weights_reproduce_the_seeded_run(self, tmp_path, mode):
        """A run from the ``save_weights`` file of the default model's seeded
        weights writes that seeded run's trace.jsonl and summary.json byte for
        byte."""
        weights = tmp_path / "w.json"
        save_weights(init_weights(ModelConfig.from_dict(cli.DEFAULT_MODEL), 1234), weights)
        path = tmp_path / "loaded.json"
        path.write_text(json.dumps({"weights_path": str(weights)}))
        flags = ["--mode", mode, "--fraction", "0.5"]
        assert main(["run", *flags, "--out", str(tmp_path / "seeded")]) == 0
        assert main(["run", "--config", str(path), *flags, "--out", str(tmp_path / "loaded")]) == 0
        for name in ("trace.jsonl", "summary.json"):
            assert (tmp_path / "loaded" / name).read_bytes() == (tmp_path / "seeded" / name).read_bytes()

    def test_prompt_flag_beats_config_prompt(self, tmp_path):
        """--prompt overrides ``prompt_tokens`` as any flag overrides the file."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TOY, "prompt_tokens": [1, 2, 3, 4]}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--prompt", "5,6,7,8", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["prompt_tokens"] == summary["tokens"][:4] == [5, 6, 7, 8]


class TestSweepCommand:
    def test_epsilon_ordering(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", config_file, "--mode", "surelock",
                     "--eps-list", "5e-4,5e-3,5e-2", "--out", str(out)]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        actual = [int(r["F_actual"]) for r in rows]
        assert all(b <= a for a, b in zip(actual, actual[1:]))

    def test_every_point_matches_run(self, tmp_path, config_file):
        """Each row of an epsilon x seed x n_gen grid equals the ``run`` of
        that point: its own seed's prompt, and steps = n_gen when neither
        --steps nor --steps-list is given, else the --steps value."""
        for case, (steps, ngen) in enumerate([(None, ("4", "8")), ("4", ("8", "16"))]):
            out_s = tmp_path / f"sweep{case}"
            steps_flag = [] if steps is None else ["--steps", steps]
            assert main(["sweep", "--config", config_file, "--mode", "surelock", "--eps-list", "5e-4,5e-2",
                         "--seeds", "0,1", "--ngen-list", ",".join(ngen), *steps_flag, "--out", str(out_s)]) == 0
            with open(out_s / "sweep.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [(r["epsilon"], r["n_gen"], r["seed"]) for r in rows] == [
                (e, g, s) for e in ("0.0005", "0.05") for g in ngen for s in ("0", "1")]
            for i, row in enumerate(rows):
                assert row["steps"] == (steps or row["n_gen"])
                out_r = tmp_path / f"run{case}.{i}"
                assert main(["run", "--config", config_file, "--mode", "surelock", "--eps", row["epsilon"],
                             "--seed", row["seed"], "--n-gen", row["n_gen"], "--steps", row["steps"],
                             "--out", str(out_r)]) == 0
                summary = json.loads((out_r / "summary.json").read_text())
                assert int(row["F_base"]) == summary["totals"]["F_base"]
                assert int(row["F_actual"]) == summary["totals"]["F_actual"]
                assert float(row["active_ratio"]) == summary["active_ratio"]
                assert int(row["locks"]) == sum(e["kind"] in ("lock", "relock") for e in summary["lock_events"])

    def test_config_read_and_weights_built_once(self, tmp_path, config_file, monkeypatch):
        calls = {"init_weights": 0, "_load_config_file": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(cli, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cli, name, counted)
        assert main(["sweep", "--config", config_file, "--mode", "surelock", "--weight-scale", "2",
                     "--eps-list", "5e-4,5e-2", "--seeds", "0,1", "--out", str(tmp_path / "s")]) == 0
        assert calls == {"init_weights": 1, "_load_config_file": 1}

    def test_mistyped_config_value_is_refused_though_every_point_sets_it(self, tmp_path, capsys):
        """Each point sets ``epsilon``, but the file's mistyped one is still
        refused when the file is read: one line naming it, nothing written."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TOY, "policy": {"epsilon": "x"}}))
        assert main(["sweep", "--config", str(path), "--mode", "surelock", "--eps-list", "1e-3,1e-2",
                     "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and "epsilon" in err
        assert not (tmp_path / "s").exists()

    def test_bad_last_point_fails_before_any_run(self, tmp_path, config_file, monkeypatch):
        """4 prompt + 40 generated positions exceed max_seq=32, and an
        explicit --steps 12 does not fit n_gen=8."""
        runs = []
        monkeypatch.setattr(cli, "run_sampler", lambda *args, **kwargs: runs.append(args))
        for case, flags in enumerate([["--ngen-list", "8,40"], ["--steps", "12", "--ngen-list", "16,8"]]):
            out = tmp_path / f"sweep{case}"
            assert main(["sweep", "--config", config_file, *flags, "--out", str(out)]) == 2
            assert runs == []
            assert not (out / "sweep.csv").exists()

    def test_two_seeds_two_rows(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", config_file, "--mode", "surelock",
                     "--seeds", "1,2", "--out", str(out)]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["1", "2"]

    def test_empty_grid_rejected(self, tmp_path, config_file):
        assert main(["sweep", "--config", config_file, "--eps-list", "",
                     "--out", str(tmp_path / "s")]) == 2


# sha256 of each bound command's --out file. The simulate pins were taken
# before the battery was built in batches, the verify-bound pins before a
# trajectory carried its per-step arrays; neither change may move the bytes.
# At --eps 6e-13 the default config's positions lock at steps 8 and 13
BOUND_FILE_PINS = [
    (["simulate", "--count", "200"], "41058d51e396923e1767fb9bac6e79bfb38e59dcdd32cb4d0a38fd177484333a"),
    (["simulate", "--count", "20", "--magnitude", "1e4"],
     "7474e3988114266eafd8ec13ad749da1ad1b6a17f2ceb5ea3fec54be3d5480f2"),
    (["simulate", "--count", "60", "--rho-targets", "0.2,0.5", "--vocab-sizes", "16,256", "--steps", "30"],
     "7ca8f5f76970673ae7a3e6644b82bbd88c586aa8aee60b998b8990a3fe4fca85"),
    (["verify-bound"], "206fe3c6f4409067c22d07ab594c4f92b8574ceb1f5a4cdf005a95382c93e24a"),
    (["verify-bound", "--eps", "inf"], "206fe3c6f4409067c22d07ab594c4f92b8574ceb1f5a4cdf005a95382c93e24a"),
    (["verify-bound", "--eps", "6e-13"], "0fc657a5bf71474ad708499dbae70110cd9b6c11b03fe789045ba9d496feed08"),
]
# sha256 of the trajectories.json ``run --record-trajectories`` writes on the
# default config, taken while each trajectory still carried its logits and the
# file was written from them; writing it from the history may not move the bytes
RECORDED_TRAJECTORIES_PIN = "85d5b8b2f8e24eb7e0ae142899f9dc015ab7bcd7ea8b72ad50e6c71f6f713523"


def out_sha256(argv, path) -> str:
    assert main([*argv, "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestVerifyAndSimulate:
    @pytest.mark.parametrize("argv,digest", BOUND_FILE_PINS, ids=["default", "magnitude", "cells", "verify",
                                                                 "verify-inf", "verify-finite"])
    def test_bound_files_are_pinned(self, tmp_path, argv, digest):
        assert out_sha256(argv, tmp_path / "reports.json") == digest

    def test_recorded_trajectories_are_pinned(self, tmp_path):
        assert main(["run", "--record-trajectories", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "trajectories.json").read_bytes()).hexdigest() == RECORDED_TRAJECTORIES_PIN

    @pytest.mark.parametrize("pin", [BOUND_FILE_PINS[4], BOUND_FILE_PINS[5]], ids=["inf", "finite"])
    def test_recorded_trajectories_give_the_fresh_reports(self, tmp_path, pin):
        """``verify-bound --trajectories`` on a recorded default run writes the
        fresh ``verify-bound``'s pinned bytes at the same --eps."""
        (_, *eps), digest = pin
        assert main(["run", "--record-trajectories", "--out", str(tmp_path / "run")]) == 0
        argv = ["verify-bound", "--trajectories", str(tmp_path / "run" / "trajectories.json"), *eps]
        assert out_sha256(argv, tmp_path / "reports.json") == digest

    @pytest.mark.parametrize("budget", [1, 600_000])
    def test_battery_bytes_do_not_depend_on_the_batch_budget(self, tmp_path, monkeypatch, budget):
        """One trajectory per batch, or a few: the same reports as the
        default budget, from batches whose logits stay within it."""
        batches = []
        simulate = cli.analysis.simulate_trajectories

        def recorded(seeds, vocab, steps, *args):
            batches.append((len(seeds), 8 * len(seeds) * vocab * steps))
            return simulate(seeds, vocab, steps, *args)

        monkeypatch.setattr(cli.analysis, "simulate_trajectories", recorded)
        monkeypatch.setattr(cli, "BATTERY_BATCH_BYTES", budget)
        argv, digest = BOUND_FILE_PINS[2]
        assert out_sha256(argv, tmp_path / "reports.json") == digest
        assert sum(n for n, _ in batches) == 60
        assert all(n == 1 or size <= budget for n, size in batches)
        # each of the four (rho, vocab) cells, in order, builds its 15 trajectories in
        # batches of as many as fit the budget, and at least one
        want = []
        for vocab in (16, 256, 16, 256):
            per_batch = max(1, budget // (8 * 30 * vocab))
            want += [min(per_batch, 15 - start) for start in range(0, 15, per_batch)]
        assert [n for n, _ in batches] == want

    @pytest.mark.parametrize("flags", [
        ["--count", "0"],
        ["--count", "-3"],
        ["--count", str(cli.MAX_BATTERY + 1)],
        ["--vocab-sizes", "0"],
        ["--vocab-sizes", "8,-4"],
        ["--vocab-sizes", "99999999999999999999999", "--count", "1"],
        ["--steps", "99999999999999999999999", "--count", "1"],
        ["--steps", "100000000", "--count", "5"],
        ["--magnitude", "nan"],
        ["--magnitude", "inf"],
    ])
    def test_simulate_refuses_bad_sizes_before_drawing(self, monkeypatch, capsys, flags):
        """A count below 1 or above the battery cap, a vocabulary below 1, a
        trajectory above the logit cap and a magnitude that is not finite
        exit 2 before anything is drawn."""
        drawn = []
        monkeypatch.setattr(cli.analysis, "simulate_trajectories", lambda *args: drawn.append(args))
        assert main(["simulate", *flags]) == 2
        assert drawn == []
        assert "config error:" in capsys.readouterr().err

    def test_simulate_full_battery(self, capsys):
        assert main(["simulate", "--count", "200"]) == 0
        out = capsys.readouterr().out
        assert "200/200 bound holds" in out

    def test_simulate_infinite_gain_is_not_nan(self, tmp_path, capsys):
        """Large magnitudes give trajectories with a zero lock-time KL and an
        infinite gain; their right-hand side is infinity and the bound holds."""
        out = tmp_path / "sim.json"
        assert main(["simulate", "--count", "20", "--magnitude", "1e4", "--out", str(out)]) == 0
        assert "3/20 bound holds (3 applicable of 20)" in capsys.readouterr().out
        rows = json.loads(out.read_text())
        assert "NaN" not in out.read_text() and any(r["rhs"] == float("inf") for r in rows)

    def test_simulate_overflowing_norm_does_not_warn(self, recwarn):
        """At magnitude 1e308 a logit move's squared norm overflows; the
        norm is +inf, the IEEE answer, and no warning is printed."""
        assert main(["simulate", "--count", "5", "--magnitude", "1e308"]) == 0
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("flag", ["--rho-targets", "--vocab-sizes"])
    def test_empty_simulate_list_is_config_error(self, flag, capsys):
        assert main(["simulate", "--count", "3", flag, ""]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_verify_bound_fresh_run(self, config_file, capsys):
        assert main(["verify-bound", "--config", config_file]) == 0
        out = capsys.readouterr().out
        assert "trajectories" in out

    def test_verify_bound_eps_is_only_the_bound_threshold(self, tmp_path, config_file):
        """inf, the default, writes the same reports as no --eps; NaN is
        refused for a fresh run and for stored trajectories alike."""
        reports = [tmp_path / "default.json", tmp_path / "inf.json"]
        for report, eps in zip(reports, ([], ["--eps", "inf"])):
            assert main(["verify-bound", "--config", config_file, *eps, "--out", str(report)]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        out = tmp_path / "out"
        assert main(["run", "--config", config_file, "--record-trajectories", "--out", str(out)]) == 0
        for source in (["--config", config_file], ["--trajectories", str(out / "trajectories.json")]):
            assert main(["verify-bound", *source, "--eps", "nan", "--out", str(tmp_path / "nan.json")]) == 2
        assert not (tmp_path / "nan.json").exists()

    def test_verify_bound_stored_trajectories(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", config_file, "--record-trajectories",
                     "--out", str(out)]) == 0
        report = tmp_path / "bound.json"
        assert main(["verify-bound", "--trajectories", str(out / "trajectories.json"),
                     "--out", str(report)]) == 0
        rows = json.loads(report.read_text())
        assert len(rows) == 12
        assert all(r["holds"] for r in rows if r["status"] == "ok")
        assert all((r["growth_step"] is None) == (r["status"] != "inapplicable") for r in rows)


class TestVerifyBoundInputErrors:
    @pytest.mark.parametrize("text", [
        "not json",  # not JSON at all
        json.dumps([{"position": 0}]),  # an item without log_probs
        json.dumps([{"log_probs": [[0.0, 1.0], [0.5], [1.0, 0.0]]}]),  # ragged rows
        json.dumps([{"log_probs": [[0.0, 1.0], [float("nan"), 0.0], [1.0, 0.0]]}]),  # NaN logits
        json.dumps([{"position": 0, "log_probs": [[1e308, -1e308]] * 4}]),  # log-softmax overflows
        json.dumps([{"position": 0, "log_probs": [[], [], []]}]),  # empty vocabulary
        *(json.dumps([{"position": p, "log_probs": [[0.0, 1.0]] * 3}]) for p in ("x", True, 2.5, None, [1])),
        json.dumps({"position": 0, "log_probs": [[0.0, 1.0]] * 3}),  # an item, not an array of them
        json.dumps([3]),  # an item that is not an object
        json.dumps([{"log_probs": "abc"}]),  # log_probs that do not convert to floats
        json.dumps([{"log_probs": [[0.0, {}]] * 3}]),
        "[" * 100_000 + "]" * 100_000,  # nested too deep to parse
        json.dumps([{"log_probs": [["0.1", "0.9"]] * 3}]),  # numbers spelled as strings
        json.dumps([{"log_probs": [[True, False], [0.5, 0.5], [1.0, 0.0]]}]),  # bools among numbers
        '[{"position": 0, "log_probs": [[0, Infinity], [0, 0], [0, 0]]}]',  # an infinite logit
    ], ids=["not-json", "missing-log-probs", "ragged", "nan", "overflow", "empty-vocabulary",
            "position-str", "position-bool", "position-float", "position-null", "position-list",
            "not-array", "item-not-object", "log-probs-str", "log-probs-object", "too-deep",
            "log-probs-numeric-str", "log-probs-bool", "inf"])
    def test_bad_trajectories_file_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "trajectories.json"
        path.write_text(text)
        assert main(["verify-bound", "--trajectories", str(path)]) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert "not applicable" not in captured.out

    def test_mistyped_position_names_the_item(self, tmp_path, capsys):
        good = {"position": 0, "log_probs": [[0.0, 1.0]] * 3}
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([good, {**good, "position": "x"}]))
        assert main(["verify-bound", "--trajectories", str(path)]) == 2
        assert "trajectory 1 position must be an integer, got 'x'" in capsys.readouterr().err

    def test_unknown_item_keys_are_named(self, tmp_path, capsys):
        good = {"position": 0, "log_probs": [[0.0, 1.0]] * 3}
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([good, {**good, "pos": 1, "logits": []}]))
        assert main(["verify-bound", "--trajectories", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: trajectory 1 has unknown keys ['logits', 'pos']; "
                                "allowed: ['log_probs', 'position']\n")
        assert captured.out == ""

    def test_missing_position_is_minus_one(self, tmp_path):
        path, report = tmp_path / "trajectories.json", tmp_path / "bound.json"
        path.write_text(json.dumps([{"log_probs": [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]}]))
        assert main(["verify-bound", "--trajectories", str(path), "--out", str(report)]) == 0
        assert [r["position"] for r in json.loads(report.read_text())] == [-1]

    def test_empty_trajectories_path_is_config_error(self, capsys):
        """An empty path names no file, as an empty ``--prompt`` names no ids."""
        assert main(["verify-bound", "--trajectories", ""]) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err and "trajectories" not in captured.out

    def test_trajectories_refuse_fresh_run_inputs(self, tmp_path, config_file, capsys):
        """Stored trajectories leave nothing for the run inputs to set; each
        given one is named."""
        out = tmp_path / "out"
        assert main(["run", "--config", config_file, "--record-trajectories", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify-bound", "--trajectories", str(out / "trajectories.json"), "--config",
                     str(tmp_path / "missing.json"), "--seed", "3", "--weight-scale", "9"]) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--config", "--seed", "--weight-scale"))


def recorded_run(tmp, doc):
    """The result of ``run --record-trajectories`` on the config ``doc``,
    which writes trajectories.json in directory ``tmp``."""
    results = []
    run_sampler = cli.run_sampler

    def capture(*args, **kwargs):
        results.append(run_sampler(*args, **kwargs))
        return results[-1]

    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "run_sampler", capture)
        assert main(["run", "--config", str(path), "--record-trajectories", "--out", tmp]) == 0
    return results[0]


class TestRecordedTrajectories:
    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(MODES), vocab=st.integers(3, 12), heads=st.sampled_from([(1, 1), (2, 1), (2, 2)]),
           n_prompt=st.integers(0, 4), n_gen=st.integers(1, 8), unlock=st.booleans(), seed=st.integers(0, 2**16))
    def test_streamed_file_is_the_whole_document(self, mode, vocab, heads, n_prompt, n_gen, unlock, seed):
        """trajectories.json is written one position at a time, and its bytes
        are ``json.dumps`` of the whole list of items, built at once."""
        doc = {"model": {"vocab_size": vocab, "d_model": 4 * heads[0], "n_layers": 1, "n_heads": heads[0],
                         "n_kv_heads": heads[1], "d_ff": 8, "max_seq": 16},
               "run": {"n_prompt": n_prompt, "n_gen": n_gen, "steps": n_gen, "mode": mode, "seed": seed},
               "policy": {"hybrid_fraction": 0.5, "epsilon": 5e-2, "unlock_enabled": unlock, "probe_period": 1,
                          "epsilon_unlock": 1e-12, "min_locked_duration": 1}}
        with tempfile.TemporaryDirectory() as tmp:
            result = recorded_run(tmp, doc)
            data = (Path(tmp) / "trajectories.json").read_bytes()
        whole = [{"position": i, "log_probs": result.history[:, i].tolist()}
                 for i in np.flatnonzero(result.history_valid.all(axis=0)).tolist()]
        assert data == json.dumps(whole).encode()

    def test_recording_holds_one_position_at_a_time(self, tmp_path):
        """The run's traced peak stays under twice the recorded history's
        bytes; building the whole document first peaked at about ten times."""
        doc = {"model": {"vocab_size": 256, "d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 16, "max_seq": 64},
               "run": {"n_prompt": 16, "n_gen": 48, "steps": 48}}
        tracemalloc.start()
        try:
            result = recorded_run(str(tmp_path), doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.history.nbytes == 48 * 64 * 256 * 8
        assert peak < 2 * result.history.nbytes


class TestPolicyFlags:
    @pytest.mark.parametrize("command,flag", [
        pytest.param(command, flag, id=f"{command}{flag[0]}")
        for command in ("verify-bound", "constants")
        for flag in (["--mode", "baseline"], ["--eps", "0.05"], ["--percentile", "50"], ["--no-gate"],
                     ["--fraction", "0.5"], ["--unlock"])
        if flag[0] != "--eps" or command == "constants"  # verify-bound's own --eps is the bound's threshold
    ])
    def test_commands_without_a_lock_policy_reject_its_flags(self, config_file, command, flag):
        """Only run and sweep sample with a lock policy; elsewhere its flags
        would change nothing, so argparse refuses them."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_file, *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--block-length", "4"], ["--temperature", "0.9"], ["--seed", "7"],
                                      ["--prompt", "1,2,3"], ["--samples", "10"]])
    def test_constants_rejects_sampling_flags(self, config_file, flag):
        """The constants report samples nothing, so the flags that only
        change a sampling run, and a sample count, are refused."""
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--config", config_file, *flag])
        assert exc.value.code == 2


class TestConstantsCommand:
    def test_report_fields(self, tmp_path, config_file):
        out = tmp_path / "constants.json"
        assert main(["constants", "--config", config_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for key in ("embedding_gain", "block_gain", "network_gain", "overall_gain",
                    "softmax_jacobian_sup", "input_radius"):
            assert key in doc
        assert doc["softmax_jacobian_sup"] == SOFTMAX_JACOBIAN_SUP == 0.5

    def test_kappa_is_refused(self, config_file, capsys):
        """``overall_gain`` is the report's one composed bound; there is no
        tail share to scale it by."""
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--config", config_file, "--kappa", "0.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --kappa 0.5" in err and "Traceback" not in err

    @pytest.mark.parametrize("scale", ["1e30", "1e80"])
    def test_overflowing_report_is_invariant_violation(self, tmp_path, capsys, recwarn, scale):
        """At 1e30 the block gain overflows; at 1e80 the attention and FFN
        gains do too. Neither may end in a traceback, a warning or a report."""
        out = tmp_path / "constants.json"
        assert main(["constants", "--weight-scale", scale, "--out", str(out)]) == 3
        assert [str(w.message) for w in recwarn] == []
        assert "invariant violation:" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags", [["--weight-scale", "1e80"], ["--radius", "1e308"]],
                             ids=["weight-scale-1e80", "radius-1e308"])
    def test_overflowing_report_warns_nothing(self, tmp_path, capsys, recwarn, flags):
        """The gains overflow silently, and the report's finiteness check
        refuses them at exit 3."""
        assert main(["constants", *flags, "--out", str(tmp_path / "c.json")]) == 3
        assert "invariant violation:" in capsys.readouterr().err
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("flags", [["--radius", "1e-13"], ["--weight-scale", "1e-20"]],
                             ids=["radius-1e-13", "weight-scale-1e-20"])
    def test_tiny_ball_gives_a_report(self, flags):
        """A tiny ball, or a default ball that shrinks with tiny weights,
        gives a report with small gains."""
        assert main(["constants", *flags]) == 0

    def test_tiny_radius_gives_finite_gains_without_warning(self, tmp_path, recwarn):
        """A radius so small that squares underflow gives finite gains and no
        warning: column norms are taken on the matrix divided by its largest
        entry, and spectral norms by a rescaling SVD."""
        out = tmp_path / "constants.json"
        assert main(["constants", "--radius", "1e-200", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(math.isfinite(doc[key]) for key in ("ffn_gain", "layernorm_gain", "overall_gain"))
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("flags,names", [
        (["--weight-scale", "1e-300"], "attention_gain, ffn_gain, overall_gain, per_layer[0].attention_gain, "
                                       "per_layer[0].ffn_gain, per_layer[1].attention_gain, per_layer[1].ffn_gain"),
        (["--radius", "5e-324"], "ffn_gain, per_layer[0].ffn_gain, per_layer[1].ffn_gain"),
    ], ids=["weight-scale-1e-300", "radius-5e-324"])
    def test_underflowed_gain_is_invariant_violation(self, tmp_path, capsys, recwarn, flags, names):
        """Every weight is non-zero, but a gain that multiplies two tiny norms,
        or a norm and the radius, rounds to 0.0. The report would show a
        positive bound as 0.0, so it is refused at exit 3, naming each such
        gain, with no warning and no file."""
        out = tmp_path / "constants.json"
        assert main(["constants", *flags, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"invariant violation: constants report underflows to 0.0 in {names}\n"
        assert [str(w.message) for w in recwarn] == []
        assert not out.exists()

    def test_zero_weights_give_zero_gains(self, tmp_path):
        """With every weight zero, the gains are 0.0 exactly, not by underflow."""
        out = tmp_path / "constants.json"
        assert main(["constants", "--weight-scale", "0", "--radius", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["attention_gain"] == doc["ffn_gain"] == doc["overall_gain"] == 0.0

    @pytest.mark.parametrize("scale", ["1e-150", "1e-200"])
    def test_tiny_weights_keep_exact_norms(self, capsys, scale):
        """A power iteration's squared iterates underflowed here (0.0 norms at
        1e-200, NaN at 1e-150); the SVD rescales and keeps every norm. Gains
        that multiply two such norms underflow, so the report is refused
        without naming a norm."""
        assert main(["constants", "--weight-scale", scale, "--radius", "1"]) == 3
        err = capsys.readouterr().err
        assert "underflows to 0.0 in" in err and "embedding_gain" not in err and "head_norm" not in err
        w = init_weights(ModelConfig(**cli.DEFAULT_MODEL), 1234).scaled(float(scale))
        assert analysis.embedding_gain(w.embedding) == math.sqrt(2) * np.linalg.svd(w.embedding, compute_uv=False)[0] > 0.0
        assert spectral_norm(w.head) == np.linalg.svd(w.head, compute_uv=False)[0] > 0.0


class TestParserReuse:
    def test_interleaved_calls_match_fresh_parsers(self, tmp_path, config_file, capsys, monkeypatch):
        """``main`` parses every call with one parser, built once. A sequence
        that switches subcommands and sets flags, then leaves them out, gives
        each call the exit code, output and files a fresh parser gives it: no
        call's values or defaults reach the next, an argparse refusal
        included."""
        out = tmp_path / "out"
        calls = [
            ["run", "--config", config_file, "--mode", "hybrid", "--fraction", "0.5", "--eps", "0.05",
             "--no-gate", "--unlock", "--seed", "3", "--temperature", "0.9", "--out", str(out)],
            ["run", "--config", config_file, "--out", str(out)],
            ["simulate", "--count", "6", "--seed", "5", "--magnitude", "1e4", "--steps", "10",
             "--out", str(out / "sim.json")],
            ["simulate", "--count", "6", "--out", str(out / "sim.json")],
            ["verify-bound", "--config", config_file, "--eps", "1e-3", "--weight-scale", "4",
             "--out", str(out / "bound.json")],
            ["constants", "--seed", "3"],
            ["verify-bound", "--config", config_file, "--out", str(out / "bound.json")],
            ["sweep", "--config", config_file, "--mode", "surelock", "--eps-list", "5e-4,5e-2", "--out", str(out)],
            ["sweep", "--config", config_file, "--seeds", "0,1", "--out", str(out)],
            ["constants", "--config", config_file, "--radius", "2"],
            ["constants", "--config", config_file],
            ["verify-bound", "--trajectories", ""],
        ]

        def outcomes():
            seen = []
            for argv in calls:
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse refuses the command line
                    rc = exc.code
                captured = capsys.readouterr()
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "timing.json"}
                seen.append((rc, captured.out, captured.err, files))
            return seen

        reused = outcomes()
        assert cli._parser() is cli._parser()
        assert [rc for rc, *_ in reused] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert outcomes() == reused


UNWRITABLE_OUTPUTS = {
    "run-under-a-file": (["run"], "file/out"),
    "run-at-a-file": (["run"], "file"),
    "sweep-at-a-file": (["sweep", "--seeds", "0,1"], "file"),
    "verify-bound-at-a-directory": (["verify-bound"], "dir"),
    "simulate-at-a-directory": (["simulate", "--count", "3"], "dir"),
    "constants-at-a-directory": (["constants"], "dir"),
}


@pytest.fixture()
def work_calls(monkeypatch):
    """The names of the sampling, battery and report calls made, in order."""
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "run_sampler", spy(cli.run_sampler))
    monkeypatch.setattr(analysis, "simulate_trajectories", spy(analysis.simulate_trajectories))
    monkeypatch.setattr(analysis, "lipschitz_constants", spy(analysis.lipschitz_constants))
    return calls


class TestOutputPaths:
    """Every output is written by ``errors.write_text``: a path that cannot be
    written exits 2 with one ``cannot write`` line, and a missing parent
    directory is created."""

    @pytest.mark.parametrize("argv, target", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS)
    def test_unwritable_output_is_config_error(self, tmp_path, config_file, capsys, argv, target):
        (tmp_path / "file").write_text("x")
        (tmp_path / "dir").mkdir()
        config = [] if argv[0] == "simulate" else ["--config", config_file]
        assert main([*argv, *config, "--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {tmp_path / target}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, target", [
        (["sweep", "--seeds", "0,1"], "file"),
        (["run"], "file/sub"),
        (["verify-bound"], "file/r.json"),
        (["simulate", "--count", "3"], "file/sub/s.json"),
        (["constants"], "file/c.json"),
        (["verify-bound"], "dir"),
    ], ids=["sweep-at-a-file", "run-under-a-file", "verify-bound-under-a-file", "simulate-under-a-file",
            "constants-under-a-file", "verify-bound-at-a-directory"])
    def test_unwritable_output_directory_is_refused_before_sampling(self, tmp_path, config_file, work_calls,
                                                                     capsys, argv, target):
        """An output whose nearest existing ancestor is a regular file exits 2
        naming that file, and an output file at a directory exits 2 saying
        so, before any run, battery or report is computed and with nothing on
        stdout."""
        (tmp_path / "file").write_text("x")
        (tmp_path / "dir").mkdir()
        config = [] if argv[0] == "simulate" else ["--config", config_file]
        assert main([*argv, *config, "--out", str(tmp_path / target)]) == 2
        assert work_calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "it is a directory" if target == "dir" else f"{tmp_path / 'file'} is not a directory"
        assert captured.err == f"config error: cannot write {tmp_path / target}: {reason}\n"

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--seeds", "0,1"], ["verify-bound"],
                                      ["simulate", "--count", "3"], ["constants"]],
                             ids=["run", "sweep", "verify-bound", "simulate", "constants"])
    def test_empty_output_path_is_refused_before_sampling(self, tmp_path, config_file, work_calls, monkeypatch,
                                                          capsys, argv):
        """An empty ``--out`` exits 2 naming it, before any run, battery or
        report is computed; it is neither the current directory nor no file."""
        monkeypatch.chdir(tmp_path)
        config = [] if argv[0] == "simulate" else ["--config", config_file]
        assert main([*argv, *config, "--out", ""]) == 2
        assert work_calls == []
        assert capsys.readouterr() == ("", "config error: --out must be a non-empty path, got ''\n")
        assert list(tmp_path.iterdir()) == [Path(config_file)]

    def test_verify_bound_creates_the_output_directory(self, tmp_path, config_file):
        out = tmp_path / "missing" / "reports.json"
        assert main(["verify-bound", "--config", config_file, "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == TOY["run"]["n_prompt"] + TOY["run"]["n_gen"]


class TestFlopsCheckCommand:
    def test_prints_hand_value_and_passes(self, capsys):
        assert main(["flops-check"]) == 0
        out = capsys.readouterr().out
        assert "11264" in out
        assert "MISMATCH" not in out


def planted_problem(check):
    """A ``check_run_invariants`` that finds one planted problem in every run."""
    return lambda result, run: ["planted problem"]


def failing_bound(check):
    """``check``, with every report turned into an applicable one whose bound fails."""
    return lambda traj, eps: dataclasses.replace(check(traj, eps), status="ok", holds=False)


def miscounted_sampler(sample, planted_call: int):
    """``sample``, with the GEMM counter of call ``planted_call``'s last step off by one."""
    calls = itertools.count()

    def sampled(*args, **kwargs):
        result = sample(*args, **kwargs)
        if next(calls) == planted_call:
            result.trace[-1].flops_counted += 1
        return result
    return sampled


# per command: its argv (``{tmp}`` is the test's directory), the function to
# replace and its replacement, the one message that must name the breach, the
# files that must still be written and the stdout lines that must still be printed
PLANTED_BREACHES = {
    "run": (["run", "--out", "{tmp}/run"], (cli, "check_run_invariants", planted_problem),
            "planted problem", ["run/trace.jsonl", "run/summary.json", "run/timing.json"], 1),
    "sweep": (["sweep", "--seeds", "0,1", "--out", "{tmp}/sweep"], (cli, "check_run_invariants", planted_problem),
              "point 0: planted problem; point 1: planted problem", ["sweep/sweep.csv"], 1),
    "verify-bound": (["verify-bound", "--out", "{tmp}/bound.json"], (analysis, "check_lock_bound", failing_bound),
                     f"lock bound violated on 12 trajectories; first positions: {list(range(10))}", ["bound.json"], 1),
    "simulate": (["simulate", "--count", "3", "--seed", "5", "--out", "{tmp}/sim.json"],
                 (analysis, "check_lock_bound", failing_bound),
                 "lock bound violated on 3 trajectories; first seeds: [5, 6, 7]", ["sim.json"], 1),
    # one line per config and one per config and mode, the planted one saying MISMATCH
    "flops-check": (["flops-check"], (cli, "run_sampler", lambda sample: miscounted_sampler(sample, 5)),
                    f"config 1 mode {MODES[1]}: counter disagrees with the formula", [], 15),
}


@pytest.mark.parametrize("argv, breach, message, outputs, lines", PLANTED_BREACHES.values(), ids=PLANTED_BREACHES)
def test_planted_breach_exits_3_after_writing_outputs(tmp_path, config_file, monkeypatch, capsys,
                                                      argv, breach, message, outputs, lines):
    """A broken invariant found in finished work ends the command, after its
    outputs are written, with exit 3 and ``main``'s one ``invariant
    violation:`` line naming the problem."""
    owner, name, plant = breach
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    config = ["--config", config_file] if argv[0] in ("run", "sweep", "verify-bound") else []
    assert main([arg.format(tmp=tmp_path) for arg in argv] + config) == cli.EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.err == f"invariant violation: {message}\n"
    assert all((tmp_path / out).is_file() for out in outputs)
    assert len(captured.out.splitlines()) == lines
    assert captured.out.count("MISMATCH") == (argv[0] == "flops-check")


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, Exception) and c.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_package_error_has_an_exit_code(tmp_path, monkeypatch, capsys, cls):
    """Each error class the package defines ends in exit 2 (an input family)
    or exit 3 (``InvalidStateError``) with its message, never a traceback."""
    def failing_run(*args, **kwargs):
        raise cls("planted failure")

    monkeypatch.setattr(cli, "run_sampler", failing_run)
    invariant = issubclass(cls, errors.InvalidStateError)
    assert main(["run", "--out", str(tmp_path)]) == (cli.EXIT_INVARIANT if invariant else cli.EXIT_CONFIG)
    prefix = "invariant violation:" if invariant else "config error:"
    assert capsys.readouterr().err == f"{prefix} planted failure\n"
