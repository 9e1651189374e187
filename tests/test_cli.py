import csv
import json

import pytest

from surelock.cli import main

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
        for name in ("trace.jsonl", "trace.csv", "summary.json"):
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

    def test_csv_columns(self, tmp_path, config_file):
        out = tmp_path / "out"
        main(["run", "--config", config_file, "--out", str(out)])
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "ratio", "M_t", "mean_D"]
        assert len(rows) == 9

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"run": {"steps": 99, "n_gen": 8}}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_mode_needs_fraction(self, config_file, tmp_path):
        assert main(["run", "--config", config_file, "--mode", "selection",
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_integer_prompt_is_config_error(self, tmp_path, config_file, capsys):
        assert main(["run", "--config", config_file, "--prompt", "a,b",
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_nan_temperature_is_config_error(self, tmp_path, config_file, capsys):
        assert main(["run", "--config", config_file, "--temperature", "nan",
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

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
    ])
    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys, section, key, value):
        """``value`` replaces ``section.key``; a None section means a top-level
        key, a None key the whole section, and both None the whole document."""
        if key is None:
            doc = value if section is None else {**TOY, section: value}
        elif section is None:
            doc = {**TOY, key: value}
        else:
            doc = {**TOY, section: {**TOY.get(section, {}), key: value}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--mode", "surelock", "--unlock",
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_weights_file_not_json_is_config_error(self, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text("not json")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TOY, "weights_path": str(weights)}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err


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

    def test_single_point_matches_run(self, tmp_path, config_file):
        out_s, out_r = tmp_path / "sweep", tmp_path / "run"
        assert main(["sweep", "--config", config_file, "--mode", "surelock",
                     "--eps-list", "5e-3", "--out", str(out_s)]) == 0
        assert main(["run", "--config", config_file, "--mode", "surelock",
                     "--eps", "5e-3", "--out", str(out_r)]) == 0
        with open(out_s / "sweep.csv") as fh:
            row = next(csv.DictReader(fh))
        summary = json.loads((out_r / "summary.json").read_text())
        assert int(row["F_actual"]) == summary["totals"]["F_actual"]

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


class TestVerifyAndSimulate:
    def test_simulate_full_battery(self, capsys):
        assert main(["simulate", "--count", "200"]) == 0
        out = capsys.readouterr().out
        assert "200/200 bound holds" in out

    @pytest.mark.parametrize("flag", ["--rho-targets", "--vocab-sizes"])
    def test_empty_simulate_list_is_config_error(self, flag, capsys):
        assert main(["simulate", "--count", "3", flag, ""]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_verify_bound_fresh_run(self, config_file, capsys):
        assert main(["verify-bound", "--config", config_file]) == 0
        out = capsys.readouterr().out
        assert "trajectories" in out

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
    ], ids=["not-json", "missing-log-probs", "ragged", "nan"])
    def test_bad_trajectories_file_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "trajectories.json"
        path.write_text(text)
        assert main(["verify-bound", "--trajectories", str(path)]) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert "not applicable" not in captured.out


class TestConstantsCommand:
    def test_report_fields(self, tmp_path, config_file):
        out = tmp_path / "constants.json"
        assert main(["constants", "--config", config_file, "--samples", "500",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for key in ("embedding_gain", "block_gain", "network_gain", "overall_gain",
                    "softmax_jacobian_sup", "input_radius"):
            assert key in doc
        assert doc["softmax_jacobian_sup"] <= 0.5 + 1e-6


class TestFlopsCheckCommand:
    def test_prints_hand_value_and_passes(self, capsys):
        assert main(["flops-check"]) == 0
        out = capsys.readouterr().out
        assert "11264" in out
        assert "MISMATCH" not in out
