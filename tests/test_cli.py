import json

import numpy as np
import pytest
from click.testing import CliRunner

from dualfilter.cli import main

from conftest import make_model, random_model, uninformative_model


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_file(tmp_path, rng):
    model = random_model(rng, 2, 1, 3)
    path = tmp_path / "model.json"
    path.write_text(model.to_json())
    return path


@pytest.fixture
def deterministic_model_file(tmp_path):
    # state 0 surely emits token 1, state 1 surely emits token 0; identity chain
    model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
    path = tmp_path / "det_model.json"
    path.write_text(model.to_json())
    return path


def read_lines(path):
    return path.read_text().splitlines()


class TestOracleCommand:
    def test_writes_both_reports(self, runner, model_file, tmp_path):
        out = tmp_path / "reports"
        res = runner.invoke(main, ["oracle", "--model", str(model_file), "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0
        traj = read_lines(out / "filter_trajectory.csv")
        assert traj[0].startswith("# dualfilter")
        assert traj[1] == "t,x,pi"
        probs = read_lines(out / "next_token_probs.csv")
        assert probs[1] == "t,z,prob"
        # long format: T * d value rows after header + column line
        assert len(traj) == 2 + 3 * 2

    def test_malformed_model_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        res = runner.invoke(main, ["oracle", "--model", str(bad), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_missing_model_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["oracle", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_impossible_path_exits_3(self, runner, deterministic_model_file, tmp_path):
        res = runner.invoke(
            main,
            ["oracle", "--model", str(deterministic_model_file), "--path", "0.0", "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 3
        assert "impossible observation" in res.output

    def test_zero_convention_rescues_impossible_path(self, runner, deterministic_model_file, tmp_path):
        res = runner.invoke(
            main,
            [
                "oracle", "--model", str(deterministic_model_file), "--path", "0.0",
                "--zero-convention", "--out", str(tmp_path / "o"),
            ],
        )
        assert res.exit_code == 0


class TestFixedpointCommand:
    @pytest.mark.parametrize("mode", ["path", "adapted"])
    def test_filter_passes_at_tolerance(self, runner, model_file, tmp_path, mode):
        out = tmp_path / "fp"
        res = runner.invoke(
            main,
            ["fixedpoint", "--model", str(model_file), "--seed", "5", "--mode", mode, "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        report = json.loads((out / "residual_report.json").read_text())
        assert report[mode]["pass"] is True
        assert report[mode]["residual"] <= 1e-10
        trace = read_lines(out / "iteration_trace.csv")
        assert trace[1] == "iter,t,residual_tv,kl_bar,in_domain"

    def test_zero_iterations_is_usage_error(self, runner, model_file, tmp_path):
        res = runner.invoke(
            main,
            ["fixedpoint", "--model", str(model_file), "--iterations", "0", "--out", str(tmp_path / "fp")],
        )
        assert res.exit_code == 2

    def test_impossible_path_respects_zero_convention(self, runner, deterministic_model_file, tmp_path):
        args = ["fixedpoint", "--model", str(deterministic_model_file), "--path", "0.0"]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
        assert res.exit_code == 3
        res = runner.invoke(main, args + ["--zero-convention", "--out", str(tmp_path / "b")])
        assert res.exit_code == 0, res.output


class TestDualityCommand:
    def test_gap_report(self, runner, model_file, tmp_path):
        out = tmp_path / "dual"
        res = runner.invoke(
            main,
            ["duality", "--model", str(model_file), "--seed", "11", "--draws", "5", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        report = json.loads((out / "duality_report.json").read_text())
        assert len(report["draws"]) == 5
        assert report["max_gap"] <= 1e-9
        assert {"J_T", "mse", "gap"} <= set(report["draws"][0])
        diag = read_lines(out / "diagnostics.csv")
        assert diag[1] == "check,t,prefix,max_residual"
        checks = {line.split(",")[0] for line in diag[2:]}
        assert "bsde_residual" in checks and "estimator_identity" in checks

    def test_bad_draws_exits_2(self, runner, model_file, tmp_path):
        res = runner.invoke(
            main, ["duality", "--model", str(model_file), "--draws", "0", "--out", str(tmp_path / "d")]
        )
        assert res.exit_code == 2


class TestRepresentCommand:
    def test_uninformative_model_has_zero_weights(self, runner, tmp_path, rng):
        model = uninformative_model(rng, 2, 1, 2)
        path = tmp_path / "flat.json"
        path.write_text(model.to_json())
        out = tmp_path / "rep"
        res = runner.invoke(
            main, ["represent", "--model", str(path), "--z-query", "1", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "representation.json").read_text())
        assert abs(doc["constant"] - 0.5) <= 1e-12
        for _, vec in doc["weights"]:
            assert max(abs(v) for v in vec) <= 1e-12
        assert doc["reconstruction_error"] <= 1e-12

    def test_bad_query_token_exits_2(self, runner, model_file, tmp_path):
        res = runner.invoke(
            main, ["represent", "--model", str(model_file), "--z-query", "7", "--out", str(tmp_path / "r")]
        )
        assert res.exit_code == 2


class TestAttentionDemoCommand:
    def test_emits_tables_and_equality_flag(self, runner, model_file, tmp_path):
        out = tmp_path / "attn"
        res = runner.invoke(
            main, ["attention-demo", "--model", str(model_file), "--seed", "2", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "attention_report.json").read_text())
        assert doc["bilinear_equality_ok"] is True
        preds = read_lines(out / "layer_predictions.csv")
        assert preds[1] == "layer,t,z,prob"
        curve = read_lines(out / "layer_divergence.csv")
        assert curve[1] == "layer,kl_bar"
        # one divergence row per layer below the last
        assert len(curve) == 2 + doc["layers"]


class TestConfigResolution:
    def test_config_file_supplies_model_and_flags_override(self, runner, model_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_path": str(model_file), "seed": 4, "K": 3}))
        out = tmp_path / "fp"
        res = runner.invoke(main, ["fixedpoint", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        trace = read_lines(out / "iteration_trace.csv")
        assert "seed=4" in trace[0]
        # K=3 iterations, T=3 rows each
        assert len(trace) == 2 + 3 * 3

    def test_unknown_config_key_rejected(self, runner, model_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_path": str(model_file), "horizon": 3}))
        res = runner.invoke(main, ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_nonpositive_tolerance_rejected(self, runner, model_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model_path": str(model_file), "tolerances": {"duality": 0.0}})
        )
        res = runner.invoke(main, ["duality", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert res.exit_code == 2


    @pytest.mark.parametrize(
        "command, config, flags",
        [
            ("oracle", {"seed": "abc"}, []),
            ("fixedpoint", {"K": "5"}, []),
            ("duality", {"tolerances": {"duality": "1e-9"}}, []),
            ("duality", {"tolerances": 5}, []),
            ("duality", {"enum_budget": "x"}, []),
            ("duality", {"draws": 2.5}, []),
            ("attention-demo", {"attn_heads": 0}, []),
            ("attention-demo", {"attn_layers": 0}, []),
            ("attention-demo", {"attn_activation": "foo"}, []),
            ("duality", {"enum_budget": 1}, []),
            ("oracle", {"zero_convention": "yes"}, []),
            ("duality", {}, ["--seed", "-1"]),
        ],
        ids=[
            "str-seed", "str-K", "str-tolerance", "tolerances-not-object", "str-enum-budget",
            "float-draws", "zero-heads", "zero-layers", "unknown-activation", "over-budget",
            "str-zero-convention", "negative-seed-flag",
        ],
    )
    def test_bad_input_exits_2_with_one_error_line(self, runner, model_file, tmp_path, command, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_path": str(model_file), **config}))
        res = runner.invoke(main, [command, "--config", str(cfg), *flags, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
        assert "Traceback" not in res.output


class TestDeterminism:
    def test_reports_are_byte_identical_across_runs(self, runner, model_file, tmp_path):
        commands = [
            ["oracle"],
            ["fixedpoint", "--mode", "adapted", "--iterations", "2"],
            ["duality", "--draws", "3"],
            ["represent", "--z-query", "1"],
            ["attention-demo"],
        ]
        for args in commands:
            blobs = []
            for sub in ("a", "b"):
                out = tmp_path / args[0] / sub
                res = runner.invoke(main, [*args, "--model", str(model_file), "--seed", "7", "--out", str(out)])
                assert res.exit_code == 0, res.output
                blobs.append(
                    {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                )
            assert blobs[0] == blobs[1], args[0]
