import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

from dualfilter import attention, cli, dual, fixedpoint, oracle, predictor
from dualfilter.cli import CONFIG_FIELDS, ExperimentConfig, main
from dualfilter.hmm import is_probability_vector

from conftest import make_model, point_mass_model, random_model, uninformative_model, write_model


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_file(tmp_path, rng):
    model = random_model(rng, 2, 1, 3)
    return write_model(tmp_path / "model.json", model)


@pytest.fixture
def deterministic_model_file(tmp_path):
    # state 0 surely emits token 1, state 1 surely emits token 0; identity chain
    model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
    return write_model(tmp_path / "det_model.json", model)


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

    def test_non_integer_model_size_exits_2(self, runner, model_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(model_file.read_text()), "T": 2.5}))
        res = runner.invoke(main, ["oracle", "--model", str(bad), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.stderr.splitlines() == ["error: model size T must be an integer, got 2.5"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, key, row, flags",
        [("oracle", "mu", None, ["--path", "0.1"]), ("fixedpoint", "C", 0, ["--path", "0.1"])],
        ids=["nan-prior-oracle", "nan-emission-fixedpoint"],
    )
    def test_nan_in_model_exits_2(self, runner, model_file, tmp_path, command, key, row, flags):
        obj = json.loads(model_file.read_text())
        target = obj[key] if row is None else obj[key][row]
        target[1] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))
        assert "NaN" in bad.read_text()
        res = runner.invoke(main, [command, "--model", str(bad), *flags, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.stderr.splitlines() == [f"error: {key} has non-finite entries"]
        assert not (tmp_path / "o").exists()

    def test_unreadable_model_file_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["oracle", "--model", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: cannot read model file"), res.stderr

    @pytest.mark.parametrize("token", ["1_0", " 1", "+1", "-0", "\u0661", "0x1"])
    def test_path_token_error_names_the_token_as_typed(self, runner, model_file, tmp_path, token):
        res = runner.invoke(main, ["oracle", "--model", str(model_file), "--path", f"0.{token}",
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [f"error: path token {token!r} is not a decimal integer (ASCII digits 0-9 only)"]
        assert not (tmp_path / "o").exists()

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

    @pytest.fixture
    def point_mass_model_file(self, tmp_path):
        # rho(R) is zero at every node, so only the predictive covariance
        # rho(R) + lead(c) carries the adapted feedback law
        return write_model(tmp_path / "point_mass.json", point_mass_model())

    @pytest.mark.parametrize("mode", ["adapted", "path"])
    def test_point_mass_emissions_pass_both_maps(self, runner, tmp_path, point_mass_model_file, mode):
        out = tmp_path / mode
        args = ["fixedpoint", "--model", str(point_mass_model_file), "--path", "0.1.1", "--zero-convention"]
        res = runner.invoke(main, args + ["--mode", mode, "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "residual_report.json").read_text())
        assert report[mode]["residual"] == 0.0 and report[mode]["pass"] is True
        assert not (out / "findings.json").exists()

    @pytest.mark.parametrize("zero_convention", [[], ["--zero-convention"]])
    def test_rounding_level_negative_iterate_exits_0(self, runner, tmp_path, point_mass_model_file, monkeypatch,
                                                     zero_convention):
        # every image of the map, from iterate's uniform start or from the filter, gets a -1.1e-16
        # entry at time 1, state 3 (where the filter is 0), by construction: rounding, not negative mass
        apply_N_path = fixedpoint.apply_N_path

        def with_rounding_negative(model, rho, z):
            image, _ = apply_N_path(model, rho, z)
            image[0, 2] = -(2.0**-53)
            return image, is_probability_vector(image)

        monkeypatch.setattr(fixedpoint, "apply_N_path", with_rounding_negative)
        raw, _ = fixedpoint.apply_N_path(point_mass_model(), np.full((3, 3), 1.0 / 3), (0, 1, 1))
        assert -1e-15 < raw.min() < 0.0
        out = tmp_path / "fp"
        res = runner.invoke(main, ["fixedpoint", "--model", str(point_mass_model_file), "--path", "0.1.1",
                                   "--mode", "path", *zero_convention, "--out", str(out)])
        assert res.exit_code == 0, res.output
        trace = read_lines(out / "iteration_trace.csv")
        assert len(trace) == 2 + 10 * 3
        assert all(line.endswith(",1") for line in trace[2:])


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

    def test_one_backward_solve_per_draw(self, runner, model_file, tmp_path, monkeypatch):
        from dualfilter import dual

        calls = []
        solve = dual.solve_bsde

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(dual, "solve_bsde", counted)
        res = runner.invoke(
            main, ["duality", "--model", str(model_file), "--draws", "3", "--out", str(tmp_path / "d")]
        )
        assert res.exit_code == 0, res.output
        assert len(calls) == 3

    def test_estimator_identity_rows_keep_a_nan(self, runner, model_file, tmp_path, monkeypatch):
        # at each level t >= 1 the all-zeros prefix keeps its true error and every other prefix reads NaN
        estimator_path = dual.estimator_path

        def nan_after_first_prefix(model, traj, w, t):
            val = estimator_path(model, traj, w, t)
            return np.nan if any(w) else val

        monkeypatch.setattr(dual, "estimator_path", nan_after_first_prefix)
        out = tmp_path / "d"
        res = runner.invoke(main, ["duality", "--model", str(model_file), "--draws", "1", "--out", str(out)])
        assert res.exit_code == 4, res.output
        assert res.stderr == "error: diagnostics residual nan exceeds tolerance 1.0e-09\n"
        assert json.loads((out / "duality_report.json").read_text())["pass"] is False
        rows = [line.split(",") for line in read_lines(out / "diagnostics.csv")[2:]]
        worst = {int(row[1]): float(row[3]) for row in rows if row[0] == "estimator_identity"}
        assert worst[0] <= 1e-12
        assert all(np.isnan(worst[t]) for t in (1, 2, 3))

    def test_a_finite_estimator_identity_miss_exits_4(self, runner, model_file, tmp_path, monkeypatch):
        # the duality gap stays within tolerance; only the estimator-identity rows miss
        estimator_path = dual.estimator_path
        monkeypatch.setattr(dual, "estimator_path", lambda *args: estimator_path(*args) + 1e-6)
        out = tmp_path / "d"
        res = runner.invoke(main, ["duality", "--model", str(model_file), "--draws", "1", "--out", str(out)])
        assert res.exit_code == 4, res.output
        assert res.stderr.startswith("error: diagnostics residual 1.000e-06 exceeds tolerance 1.0e-09")
        assert len(res.stderr.splitlines()) == 1
        report = json.loads((out / "duality_report.json").read_text())
        assert report["max_gap"] <= 1e-9 and report["pass"] is False

    def test_over_budget_model_exits_2_before_any_draw_is_solved(self, runner, tmp_path, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_bsde called on an over-budget model")

        monkeypatch.setattr(dual, "solve_bsde", refuse)
        path = write_model(tmp_path / "long.json", random_model(rng, 2, 1, 17))
        res = runner.invoke(main, ["duality", "--model", str(path), "--out", str(tmp_path / "d")])
        assert res.exit_code == 2, res.output
        assert "exceeds the enumeration budget" in res.stderr


    @pytest.mark.parametrize("budget, code, solves", [(64, 0, 2), (63, 2, 0)], ids=["at-budget", "one-under"])
    def test_enum_budget_is_checked_once_before_any_draw(self, runner, tmp_path, rng, monkeypatch,
                                                          budget, code, solves):
        # d=2, m=1, T=2: d^(T+1) (m+1)^(T+1) = 8 * 8 = 64
        calls = []
        solve = dual.solve_bsde

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(dual, "solve_bsde", counted)
        monkeypatch.setattr(cli, "ENUM_BUDGET", budget)
        path = write_model(tmp_path / "model.json", random_model(rng, 2, 1, 2))
        res = runner.invoke(main, ["duality", "--model", str(path), "--draws", "2", "--out", str(tmp_path / "d")])
        assert res.exit_code == code, res.output
        assert len(calls) == solves
        if code == 2:
            assert res.stderr == ("error: d^(T+1)*(m+1)^(T+1) = 64 exceeds the enumeration budget 63 ((m+1) times "
                                  "the d^(T+1)*(m+1)^T joint paths walked); reduce T, d, or m\n")

    @pytest.mark.parametrize("d, m, T, cost", [(2, 1, 2, 64), (3, 1, 1, 36), (2, 2, 3, 1296), (4, 2, 6, 35831808)])
    def test_budget_admits_its_cost_and_rejects_one_less(self, runner, tmp_path, rng, monkeypatch, d, m, T, cost):
        # the first solve marks the gate as passed and stops the run there
        def reached(*args, **kwargs):
            raise ValueError("past the gate")

        monkeypatch.setattr(dual, "solve_bsde", reached)
        path = write_model(tmp_path / "model.json", random_model(rng, d, m, T))
        for budget, stderr in ((cost, "error: past the gate\n"),
                               (cost - 1, f"error: d^(T+1)*(m+1)^(T+1) = {cost} exceeds the enumeration budget "
                                          f"{cost - 1} ((m+1) times the d^(T+1)*(m+1)^T joint paths walked); "
                                          f"reduce T, d, or m\n")):
            monkeypatch.setattr(cli, "ENUM_BUDGET", budget)
            res = runner.invoke(main, ["duality", "--model", str(path), "--out", str(tmp_path / "d")])
            assert res.exit_code == 2
            assert res.stderr == stderr


class TestTreeSizeGate:
    """represent and fixedpoint --mode adapted check d*(m+1)^T against ENUM_BUDGET before any level is built."""

    COMMANDS = pytest.mark.parametrize(
        "argv", [["represent"], ["fixedpoint", "--mode", "adapted", "--path", "0"]],
        ids=["represent", "fixedpoint-adapted"],
    )

    @staticmethod
    def count_levels(monkeypatch, refuse=False):
        """Wrap filter_levels where both commands reach it; returns the list of calls."""
        calls = []
        build = oracle.filter_levels

        def counted(*args, **kwargs):
            calls.append(1)
            if refuse:
                raise AssertionError("filter_levels called on an over-budget model")
            return build(*args, **kwargs)

        monkeypatch.setattr(oracle, "filter_levels", counted)
        monkeypatch.setattr(predictor, "filter_levels", counted)
        return calls

    @COMMANDS
    @pytest.mark.parametrize("budget, code", [(16, 0), (15, 2)], ids=["at-budget", "one-over"])
    def test_leaf_level_is_checked_before_any_level(self, runner, tmp_path, rng, monkeypatch, argv, budget, code):
        # d=2, m=1, T=3: the leaf level holds d (m+1)^T = 2 * 8 = 16 floats
        calls = self.count_levels(monkeypatch)
        monkeypatch.setattr(cli, "ENUM_BUDGET", budget)
        path = write_model(tmp_path / "model.json", random_model(rng, 2, 1, 3))
        res = runner.invoke(main, [*argv, "--model", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == code, res.output
        if code == 2:
            assert res.stderr == ("error: d*(m+1)^T = 16 exceeds the enumeration budget 15 (floats in the prefix "
                                  "tree's leaf level); reduce T, d, or m\n")
            assert calls == [] and not (tmp_path / "o").exists()
        else:
            assert calls

    @COMMANDS
    def test_long_horizon_exits_2_at_the_fixed_budget(self, runner, tmp_path, rng, monkeypatch, argv):
        # d=2, m=2, T=30: a leaf level of 2 * 3^30 floats, about 3.3 PB
        self.count_levels(monkeypatch, refuse=True)
        path = write_model(tmp_path / "long.json", random_model(rng, 2, 2, 30))
        res = runner.invoke(main, [*argv, "--model", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.stderr == (f"error: d*(m+1)^T = {2 * 3**30} exceeds the enumeration budget 10000000 (floats in "
                              "the prefix tree's leaf level); reduce T, d, or m\n")


class TestRepresentCommand:
    def test_uninformative_model_has_zero_weights(self, runner, tmp_path, rng):
        model = uninformative_model(rng, 2, 1, 2)
        path = write_model(tmp_path / "flat.json", model)
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

    def test_impossible_path_exits_3_unless_zero_convention(self, runner, deterministic_model_file, tmp_path):
        # the deterministic model never emits 0 first, so the walk stops at prefix (0,)
        args = ["represent", "--model", str(deterministic_model_file)]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
        assert res.exit_code == 3
        assert res.stderr.splitlines() == [
            "error: impossible observation: prefix z_1..z_1 = (0,) has probability 0"
        ]
        out = tmp_path / "b"
        res = runner.invoke(main, args + ["--zero-convention", "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "representation.json").read_text())
        assert doc["reconstruction_error"] == 0.0


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

    # the check tolerances, the size budget and the demo's sizes are fixed, a sampled path has the model
    # file's T, and the layer applies gelu, so the keys that once set them are unknown too
    @pytest.mark.parametrize(
        "command, key, val",
        [
            ("oracle", "horizon", 3),
            ("attention-demo", "tolerances", {"eq8": 10.0}),
            ("oracle", "T", 9),
            ("attention-demo", "attn_activation", "gelu"),
            ("duality", "enum_budget", 10**7),
            ("attention-demo", "attn_d", 8),
            ("attention-demo", "attn_heads", 2),
            ("attention-demo", "attn_layers", 4),
        ],
        ids=["horizon", "tolerances", "T", "attn_activation", "enum_budget", "attn_d", "attn_heads",
             "attn_layers"],
    )
    def test_unknown_config_key_rejected(self, runner, model_file, tmp_path, command, key, val):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_path": str(model_file), key: val}))
        res = runner.invoke(main, [command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: unknown config key {key!r}\n"

    @pytest.mark.parametrize("text", [None, "{ not json", "[1, 2]"], ids=["missing", "not-json", "not-object"])
    def test_unreadable_config_exits_2(self, runner, model_file, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        res = runner.invoke(main, ["oracle", "--model", str(model_file), "--config", str(cfg),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ") and "config" in res.stderr, res.stderr

    @pytest.mark.parametrize(
        "command, config, flags",
        [
            ("oracle", {"seed": "abc"}, []),
            ("fixedpoint", {"K": "5"}, []),
            # the tolerances, the activation, the budget and the demo's sizes are fixed, so a config that sets
            # them, well formed or not, is bad
            ("duality", {"tolerances": {"duality": "1e-9"}}, []),
            ("duality", {"tolerances": 5}, []),
            ("duality", {"tolerances": {"dualty": 0.5}}, []),
            ("duality", {"enum_budget": "x"}, []),
            ("duality", {"draws": 2.5}, []),
            ("attention-demo", {"attn_heads": 0}, []),
            ("attention-demo", {"attn_layers": 0}, []),
            ("attention-demo", {"attn_activation": "foo"}, []),
            ("attention-demo", {"attn_activation": 3}, []),
            ("duality", {"enum_budget": 1}, []),
            ("oracle", {"zero_convention": "yes"}, []),
            ("oracle", {"model_path": 5}, []),
            ("oracle", {"output_dir": 3}, []),
            ("duality", {}, ["--seed", "-1"]),
            ("attention-demo", {}, ["--path", "."]),
            ("fixedpoint", {}, ["--path", ""]),
            ("oracle", {}, ["--path", ""]),
            ("oracle", {}, ["--path", "1..0"]),
            ("oracle", {}, ["--path", "0,,1"]),
            ("oracle", {}, ["--path", "1_0"]),
            ("oracle", {}, ["--path", " 1"]),
            ("fixedpoint", {}, ["--path", "0.+1"]),
            ("oracle", {}, ["--path", "-0"]),
            ("attention-demo", {}, ["--path", "0.\u0661"]),
            ("oracle", {}, ["--model", "list.json"]),
            ("oracle", {}, ["--model", "int.json"]),
            ("represent", {}, ["--model", "null.json"]),
            ("oracle", {}, ["--out", "list.json"]),
            ("oracle", {}, ["--out", "list.json/o"]),
        ],
        ids=[
            "str-seed", "str-K", "str-tolerance", "tolerances-not-object", "unknown-tolerance",
            "str-enum-budget",
            "float-draws", "zero-heads", "zero-layers", "unknown-activation", "int-activation", "over-budget",
            "str-zero-convention", "int-model-path", "int-output-dir", "negative-seed-flag", "dot-path",
            "empty-path-fixedpoint", "empty-path-oracle",
            "empty-token-dots", "empty-token-commas", "underscore-token", "space-token", "plus-token",
            "minus-token", "non-ascii-digit-token", "list-model", "int-model", "null-model",
            "out-is-a-file", "out-under-a-file",
        ],
    )
    def test_bad_input_exits_2_with_one_error_line(self, runner, model_file, tmp_path, monkeypatch,
                                                   command, config, flags):
        # model files whose JSON is not an object, named relative to tmp_path
        for name, text in {"list.json": "[1, 2]", "int.json": "3", "null.json": "null"}.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_path": str(model_file), **config}))
        # flags go last, so a case's own --out wins; a config that sets output_dir gets no --out over it
        out = [] if "output_dir" in config else ["--out", str(tmp_path / "o")]
        res = runner.invoke(main, [command, "--config", str(cfg), *out, *flags])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
        assert "Traceback" not in res.output


class TestFixedValues:
    """The config holds what a run varies; the size budget and the demo's sizes are module constants."""

    def test_config_has_the_six_keys_a_run_varies(self):
        assert CONFIG_FIELDS == {"model_path", "seed", "K", "draws", "zero_convention", "output_dir"}
        assert cli.INT_MINIMA == {"seed": 0, "K": 1, "draws": 1}

    def test_budget_and_demo_sizes_are_constants(self):
        assert cli.ENUM_BUDGET == 10**7
        assert (cli.ATTN_D, cli.ATTN_HEADS, cli.ATTN_LAYERS) == (8, 2, 4)


class TestConfigHash:
    """The header fingerprint is SHA-256 of the config without ``output_dir``, from CPython's own module."""

    EVERY_FIELD = {
        "model_path": "models/dense.json",
        "seed": 7,
        "K": 3,
        "draws": 5,
        "zero_convention": True,
        "output_dir": "elsewhere",
    }

    def test_every_field_case_sets_every_field_off_its_default(self):
        default = ExperimentConfig()
        assert set(self.EVERY_FIELD) == CONFIG_FIELDS
        assert all(getattr(default, name) != val for name, val in self.EVERY_FIELD.items())

    @pytest.mark.parametrize("values", [{}, EVERY_FIELD], ids=["default", "every-field"])
    def test_hash_is_the_hashlib_digest_of_the_config(self, values):
        cfg = ExperimentConfig(**values).validate()
        payload = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "output_dir"}
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        assert cfg.hash() == hashlib.sha256(blob).hexdigest()[:12]

    @pytest.mark.parametrize(
        "message, digest",
        [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
             "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
        ],
        ids=["empty", "abc", "two-block"],
    )
    def test_sha256_binding_meets_the_fips_180_4_vectors(self, message, digest):
        assert cli.sha256(message).hexdigest() == digest


class TestInvariantViolation:
    """A check outside its tolerance writes its report, then exits 4.

    A shift by 1, or by NaN, of the checked layer's output stands in for a broken layer.
    """

    @pytest.mark.parametrize(
        "command, flags, target, report, failed",
        [
            ("fixedpoint", ["--mode", "path"], (fixedpoint, "fixed_point_residual"), "residual_report.json",
             lambda doc: doc["path"]["pass"] is False),
            ("fixedpoint", ["--mode", "adapted"], (fixedpoint, "fixed_point_residual"), "residual_report.json",
             lambda doc: doc["adapted"]["pass"] is False),
            ("duality", [], (dual, "duality_report"), "duality_report.json", lambda doc: doc["pass"] is False),
            ("represent", [], (predictor, "evaluate"), "representation.json",
             lambda doc: not doc["reconstruction_error"] < 1.0),
            ("attention-demo", [], (attention, "simplified_form"), "attention_report.json",
             lambda doc: doc["bilinear_equality_ok"] is False),
        ],
        ids=["fixedpoint-path", "fixedpoint-adapted", "duality", "represent", "attention-demo"],
    )
    @pytest.mark.parametrize("shift", [1.0, np.nan], ids=["off-by-one", "nan"])
    def test_exits_4_after_writing_the_report(self, runner, model_file, tmp_path, monkeypatch,
                                              command, flags, target, report, failed, shift):
        module, name = target
        real = getattr(module, name)

        def shifted(*args, **kwargs):
            val = real(*args, **kwargs)
            return {**val, "gap": val["gap"] + shift} if isinstance(val, dict) else val + shift

        monkeypatch.setattr(module, name, shifted)
        out = tmp_path / "o"
        res = runner.invoke(main, [command, "--model", str(model_file), *flags, "--out", str(out)])
        assert res.exit_code == 4, res.output
        assert res.stderr.startswith("error: ") and "exceeds tolerance" in res.stderr, res.stderr
        assert failed(json.loads((out / report).read_text()))
        assert (out / "findings.json").exists() == (command == "fixedpoint")

    def test_tolerances_are_the_four_fixed_bounds(self):
        assert cli.TOLERANCES == {"fixed_point": 1e-10, "duality": 1e-9, "representation": 1e-12, "eq8": 1e-12}

    @pytest.mark.parametrize(
        "command, flags, key",
        [("fixedpoint", ["--mode", "path"], "fixed_point"),
         ("fixedpoint", ["--mode", "adapted"], "fixed_point"),
         ("duality", [], "duality"),
         ("represent", [], "representation"),
         ("attention-demo", [], "eq8")],
        ids=["fixedpoint-path", "fixedpoint-adapted", "duality", "represent", "attention-demo"],
    )
    def test_each_check_reads_its_bound_when_it_runs(self, runner, model_file, tmp_path, monkeypatch,
                                                     command, flags, key):
        # a negative bound fails even an error of exactly 0, so the exit shows which entry the check read
        monkeypatch.setitem(cli.TOLERANCES, key, -1.0)
        res = runner.invoke(main, [command, "--model", str(model_file), *flags, "--out", str(tmp_path / "o")])
        assert res.exit_code == 4, res.output
        assert res.stderr.startswith("error: ") and res.stderr.endswith("exceeds tolerance -1.0e+00\n"), res.stderr

    @pytest.mark.parametrize(
        "command, target, report, key",
        [("duality", (dual, "duality_report"), "duality_report.json", "max_gap"),
         ("attention-demo", (attention, "simplified_form"), "attention_report.json", "bilinear_equality_error")],
        ids=["duality", "attention-demo"],
    )
    def test_nan_after_a_finite_value_is_kept(self, runner, model_file, tmp_path, monkeypatch,
                                              command, target, report, key):
        # Python's max keeps whichever of a number and NaN comes first, so a NaN after the first
        # draw or position would vanish from the reported maximum
        module, name = target
        real = getattr(module, name)
        calls = []

        def nan_after_first(*args, **kwargs):
            val = real(*args, **kwargs)
            calls.append(name)
            if len(calls) == 1:
                return val
            return {**val, "gap": np.nan} if isinstance(val, dict) else np.nan

        monkeypatch.setattr(module, name, nan_after_first)
        out = tmp_path / "o"
        res = runner.invoke(main, [command, "--model", str(model_file), "--out", str(out)])
        assert res.exit_code == 4, res.output
        assert len(calls) >= 2
        assert np.isnan(json.loads((out / report).read_text())[key])


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
