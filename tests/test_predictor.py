import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from dualfilter import cli
from dualfilter.adapted import AdaptedProcess, prefix_string, prefixes
from dualfilter.cli import ExperimentConfig, main
from dualfilter.hmm import token_basis, validate_tokens
from dualfilter.oracle import ImpossibleObservationError, forward_filter, next_token_prob
from dualfilter.predictor import (
    PredictorRepresentation,
    build_weights,
    evaluate,
    path_values,
    represent_conditional,
)

from conftest import make_model, random_model, sparse_model, traced_peak, uninformative_model, write_model
from oracles import build_weights_exact, build_weights_lstsq, path_values_exact


class TestBuildWeights:
    def test_binary_single_step(self):
        rep = build_weights(np.array([1.0, 3.0]), m=1, T=1)
        assert rep.constant == 2.0
        np.testing.assert_array_equal(rep.weights.at(()), [-1.0])
        assert evaluate(rep, (1,)) == 3.0
        assert evaluate(rep, (0,)) == 1.0

    def test_constant_target_has_zero_weights(self):
        rep = build_weights(np.full(27, 4.25), m=2, T=3)
        assert rep.constant == 4.25
        for t in range(3):
            for w in prefixes(2, t):
                np.testing.assert_array_equal(rep.weights.at(w), np.zeros(2))

    def test_indicator_target_frozen_values(self):
        # target = 1 exactly on the path (1, 1); per-prefix splits done by hand:
        # level 2 at prefix (1,): values (0, 1) -> mean 1/2, weight [-1/2]
        # level 2 at prefix (0,): values (0, 0) -> mean 0, weight [0]
        # level 1 at root: values (0, 1/2) -> mean 1/4, weight [-1/4]
        target = np.array([float(z == (1, 1)) for z in prefixes(1, 2)])
        rep = build_weights(target, m=1, T=2)
        assert rep.constant == 0.25
        np.testing.assert_array_equal(rep.weights.at(()), [-0.25])
        np.testing.assert_array_equal(rep.weights.at((1,)), [-0.5])
        np.testing.assert_array_equal(rep.weights.at((0,)), [0.0])
        for z, want in zip(prefixes(1, 2), target):
            assert evaluate(rep, z) == want

    def test_incomplete_target_rejected(self):
        with pytest.raises(ValueError, match="path values"):
            build_weights(np.zeros(3), m=1, T=1)

    def test_round_trip_random_targets(self, rng):
        for _ in range(10):
            m, T = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            target = np.array([float(rng.standard_normal()) for _ in prefixes(m, T)])
            rep = build_weights(target, m=m, T=T)
            assert np.max(np.abs(path_values(rep) - target)) <= 1e-12
            for z, want in zip(prefixes(m, T), target):
                assert abs(evaluate(rep, z) - want) <= 1e-12

    def test_agrees_with_least_squares_construction(self, rng):
        for _ in range(10):
            m, T = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            target = {z: float(rng.standard_normal()) for z in prefixes(m, T)}
            a = build_weights(np.array(list(target.values())), m=m, T=T)
            b = build_weights_lstsq(target, m=m, T=T)
            assert abs(a.constant - b.constant) <= 1e-10
            for t in range(T):
                for w in prefixes(m, t):
                    assert np.max(np.abs(a.weights.at(w) - b.weights.at(w))) <= 1e-10


class TestBuildWeightsAgainstExactArithmetic:
    """build_weights and path_values against ``oracles.build_weights_exact`` on the exact rationals of a float target.

    Each level's split adds m+1 values and divides, and the errors carry
    down T levels, so the float constant, weights and reconstructed values
    are within a few eps of the condition figure T max|target|. In a sweep
    of 2000 draws the largest error was 0.88 eps times it for the weights
    and 2.6 eps times it for the values.
    """

    BOUND_EPS = 8

    def test_exact_weights_reconstruct_the_target_exactly(self, rng):
        for _ in range(20):
            m, T = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            target = rng.standard_normal((m + 1) ** T)
            constant, levels = build_weights_exact(target, m, T)
            assert path_values_exact(constant, levels, m) == [Fraction(v) for v in target.tolist()]

    def test_float_weights_within_a_few_eps_of_the_condition_figure(self, rng):
        eps = Fraction(np.finfo(float).eps)
        for draw in range(100):
            m, T = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            # scales from 1e-3 to 1e3, and on every third draw an offset that dwarfs the spread
            target = rng.standard_normal((m + 1) ** T) * 10.0 ** rng.integers(-3, 4)
            if draw % 3 == 0:
                target += 1e3 * rng.standard_normal()
            bound = self.BOUND_EPS * eps * T * Fraction(float(np.max(np.abs(target))))
            constant, levels = build_weights_exact(target, m, T)
            rep = build_weights(target, m, T)
            assert abs(Fraction(rep.constant) - constant) <= bound
            for got, exact in zip(rep.weights.levels, levels):
                for row, exact_row in zip(got.tolist(), exact):
                    assert all(abs(Fraction(g) - e) <= bound for g, e in zip(row, exact_row))
            values = path_values(rep).tolist()
            assert all(abs(Fraction(g) - Fraction(v)) <= bound for g, v in zip(values, target.tolist()))


class TestEvaluate:
    def test_zero_weights_return_constant(self):
        rep = build_weights(np.full(4, 1.5), m=1, T=2)
        assert evaluate(rep, (0, 1)) == 1.5

    def test_matches_dot_with_embedded_tokens_bit_for_bit(self, rng):
        for m in range(1, 10):
            T = 3 if m < 4 else 2
            target = np.array([float(rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)) for _ in prefixes(m, T)])
            rep = build_weights(target, m=m, T=T)
            E = token_basis(m)
            want = []
            for z in prefixes(m, T):
                acc = rep.constant
                for t in range(T):
                    acc -= float(np.dot(rep.weights.at(z[:t]), E[z[t]]))
                assert evaluate(rep, z) == acc
                want.append(acc)
            # the stacked form, on all paths in a shuffled order, gives each path's bits
            order = rng.permutation(len(want))
            paths = np.array(list(prefixes(m, T)))[order]
            assert evaluate(rep, paths).tobytes() == np.array(want)[order].tobytes()
            assert path_values(rep).tobytes() == np.array(want).tobytes()

    def test_horizon_zero_is_the_constant(self):
        rep = build_weights(np.array([0.3]), m=2, T=0)
        assert rep.T == 0 and rep.m == 2
        assert evaluate(rep, ()) == 0.3
        assert evaluate(rep, np.zeros((3, 0), dtype=int)).tolist() == [0.3, 0.3, 0.3]
        with pytest.raises(ValueError, match="length"):
            evaluate(rep, (0,))

    @pytest.mark.parametrize(
        "z, match",
        [([[0, 1], [1, 2]], r"token z_2 = 2 outside alphabet 0\.\.1"), ([[0.5, 1]], "token z_1 = 0.5"),
         ([[[0, 1]]], "shape"), ([[0, 1, 1]], "length")],
        ids=["out-of-alphabet", "not-integer", "three-axes", "wrong-length"],
    )
    def test_rejects_bad_stacks(self, z, match):
        rep = build_weights(np.zeros(4), m=1, T=2)
        with pytest.raises(ValueError, match=match):
            evaluate(rep, z)

    def test_wrong_length_rejected(self):
        rep = build_weights(np.array([0.0, 1.0]), m=1, T=1)
        with pytest.raises(ValueError, match="length"):
            evaluate(rep, (0, 1))

    @pytest.mark.parametrize(
        "z, bad_row",
        [([True, False], [True, False]), (np.array([1.5, 0.0]), [1.5, 0.0]), (np.array(["1", "0"]), ["1", "0"]),
         (np.array([[0, 1], [1, False]], dtype=object), [1, False]), ([[0.0, 1.0], [1.0, np.nan]], [1.0, np.nan])],
        ids=["bool", "not-whole-float", "string", "object-holding-bool", "nan"],
    )
    def test_rejects_what_validate_tokens_rejects_with_its_error(self, z, bad_row):
        rep = build_weights(np.zeros(4), m=1, T=2)
        with pytest.raises(ValueError) as want:
            validate_tokens(bad_row, 1)
        assert str(want.value).endswith("is not an integer")
        with pytest.raises(ValueError) as got:
            evaluate(rep, z)
        assert str(got.value) == str(want.value)

    def test_whole_floats_and_small_integer_tables_read_as_the_tokens(self, rng):
        rep = build_weights(rng.standard_normal(27), m=2, T=3)
        paths = np.array(list(prefixes(2, 3)))
        want = evaluate(rep, paths).tobytes()
        for table in (paths.astype(float), paths.astype(np.int8), paths.astype(np.uint8), paths.astype(object)):
            assert evaluate(rep, table).tobytes() == want
        assert evaluate(rep, [2.0, 0.0, 1.0]) == evaluate(rep, (2, 0, 1))

    def test_peak_memory_holds_no_int64_copy_of_the_table(self, rng):
        m, T = 1, 12
        rep = build_weights(rng.standard_normal((m + 1) ** T), m, T)
        paths = np.indices((m + 1,) * T, dtype=np.int8).reshape(T, -1).T.copy()  # every path, 1 byte a token
        # path_values' levels and the ranks are a few (N,) float and int64 vectors; an (N, T) int64 copy is N T 8 bytes
        assert traced_peak(evaluate, rep, paths) < paths.size * 8


class TestRepresentConditional:
    def test_uninformative_emissions_give_zero_weights(self, rng):
        model = uninformative_model(rng, 3, 2, 2)
        rep = represent_conditional(model, z_query=1)
        assert abs(rep.constant - 1.0 / 3.0) <= 1e-12
        for t in range(2):
            for w in prefixes(2, t):
                assert np.max(np.abs(rep.weights.at(w))) <= 1e-12

    def test_single_step_direct_bayes(self):
        model = make_model([0.4, 0.6], [[0.7, 0.3], [0.2, 0.8]], [[0.2, 0.8], [0.7, 0.3]], 1)
        # hand Bayes for both branches of z_1, then the binary split formulas
        branch = {}
        for z1 in (0, 1):
            w = model.mu * model.C[:, z1]
            pi1 = model.A.T @ (w / w.sum())
            branch[z1] = pi1 @ model.C[:, 1]
        rep = represent_conditional(model, z_query=1)
        assert abs(rep.constant - 0.5 * (branch[1] + branch[0])) <= 1e-15
        assert abs(rep.weights.at(())[0] - (-0.5 * (branch[1] - branch[0]))) <= 1e-15

    def test_reference_model_reconstruction(self, reference_model):
        for z_query in (0, 1):
            rep = represent_conditional(reference_model, z_query)
            for z in prefixes(1, 3):
                pi_T = forward_filter(reference_model, z)[-1]
                target = next_token_prob(reference_model, pi_T)[z_query]
                assert abs(evaluate(rep, z) - target) <= 1e-12

    def test_conditionals_stay_in_unit_interval(self, rng):
        model = random_model(rng, 3, 2, 2)
        for z_query in range(3):
            rep = represent_conditional(model, z_query)
            for z in prefixes(2, 2):
                assert -1e-12 <= evaluate(rep, z) <= 1.0 + 1e-12

    def test_total_probability_across_queries(self, rng):
        # constants sum to 1, weight trees cancel, and the evaluations sum to 1 pathwise
        model = random_model(rng, 3, 2, 2)
        reps = [represent_conditional(model, q) for q in range(3)]
        assert abs(sum(r.constant for r in reps) - 1.0) <= 1e-12
        for t in range(2):
            for w in prefixes(2, t):
                total = sum(r.weights.at(w) for r in reps)
                assert np.max(np.abs(total)) <= 1e-12
        for z in prefixes(2, 2):
            assert abs(sum(evaluate(r, z) for r in reps) - 1.0) <= 1e-12

    def test_impossible_path_raises_by_default(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
        with pytest.raises(ImpossibleObservationError):
            represent_conditional(model, 0)

    def test_zero_convention_fills_zero(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
        rep = represent_conditional(replace(model, zero_convention=True), 0)
        # the only possible path is (1, 1); its conditional is C(0, 0) = 0 after staying in state 0
        assert abs(evaluate(rep, (1, 1)) - 0.0) <= 1e-12

    def test_bad_query_token(self, reference_model):
        with pytest.raises(ValueError, match="alphabet"):
            represent_conditional(reference_model, 2)

    @pytest.mark.parametrize("z_query", [True, 1.7, "1", np.float64(2.9)])
    def test_query_token_must_be_an_integer(self, rng, z_query):
        # read by validate_tokens' rule: none of these is token 1's (or token 2's) query
        model = random_model(rng, 2, 2, 2)
        with pytest.raises(ValueError) as err:
            represent_conditional(model, z_query)
        assert str(err.value) == f"query token = {z_query!r} is not an integer"

    def test_whole_number_query_is_that_token(self, rng):
        model = random_model(rng, 2, 2, 2)
        want = represent_conditional(model, 1)
        for z_query in (1.0, np.int64(1), np.float64(1.0)):
            assert_same_bits(represent_conditional(model, z_query), want)


def assert_same_bits(rep, want):
    """The same constant and weight levels, bit for bit."""
    assert np.float64(rep.constant).tobytes() == np.float64(want.constant).tobytes()
    assert [(level.shape, level.tobytes()) for level in rep.weights.levels] == \
        [(level.shape, level.tobytes()) for level in want.weights.levels]


def represent_by_paths(model, z_query):
    """represent_conditional written as one forward_filter per path, for comparison."""
    target = []
    for path in prefixes(model.m, model.T):
        pi_T = forward_filter(model, path)[-1]
        if model.zero_convention and pi_T.sum() == 0.0:
            target.append(0.0)
        else:
            target.append(float(next_token_prob(model, pi_T)[z_query]))
    return build_weights(np.array(target), model.m, model.T)


class TestRepresentAgainstPerPathLoop:
    @pytest.mark.parametrize("zero_convention", [False, True])
    @pytest.mark.parametrize("make", [random_model, sparse_model])
    def test_same_weights_and_errors(self, rng, make, zero_convention):
        for _ in range(8):
            d, m, T = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = replace(make(rng, d, m, T), zero_convention=zero_convention)
            z_query = int(rng.integers(m + 1))
            try:
                ref = represent_by_paths(model, z_query)
            except ImpossibleObservationError as exc:
                with pytest.raises(ImpossibleObservationError) as err:
                    represent_conditional(model, z_query)
                assert (err.value.t, err.value.prefix) == (exc.t, exc.prefix)
                continue
            rep = represent_conditional(model, z_query)
            assert_same_bits(rep, ref)


def read_weights(obj):
    """Test-side reader of a written representation: its (prefix, row) pairs as levels in rank order."""
    m, T, rows = obj["m"], obj["T"], dict(obj["weights"])
    return AdaptedProcess(m, tuple(
        np.array([rows[prefix_string(w)] for w in prefixes(m, t)], dtype=float).reshape((m + 1) ** t, m)
        for t in range(T)))


def written_representation(tmp_path, model, z_query):
    """The text of representation.json as ``represent`` writes it for the model and query."""
    write_model(tmp_path / "model.json", model)
    args = ["represent", "--model", str(tmp_path / "model.json"), "--z-query", str(z_query), "--out", str(tmp_path)]
    res = CliRunner().invoke(main, args + ["--zero-convention"] * model.zero_convention)
    assert res.exit_code == 0, res.output
    return (tmp_path / "representation.json").read_text()


def write_report(tmp_path, payload):
    """The text ``cli._write_json`` writes for the payload under the default config's header."""
    cli._write_json(tmp_path / "report.json", ExperimentConfig(), payload)
    return (tmp_path / "report.json").read_text()


def json_dump_text(doc):
    """What ``json.dump(doc, fh, indent=2, sort_keys=True)`` and a newline write."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestRepresentationFile:
    """representation.json as ``represent`` writes it: json.dump's text of the representation's bits."""

    SHAPES = pytest.mark.parametrize("d, m, T", [(2, 1, 1), (2, 2, 2), (3, 2, 3), (2, 3, 2)])

    @SHAPES
    def test_file_holds_the_constant_weights_and_integer_sizes(self, rng, tmp_path, d, m, T):
        obj = json.loads(written_representation(tmp_path, random_model(rng, d, m, T), 1))
        assert list(obj) == ["T", "constant", "header", "m", "reconstruction_error", "weights", "z_query"]
        assert type(obj["constant"]) is float
        assert (type(obj["m"]), type(obj["T"])) == (int, int) and (obj["m"], obj["T"]) == (m, T)

    @SHAPES
    def test_weights_name_each_prefix_once_in_rank_order(self, rng, tmp_path, d, m, T):
        obj = json.loads(written_representation(tmp_path, random_model(rng, d, m, T), 0))
        assert [name for name, _ in obj["weights"]] == [prefix_string(w) for t in range(T) for w in prefixes(m, t)]
        assert all(len(row) == m and all(type(x) is float for x in row) for _, row in obj["weights"])

    @SHAPES
    def test_written_weights_rebuild_the_representation_bit_for_bit(self, rng, tmp_path, d, m, T):
        model = random_model(rng, d, m, T)
        rep = represent_conditional(model, 1)
        obj = json.loads(written_representation(tmp_path, model, 1))
        weights = read_weights(obj)
        for t in range(T):
            np.testing.assert_array_equal(weights.levels[t], rep.weights.levels[t])
        assert obj["constant"] == rep.constant
        clone = PredictorRepresentation(constant=obj["constant"], weights=weights)
        np.testing.assert_array_equal(path_values(clone), path_values(rep))

    def test_file_is_the_text_json_dump_writes(self, rng, tmp_path):
        models = [random_model(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 6)))
                  for _ in range(12)]
        # a level of exactly JSON_CHUNK rows, a level of several chunks, and zero weights on impossible paths
        models += [random_model(rng, 2, 3, 5), random_model(rng, 2, 2, 7)]
        models.append(replace(sparse_model(rng, 3, 1, 4), zero_convention=True))
        assert (3 + 1) ** 4 == cli.JSON_CHUNK < (2 + 1) ** 6
        for model in models:
            text = written_representation(tmp_path, model, int(rng.integers(model.m + 1)))
            assert text == json_dump_text(json.loads(text))

    def test_signed_zero_and_non_finite_weights_are_written_as_json_writes_them(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        levels = (np.array([[-0.0, nan]]), np.array([[inf, -inf], [0.0, 5e-324], [1e300, -1.5]]))
        text = write_report(tmp_path, {"constant": -0.0, "weights": AdaptedProcess(2, levels), "m": 2, "T": 2})
        pairs = [["", [-0.0, nan]], ["0", [inf, -inf]], ["1", [0.0, 5e-324]], ["2", [1e300, -1.5]]]
        header = ExperimentConfig().header()
        assert text == json_dump_text({"header": header, "constant": -0.0, "weights": pairs, "m": 2, "T": 2})
        for got, want in zip(read_weights(json.loads(text)).levels, levels, strict=True):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_empty_horizon_writes_no_weights(self, tmp_path):
        rep = build_weights(np.array([0.3]), m=1, T=0)
        text = write_report(tmp_path, {"constant": rep.constant, "weights": rep.weights, "m": rep.m, "T": rep.T})
        header = ExperimentConfig().header()
        assert text == json_dump_text({"header": header, "constant": 0.3, "weights": [], "m": 1, "T": 0})
