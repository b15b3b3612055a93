import json

import numpy as np
import pytest

from dualfilter.adapted import prefixes
from dualfilter.hmm import token_basis
from dualfilter.oracle import ImpossibleObservationError, forward_filter, next_token_prob
from dualfilter.predictor import (
    PredictorRepresentation,
    build_weights,
    evaluate,
    path_values,
    represent_conditional,
)

from conftest import make_model, random_model, sparse_model, uninformative_model
from oracles import build_weights_lstsq


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
        rep = represent_conditional(model, 0, zero_convention=True)
        # the only possible path is (1, 1); its conditional is C(0, 0) = 0 after staying in state 0
        assert abs(evaluate(rep, (1, 1)) - 0.0) <= 1e-12

    def test_bad_query_token(self, reference_model):
        with pytest.raises(ValueError, match="alphabet"):
            represent_conditional(reference_model, 2)


def represent_by_paths(model, z_query, zero_convention):
    """represent_conditional written as one forward_filter per path, for comparison."""
    target = []
    for path in prefixes(model.m, model.T):
        pi_T = forward_filter(model, path, zero_convention=zero_convention)[-1]
        if zero_convention and pi_T.sum() == 0.0:
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
            model = make(rng, d, m, T)
            z_query = int(rng.integers(m + 1))
            try:
                ref = represent_by_paths(model, z_query, zero_convention)
            except ImpossibleObservationError as exc:
                with pytest.raises(ImpossibleObservationError) as err:
                    represent_conditional(model, z_query, zero_convention=zero_convention)
                assert (err.value.t, err.value.prefix) == (exc.t, exc.prefix)
                continue
            rep = represent_conditional(model, z_query, zero_convention=zero_convention)
            assert rep.to_json() == ref.to_json()


class TestSerialization:
    def test_json_round_trip(self, rng):
        model = random_model(rng, 2, 2, 2)
        rep = represent_conditional(model, 1)
        clone = PredictorRepresentation.from_dict(rep.to_dict())
        assert clone.constant == rep.constant
        assert clone.m == rep.m and clone.T == rep.T
        for t in range(rep.T):
            for w in prefixes(rep.m, t):
                np.testing.assert_array_equal(clone.weights.at(w), rep.weights.at(w))

    def test_json_round_trip_is_byte_identical(self, rng):
        for d, m, T in [(2, 1, 1), (3, 2, 3), (2, 3, 2)]:
            rep = represent_conditional(random_model(rng, d, m, T), 1)
            assert PredictorRepresentation.from_dict(json.loads(rep.to_json())).to_json() == rep.to_json()
        empty = build_weights(np.array([0.3]), m=1, T=0)
        assert PredictorRepresentation.from_dict(empty.to_dict()).to_json() == empty.to_json()

    @pytest.mark.parametrize(
        "key, val, match",
        [("m", 1.7, "model size m must be an integer, got 1.7"), ("m", "1", "model size m must be an integer"),
         ("m", True, "model size m must be an integer, got True"), ("T", 2.9, "model size T must be an integer"),
         ("T", 1.0, "model size T must be an integer, got 1.0"), ("m", 0, r"m >= 1, T >= 0; got m=0, T=1"),
         ("T", -1, r"m >= 1, T >= 0; got m=1, T=-1")],
        ids=["float-m", "str-m", "bool-m", "float-T", "integral-float-T", "zero-m", "negative-T"],
    )
    def test_loading_rejects_sizes_that_are_not_integers_in_range(self, key, val, match):
        obj = build_weights(np.array([0.0, 1.0]), m=1, T=1).to_dict()
        obj[key] = val
        with pytest.raises(ValueError, match=match):
            PredictorRepresentation.from_dict(obj)

    @pytest.mark.parametrize("key", ["constant", "weights", "m", "T"])
    def test_loading_names_a_missing_key(self, key):
        obj = build_weights(np.array([0.0, 1.0]), m=1, T=1).to_dict()
        del obj[key]
        with pytest.raises(ValueError) as err:
            PredictorRepresentation.from_dict(obj)
        assert str(err.value) == f"representation file missing key {key!r}"

    def test_loading_an_empty_object_names_the_first_key(self):
        with pytest.raises(ValueError, match="^representation file missing key 'constant'$"):
            PredictorRepresentation.from_dict({})

    @pytest.mark.parametrize("edit, name, how", [
        (lambda pairs: pairs[:-1], "1", "missing"),
        (lambda pairs: pairs[1:], "", "missing"),
        (lambda pairs: pairs + [["2", [0.0]]], "2", "extra"),
        (lambda pairs: pairs + [["0.1", [0.0]]], "0.1", "extra"),
    ])
    def test_loading_rejects_incomplete_or_foreign_weights(self, rng, edit, name, how):
        obj = represent_conditional(random_model(rng, 2, 1, 2), 0).to_dict()
        obj["weights"] = edit(obj["weights"])
        with pytest.raises(ValueError) as err:
            PredictorRepresentation.from_dict(obj)
        assert str(err.value) == (
            f"weights must name each prefix of length 0..1 over the alphabet 0..1 and no other; {name!r} is {how}"
        )
