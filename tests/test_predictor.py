import numpy as np
import pytest

from dualfilter.adapted import prefixes
from dualfilter.hmm import token_basis
from dualfilter.oracle import ImpossibleObservationError, forward_filter, next_token_prob
from dualfilter.predictor import (
    PredictorRepresentation,
    build_weights,
    evaluate,
    represent_conditional,
)

from conftest import make_model, random_model, sparse_model, uninformative_model
from oracles import build_weights_lstsq


class TestBuildWeights:
    def test_binary_single_step(self):
        rep = build_weights({(1,): 3.0, (0,): 1.0}, m=1, T=1)
        assert rep.constant == 2.0
        np.testing.assert_array_equal(rep.weights.at(()), [-1.0])
        assert evaluate(rep, (1,)) == 3.0
        assert evaluate(rep, (0,)) == 1.0

    def test_constant_target_has_zero_weights(self):
        target = {z: 4.25 for z in prefixes(2, 3)}
        rep = build_weights(target, m=2, T=3)
        assert rep.constant == 4.25
        for t in range(3):
            for w in prefixes(2, t):
                np.testing.assert_array_equal(rep.weights.at(w), np.zeros(2))

    def test_indicator_target_frozen_values(self):
        # target = 1 exactly on the path (1, 1); per-prefix splits done by hand:
        # level 2 at prefix (1,): values (0, 1) -> mean 1/2, weight [-1/2]
        # level 2 at prefix (0,): values (0, 0) -> mean 0, weight [0]
        # level 1 at root: values (0, 1/2) -> mean 1/4, weight [-1/4]
        target = {z: float(z == (1, 1)) for z in prefixes(1, 2)}
        rep = build_weights(target, m=1, T=2)
        assert rep.constant == 0.25
        np.testing.assert_array_equal(rep.weights.at(()), [-0.25])
        np.testing.assert_array_equal(rep.weights.at((1,)), [-0.5])
        np.testing.assert_array_equal(rep.weights.at((0,)), [0.0])
        for z in prefixes(1, 2):
            assert evaluate(rep, z) == target[z]

    def test_incomplete_target_rejected(self):
        with pytest.raises(ValueError, match="missing path"):
            build_weights({(0,): 1.0}, m=1, T=1)

    def test_round_trip_random_targets(self, rng):
        for _ in range(10):
            m, T = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            target = {z: float(rng.standard_normal()) for z in prefixes(m, T)}
            rep = build_weights(target, m=m, T=T)
            for z in prefixes(m, T):
                assert abs(evaluate(rep, z) - target[z]) <= 1e-12

    def test_agrees_with_least_squares_construction(self, rng):
        for _ in range(10):
            m, T = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            target = {z: float(rng.standard_normal()) for z in prefixes(m, T)}
            a = build_weights(target, m=m, T=T)
            b = build_weights_lstsq(target, m=m, T=T)
            assert abs(a.constant - b.constant) <= 1e-10
            for t in range(T):
                for w in prefixes(m, t):
                    assert np.max(np.abs(a.weights.at(w) - b.weights.at(w))) <= 1e-10


class TestEvaluate:
    def test_zero_weights_return_constant(self):
        target = {z: 1.5 for z in prefixes(1, 2)}
        rep = build_weights(target, m=1, T=2)
        assert evaluate(rep, (0, 1)) == 1.5

    def test_matches_dot_with_embedded_tokens_bit_for_bit(self, rng):
        for m in range(1, 10):
            T = 3 if m < 4 else 2
            target = {z: float(rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)) for z in prefixes(m, T)}
            rep = build_weights(target, m=m, T=T)
            E = token_basis(m)
            for z in prefixes(m, T):
                acc = rep.constant
                for t in range(T):
                    acc -= float(np.dot(rep.weights.at(z[:t]), E[z[t]]))
                assert evaluate(rep, z) == acc

    def test_wrong_length_rejected(self):
        rep = build_weights({(0,): 0.0, (1,): 1.0}, m=1, T=1)
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
    target = {}
    for path in prefixes(model.m, model.T):
        pi_T = forward_filter(model, path, zero_convention=zero_convention)[-1]
        if zero_convention and pi_T.sum() == 0.0:
            target[path] = 0.0
        else:
            target[path] = float(next_token_prob(model, pi_T)[z_query])
    return build_weights(target, model.m, model.T)


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
