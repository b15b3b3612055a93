import re
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from dualfilter.adapted import prefixes
from dualfilter.oracle import (
    EnumerationBudgetError,
    ImpossibleObservationError,
    check_enum_budget,
    exact_expectation,
    filter_levels,
    filter_process,
    forward_filter,
    next_token_prob,
    path_probability,
    sample_path,
)

from conftest import make_model, random_model, sparse_model, uninformative_model
from oracles import filter_by_enumeration, forward_exact, path_probability_enumerated


class TestForwardFilter:
    def test_uninformative_reduces_to_chain_marginal(self):
        model = make_model([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]], 3)
        pis = forward_filter(model, (1, 0, 1))
        np.testing.assert_allclose(pis[0], [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(pis[1], [1.0, 0.0], atol=1e-15)

    def test_perfectly_informative_emission(self):
        model = make_model([0.5, 0.5], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 1)
        pis = forward_filter(model, (1,))
        np.testing.assert_allclose(pis[0], [1.0, 0.0], atol=1e-15)

    def test_reference_path_against_enumeration(self, reference_model):
        z = (1, 1, 0)
        pis = forward_filter(reference_model, z)
        brute = filter_by_enumeration(reference_model, z)
        np.testing.assert_allclose(pis, brute, atol=1e-12)

    def test_matches_enumeration_on_all_paths(self, rng):
        for _ in range(5):
            d, m, T = int(rng.integers(2, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
            model = random_model(rng, d, m, T)
            for z in prefixes(m, T):
                np.testing.assert_allclose(
                    forward_filter(model, z), filter_by_enumeration(model, z), atol=1e-12
                )
        # one deliberately larger case at the corner of the enumeration budget
        model = random_model(rng, 4, 1, 5)
        for z in prefixes(1, 5):
            np.testing.assert_allclose(
                forward_filter(model, z), filter_by_enumeration(model, z), atol=1e-12
            )

    def test_prefix_consistency(self, reference_model):
        z = (1, 0, 1)
        full = forward_filter(reference_model, z)
        for t in range(1, len(z) + 1):
            np.testing.assert_array_equal(forward_filter(reference_model, z[:t]), full[:t])

    def test_non_integer_tokens_are_rejected_not_truncated(self, reference_model):
        with pytest.raises(ValueError, match="token z_1 = 0.9 is not an integer"):
            forward_filter(reference_model, [0.9, 1.2])

    def test_impossible_prefix_names_time(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
        with pytest.raises(ImpossibleObservationError) as err:
            forward_filter(model, (1, 0))
        assert err.value.t == 2

    def test_zero_convention_fills_zero_measures(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
        pis = forward_filter(model, (1, 0), zero_convention=True)
        np.testing.assert_allclose(pis[0], [1.0, 0.0])
        np.testing.assert_array_equal(pis[1], [0.0, 0.0])

    def test_rows_are_probability_vectors(self, rng):
        model = random_model(rng, 4, 2, 5)
        pis = forward_filter(model, sample_path(model, rng))
        assert np.all(pis >= 0)
        np.testing.assert_allclose(pis.sum(axis=1), np.ones(5), atol=1e-12)


class TestFilterProcess:
    def test_matches_per_path_filter(self, reference_model):
        proc = filter_process(reference_model)
        for z in prefixes(1, 3):
            pis = forward_filter(reference_model, z)
            for t in range(1, 4):
                np.testing.assert_allclose(np.asarray(proc.at(z[:t])), pis[t - 1], atol=1e-14)

    def test_impossible_prefix_raises_without_convention(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
        with pytest.raises(ImpossibleObservationError):
            filter_process(model)
        proc = filter_process(model, zero_convention=True)
        assert np.asarray(proc.at((0,))).sum() == 0.0


def first_impossible_by_paths(model, T):
    """(t, prefix) of the error a forward_filter loop over the length-T paths raises first, or None."""
    for path in prefixes(model.m, T):
        try:
            forward_filter(model, path)
        except ImpossibleObservationError as exc:
            return exc.t, exc.prefix
    return None


class TestFilterWalk:
    """The level-by-level filter (``filter_levels``) against forward_filter, bit for bit."""

    @pytest.mark.parametrize("zero_convention", [False, True])
    @pytest.mark.parametrize("make", [random_model, sparse_model])
    def test_every_prefix_equals_forward_filter_row(self, rng, make, zero_convention):
        raised = 0
        for _ in range(12):
            d, m, T = int(rng.integers(1, 9)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
            model = make(rng, d, m, T)
            first = None if zero_convention else first_impossible_by_paths(model, T)
            if first is not None:
                raised += 1
                for build in (lambda: filter_levels(model), lambda: filter_process(model)):
                    with pytest.raises(ImpossibleObservationError) as err:
                        build()
                    assert (err.value.t, err.value.prefix) == first
                continue
            levels = filter_levels(model, zero_convention)
            assert [level.shape for level in levels] == [((m + 1) ** t, d) for t in range(1, T + 1)]
            proc = filter_process(model, zero_convention=zero_convention)
            assert list(proc.tree) == [w for t in range(1, T + 1) for w in prefixes(m, t)]
            for t, level in enumerate(levels, start=1):
                for prefix, pi in zip(prefixes(m, t), level):
                    row = forward_filter(model, prefix, zero_convention=zero_convention)[-1]
                    assert pi.tobytes() == row.tobytes(), prefix
                    assert proc.at(prefix).tobytes() == row.tobytes(), prefix
        if make is sparse_model and not zero_convention:
            assert raised > 0  # the sweep did meet impossible prefixes

    def test_rows_in_prefix_rank_order(self, reference_model):
        levels = filter_levels(reference_model)
        for t, level in enumerate(levels, start=1):
            want = [forward_filter(reference_model, w)[-1] for w in prefixes(1, t)]
            assert level.tobytes() == np.array(want).tobytes()
        got = list(filter_process(reference_model).tree)
        assert len(got) == 14 and got[:6] == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_deeper_impossible_prefix_first_in_preorder_is_named(self):
        # (1,) is impossible at level 1, but (0, 0, 0) at level 3 comes first in preorder:
        # state 0 emits only 0 and moves to state 1, which emits both and moves to state 2,
        # which emits only 1
        model = make_model([1.0, 0.0, 0.0], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
                           [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], 3)
        assert first_impossible_by_paths(model, 3) == (3, (0, 0, 0))
        for build in (lambda: filter_levels(model), lambda: filter_process(model)):
            with pytest.raises(ImpossibleObservationError) as err:
                build()
            assert (err.value.t, err.value.prefix) == (3, (0, 0, 0))
        with pytest.raises(ImpossibleObservationError) as err:
            filter_levels(replace(model, T=2))
        assert (err.value.t, err.value.prefix) == (1, (1,))


class TestForwardStepAgainstExactArithmetic:
    """forward_filter and path_probability against the same recursion in Fractions of the model's floats."""

    @pytest.mark.parametrize("make", [random_model, sparse_model])
    def test_within_a_few_eps_per_step(self, rng, make):
        eps = Fraction(np.finfo(float).eps)
        impossible = 0
        for _ in range(40):
            d, m, T = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = make(rng, d, m, T)
            for z in (w for t in range(1, T + 1) for w in prefixes(m, t)):
                rows, prob = forward_exact(model, z)
                bound = 4 * len(z) * eps
                pis = forward_filter(model, z, zero_convention=True)
                assert max(abs(Fraction(v) - e) for row, exact in zip(pis.tolist(), rows)
                           for v, e in zip(row, exact)) <= bound
                got = path_probability(model, z)
                if prob == 0:
                    impossible += 1
                    assert got == 0.0
                    with pytest.raises(ImpossibleObservationError):
                        forward_filter(model, z)
                else:
                    assert abs(Fraction(got) - prob) <= bound * prob
                    assert forward_filter(model, z).tobytes() == pis.tobytes()
        if make is sparse_model:
            assert impossible > 0  # the sweep did meet impossible paths


class TestNextTokenProb:
    def test_point_mass_returns_emission_row(self, reference_model):
        np.testing.assert_array_equal(
            next_token_prob(reference_model, np.array([1.0, 0.0])), reference_model.C[0]
        )

    def test_uniform_emission_gives_uniform(self, rng):
        model = uninformative_model(rng, 3, 2, 1)
        p = next_token_prob(model, np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(p, np.full(3, 1 / 3))

    def test_binary_mixture(self):
        model = make_model([0.5, 0.5], np.eye(2), [[0.2, 0.8], [0.7, 0.3]], 1)
        p = next_token_prob(model, np.array([0.5, 0.5]))
        np.testing.assert_allclose(p, [0.45, 0.55])

    def test_rounding_level_negative_reads_as_zero(self):
        model = make_model([0.5, 0.5, 0.0], np.eye(3), [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], 1)
        assert next_token_prob(model, np.array([0.5, 0.5, -5.55e-17])).tolist() == [0.5, 0.5]
        with pytest.raises(ValueError, match="negative"):
            next_token_prob(model, np.array([0.5, 0.5 + 1e-6, -1e-6]))

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_stack_equals_per_row_products(self, rng, m):
        for d in (1, 2, 3, 4, 8, 13):
            model = random_model(rng, d, m, 1)
            P = rng.dirichlet(np.ones(d), size=(6, 7))
            got = next_token_prob(model, P)
            assert got.shape == (6, 7, m + 1)
            assert got.tobytes() == np.array([[p @ model.C for p in rows] for rows in P]).tobytes()
            assert next_token_prob(model, P[0, 0]).tobytes() == (P[0, 0] @ model.C).tobytes()

    def test_stack_with_one_bad_row_names_its_sum(self, rng):
        model = random_model(rng, 3, 2, 1)
        P = rng.dirichlet(np.ones(3), size=5)
        P[3, 0] += 1e-6
        with pytest.raises(ValueError, match=re.escape(f"sums to {P[3].sum()!r},")):
            next_token_prob(model, P)

    def test_rounding_level_negatives_in_a_stack_read_as_zero(self):
        model = make_model([0.5, 0.5, 0.0], np.eye(3), [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], 1)
        P = np.array([[0.25, 0.75, 0.0], [0.5, 0.5, -5.55e-17]])
        assert next_token_prob(model, P).tolist() == [[0.25, 0.75], [0.5, 0.5]]

    def test_matches_conditional_by_enumeration(self, rng):
        # the filtered mixture equals P(Z_{t+1} = z | z_1..z_t) computed from path masses
        for _ in range(3):
            model = random_model(rng, 3, 1, 3)
            for z in prefixes(1, 2):
                pi = forward_filter(model, z)[-1]
                p = next_token_prob(model, pi)
                base = path_probability_enumerated(model, z)
                for tok in range(2):
                    joint = path_probability_enumerated(model, z + (tok,))
                    assert abs(p[tok] - joint / base) <= 1e-12


class TestPathProbability:
    def test_single_step(self, rng):
        model = random_model(rng, 3, 2, 1)
        for tok in range(3):
            assert abs(path_probability(model, (tok,)) - model.mu @ model.C[:, tok]) <= 1e-15

    def test_deterministic_model_is_indicator(self):
        model = make_model([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], 3)
        # unique consistent path: state 0 emits 1, state 1 emits 0, alternating
        assert path_probability(model, (1, 0, 1)) == 1.0
        assert path_probability(model, (1, 1, 1)) == 0.0

    def test_reference_path_against_brute_force(self, reference_model):
        z = (1, 1, 0)
        assert abs(
            path_probability(reference_model, z) - path_probability_enumerated(reference_model, z)
        ) <= 1e-14

    def test_total_mass(self, rng):
        for _ in range(5):
            model = random_model(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)), 4)
            total = sum(path_probability(model, z) for z in prefixes(model.m, 4))
            assert abs(total - 1.0) <= 1e-10


class TestExactExpectation:
    def test_total_probability(self, reference_model):
        assert abs(exact_expectation(reference_model, lambda x, z: 1.0) - 1.0) <= 1e-12

    def test_indicator_recovers_path_probability(self, reference_model):
        target = (1, 0, 1)
        val = exact_expectation(reference_model, lambda x, z: float(z == target))
        assert abs(val - path_probability(reference_model, target)) <= 1e-14

    def test_terminal_marginal(self, rng):
        model = random_model(rng, 2, 1, 2)
        val = exact_expectation(model, lambda x, z: float(x[-1] == 0))
        expect = (model.mu @ np.linalg.matrix_power(model.A, 2))[0]
        assert abs(val - expect) <= 1e-13

    def test_budget_error(self, rng):
        model = random_model(rng, 4, 2, 6)
        with pytest.raises(EnumerationBudgetError, match="reduce"):
            check_enum_budget(model, 6, 1000)

    @pytest.mark.parametrize("d, m, T, cost", [(2, 1, 2, 64), (3, 1, 1, 36), (2, 2, 3, 1296), (4, 2, 6, 35831808)])
    def test_budget_admits_its_cost_and_rejects_one_less(self, rng, d, m, T, cost):
        model = random_model(rng, d, m, T)
        check_enum_budget(model, T, cost)
        with pytest.raises(EnumerationBudgetError) as err:
            check_enum_budget(model, T, cost - 1)
        assert str(err.value).startswith(f"d^(T+1)*(m+1)^(T+1) = {cost} exceeds the enumeration budget {cost - 1} ")


def scalar_enumeration(model, h, T):
    """Reference for exact_expectation: each joint weight a product of numpy scalars, term by term."""
    total = 0.0
    for z_path in product(range(model.m + 1), repeat=T):
        C_cols = [model.C[:, tok] for tok in z_path]
        for x_path in product(range(model.d), repeat=T + 1):
            p = model.mu[x_path[0]]
            for t in range(T):
                p *= C_cols[t][x_path[t]] * model.A[x_path[t], x_path[t + 1]]
            if p > 0.0:
                total += p * h(x_path, z_path)
    return float(total)


class TestExactExpectationAgainstScalarEnumeration:
    @pytest.mark.parametrize("T", range(5))
    def test_bit_identical_with_zero_entries(self, rng, T):
        skipped = 0
        for _ in range(4):
            d, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            model = sparse_model(rng, d, m, max(T, 1))
            values = {}

            def h(x_path, z_path):
                return values.setdefault((x_path, z_path), float(rng.standard_normal()))

            ref = scalar_enumeration(model, h, T)
            assert exact_expectation(model, h, T=T) == ref
            skipped += d ** (T + 1) * (m + 1) ** T - len(values)
        assert skipped > 0  # the sweep did meet zero-weight joint paths

    @pytest.mark.parametrize("T", range(5))
    def test_calls_h_once_per_positive_path_in_order(self, rng, T):
        for _ in range(4):
            d, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            model = sparse_model(rng, d, m, max(T, 1))
            calls, positive = [], []
            exact_expectation(model, lambda x, z: calls.append((x, z)) or 1.0, T=T)
            scalar_enumeration(model, lambda x, z: positive.append((x, z)) or 1.0, T)
            # one call per positive-weight joint path, none for a zero-weight one, in (z, x) order
            assert calls == positive
            assert calls == sorted(set(calls), key=lambda c: (c[1], c[0]))
            for (_, z), (_, z_next) in zip(calls, calls[1:]):
                assert (z is z_next) == (z == z_next)


class TestSamplePath:
    def test_sampled_paths_have_positive_probability(self, rng):
        model = make_model([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], 4)
        for _ in range(10):
            z = sample_path(model, rng)
            assert path_probability(model, z) > 0.0
