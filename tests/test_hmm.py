import json

import numpy as np
import pytest

from dualfilter.hmm import (
    HmmModel,
    Spaces,
    ROUNDING_TOL,
    decompose,
    drop_rounding_negatives,
    embed_token,
    gamma_op,
    is_probability_vector,
    obs_vector,
    risk_matrix,
    scalar_obs,
    token_basis,
)

from conftest import make_model, random_model


class TestSpaces:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Spaces(0, 1, 1)
        with pytest.raises(ValueError):
            Spaces(1, 0, 1)
        with pytest.raises(ValueError):
            Spaces(1, 1, 0)


class TestModelConstruction:
    def test_negative_entries_fail(self):
        with pytest.raises(ValueError, match="negative"):
            make_model([1.1, -0.1], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], 1)

    def test_bad_row_sum_fails(self):
        with pytest.raises(ValueError, match="sums to"):
            make_model([0.5, 0.5], [[0.6, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], 1)

    def test_rows_renormalized(self, rng):
        # sums within 1e-9 of 1 are accepted and snapped back
        eps = 5e-10
        model = make_model(
            [0.5 + eps, 0.5],
            [[0.5, 0.5 + eps], [0.5, 0.5]],
            [[0.25, 0.75 + eps], [0.5, 0.5]],
            2,
        )
        assert abs(model.mu.sum() - 1.0) < 1e-15
        assert np.all(np.abs(model.A.sum(axis=1) - 1.0) < 1e-15)
        assert np.all(np.abs(model.C.sum(axis=1) - 1.0) < 1e-15)

    def test_json_round_trip(self, rng):
        model = random_model(rng, 3, 2, 4)
        clone = HmmModel.from_json(model.to_json())
        assert clone.spaces == model.spaces
        np.testing.assert_array_equal(clone.mu, model.mu)
        np.testing.assert_array_equal(clone.A, model.A)
        np.testing.assert_array_equal(clone.C, model.C)

    def test_missing_key_is_loud(self):
        with pytest.raises(ValueError, match="missing key"):
            HmmModel.from_dict({"d": 2, "m": 1, "T": 1, "mu": [1, 0], "A": [[1, 0], [0, 1]]})


class TestRoundingNegatives:
    def test_only_rounding_level_negatives_read_as_zero(self):
        p = np.array([0.5, -5.55e-17, -ROUNDING_TOL, -2 * ROUNDING_TOL, 0.25, -0.0])
        out = drop_rounding_negatives(p)
        assert out.tolist() == [0.5, 0.0, 0.0, -2 * ROUNDING_TOL, 0.25, -0.0]
        assert p[1] == -5.55e-17  # the input is not modified

    def test_domain_flag_uses_the_same_rule(self):
        assert is_probability_vector([0.5, 0.5 + ROUNDING_TOL, -ROUNDING_TOL])
        assert not is_probability_vector([0.5, 0.5 + 2 * ROUNDING_TOL, -2 * ROUNDING_TOL])


class TestEmbedToken:
    def test_binary_alphabet(self):
        np.testing.assert_array_equal(embed_token(1, 1), [1.0])
        np.testing.assert_array_equal(embed_token(0, 1), [-1.0])

    def test_canonical_basis(self):
        np.testing.assert_array_equal(embed_token(2, 3), [0.0, 1.0, 0.0])

    def test_zero_token_is_minus_sum(self):
        np.testing.assert_array_equal(embed_token(0, 3), [-1.0, -1.0, -1.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            embed_token(4, 3)
        with pytest.raises(ValueError):
            embed_token(-1, 3)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_basis_balance(self, m):
        # the embedded alphabet sums to zero
        np.testing.assert_array_equal(token_basis(m).sum(axis=0), np.zeros(m))


class TestDecompose:
    def test_binary_example(self):
        mean, tilde = decompose([1.0, 3.0])
        assert mean == 2.0
        np.testing.assert_array_equal(tilde, [1.0])

    def test_three_token_example(self):
        mean, tilde = decompose([0.0, 3.0, 3.0])
        assert mean == 2.0
        np.testing.assert_array_equal(tilde, [1.0, 1.0])
        # reconstruction at z=0: mean - sum(tilde)
        assert mean - tilde.sum() == 0.0

    def test_constant_input(self):
        mean, tilde = decompose(np.full(4, 7.5))
        assert mean == 7.5
        np.testing.assert_array_equal(tilde, np.zeros(3))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_round_trip(self, m, rng):
        E = token_basis(m)
        for _ in range(200):
            s = rng.standard_normal(m + 1) * rng.choice([0.1, 1.0, 100.0])
            mean, tilde = decompose(s)
            recon = mean + E @ tilde
            assert np.max(np.abs(recon - s)) <= 1e-14 * max(1.0, np.max(np.abs(s)))

    def test_uniqueness(self, rng):
        # (0, 0) decomposition forces the zero function and vice versa
        mean, tilde = decompose(np.zeros(4))
        assert mean == 0.0 and not tilde.any()
        s = rng.standard_normal(4)
        s -= 0  # arbitrary nonzero input
        if np.allclose(s, 0):
            s[0] = 1.0
        mean, tilde = decompose(s)
        assert abs(mean) > 0 or np.max(np.abs(tilde)) > 0


class TestObsVector:
    def test_binary(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.2, 0.8], [0.7, 0.3]], 1)
        np.testing.assert_allclose(obs_vector(model, 0), [0.6])

    def test_uniform_row_vanishes(self):
        model = make_model([1.0], [[1.0]], [[1 / 3, 1 / 3, 1 / 3]], 1)
        np.testing.assert_allclose(obs_vector(model, 0), [0.0, 0.0], atol=1e-15)

    def test_componentwise(self):
        model = make_model([1.0], [[1.0]], [[0.5, 0.3, 0.2]], 1)
        np.testing.assert_allclose(obs_vector(model, 0), [-0.2, -0.3])

    def test_out_of_range(self, reference_model):
        with pytest.raises(ValueError):
            obs_vector(reference_model, 2)


class TestScalarObs:
    def test_half_gives_zero(self):
        model = make_model([0.5, 0.5], np.eye(2), [[0.5, 0.5], [0.5, 0.5]], 1)
        np.testing.assert_array_equal(scalar_obs(model, 1), [0.0, 0.0])

    def test_endpoints(self):
        model = make_model([0.5, 0.5], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 1)
        np.testing.assert_array_equal(scalar_obs(model, 1), [1.0, -1.0])

    def test_binary_arithmetic(self):
        model = make_model([0.5, 0.5], np.eye(2), [[0.2, 0.8], [0.7, 0.3]], 1)
        np.testing.assert_allclose(scalar_obs(model, 1), [0.6, -0.4])

    def test_agrees_with_obs_vector_for_binary(self, rng):
        for _ in range(20):
            model = random_model(rng, 3, 1, 1)
            np.testing.assert_allclose(
                [obs_vector(model, x)[0] for x in range(3)], scalar_obs(model, 1)
            )

    def test_out_of_range(self, reference_model):
        with pytest.raises(ValueError):
            scalar_obs(reference_model, 2)


class TestGammaOp:
    def test_constant_function(self, reference_model):
        np.testing.assert_allclose(
            gamma_op(reference_model, np.full(2, 3.3)), np.zeros(2), atol=1e-14
        )

    def test_identity_transition(self, rng):
        model = make_model([0.5, 0.5], np.eye(2), [[0.2, 0.8], [0.7, 0.3]], 1)
        f = rng.standard_normal(2)
        np.testing.assert_allclose(gamma_op(model, f), np.zeros(2), atol=1e-15)

    def test_bernoulli_variance(self):
        model = make_model([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], 1)
        np.testing.assert_allclose(gamma_op(model, np.array([0.0, 2.0])), [1.0, 1.0])

    def test_nonnegative(self, rng):
        for _ in range(200):
            model = random_model(rng, 4, 1, 1)
            f = 10.0 * rng.standard_normal(4)
            assert gamma_op(model, f).min() >= -1e-12


class TestRiskMatrix:
    def test_binary_reduction(self):
        # for a binary alphabet the matrix collapses to the scalar 1 - c^2
        model = make_model([1.0, 0.0], np.eye(2), [[0.2, 0.8], [0.7, 0.3]], 1)
        c = 0.6
        np.testing.assert_allclose(risk_matrix(model, 0), [[1 - c * c]])
        np.testing.assert_allclose(risk_matrix(model, 0), [[0.64]])

    def test_uniform_row(self):
        model = make_model([1.0], [[1.0]], [[0.25, 0.25, 0.25, 0.25]], 1)
        expect = 0.25 * (np.eye(3) + np.ones((3, 3)))
        np.testing.assert_allclose(risk_matrix(model, 0), expect, atol=1e-15)

    def test_against_independent_transcription(self):
        model = make_model([1.0], [[1.0]], [[0.2, 0.5, 0.3]], 1)
        # term-by-term evaluation, written out without the library helpers
        c = np.array([0.5 - 0.2, 0.3 - 0.2])
        expect = np.diag(c) + 0.2 * (np.eye(2) + np.ones((2, 2))) - np.outer(c, c)
        np.testing.assert_allclose(risk_matrix(model, 0), expect)

    def test_symmetric_psd_property(self, rng):
        # the matrix is a conditional covariance, so its spectrum stays nonnegative
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            row = rng.dirichlet(np.ones(m + 1) * rng.uniform(0.2, 3.0))
            model = make_model([1.0], [[1.0]], row[None, :], 1)
            R = risk_matrix(model, 0)
            assert np.max(np.abs(R - R.T)) <= 1e-12
            assert np.linalg.eigvalsh(R).min() >= -1e-10
