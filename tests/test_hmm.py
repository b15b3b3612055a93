import re
from dataclasses import replace

import numpy as np
import pytest

from dualfilter.hmm import (
    HmmModel,
    ROUNDING_TOL,
    check_integer,
    check_probability_vector,
    decompose,
    drop_rounding_negatives,
    gamma_op,
    is_probability_vector,
    obs_matrix,
    risk_tensor,
    token_basis,
    validate_tokens,
)

from conftest import make_model, random_model, sparse_model, write_model
from oracles import scalar_obs


class TestModelConstruction:
    @pytest.mark.parametrize("mu, C, T", [([], np.zeros((0, 2)), 1), ([1.0], [[1.0]], 1), ([1.0], [[0.5, 0.5]], 0)],
                             ids=["d", "m", "T"])
    def test_rejects_nonpositive_sizes(self, mu, C, T):
        with pytest.raises(ValueError, match="spaces require d >= 1, m >= 1, T >= 1"):
            HmmModel(mu, np.eye(len(mu)), C, T)

    @pytest.mark.parametrize("mu, C", [([[1.0]], [[0.5, 0.5]]), ([1.0], [0.5, 0.5])], ids=["mu", "C"])
    def test_prior_must_be_a_vector_and_emissions_a_matrix(self, mu, C):
        with pytest.raises(ValueError, match="mu must be a vector and C a matrix"):
            HmmModel(mu, [[1.0]], C, 1)

    def test_sizes_are_read_off_the_arrays(self):
        model = make_model([0.5, 0.5], np.eye(2), [[0.2, 0.3, 0.5], [0.7, 0.2, 0.1]], 4)
        assert (model.d, model.m, model.T) == (2, 2, 4)

    def test_negative_entries_fail(self):
        with pytest.raises(ValueError, match="negative"):
            make_model([1.1, -0.1], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], 1)

    def test_bad_row_sum_fails(self):
        with pytest.raises(ValueError, match="sums to"):
            make_model([0.5, 0.5], [[0.6, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], 1)

    @pytest.mark.parametrize(
        "shapes, match",
        [(((3,), (2, 2), (2, 2)), "mu must have shape"), (((2,), (2, 3), (2, 2)), "A must have shape"),
         (((2,), (2, 2), (2, 3)), "C must have shape")],
        ids=["mu", "A", "C"],
    )
    def test_wrong_shapes_fail(self, shapes, match):
        mu, A, C = (np.full(shape, 1.0 / shape[-1]).tolist() for shape in shapes)
        with pytest.raises(ValueError, match=match):
            HmmModel.from_dict({"d": 2, "m": 1, "T": 1, "mu": mu, "A": A, "C": C})

    @pytest.mark.parametrize("name", ["mu", "A", "C"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_entries_fail_naming_the_array(self, name, bad):
        arrays = {"mu": [0.5, 0.5], "A": [[0.5, 0.5], [0.5, 0.5]], "C": [[0.5, 0.5], [0.5, 0.5]]}
        arrays[name] = np.array(arrays[name])
        arrays[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
            make_model(arrays["mu"], arrays["A"], arrays["C"], 1)

    def test_negative_emission_fails(self):
        with pytest.raises(ValueError, match="C has negative"):
            make_model([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[1.1, -0.1], [0.5, 0.5]], 1)

    def test_bad_prior_sum_fails(self):
        with pytest.raises(ValueError, match=r"mu row 0 sums to"):
            make_model([0.6, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], 1)

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

    def test_json_round_trip(self, rng, tmp_path):
        model = random_model(rng, 3, 2, 4)
        clone = HmmModel.from_json(write_model(tmp_path / "model.json", model).read_text())
        assert (clone.d, clone.m, clone.T) == (model.d, model.m, model.T) == (3, 2, 4)
        np.testing.assert_array_equal(clone.mu, model.mu)
        np.testing.assert_array_equal(clone.A, model.A)
        np.testing.assert_array_equal(clone.C, model.C)

    @pytest.mark.parametrize("off", [0.0, 5e-10], ids=["normalized", "rows-off-by-5e-10"])
    def test_rebuilding_from_own_arrays_changes_no_bit(self, rng, tmp_path, off):
        for _ in range(100):
            d, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            mu, A, C = (rng.dirichlet(np.ones(k), size=n) * (1 + rng.uniform(-off, off, (n, 1)))
                        for n, k in ((1, d), (d, d), (d, m + 1)))
            model = make_model(mu[0], A, C, 3)
            loaded = HmmModel.from_json(write_model(tmp_path / "model.json", model).read_text())
            for clone in (loaded, replace(model, T=5), replace(replace(model, T=2), T=3)):
                for name in ("mu", "A", "C"):
                    assert getattr(clone, name).tobytes() == getattr(model, name).tobytes(), name

    def test_missing_key_is_loud(self):
        with pytest.raises(ValueError, match="missing key"):
            HmmModel.from_dict({"d": 2, "m": 1, "T": 1, "mu": [1, 0], "A": [[1, 0], [0, 1]]})

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("3", "int"), ("null", "NoneType"), ('"x"', "str")])
    def test_json_that_is_not_an_object_is_loud(self, text, kind):
        with pytest.raises(ValueError) as err:
            HmmModel.from_json(text)
        assert str(err.value) == f"model file must hold a JSON object with keys d, m, T, mu, A and C, got {kind}"

    @pytest.mark.parametrize("key, val", [("T", 2.5), ("d", 3.9), ("m", 2.2), ("T", 3.0), ("T", "3"), ("T", True),
                                          ("d", None)])
    def test_file_sizes_must_be_integers(self, key, val):
        obj = {"d": 2, "m": 1, "T": 3, "mu": [0.5, 0.5], "A": [[1, 0], [0, 1]], "C": [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(ValueError) as err:
            HmmModel.from_dict({**obj, key: val})
        assert str(err.value) == f"model size {key} must be an integer, got {val!r}"

    def test_library_horizon_must_be_an_integer(self):
        # the library reads T by check_integer: a whole real is the int it equals, a fraction is an error
        assert make_model([0.5, 0.5], np.eye(2), [[0.5, 0.5], [0.5, 0.5]], 2.0).T == 2
        with pytest.raises(ValueError, match=r"^model size T = 2.5 is not an integer$"):
            make_model([0.5, 0.5], np.eye(2), [[0.5, 0.5], [0.5, 0.5]], 2.5)

    @pytest.mark.parametrize("T", [2.0, np.int64(2), np.float64(2.0)], ids=["float", "numpy-int", "numpy-float"])
    def test_whole_horizon_is_stored_as_an_int(self, rng, T):
        model = random_model(rng, 2, 1, 3)
        short = replace(model, T=T)
        assert type(short.T) is int and short.T == 2
        assert short == replace(model, T=2)

    @pytest.mark.parametrize("T", [True, "2", None, float("inf")], ids=["bool", "str", "none", "inf"])
    def test_horizon_that_is_not_an_integer_raises(self, rng, T):
        with pytest.raises(ValueError) as err:
            replace(random_model(rng, 2, 1, 3), T=T)
        assert str(err.value) == f"model size T = {T!r} is not an integer"

    @pytest.mark.parametrize("val", ["yes", 1, 0, None, np.True_])
    def test_zero_convention_must_be_a_bool(self, val):
        with pytest.raises(ValueError) as err:
            HmmModel(mu=[0.5, 0.5], A=np.eye(2), C=[[0.5, 0.5], [0.5, 0.5]], T=2, zero_convention=val)
        assert str(err.value) == f"zero_convention must be true or false, got {val!r}"

    def test_zero_convention_is_a_run_choice_not_part_of_the_file(self, rng, tmp_path):
        model = random_model(rng, 3, 2, 4)
        assert model.zero_convention is False
        lenient = replace(model, zero_convention=True)
        assert lenient.to_dict() == model.to_dict() and "zero_convention" not in model.to_dict()
        assert HmmModel.from_json(write_model(tmp_path / "model.json", lenient).read_text()).zero_convention is False
        # a copy at another horizon keeps the convention and every bit of the arrays
        short = replace(lenient, T=2)
        assert short.zero_convention is True
        assert all(getattr(short, name).tobytes() == getattr(model, name).tobytes() for name in ("mu", "A", "C"))


class TestModelEquality:
    """Models are equal exactly when T, the zero convention and the bits of mu, A and C are."""

    def test_copies_are_equal_and_hash_alike(self, rng, tmp_path):
        model = random_model(rng, 3, 2, 4)
        loaded = HmmModel.from_json(write_model(tmp_path / "model.json", model).read_text())
        for other in (replace(model), loaded, replace(replace(model, T=2), T=4)):
            assert other == model and not other != model
            assert hash(other) == hash(model)
        assert len({model, replace(model), loaded}) == 1

    def test_any_field_that_differs_makes_them_unequal(self, rng):
        model = random_model(rng, 2, 1, 3)
        nudged_mu = model.mu.copy()
        nudged_mu[0] = np.nextafter(nudged_mu[0], 1.0)
        nudged_mu[1] = 1.0 - nudged_mu[0]
        others = [replace(model, T=2), replace(model, zero_convention=True), replace(model, mu=nudged_mu),
                  replace(model, A=model.A[::-1]), replace(model, C=model.C[:, ::-1])]
        assert others[2].mu.tobytes() != model.mu.tobytes()  # the nudge survives construction
        assert [other == model for other in others] == [False] * 5
        assert len({model, *others}) == 6

    def test_a_model_is_not_equal_to_other_types(self, rng):
        model = random_model(rng, 2, 1, 2)
        assert model != model.to_dict() and model != (model.mu, model.A, model.C, model.T)


class TestRoundingNegatives:
    def test_only_rounding_level_negatives_read_as_zero(self):
        p = np.array([0.5, -5.55e-17, -ROUNDING_TOL, -2 * ROUNDING_TOL, 0.25, -0.0])
        out = drop_rounding_negatives(p)
        assert out.tolist() == [0.5, 0.0, 0.0, -2 * ROUNDING_TOL, 0.25, -0.0]
        assert p[1] == -5.55e-17  # the input is not modified

    def test_domain_flag_uses_the_same_rule(self):
        assert is_probability_vector([0.5, 0.5 + ROUNDING_TOL, -ROUNDING_TOL])
        assert not is_probability_vector([0.5, 0.5 + 2 * ROUNDING_TOL, -2 * ROUNDING_TOL])

    def test_domain_flag_takes_a_stack_along_the_last_axis(self, rng):
        p = rng.dirichlet(np.ones(3), size=(4, 5))
        p[1, 2] = [0.5, 0.6, -0.1]
        p[3, 0] = [0.5, 0.5 + 2 * ROUNDING_TOL, 0.0]
        p[2, 4] = [0.5, 0.5 + ROUNDING_TOL, -ROUNDING_TOL]
        flags = is_probability_vector(p)
        assert flags.shape == (4, 5) and flags.dtype == bool
        assert flags.tolist() == [[is_probability_vector(row) for row in block] for block in p]
        assert flags.sum() == 18
        assert is_probability_vector(p[0, 0]) is True


class TestValidateTokens:
    def test_integer_valued_tokens_read_as_ints(self):
        got = validate_tokens([1, 1.0, np.int64(2), np.float64(0.0)], 2)
        assert got == (1, 1, 2, 0) and all(type(tok) is int for tok in got)
        assert validate_tokens(np.array([2, 0]), 2) == (2, 0)
        assert validate_tokens(iter([]), 2) == ()

    @pytest.mark.parametrize("z, text", [
        ([0, 1.5], "token z_2 = 1.5 is not an integer"),
        ([0.9, 1.2], "token z_1 = 0.9 is not an integer"),
        (["1"], "token z_1 = '1' is not an integer"),
        ("10", "token z_1 = '1' is not an integer"),
        ([float("nan")], "token z_1 = nan is not an integer"),
        ([float("inf")], "token z_1 = inf is not an integer"),
        ([None], "token z_1 = None is not an integer"),
        # a bool is rejected as a Python bool just as a numpy one, as are bools in the other integer inputs
        ([True, False], "token z_1 = True is not an integer"),
        ([0, False], "token z_2 = False is not an integer"),
        ([np.True_], "token z_1 = np.True_ is not an integer"),
        ([1, 3], "token z_2 = 3 outside alphabet 0..2"),
        ([-1.0], "token z_1 = -1 outside alphabet 0..2"),
        (None, "observation path must be a sequence of tokens, got None"),
        (5, "observation path must be a sequence of tokens, got 5"),
        # a byte string iterates as its byte values: b"\x01\x00" is not the path (1, 0)
        (b"\x01\x00", "observation path must be a sequence of tokens, got b'\\x01\\x00'"),
        (bytearray(b"\x01"), "observation path must be a sequence of tokens, got bytearray(b'\\x01')"),
    ])
    def test_rejects_what_is_not_a_token_path(self, z, text):
        with pytest.raises(ValueError) as err:
            validate_tokens(z, 2)
        assert str(err.value) == text


class TestCheckInteger:
    def test_integer_values_read_as_ints(self):
        got = [check_integer(val, "n") for val in (3, 3.0, np.int64(3), np.float64(3.0), np.uint8(3))]
        assert got == [3] * 5 and all(type(val) is int for val in got)

    @pytest.mark.parametrize("val", [True, False, np.True_, 1.7, np.float64(2.9), float("nan"), float("inf"), "1",
                                     None, [1]])
    def test_rejects_what_is_not_an_integer(self, val):
        with pytest.raises(ValueError) as err:
            check_integer(val, "K")
        assert str(err.value) == f"K = {val!r} is not an integer"


class TestCheckProbabilityVector:
    def test_returns_the_vector(self):
        assert check_probability_vector([0.25, 0.75]).tolist() == [0.25, 0.75]

    @pytest.mark.parametrize(
        "p, match",
        [(0.5, "scalar"), ([0.5, 0.6], "sums to"), ([1.5, -0.5], "negative entries")],
        ids=["scalar", "bad-sum", "negative"],
    )
    def test_rejects(self, p, match):
        with pytest.raises(ValueError, match=match):
            check_probability_vector(p)

    def test_checks_every_row_of_a_stack(self, rng):
        P = rng.dirichlet(np.ones(3), size=(4, 5))
        assert check_probability_vector(P).tobytes() == P.tobytes()
        P[2, 3, 1] += 1e-6
        with pytest.raises(ValueError, match=re.escape(f"sums to {P[2, 3].sum()!r},")):
            check_probability_vector(P)
        P[2, 3, 1] -= 1e-6
        P[1, 4] = [0.5, 0.5 + 1e-6, -1e-6]
        with pytest.raises(ValueError, match="negative entries") as err:
            check_probability_vector(P)
        assert str(P[1, 4]) in str(err.value)

    def test_rounding_negatives_in_a_stack_read_as_zero(self):
        P = np.array([[0.25, 0.75, 0.0], [0.5, 0.5, -5.55e-17]])
        assert check_probability_vector(P).tolist() == [[0.25, 0.75, 0.0], [0.5, 0.5, 0.0]]


class TestEmbedToken:
    """Row z of token_basis(m) is the embedded token e(z)."""

    def test_binary_alphabet(self):
        np.testing.assert_array_equal(token_basis(1)[1], [1.0])
        np.testing.assert_array_equal(token_basis(1)[0], [-1.0])

    def test_canonical_basis(self):
        np.testing.assert_array_equal(token_basis(3)[2], [0.0, 1.0, 0.0])

    def test_zero_token_is_minus_sum(self):
        np.testing.assert_array_equal(token_basis(3)[0], [-1.0, -1.0, -1.0])

    def test_out_of_range(self):
        # one row per token 0..m and no other
        assert token_basis(3).shape == (4, 3)

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

    @pytest.mark.parametrize("s", [[1.0], 1.0], ids=["one-token", "scalar"])
    def test_rejects_non_alphabet_input(self, s):
        with pytest.raises(ValueError, match="length-"):
            decompose(s)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_rows_split_like_single_vectors(self, m, rng):
        S = rng.standard_normal((50, m + 1)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
        mean, tilde = decompose(S)
        for s, mu, ti in zip(S, mean, tilde):
            one_mean, one_tilde = decompose(s)
            assert mu == one_mean and ti.tobytes() == one_tilde.tobytes()
        for stack in (S, np.asfortranarray(S)):  # np.mean's bits in either memory order
            assert decompose(stack)[0].tobytes() == stack.mean(axis=-1).tobytes()

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
    """Row x of obs_matrix is c(x) = [C(x,1) - C(x,0), ..., C(x,m) - C(x,0)]."""

    def test_binary(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.2, 0.8], [0.7, 0.3]], 1)
        np.testing.assert_allclose(obs_matrix(model)[0], [0.6])

    def test_uniform_row_vanishes(self):
        model = make_model([1.0], [[1.0]], [[1 / 3, 1 / 3, 1 / 3]], 1)
        np.testing.assert_allclose(obs_matrix(model)[0], [0.0, 0.0], atol=1e-15)

    def test_componentwise(self):
        model = make_model([1.0], [[1.0]], [[0.5, 0.3, 0.2]], 1)
        np.testing.assert_allclose(obs_matrix(model)[0], [-0.2, -0.3])

    def test_out_of_range(self, reference_model):
        # one row per state 0..d-1 and no other
        assert obs_matrix(reference_model).shape == (2, 1)


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
                obs_matrix(model)[:, 0], scalar_obs(model, 1)
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

    def test_wrong_shape(self, reference_model):
        for f in (np.zeros(3), np.zeros((4, 3)), np.float64(1.0)):
            with pytest.raises(ValueError, match="f must have shape"):
                gamma_op(reference_model, f)

    def test_rows_of_a_stack_match_single_functions(self, rng):
        model = random_model(rng, 3, 1, 1)
        F = rng.standard_normal((2, 4, 3))
        expect = np.array([[gamma_op(model, f) for f in row] for row in F])
        np.testing.assert_allclose(gamma_op(model, F), expect, rtol=1e-14, atol=1e-14)

    def test_nonnegative(self, rng):
        for _ in range(200):
            model = random_model(rng, 4, 1, 1)
            f = 10.0 * rng.standard_normal(4)
            assert gamma_op(model, f).min() >= -1e-12


class TestRiskMatrix:
    """Slice x of risk_tensor is R(x) = diag(c(x)) + C(x,0) (I + 11^T) - c(x) c(x)^T."""

    def test_binary_reduction(self):
        # for a binary alphabet the matrix collapses to the scalar 1 - c^2
        model = make_model([1.0, 0.0], np.eye(2), [[0.2, 0.8], [0.7, 0.3]], 1)
        c = 0.6
        np.testing.assert_allclose(risk_tensor(model)[0], [[1 - c * c]])
        np.testing.assert_allclose(risk_tensor(model)[0], [[0.64]])

    def test_uniform_row(self):
        model = make_model([1.0], [[1.0]], [[0.25, 0.25, 0.25, 0.25]], 1)
        expect = 0.25 * (np.eye(3) + np.ones((3, 3)))
        np.testing.assert_allclose(risk_tensor(model)[0], expect, atol=1e-15)

    def test_against_independent_transcription(self):
        model = make_model([1.0], [[1.0]], [[0.2, 0.5, 0.3]], 1)
        # term-by-term evaluation, written out without the library helpers
        c = np.array([0.5 - 0.2, 0.3 - 0.2])
        expect = np.diag(c) + 0.2 * (np.eye(2) + np.ones((2, 2))) - np.outer(c, c)
        np.testing.assert_allclose(risk_tensor(model)[0], expect)

    def test_symmetric_psd_property(self, rng):
        # the matrix is a conditional covariance, so its spectrum stays nonnegative
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            row = rng.dirichlet(np.ones(m + 1) * rng.uniform(0.2, 3.0))
            model = make_model([1.0], [[1.0]], row[None, :], 1)
            R = risk_tensor(model)[0]
            assert np.max(np.abs(R - R.T)) <= 1e-12
            assert np.linalg.eigvalsh(R).min() >= -1e-10

    def test_equals_per_state_stack(self, rng):
        # the whole-array expression against the formula evaluated one state at a time
        for i in range(200):
            d, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            model = (random_model if i % 2 else sparse_model)(rng, d, m, 1)
            stack = []
            for x in range(d):
                c = model.C[x, 1:] - model.C[x, 0]
                stack.append(np.diag(c) + model.C[x, 0] * (np.eye(m) + np.ones((m, m))) - np.outer(c, c))
            assert np.array_equal(risk_tensor(model), np.stack(stack))
