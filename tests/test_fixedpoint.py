from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from dualfilter import fixedpoint
from dualfilter.adapted import AdaptedProcess, prefixes
from dualfilter.dual import PRED_PROB_TOL, SOLVE_BLOCK, estimator_values, solve_optimal
from dualfilter.fixedpoint import (
    apply_N_adapted,
    apply_N_path,
    bde_solve,
    fixed_point_residual,
    iterate,
    path_laws,
    scalar_feedback,
    step_law,
)
from dualfilter.hmm import is_probability_vector, obs_matrix, risk_tensor
from dualfilter.oracle import filter_process, forward_filter, kl_divergence_bar, sample_path

from conftest import (
    dyadic_simplex,
    from_tree,
    make_model,
    point_mass_model,
    random_measure_process,
    random_model,
    sparse_model,
    traced_peak,
    uninformative_model,
)
from oracles import apply_N_path_exact, control_operator, scalar_obs


def token_columns(model, z):
    """C(., z) and the sum of C's other columns, added one by one."""
    rest = sum(model.C[:, tok] for tok in range(model.m + 1) if tok != z)
    return model.C[:, z], rest


def token_law(model, nu, z):
    return step_law(model.A, nu, *token_columns(model, z))


def gain(G):
    """The feedback gain k of a ``step_law`` law G = [[0, k^T], [0, M]]."""
    return G[0, 1:]


def is_degenerate_law(G, A):
    """The law of a degenerate step: gain exactly 0 and M equal to A to the bit, first column 0."""
    return bool(np.all(G[0] == 0.0) and np.all(G[:, 0] == 0.0)) and G[1:, 1:].tobytes() == A.tobytes()


def feedback_step(G, y, carried=0.0):
    """``scalar_feedback`` from the state (carried, y): the control u and the next y."""
    u, state = scalar_feedback(G, np.concatenate(([carried], y)))
    return u, state[1:]


def near_degenerate_dyadic_model(rng, d, m, z, T, powers=(10, 30)):
    """Every state emits z with probability within 2^-30..2^-10 (or the given powers) of 0 or of 1, so
    one predictive probability of each token is small; mu, A and C are dyadic and exactly normalized."""
    near = 2.0 ** -rng.integers(powers[0], powers[1] + 1, d)
    high = rng.random() < 0.5
    others = np.array([dyadic_simplex(rng, m, 16) for _ in range(d)]) * (near if high else 1 - near)[:, None]
    C = np.insert(others, z, 1 - near if high else near, axis=1)
    return make_model(dyadic_simplex(rng, d, 20), [dyadic_simplex(rng, d, 20) for _ in range(d)], C, T)


class TestScalarFeedback:
    def test_constant_function_gives_zero(self, rng, reference_model):
        model = reference_model
        nu = rng.dirichlet(np.ones(model.d))
        u, _ = feedback_step(token_law(model, nu, 1), np.full(model.d, 2.0))
        assert abs(u) <= 1e-14

    def test_degenerate_branch(self):
        # a token emitted surely by every state: p = 1 and q = 0
        model = make_model([0.5, 0.5], np.eye(2), [[0.0, 1.0], [0.0, 1.0]], 1)
        G = token_law(model, np.array([0.3, 0.7]), 1)
        assert is_degenerate_law(G, model.A)
        assert feedback_step(G, np.array([1.0, -2.0]))[0] == 0.0

    def test_against_independent_transcription(self, rng):
        model = random_model(rng, 3, 1, 1)
        f = rng.standard_normal(3)
        nu = rng.dirichlet(np.ones(3))
        c = scalar_obs(model, 1)
        nc = sum(nu[x] * c[x] for x in range(3))
        expect = -sum(nu[x] * (model.A[x] @ f) * (c[x] - nc) for x in range(3)) / (1 - nc**2)
        assert abs(feedback_step(token_law(model, nu, 1), f)[0] - expect) <= 1e-14

    def test_returns_a_python_float(self, rng, reference_model):
        G = token_law(reference_model, rng.dirichlet(np.ones(2)), 1)
        u, state = scalar_feedback(G, rng.standard_normal(3))
        assert type(u) is float
        assert state.dtype == np.float64 and state.shape == (3,) and state[0] == u

    def test_carried_control_is_ignored_to_the_bit(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 9))
            model = random_model(rng, d, 1, 1)
            G = token_law(model, rng.dirichlet(np.ones(d)), int(rng.integers(2)))
            y = rng.standard_normal(d)
            _, base = scalar_feedback(G, np.concatenate(([0.0], y)))
            for carried in (rng.standard_normal(), -1e300, 1e300):
                _, state = scalar_feedback(G, np.concatenate(([carried], y)))
                assert state.tobytes() == base.tobytes()


class TestBdeSolve:
    def test_zero_steps_return_the_terminal_and_no_controls(self, reference_model):
        rho = np.full((3, 2), 0.5)
        y0, controls = bde_solve(path_laws(reference_model, rho, (1, 0, 1)), 0, [1, 0])
        assert y0.dtype == np.float64 and y0.tolist() == [1.0, 0.0]
        assert controls.dtype == np.float64 and controls.shape == (0,)

    def test_t_steps_return_float64_arrays(self, rng):
        model = random_model(rng, 4, 2, 5)
        z = sample_path(model, rng)
        laws = path_laws(model, rng.dirichlet(np.ones(4), size=5), z)
        for t in range(1, 6):
            y0, controls = bde_solve(laws, t, np.eye(4)[t % 4])
            assert y0.dtype == np.float64 and y0.shape == (4,)
            assert controls.dtype == np.float64 and controls.shape == (t,)

    def test_feedback_is_looked_up_at_call_time(self, rng, reference_model):
        # a patched fixedpoint.scalar_feedback must see every step of a standalone solve
        laws = path_laws(reference_model, rng.dirichlet(np.ones(2), size=3), (1, 0, 1))
        for t in range(4):
            with mock.patch.object(fixedpoint, "scalar_feedback", side_effect=scalar_feedback) as feedback:
                bde_solve(laws, t, np.array([0.0, 1.0]))
            assert feedback.call_count == t

    def test_constant_terminal_rides_through(self, rng, reference_model):
        model = reference_model
        rho = np.stack([rng.dirichlet(np.ones(model.d)) for _ in range(model.T)])
        y0, controls = bde_solve(path_laws(model, rho, (1, 0, 1)), model.T, np.full(model.d, 3.0))
        np.testing.assert_allclose(controls, 0.0, atol=1e-13)
        np.testing.assert_allclose(y0, 3.0, atol=1e-12)

    def test_single_step_closed_form(self, rng, reference_model):
        model = reference_model
        rho = np.stack([rng.dirichlet(np.ones(model.d)) for _ in range(model.T)])
        f = rng.standard_normal(model.d)
        z = (1, 0, 1)
        y0, controls = bde_solve(path_laws(model, rho, z), 1, f)
        c1 = scalar_obs(model, z[0])
        u0, _ = feedback_step(token_law(model, model.mu, z[0]), f)
        assert controls.shape == (1,)
        assert controls[0] == u0
        np.testing.assert_allclose(y0, model.A @ f + c1 * u0, atol=1e-14)

    def test_reference_replay(self, rng, reference_model):
        # replay the recursion with bare loops and compare every control
        model = reference_model
        rho = np.stack([rng.dirichlet(np.ones(model.d)) for _ in range(model.T)])
        z = (1, 1, 0)
        f = np.array([1.0, 0.0])
        y0, controls = bde_solve(path_laws(model, rho, z), model.T, f)
        y = f.copy()
        expect = np.zeros(model.T)
        for s in range(model.T - 1, -1, -1):
            c = 2.0 * model.C[:, z[s]] - 1.0
            nu = model.mu if s == 0 else rho[s - 1]
            nc = nu @ c
            u = -(nu @ ((model.A @ y) * (c - nc))) / (1 - nc**2)
            y = model.A @ y + c * u
            expect[s] = u
        np.testing.assert_allclose(controls, expect, atol=1e-14)
        np.testing.assert_allclose(y0, y, atol=1e-14)


class TestApplyNPath:
    def test_uninformative_gives_chain_marginals(self, rng):
        model = uninformative_model(rng, 3, 1, 3)
        z = (1, 0, 1)
        rho = np.stack([rng.dirichlet(np.ones(3)) for _ in range(3)])
        out, flags = apply_N_path(model, rho, z)
        for t in range(1, 4):
            marginal = model.mu @ np.linalg.matrix_power(model.A, t)
            np.testing.assert_allclose(out[t - 1], marginal, atol=1e-12)
        assert flags.all()

    @pytest.mark.parametrize("m", [1, 2])
    def test_filter_is_fixed_point(self, rng, m):
        # binary alphabet is the headline claim; wider alphabets are checked as
        # an exploratory finding and happen to hold as well
        for _ in range(10):
            d, T = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            model = random_model(rng, d, m, T)
            z = sample_path(model, rng)
            pis = forward_filter(model, z)
            out, flags = apply_N_path(model, pis, z)
            assert np.max(np.abs(out - pis)) <= 1e-10
            assert flags.all()

    def test_mass_preserved(self, rng, reference_model):
        model = reference_model
        z = (0, 1, 1)
        rho = np.stack([rng.dirichlet(np.ones(model.d)) for _ in range(model.T)])
        out, _ = apply_N_path(model, rho, z)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_causality_in_future_tokens(self, rng, reference_model):
        model = reference_model
        rho = np.stack([rng.dirichlet(np.ones(model.d)) for _ in range(model.T)])
        out_a, _ = apply_N_path(model, rho, (1, 0, 0))
        out_b, _ = apply_N_path(model, rho, (1, 1, 1))
        assert np.array_equal(out_a[0], out_b[0])

    def test_shape_mismatch_rejected(self, reference_model):
        with pytest.raises(ValueError, match="shape"):
            apply_N_path(reference_model, np.zeros((2, 2)), (1, 0, 1))


def bde_solve_per_call(model, rho, z, t, f):
    """The backward pass with the closed-loop law recomputed at every step, for comparison.

    nu is divided by its mass unless that is 0. The predictive
    probabilities p = nu(C(., z)) and q = nu(rest), the gain
    k in whichever difference is taken away from 1, and the transition
    M = A + c k^T are rebuilt at each step; a step with min(|p|, |q|) at or
    below PRED_PROB_TOL has gain 0 and transition A. Each step takes the
    control and the next y from one product of [[0, k^T], [0, M]] with the
    state (last control, y).
    """
    state = np.concatenate(([0.0], f))
    controls = np.zeros(t)
    for s in range(t - 1, -1, -1):
        col, rest = token_columns(model, z[s])
        nu = model.mu if s == 0 else rho[s - 1]
        nu = nu / (float(nu.sum()) or 1.0)
        p, q = float(nu @ col), float(nu @ rest)
        if min(abs(p), abs(q)) <= PRED_PROB_TOL:
            k, M = np.zeros(model.d), model.A
        else:
            if p <= q:
                k = -(model.A.T @ (nu * (col - p))) / (2.0 * p * q)
            else:
                k = (model.A.T @ (nu * (rest - q))) / (2.0 * p * q)
            M = model.A + np.outer(scalar_obs(model, z[s]), k)
        state = np.block([[0.0, k], [np.zeros((model.d, 1)), M]]) @ state
        controls[s] = float(state[0])
    return state[1:], controls


def apply_N_path_per_call(model, rho, z):
    """apply_N_path written as T*d passes that each rebuild every step's law."""
    out = np.zeros_like(rho)
    for t in range(1, len(z) + 1):
        for j in range(model.d):
            y0, controls = bde_solve_per_call(model, rho, z, t, np.eye(model.d)[j])
            out[t - 1, j] = float(model.mu @ y0) - float(controls.sum())
    return out, np.array([is_probability_vector(row) for row in out])


def random_path(rng, model):
    return tuple(int(tok) for tok in rng.integers(0, model.m + 1, size=model.T))


class TestApplyNPathSharedLaws:
    """One law per step, shared by the T*d passes: same bits as passes that rebuild it."""

    def assert_same_map(self, model, rho, z):
        out, flags = apply_N_path(model, rho, z)
        ref_out, ref_flags = apply_N_path_per_call(model, rho, z)
        assert out.tobytes() == ref_out.tobytes()
        assert flags.tobytes() == ref_flags.tobytes()
        laws = path_laws(model, rho, z)
        f = np.random.default_rng(len(z)).standard_normal(model.d)
        for t in range(1, len(z) + 1):
            y0, controls = bde_solve(laws, t, f)
            ref_y0, ref_controls = bde_solve_per_call(model, rho, z, t, f)
            assert y0.tobytes() == ref_y0.tobytes() and controls.tobytes() == ref_controls.tobytes()

    def test_random_models_filter_and_random_rho(self, rng):
        for _ in range(8):
            d, m, T = int(rng.integers(2, 9)), int(rng.integers(1, 3)), int(rng.integers(1, 31))
            model = random_model(rng, d, m, T)
            z = sample_path(model, rng)
            self.assert_same_map(model, forward_filter(model, z), z)
            self.assert_same_map(model, rng.dirichlet(np.ones(d), size=T), z)

    def test_zero_convention_filters_with_zero_rows(self, rng):
        zero_rows = 0
        for _ in range(12):
            d, m, T = int(rng.integers(2, 6)), int(rng.integers(1, 3)), int(rng.integers(2, 12))
            model = sparse_model(rng, d, m, T)
            z = random_path(rng, model)
            rho = forward_filter(replace(model, zero_convention=True), z)
            zero_rows += int((rho.sum(axis=1) == 0.0).sum())
            self.assert_same_map(model, rho, z)
        assert zero_rows > 0

    def test_degenerate_branch(self, rng):
        # token 1 is emitted surely by every state: q = 0 at every step
        model = make_model([0.3, 0.7], [[0.6, 0.4], [0.2, 0.8]], [[0.0, 1.0], [0.0, 1.0]], 5)
        z = (1, 1, 1, 1, 1)
        assert all(is_degenerate_law(G, model.A) for G in path_laws(model, forward_filter(model, z), z))
        self.assert_same_map(model, forward_filter(model, z), z)
        self.assert_same_map(model, rng.dirichlet(np.ones(2), size=5), z)

    def test_one_feedback_call_per_step_and_one_law_per_step(self, rng):
        model = random_model(rng, 3, 1, 6)
        z = sample_path(model, rng)
        rho = rng.dirichlet(np.ones(3), size=6)
        with mock.patch.object(fixedpoint, "scalar_feedback", side_effect=scalar_feedback) as feedback, \
                mock.patch.object(fixedpoint, "step_law", side_effect=step_law) as law:
            apply_N_path(model, rho, z)
        assert feedback.call_count == model.d * 6 * 7 // 2
        assert law.call_count == 6

    def test_laws_validate_the_path_and_rho(self, reference_model):
        model = reference_model
        for rho, z, text in [(np.full((3, 2), 0.5), (1, 2, 1), "token z_2 = 2 outside alphabet 0..1"),
                             (np.full((2, 2), 0.5), (1, 0, 1), "rho must have shape (3, 2), got (2, 2)")]:
            with pytest.raises(ValueError) as err:
                path_laws(model, rho, z)
            assert str(err.value) == text


class TestApplyNPathExact:
    """apply_N_path against the paper's open-loop map in exact rationals (oracles.apply_N_path_exact)."""

    # |error| <= BOUND_EPS * eps * prod_{s<t} 1/min(p_s, q_s) on row t, a degenerate step counting 1:
    # a model whose float rows sum to 1 + delta gives 1 - nu(c)^2 = 4 p q + O(delta), off by
    # delta / min(p, q) relative; over every draw below the error stayed under 0.5 of the bound at 1
    BOUND_EPS = 4

    def assert_near_exact(self, model, rho, z):
        out, _ = apply_N_path(model, rho, z)
        exact = apply_N_path_exact(model, rho, z)
        growth, smallest, degenerate = 1.0, 1.0, 0
        for t, tok in enumerate(z, start=1):
            nu = model.mu if t == 1 else rho[t - 2]
            small = min(abs(float(nu @ model.C[:, tok])), abs(float(nu @ (model.C.sum(axis=1) - model.C[:, tok]))))
            if small <= PRED_PROB_TOL:
                degenerate += 1
            else:
                growth, smallest = growth / small, min(smallest, small)
            err = max(abs(Fraction(out[t - 1, j]) - exact[t - 1][j]) for j in range(model.d))
            assert err <= Fraction(self.BOUND_EPS * np.finfo(float).eps * growth)
        return smallest, degenerate

    def test_random_models_filter_and_random_rho(self, rng):
        for _ in range(30):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, T)
            z = sample_path(model, rng)
            self.assert_near_exact(model, forward_filter(model, z), z)
            self.assert_near_exact(model, rng.dirichlet(np.ones(d), size=T), z)

    def test_sparse_models_take_the_degenerate_step(self, rng):
        degenerate = 0
        for _ in range(30):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = sparse_model(rng, d, m, T)
            z = random_path(rng, model)
            rho = forward_filter(replace(model, zero_convention=True), z)
            degenerate += self.assert_near_exact(model, rho, z)[1]
        assert degenerate > 0

    def test_near_degenerate_dyadic_draws(self, rng):
        smallest = 1.0
        for _ in range(60):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = near_degenerate_dyadic_model(rng, d, m, int(rng.integers(m + 1)), T)
            rho = np.array([dyadic_simplex(rng, d, 30) for _ in range(T)])
            smallest = min(smallest, self.assert_near_exact(model, rho, random_path(rng, model))[0])
        assert smallest < 1e-6  # the sweep reached steps close to the degenerate branch

    def test_steps_below_the_tolerance_are_degenerate(self, rng):
        # a token emitted with probability 2^-60..2^-41 < PRED_PROB_TOL: the step is A with control 0
        degenerate = 0
        for _ in range(20):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = near_degenerate_dyadic_model(rng, d, m, int(rng.integers(m + 1)), T, powers=(41, 60))
            rho = np.array([dyadic_simplex(rng, d, 30) for _ in range(T)])
            degenerate += self.assert_near_exact(model, rho, random_path(rng, model))[1]
        assert degenerate > 0


class TestClosedLoopStep:
    """Each closed-loop step (u = k . y and M y, from one product) is the paper's step y -> A y + c u."""

    def assert_paper_steps(self, rng, model, rho, z):
        eps = np.finfo(float).eps
        for s, G in enumerate(path_laws(model, rho, z)):
            nu = model.mu if s == 0 else rho[s - 1]
            c = scalar_obs(model, z[s])
            y = rng.standard_normal(model.d)
            u, My = feedback_step(G, y, carried=rng.standard_normal())
            Ay = model.A @ y
            p = sum(nu[x] * model.C[x, z[s]] for x in range(model.d))
            if min(abs(p), abs(nu.sum() - p)) <= PRED_PROB_TOL:
                assert is_degenerate_law(G, model.A) and u == 0.0
            else:
                nc = sum(nu[x] * c[x] for x in range(model.d))
                expect = -sum(nu[x] * Ay[x] * (c[x] - nc) for x in range(model.d)) / (1 - nc**2)
                assert abs(u - expect) <= 1e-14
                assert abs(gain(G) @ np.ones(model.d)) <= 4 * model.d * eps
            assert np.max(np.abs(My - (Ay + c * u))) <= 1e-14

    def test_random_models(self, rng):
        for _ in range(10):
            d, m, T = int(rng.integers(2, 9)), int(rng.integers(1, 3)), int(rng.integers(1, 21))
            model = random_model(rng, d, m, T)
            z = sample_path(model, rng)
            self.assert_paper_steps(rng, model, forward_filter(model, z), z)
            self.assert_paper_steps(rng, model, rng.dirichlet(np.ones(d), size=T), z)

    def test_zero_convention_rows(self, rng):
        zero_rows = 0
        for _ in range(12):
            d, m, T = int(rng.integers(2, 6)), int(rng.integers(1, 3)), int(rng.integers(2, 12))
            model = sparse_model(rng, d, m, T)
            z = random_path(rng, model)
            rho = forward_filter(replace(model, zero_convention=True), z)
            zero_rows += int((rho.sum(axis=1) == 0.0).sum())
            self.assert_paper_steps(rng, model, rho, z)
        assert zero_rows > 0

    def test_all_degenerate(self, rng):
        model = make_model([0.3, 0.7], [[0.6, 0.4], [0.2, 0.8]], [[0.0, 1.0], [0.0, 1.0]], 5)
        z = (1, 1, 1, 1, 1)
        laws = path_laws(model, forward_filter(model, z), z)
        assert all(is_degenerate_law(G, model.A) for G in laws)
        self.assert_paper_steps(rng, model, rng.dirichlet(np.ones(2), size=5), z)

    def test_gain_sums_to_zero_to_a_few_eps(self, rng):
        # nu close to a point mass on a state whose emission is a point mass: one predictive
        # probability is small, yet k . 1 = 0 holds to rounding with no 1 / (p q) growth
        eps = np.finfo(float).eps
        smallest = 1.0
        for _ in range(200):
            d, m = int(rng.integers(2, 9)), int(rng.integers(1, 3))
            model = sparse_model(rng, d, m, 1)
            z = int(rng.integers(m + 1))
            x = int(np.argmax(np.abs(scalar_obs(model, z))))
            for e in 10.0 ** -rng.uniform(1, 11, 3):
                nu = (1 - e) * np.eye(d)[x] + e * rng.dirichlet(np.ones(d))
                k = gain(token_law(model, nu, z))
                assert abs(k @ np.ones(d)) <= 4 * d * eps
                if np.any(k != 0.0):
                    p = float(nu @ model.C[:, z])
                    smallest = min(smallest, p, 1 - p)
        assert smallest < 1e-9  # the sweep reached steps close to the degenerate branch

    def test_gain_matches_exact_arithmetic_near_degenerate(self, rng):
        smallest = 1.0
        for _ in range(200):
            d, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            z = int(rng.integers(m + 1))
            model = near_degenerate_dyadic_model(rng, d, m, z, 1)
            C = model.C
            nu = dyadic_simplex(rng, d, 30)
            assert all(sum(map(Fraction, row)) == 1 for row in [*C, nu])
            k = gain(token_law(model, nu, z))
            # the paper's gain -A^T (nu (c - nu(c))) / (1 - nu(c)^2), in rationals
            c = [2 * Fraction(v) - 1 for v in C[:, z]]
            nc = sum(Fraction(nu[x]) * c[x] for x in range(d))
            v = [Fraction(nu[x]) * (c[x] - nc) for x in range(d)]
            exact = [-sum(Fraction(model.A[x, j]) * v[x] for x in range(d)) / (1 - nc * nc) for j in range(d)]
            scale = max(abs(g) for g in exact)
            assert max(abs(Fraction(k[j]) - exact[j]) for j in range(d)) <= Fraction(1e-12) * scale
            smallest = min(smallest, float((1 - nc * nc) / 4))
        assert smallest < 1e-6  # p q: the old form 1 - nu(c)^2 loses about eps / (p q) here

    def test_one_degeneracy_rule_with_the_adapted_map(self, rng):
        # m = 1: step_law is degenerate exactly when the adapted law's Sigma_p = 4 p_0 p_1 is singular
        cases = {True: 0, False: 0}
        for _ in range(30):
            d = int(rng.integers(2, 6))
            C = rng.dirichlet(np.ones(2), size=d)
            C[0] = [1.0, 0.0] if rng.random() < 0.5 else [0.0, 1.0]  # state 0 emits one token surely
            C[1] = [0.5, 0.5]
            model = make_model(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d), size=d), C, 1)
            c_mat, R = obs_matrix(model), risk_tensor(model)
            for e in (0.0, 1e-16, 1e-14, 1e-12, 1e-10, 1e-6, 0.5):
                # the smaller predictive probability is e / 2: clearly below or above PRED_PROB_TOL
                nu = (1 - e) * np.eye(d)[0] + e * np.eye(d)[1]
                singular = control_operator(model, c_mat, R, nu)[2]
                for z in (0, 1):
                    assert is_degenerate_law(token_law(model, nu, z), model.A) == singular
                cases[singular] += 1
        assert min(cases.values()) > 0

    def test_long_horizon_filter_is_fixed_point(self, rng):
        # d T (T + 1) / 2 = 20,200 closed-loop steps
        model = random_model(rng, 4, 1, 100)
        z = sample_path(model, rng)
        pis = forward_filter(model, z)
        out, flags = apply_N_path(model, pis, z)
        assert np.max(np.abs(out - pis)) <= 1e-10
        assert flags.all()


class TestApplyNAdapted:
    @pytest.mark.parametrize("m", [1, 2])
    def test_filter_is_fixed_point(self, rng, m):
        for _ in range(5):
            d, T = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            model = random_model(rng, d, m, T)
            pi = filter_process(model)
            out, flags = apply_N_adapted(model, pi)
            for t in range(1, T + 1):
                for w in prefixes(m, t):
                    assert np.max(np.abs(np.asarray(out.at(w)) - np.asarray(pi.at(w)))) <= 1e-10
                    assert flags.at(w)

    def test_mass_is_one_on_every_prefix(self, rng, reference_model):
        model = reference_model
        rho = filter_process(model)
        out, _ = apply_N_adapted(model, rho)
        for w, v in out.tree.items():
            assert abs(np.asarray(v).sum() - 1.0) <= 1e-12

    def test_uninformative_gives_deterministic_marginals(self, rng):
        model = uninformative_model(rng, 2, 1, 3)
        pi = filter_process(model)
        out, _ = apply_N_adapted(model, pi)
        for t in range(1, 4):
            marginal = model.mu @ np.linalg.matrix_power(model.A, t)
            for w in prefixes(1, t):
                np.testing.assert_allclose(np.asarray(out.at(w)), marginal, atol=1e-12)

    def test_nonidentity_basis_assembles_same_measure(self, rng, reference_model):
        # the estimator is linear in the terminal function, so solving for the columns of
        # any invertible basis B and mapping back through B^T gives the map's measure
        model = reference_model
        pi = filter_process(model)
        basis = np.array([[1.0, 1.0], [0.0, 1.0]])
        out, _ = apply_N_adapted(model, pi)
        for t in range(1, model.T + 1):
            est = [estimator_values(model, solve_optimal(replace(model, T=t), pi, basis[:, j]))
                   for j in range(model.d)]
            for r, w in enumerate(prefixes(model.m, t)):
                v = np.array([e[r] for e in est])
                np.testing.assert_allclose(np.linalg.solve(basis.T, v), np.asarray(out.at(w)), atol=1e-10)


def apply_N_adapted_by_solves(model, rho, diagnostics=None):
    """apply_N_adapted written as T*d independent solve_optimal calls, one prefix at a time, for comparison."""
    tree = {}
    for t in range(1, model.T + 1):
        vals = {w: np.zeros(model.d) for w in prefixes(model.m, t)}
        for j in range(model.d):
            traj = solve_optimal(replace(model, T=t), rho, np.eye(model.d)[:, j])
            if diagnostics is not None:
                diagnostics.append(traj.diagnostics)
            est = estimator_values(model, traj)
            for r, w in enumerate(prefixes(model.m, t)):
                vals[w][j] = est[r]
        tree.update(vals)
    return tree, {w: is_probability_vector(v) for w, v in tree.items()}


def stacked(proc):
    """An adapted measure process's levels 1.. stacked into one (N, d) array, as the residual takes them."""
    return np.concatenate(proc.levels[1:])


def assert_same_output(out, flags, ref_tree, ref_flags):
    assert list(out.tree) == list(ref_tree) == list(flags.tree)
    for w, v in ref_tree.items():
        assert out.at(w).tobytes() == v.tobytes(), w
        assert flags.at(w) == ref_flags[w], w


class TestApplyNAdaptedSharedLaws:
    """One feedback law per prefix, shared by the T*d solves: same bits as independent solves."""

    def test_equals_independent_solves(self, rng):
        for _ in range(4):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, T)
            for rho in (filter_process(model), random_measure_process(rng, model)):
                out, flags = apply_N_adapted(model, rho)
                assert_same_output(out, flags, *apply_N_adapted_by_solves(model, rho))

    def test_one_predictive_covariance_solve_per_interior_prefix(self, rng):
        model = random_model(rng, 3, 2, 3)
        rho = filter_process(model)
        with mock.patch.object(np.linalg, "solve", side_effect=np.linalg.solve) as solve, \
                mock.patch.object(np.linalg, "pinv", side_effect=np.linalg.pinv) as pinv:
            apply_N_adapted(model, rho)
        # interior prefixes of lengths 0..T-1, each with one Sigma_p system for all T*d solves,
        # solved in stacks of at most SOLVE_BLOCK systems
        stacks = [call.args[0] for call in solve.call_args_list]
        assert sum(len(a) for a in stacks) == sum((model.m + 1) ** t for t in range(model.T))
        assert all(a.ndim == 3 and a.shape[1:] == (model.m, model.m) and len(a) <= SOLVE_BLOCK for a in stacks)
        assert pinv.call_count == 0

    def test_zero_probability_token_flags_each_solve_once(self, rng):
        # token 2 is emitted only by state 2, and rho puts no mass there at prefix (1,)
        C = [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]]
        model = make_model(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3), size=3), C, 3)
        tree = random_measure_process(rng, model).tree
        tree[(1,)] = np.array([0.4, 0.6, 0.0])
        rho = from_tree(model.m, tree)
        ref_diag, got_diag = [], []

        def recording_solve(model, *args, **kwargs):
            traj = solve_optimal(model, *args, **kwargs)
            got_diag.append((model.T, traj.diagnostics))
            return traj

        ref = apply_N_adapted_by_solves(model, rho, diagnostics=ref_diag)
        with mock.patch.object(fixedpoint, "solve_optimal", recording_solve):
            out, flags = apply_N_adapted(model, rho)
        assert_same_output(out, flags, *ref)
        assert [diag for _, diag in got_diag] == ref_diag
        # horizon 1 never reaches prefix (1,); every longer solve visits it once
        want = ("singular predictive covariance at t=1, prefix=(1,): minimum-norm control",)
        assert got_diag == [(t, () if t == 1 else want) for t in range(1, 4) for _ in range(3)]

    def test_rho_is_checked_once_with_the_same_text(self, rng):
        model = random_model(rng, 2, 1, 3)
        pi = filter_process(model)
        with mock.patch.object(AdaptedProcess, "check_complete", autospec=True,
                               side_effect=AdaptedProcess.check_complete) as check:
            apply_N_adapted(model, pi)
        assert check.call_count == 1  # not once per solve
        without_level_2 = AdaptedProcess(model.m, (None, pi.levels[1], None, pi.levels[3]))
        for run in (lambda rho: apply_N_adapted(model, rho), lambda rho: solve_optimal(model, rho, np.ones(2))):
            with pytest.raises(ValueError) as err:
                run(without_level_2)
            assert str(err.value) == "adapted process incomplete: level 2 is absent"

    def test_forced_singular_systems_keep_per_solve_diagnostics(self, rng):
        model = random_model(rng, 3, 2, 3)
        rho = random_measure_process(rng, model)
        solve = np.linalg.solve

        def flaky_solve(a, b):
            # a deterministic share of the feedback systems is declared singular: those whose
            # (0, 0) entry has its lowest mantissa bit set, and with them the whole stack that holds them
            if np.any(a[..., 0, 0].view(np.uint64) & 1):
                raise np.linalg.LinAlgError("forced")
            return solve(a, b)

        ref_diag, got_diag = [], []

        def recording_solve(*args, **kwargs):
            traj = solve_optimal(*args, **kwargs)
            got_diag.append(traj.diagnostics)
            return traj

        with mock.patch.object(np.linalg, "solve", flaky_solve):
            ref = apply_N_adapted_by_solves(model, rho, diagnostics=ref_diag)
            with mock.patch.object(fixedpoint, "solve_optimal", recording_solve):
                out, flags = apply_N_adapted(model, rho)
        assert_same_output(out, flags, *ref)
        assert got_diag == ref_diag
        flagged = sum(len(diag) for diag in ref_diag)
        solved = sum((model.m + 1) ** s for t in range(1, model.T + 1) for s in range(t)) * model.d
        assert 0 < flagged < solved  # some systems fell back, some did not

    def test_peak_memory_is_the_arrays_it_must_hold(self, rng):
        d, m, T = 4, 2, 7
        model = random_model(rng, d, m, T)
        nodes = sum((m + 1) ** t for t in range(T))  # prefixes of lengths 0..T-1: one law and one sweep node each
        output = sum((m + 1) ** t for t in range(1, T + 1)) * d * 9  # float levels and their bool flags
        laws = nodes * (m * d + m * d * m) * 8  # K_lead and K_drag
        trajectory = nodes * (d + d * m + m) * 8  # Y_0..Y_{T-1}, V and U; the terminal indicator is a broadcast
        # half again is room for one level's temporaries, not for a level's worth of per-node arrays
        assert traced_peak(apply_N_adapted, model, filter_process(model)) < 1.5 * (output + laws + trajectory)


class TestStrictCausality:
    """Component t of N(rho) reads rho only before t, so T applications from any start give the filter.

    The 1e-10 bounds hold for these seeded draws, not for every model: layer
    k amplifies rounding by the product of 1/p_s along the path, which
    reached 4.1e-7 on a sparse model with three steps at p = 2.4e-4.
    """

    def test_last_row_of_rho_leaves_the_path_map_unchanged(self, rng):
        for _ in range(20):
            d, m, T = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
            model = random_model(rng, d, m, T)
            z = sample_path(model, rng)
            rho = rng.dirichlet(np.ones(d), size=T)
            other = rho.copy()
            other[-1] = rng.standard_normal(d)
            (a, flags_a), (b, flags_b) = apply_N_path(model, rho, z), apply_N_path(model, other, z)
            assert a.tobytes() == b.tobytes() and flags_a.tolist() == flags_b.tolist()

    def test_last_level_of_rho_leaves_the_adapted_map_unchanged(self, rng):
        for _ in range(6):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, T)
            rho = random_measure_process(rng, model)  # levels 1..T-1
            outs = [apply_N_adapted(model, proc) for proc in (
                rho,
                AdaptedProcess(m, (*rho.levels, rng.dirichlet(np.ones(d), size=(m + 1) ** T))),
                AdaptedProcess(m, (*rho.levels, rng.standard_normal(((m + 1) ** T, d)))),
            )]
            for t in range(1, T + 1):
                assert len({out.levels[t].tobytes() for out, _ in outs}) == 1
                assert len({flags.levels[t].tobytes() for _, flags in outs}) == 1

    def test_T_path_map_applications_give_the_filter(self, rng):
        for _ in range(40):
            d, m, T = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
            model = random_model(rng, d, m, T)
            z = sample_path(model, rng)
            pis = forward_filter(model, z)
            rho = rng.dirichlet(np.ones(d), size=T)
            for k in range(1, T + 1):
                rho, _ = apply_N_path(model, rho, z)
                assert np.max(np.abs(rho[:k] - pis[:k])) <= 1e-10  # exact up to time k after k steps
            assert fixed_point_residual(apply_N_path(model, rho, z)[0], rho) <= 1e-10

    def test_sparse_paths_under_the_zero_convention(self, rng):
        # start uniform and project back to the simplex as iterate does; after k applications
        # the possible rows at times <= k match the filter
        impossible = 0
        for _ in range(40):
            d, m, T = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
            model = sparse_model(rng, d, m, T)
            z = random_path(rng, model)
            pis = forward_filter(replace(model, zero_convention=True), z)
            possible = pis.sum(axis=1) > 0.0
            impossible += int((~possible).sum())
            trace = iterate(replace(model, zero_convention=True), z, K=T)
            for k in range(1, T + 1):
                rows = possible & (np.arange(T) < k)
                assert np.max(np.abs(trace.iterates[k][rows] - pis[rows]), initial=0.0) <= 1e-10
        assert impossible > 0

    def test_T_adapted_map_applications_give_the_filter(self, rng):
        for _ in range(10):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, T)
            pi = filter_process(model)
            rho = random_measure_process(rng, model)
            for k in range(1, T + 1):
                rho, _ = apply_N_adapted(model, rho)
                for t in range(1, k + 1):
                    assert np.max(np.abs(rho.levels[t] - pi.levels[t])) <= 1e-10
            assert fixed_point_residual(stacked(apply_N_adapted(model, rho)[0]), stacked(rho)) <= 1e-10


class TestFixedPointResidual:
    def test_filter_residual_tiny(self, reference_model):
        model = reference_model
        z = (1, 1, 0)
        pis = forward_filter(model, z)
        assert fixed_point_residual(apply_N_path(model, pis, z)[0], pis) <= 1e-10
        pi = filter_process(model)
        assert fixed_point_residual(stacked(apply_N_adapted(model, pi)[0]), stacked(pi)) <= 1e-10

    def test_perturbed_filter_has_positive_residual(self, reference_model):
        model = reference_model
        z = (1, 1, 0)
        pis = forward_filter(model, z)
        bumped = pis.copy()
        bumped[1, 0] += 0.1
        bumped[1, 1] -= 0.1
        assert fixed_point_residual(apply_N_path(model, bumped, z)[0], bumped) > 1e-3

    def test_constant_map_image_is_fixed(self, rng):
        # with a single step the map ignores rho entirely, so its image is fixed
        model = uninformative_model(rng, 2, 1, 1)
        z = (1,)
        rho = np.array([[0.9, 0.1]])
        out, _ = apply_N_path(model, rho, z)
        assert fixed_point_residual(apply_N_path(model, out, z)[0], out) <= 1e-14

    def test_zero_measure_rows_are_skipped(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]])
        image = np.array([[0.25, 0.75], [7.0, -7.0], [1.0, 0.0]])
        assert fixed_point_residual(image, rho) == 0.25
        assert fixed_point_residual(image[1:2], rho[1:2]) == 0.0

    def test_adapted_stack_missing_the_last_level_rejected(self, reference_model):
        rho = random_measure_process(np.random.default_rng(0), reference_model)  # levels 1..T-1
        out, _ = apply_N_adapted(reference_model, rho)
        with pytest.raises(ValueError, match=r"matching \(N, d\) stacks, got shapes \(14, 2\) and \(6, 2\)"):
            fixed_point_residual(stacked(out), stacked(rho))

    def test_single_path_row_rejected(self, reference_model):
        pis = forward_filter(reference_model, (1, 1, 0))
        with pytest.raises(ValueError, match="matching"):
            fixed_point_residual(pis[0], pis[0])


class TestIterate:
    def test_filter_start_stays_put(self, reference_model):
        model = reference_model
        z = (1, 0, 1)
        trace = iterate(model, z, rho0=forward_filter(model, z), K=5)
        assert np.max(trace.residuals) <= 1e-10
        assert np.max(trace.kl_per_iter) <= 1e-12
        assert trace.in_domain.all()

    def test_uninformative_converges_in_one_step(self, rng):
        model = uninformative_model(rng, 3, 1, 3)
        z = (0, 1, 1)
        trace = iterate(model, z, K=4)
        assert trace.residuals[1] <= 1e-12
        assert np.max(trace.kl_per_iter) <= 1e-12

    def test_start_off_the_simplex_is_projected_back(self, reference_model):
        model = reference_model
        z = (1, 0, 1)
        rho0 = np.tile([2.0, -1.0], (model.T, 1))
        trace = iterate(model, z, rho0=rho0, K=2)
        image, flags = apply_N_path(model, rho0, z)
        assert not flags.all() and not trace.in_domain[0].all()
        clipped = np.clip(image, 0.0, None)
        np.testing.assert_array_equal(trace.iterates[1], clipped / clipped.sum(axis=1, keepdims=True))
        assert trace.projected.tolist() == [True, False]

    def test_exploratory_run_emits_full_trace(self, rng, reference_model):
        model = reference_model
        z = (1, 1, 0)
        trace = iterate(model, z, K=20)
        assert trace.iterates.shape == (21, model.T, model.d)
        assert trace.residuals.shape == (20,)
        assert trace.kl_per_iter.shape == (20,)
        assert trace.in_domain.shape == (20, model.T)
        # iterates are kept inside the simplex, projected or not
        assert trace.iterates.min() >= -1e-10
        np.testing.assert_allclose(trace.iterates.sum(axis=2), 1.0, atol=1e-10)
        # no convergence asserted; the final distance to the filter is informational
        pis = forward_filter(model, z)
        assert np.isfinite(np.max(np.abs(trace.iterates[-1] - pis)))

    def test_zero_iterations_rejected(self, reference_model):
        with pytest.raises(ValueError, match="K"):
            iterate(reference_model, (1, 0, 1), K=0)

    @pytest.mark.parametrize("K", ["2", True, 2.5])
    def test_iteration_count_must_be_an_integer(self, reference_model, K):
        with pytest.raises(ValueError) as err:
            iterate(reference_model, (1, 0, 1), K=K)
        assert str(err.value) == f"K = {K!r} is not an integer"

    @pytest.mark.parametrize("shape", [(3, 2), (2,), (2, 3), (1, 2, 2)])
    def test_start_must_have_one_measure_per_token(self, rng, shape):
        model = random_model(rng, 2, 1, 2)
        with pytest.raises(ValueError) as err:
            iterate(model, (0, 1), rho0=np.full(shape, 0.5), K=1)
        assert str(err.value) == f"rho0 must have shape (2, 2), got {shape}"

    def test_whole_number_iteration_count_is_that_count(self, reference_model):
        want = iterate(reference_model, (1, 0, 1), K=2)
        for K in (2.0, np.int64(2)):
            got = iterate(reference_model, (1, 0, 1), K=K)
            assert got.iterates.tobytes() == want.iterates.tobytes()
            assert got.kl_per_iter.tobytes() == want.kl_per_iter.tobytes()

    def test_rounding_level_negatives_read_as_zero(self, monkeypatch):
        # every image of the map gets a -1.1e-16 entry at time 1, state 3 (where the filter is 0),
        # by construction, so no summation order inside the map can remove it
        model = point_mass_model()
        z = (0, 1, 1)

        def with_rounding_negative(model, rho, z):
            image, flags = apply_N_path(model, rho, z)
            image[0, 2] = -(2.0**-53)
            return image, flags

        monkeypatch.setattr(fixedpoint, "apply_N_path", with_rounding_negative)
        raw, flags = with_rounding_negative(model, np.full((3, 3), 1.0 / 3), z)
        assert flags.all() and -1e-15 < raw.min() < 0.0
        trace = iterate(model, z, K=2)
        assert trace.iterates.min() == 0.0 and not trace.projected.any()
        assert np.array_equal(trace.iterates[1], np.where(raw < 0.0, 0.0, raw))

    def test_impossible_times_keep_their_mass_under_zero_convention(self):
        # token 1 is never emitted, so z_10 makes times 10 and 11 impossible; the map still
        # preserves each row's mass, so projection never leaves a zero row for next_token_prob
        model = make_model([1.0, 0.0], [[0.31372608573215877, 0.6862739142678413], [0.0, 1.0]],
                           [[0.06408592081455812, 0.0, 0.888178865351324, 0.04773521383411797],
                            [0.2449533579787974, 0.0, 0.00890394533834512, 0.7461426966828575]], 11)
        trace = iterate(replace(model, zero_convention=True), (3, 2, 3, 0, 3, 2, 3, 2, 3, 1, 2), K=11)
        np.testing.assert_allclose(trace.iterates.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(np.isfinite(trace.kl_per_iter))

    def test_impossible_path_under_zero_convention(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
        trace = iterate(replace(model, zero_convention=True), (0, 0), K=3)
        assert np.all(np.isfinite(trace.residuals))
        assert np.all(np.isfinite(trace.kl_per_iter))

    def test_positive_model_stays_in_the_domain_without_projection(self):
        # the map reads each rho_s as a conditional measure, so rounding-level mass errors are not
        # amplified from layer to layer; a map that read p and q off the raw row left the simplex
        # and needed projection at layer 10 on this model and path
        rng = np.random.default_rng(0)
        model = make_model(rng.dirichlet(5 * np.ones(4)), rng.dirichlet(5 * np.ones(4), size=4),
                           rng.dirichlet(5 * np.ones(2), size=4), 80)
        z = rng.integers(0, 2, 80)
        trace = iterate(model, z, K=12)
        assert trace.in_domain.all() and not trace.projected.any()
        np.testing.assert_allclose(trace.iterates.sum(axis=2), 1.0, rtol=0.0, atol=1e-13)


class TestKlDivergenceBar:
    def test_identical_inputs(self, rng):
        p = np.stack([rng.dirichlet(np.ones(3)) for _ in range(4)], axis=1)
        assert kl_divergence_bar(p, p) == 0.0

    def test_two_point_closed_form(self):
        p = np.array([[1.0], [0.0]])
        q = np.array([[0.5], [0.5]])
        assert abs(kl_divergence_bar(p, q) - np.log(2.0)) <= 1e-12

    def test_support_violation_is_infinite(self):
        p = np.array([[0.5], [0.5]])
        q = np.array([[1.0], [0.0]])
        assert kl_divergence_bar(p, q) == float("inf")

    def test_nonnegative_on_random_tables(self, rng):
        for _ in range(50):
            T = int(rng.integers(1, 5))
            p = np.stack([rng.dirichlet(np.ones(4)) for _ in range(T)], axis=1)
            q = np.stack([rng.dirichlet(np.ones(4)) for _ in range(T)], axis=1)
            assert kl_divergence_bar(p, q) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            kl_divergence_bar(np.ones((2, 1)), np.ones((3, 1)))

    def test_no_columns(self):
        with pytest.raises(ValueError, match=r"T >= 1, got \(3, 0\) and \(3, 0\)$"):
            kl_divergence_bar(np.ones((3, 0)), np.ones((3, 0)))

    def test_equals_column_loop(self, rng):
        # the per-column loop the contraction replaced; pairwise summation of 8 or more
        # supported entries may group a column's sum differently, by the last bit
        def column_loop(p_final, p_layer):
            total = 0.0
            for t in range(p_final.shape[1]):
                p, q = p_final[:, t], p_layer[:, t]
                support = p > 0.0
                if np.any(q[support] <= 0.0):
                    return float("inf")
                total += float(np.sum(p[support] * np.log(p[support] / q[support])))
            return max(total / p_final.shape[1], 0.0)

        for _ in range(600):
            n, T = int(rng.integers(2, 11)), int(rng.integers(1, 40))
            p = rng.dirichlet(np.ones(n), size=T).T
            q = rng.dirichlet(np.ones(n), size=T).T
            p[rng.random((n, T)) < 0.2] = 0.0
            if rng.random() < 0.2:
                q[rng.random((n, T)) < 0.05] = 0.0
            if rng.random() < 0.5:  # the C-ordered layout of iterate's tables, not the transposed one
                p, q = np.ascontiguousarray(p), np.ascontiguousarray(q)
            got, want = kl_divergence_bar(p, q), column_loop(p, q)
            if n <= 7 or want == float("inf"):
                assert got == want
            else:
                assert abs(got - want) <= 1e-15 * abs(want)
