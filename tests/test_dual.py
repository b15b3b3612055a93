from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from dualfilter import dual, hmm
from dualfilter.adapted import AdaptedProcess, prefix_rank, prefixes, random_weight_process
from dualfilter.dual import (
    _backward_sweep,
    _running_cost_tables,
    _successor_split,
    duality_report,
    estimator_path,
    estimator_values,
    solve_bsde,
    solve_optimal,
    squared_error,
)
from dualfilter.hmm import obs_matrix, risk_tensor, token_basis
from dualfilter.oracle import exact_expectation, filter_process, forward_filter, path_probability
from dualfilter.predictor import PredictorRepresentation, build_weights, path_values, represent_conditional
from conftest import (
    dyadic_model,
    from_tree,
    make_model,
    random_measure_process,
    random_model,
    scaled,
    sparse_model,
    uninformative_model,
)
from oracles import (
    backward_sweep_by_node,
    bsde_residual,
    bsde_residual_levels,
    control_operator,
    duality_exact,
    lead_drag,
    mmse,
    mmse_exact,
    optimal_feedback,
    running_cost,
    squared_error_by_term,
    total_cost,
)


def node_measure(model, rho, w):
    return model.mu if len(w) == 0 else np.asarray(rho.at(w))


def old_feedback_system(model, rho):
    """The law solved as (I + G lead(c)) u = -G (lead(W) + drag(V)), G = pinv(rho(R)), one level of nodes at a time."""
    c = obs_matrix(model)
    R = risk_tensor(model)

    def node_control(w, W, V):
        nu = node_measure(model, rho, w)
        dev = c - nu @ c
        G = np.linalg.pinv(np.einsum("x,xij->ij", nu, R), rcond=1e-10)

        def lead(y):
            return np.einsum("x,xi,x...->i...", nu, dev, y)

        drag = np.einsum("x,xij,xj->i", nu, R, V)
        return np.linalg.solve(np.eye(model.m) + G @ lead(c), -G @ (lead(W) + drag))

    def control(t, W, V):
        return np.array([node_control(w, *args) for w, *args in zip(prefixes(model.m, t), W, V)])

    return control


def feedback_by_node(model, rho, diagnostics):
    """solve_optimal's law as a per-node control for ``backward_sweep_by_node``: the reference control operator per node.

    Each node at which the operator is singular appends solve_optimal's diagnostic to ``diagnostics``.
    """
    c, R = obs_matrix(model), risk_tensor(model)

    def control(t, r, w, W, V):
        K_lead, K_drag, singular = control_operator(model, c, R, node_measure(model, rho, w))
        if singular:
            diagnostics.append(f"singular predictive covariance at t={t}, prefix={w}: minimum-norm control")
        return -(K_lead.dot(W) + K_drag.dot(V.ravel()))

    return control


def zero_token_model(rng):
    """d=3, m=2, T=3 where token 2 is emitted only by state 2, and a rho with no mass there at prefix (1,)."""
    C = [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]]
    model = make_model(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3), size=3), C, 3)
    tree = random_measure_process(rng, model).tree
    tree[(1,)] = np.array([0.4, 0.6, 0.0])
    return model, from_tree(model.m, tree)


def zero_controls(model):
    return AdaptedProcess(model.m, tuple(np.zeros(((model.m + 1) ** t, model.m)) for t in range(model.T)))


def random_terminal(rng, model, path_dependent=False):
    if not path_dependent:
        return rng.standard_normal(model.d)
    return AdaptedProcess(model.m, (None,) * model.T + (rng.standard_normal(((model.m + 1) ** model.T, model.d)),))


class TestSolveBsde:
    def test_constants_are_fixed_points(self, reference_model):
        model = reference_model
        U = zero_controls(model)
        traj = solve_bsde(model, U, np.full(model.d, 2.5))
        for t in range(model.T + 1):
            for w in prefixes(model.m, t):
                np.testing.assert_allclose(np.asarray(traj.Y.at(w)), np.full(model.d, 2.5), atol=1e-14)
        for t in range(model.T):
            for w in prefixes(model.m, t):
                np.testing.assert_allclose(np.asarray(traj.V.at(w)), 0.0, atol=1e-14)

    def test_single_step_closed_form(self, rng):
        model = random_model(rng, 3, 2, 1)
        u0 = rng.standard_normal(2)
        F = rng.standard_normal(3)
        traj = solve_bsde(model, AdaptedProcess(2, (u0[None, :],)), F)
        c_mat = model.C[:, 1:] - model.C[:, :1]
        np.testing.assert_allclose(np.asarray(traj.V.at(())), np.zeros((3, 2)), atol=1e-15)
        np.testing.assert_allclose(traj.y0(), model.A @ F + c_mat @ u0, atol=1e-14)
        assert traj.horizon == 1

    @pytest.mark.parametrize("path_dependent", [False, True])
    def test_backward_relation_residual(self, rng, reference_model, path_dependent):
        model = reference_model
        U = random_weight_process(rng, model.m, model.T)
        F = random_terminal(rng, model, path_dependent)
        traj = solve_bsde(model, U, F)
        assert bsde_residual(model, traj) <= 1e-12

    @pytest.mark.parametrize("make", [random_model, sparse_model])
    def test_residual_by_node_equals_node_by_node_loop(self, rng, make):
        # one batch per level against the loop over nodes and tokens, bit for bit
        for _ in range(40):
            d, m, T = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            model = make(rng, d, m, T)
            pi = filter_process(replace(model, zero_convention=True))
            for traj in (solve_bsde(model, random_weight_process(rng, m, T), rng.standard_normal(d)),
                         solve_optimal(model, pi, rng.standard_normal(d))):
                got = dual.bsde_residual_by_node(model, traj).levels
                want = bsde_residual_levels(model, traj)
                assert [level.tobytes() for level in got] == [level.tobytes() for level in want]

    def test_incomplete_control_rejected(self, reference_model):
        with pytest.raises(ValueError, match="incomplete"):
            solve_bsde(reference_model, AdaptedProcess(1, (np.zeros((1, 1)),)), np.zeros(2))

    def test_terminal_vector_shape_rejected(self, rng, reference_model):
        U = random_weight_process(rng, reference_model.m, reference_model.T)
        with pytest.raises(ValueError, match="terminal function must have shape"):
            solve_bsde(reference_model, U, np.zeros(3))


class TestRunningCost:
    def test_vanishes_when_control_cancels(self, rng, reference_model):
        model = reference_model
        v = rng.standard_normal((model.d, model.m))
        x = 1
        y = np.full(model.d, 3.0)
        assert running_cost(model, y, v, -v[x])[x] <= 1e-14

    def test_identity_chain_no_variance(self, rng):
        model = make_model([0.5, 0.5], np.eye(2), [[0.2, 0.8], [0.7, 0.3]], 1)
        y = rng.standard_normal(2)
        zeros = np.zeros((2, 1))
        assert running_cost(model, y, zeros, np.zeros(1))[0] <= 1e-14

    def test_against_independent_transcription(self, rng):
        model = random_model(rng, 3, 2, 1)
        y = rng.standard_normal(3)
        v = rng.standard_normal((3, 2))
        u = rng.standard_normal(2)
        for x in range(3):
            # spelled out with explicit sums
            gamma = sum(model.A[x, j] * y[j] ** 2 for j in range(3)) - (model.A[x] @ y) ** 2
            s = u + v[x]
            expect = gamma + s @ risk_tensor(model)[x] @ s
            assert abs(running_cost(model, y, v, u)[x] - expect) <= 1e-12


class TestDuality:
    def test_zero_control_constant_terminal_costs_nothing(self, reference_model):
        model = reference_model
        U = zero_controls(model)
        F = np.full(model.d, 4.0)
        assert abs(total_cost(model, U, F)) <= 1e-13
        assert duality_report(model, solve_bsde(model, U, F), F)["gap"] <= 1e-13

    @pytest.mark.parametrize("path_dependent", [False, True])
    def test_gap_vanishes_for_random_draws(self, rng, path_dependent):
        for _ in range(15):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, T)
            U = random_weight_process(rng, m, T)
            F = random_terminal(rng, model, path_dependent)
            assert duality_report(model, solve_bsde(model, U, F), F)["gap"] <= 1e-9

    def test_report_carries_both_sides(self, rng, reference_model):
        U = random_weight_process(rng, 1, 3)
        F = rng.standard_normal(2)
        rep = duality_report(reference_model, solve_bsde(reference_model, U, F), F)
        assert rep["gap"] == abs(rep["J_T"] - rep["mse"])


class TestOptimalFeedback:
    def test_constant_y_zero_v(self, rng, reference_model):
        model = reference_model
        rho = rng.dirichlet(np.ones(model.d))
        u = optimal_feedback(model, np.full(model.d, 5.0), np.zeros((model.d, model.m)), rho)
        np.testing.assert_allclose(u, 0.0, atol=1e-12)

    def test_point_mass_centers_the_weight(self, rng):
        model = random_model(rng, 3, 2, 1)
        rho = np.array([0.0, 1.0, 0.0])
        u = optimal_feedback(model, rng.standard_normal(3), np.zeros((3, 2)), rho)
        np.testing.assert_allclose(u, 0.0, atol=1e-12)

    def test_against_independent_transcription(self, rng):
        model = random_model(rng, 3, 2, 1)
        y = rng.standard_normal(3)
        v = rng.standard_normal((3, 2))
        rho = rng.dirichlet(np.ones(3))
        c = model.C[:, 1:] - model.C[:, :1]
        R = risk_tensor(model)
        rho_R = sum(rho[x] * R[x] for x in range(3))
        cbar = sum(rho[x] * c[x] for x in range(3))
        lead = sum(rho[x] * (c[x] - cbar) * y[x] for x in range(3))
        drag = sum(rho[x] * R[x] @ v[x] for x in range(3))
        expect = -np.linalg.pinv(rho_R, rcond=1e-10) @ (lead + drag)
        np.testing.assert_allclose(optimal_feedback(model, y, v, rho), expect, atol=1e-12)


class TestSolveOptimal:
    def test_constant_terminal_needs_no_control(self, rng, reference_model):
        model = reference_model
        traj = solve_optimal(model, filter_process(model), np.full(model.d, 2.0))
        for t in range(model.T):
            for w in prefixes(model.m, t):
                np.testing.assert_allclose(np.asarray(traj.U.at(w)), 0.0, atol=1e-12)
                np.testing.assert_allclose(np.asarray(traj.Y.at(w)), 2.0, atol=1e-12)

    def test_uninformative_emissions_force_zero_control(self, rng):
        model = uninformative_model(rng, 3, 2, 3)
        F = rng.standard_normal(3)
        traj = solve_optimal(model, filter_process(model), F)
        for t in range(model.T):
            powered = np.linalg.matrix_power(model.A, model.T - t) @ F
            for w in prefixes(model.m, t):
                np.testing.assert_allclose(np.asarray(traj.U.at(w)), 0.0, atol=1e-12)
                np.testing.assert_allclose(np.asarray(traj.Y.at(w)), powered, atol=1e-12)

    def test_solved_control_satisfies_feedback_law(self, rng, reference_model):
        model = reference_model
        pi = filter_process(model)
        traj = solve_optimal(model, pi, rng.standard_normal(model.d))
        for t in range(model.T):
            for w in prefixes(model.m, t):
                nu = model.mu if t == 0 else np.asarray(pi.at(w))
                phi = optimal_feedback(
                    model, np.asarray(traj.Y.at(w)), np.asarray(traj.V.at(w)), nu
                )
                np.testing.assert_allclose(np.asarray(traj.U.at(w)), phi, atol=1e-12)

    def test_filter_feedback_reaches_minimum_error(self, rng):
        for _ in range(5):
            d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, T)
            F = rng.standard_normal(d)
            traj = solve_optimal(model, filter_process(model), F)
            J = total_cost(model, traj.U, F)
            assert abs(J - mmse(model, F)) <= 1e-9

    def test_local_optimality_against_perturbations(self, rng):
        model = random_model(rng, 2, 1, 2)
        F = rng.standard_normal(2)
        traj = solve_optimal(model, filter_process(model), F)
        J_opt = total_cost(model, traj.U, F)
        for _ in range(20):
            s = rng.uniform(0.01, 0.5)
            bump = scaled(random_weight_process(rng, model.m, model.T), s)
            U_pert = AdaptedProcess(model.m, tuple(u + b for u, b in zip(traj.U.levels, bump.levels)))
            assert total_cost(model, U_pert, F) + 1e-9 >= J_opt


class TestLawsMemoAcrossHorizons:
    """One ``laws`` memo shared by solves on ``replace(model, T=t)``, as apply_N_adapted does."""

    @pytest.mark.parametrize("d, m, T", [(2, 1, 3), (3, 2, 3), (2, 3, 2)])
    def test_shared_memo_changes_no_bit_and_solves_each_prefix_once(self, rng, d, m, T):
        model = random_model(rng, d, m, T)
        rho = random_measure_process(rng, model)
        laws: dict = {}
        with mock.patch.object(np.linalg, "solve", side_effect=np.linalg.solve) as solve, \
                mock.patch.object(np.linalg, "pinv", side_effect=np.linalg.pinv) as pinv:
            for t in range(1, T + 1):
                sub, F = replace(model, T=t), rng.standard_normal(d)
                shared, fresh = solve_optimal(sub, rho, F, laws=laws), solve_optimal(sub, rho, F)
                for name in ("Y", "V", "U"):
                    for got, want in zip(getattr(shared, name).levels, getattr(fresh, name).levels, strict=True):
                        np.testing.assert_array_equal(got, want)
                assert shared.diagnostics == fresh.diagnostics
        fresh_calls = sum((m + 1) ** s for t in range(1, T + 1) for s in range(t))
        # each solve call is a stack of (m, m) systems; count the systems
        systems = sum(call.args[0].size // m**2 for call in solve.call_args_list)
        assert systems + pinv.call_count == sum((m + 1) ** s for s in range(T)) + fresh_calls


class TestPredictiveCovarianceLaw:
    """solve_optimal's law in the predictive covariance Sigma_p = rho(R) + lead(c)."""

    def test_control_is_phi_where_risk_average_is_nonsingular(self, rng):
        checked = 0
        for _ in range(6):
            d, m, T = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, T)
            R = risk_tensor(model)
            for rho in (filter_process(model), random_measure_process(rng, model)):
                traj = solve_optimal(model, rho, rng.standard_normal(d))
                assert traj.diagnostics == ()
                for t in range(T):
                    for w in prefixes(m, t):
                        nu = node_measure(model, rho, w)
                        if np.linalg.eigvalsh(np.einsum("x,xij->ij", nu, R)).min() <= 1e-8:
                            continue
                        phi = optimal_feedback(model, np.asarray(traj.Y.at(w)), np.asarray(traj.V.at(w)), nu)
                        np.testing.assert_allclose(np.asarray(traj.U.at(w)), phi, rtol=0, atol=1e-12)
                        checked += 1
        assert checked > 0

    def test_agrees_with_the_old_system(self, rng):
        for _ in range(12):
            d, m, T = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, T)
            rho = random_measure_process(rng, model)
            F = rng.standard_normal(d)
            traj = solve_optimal(model, rho, F)
            Y_old, V_old, U_old = _backward_sweep(model, F, old_feedback_system(model, rho))
            for t in range(T):
                assert np.max(np.abs(traj.U.levels[t] - U_old.levels[t])) <= 1e-14
                assert np.max(np.abs(traj.Y.levels[t] - Y_old.levels[t])) <= 1e-14

    def test_predictive_covariance_is_risk_average_plus_lead(self, rng):
        # law of total covariance: Cov_p e(Z) = rho(R) + Cov_rho c(X), with p = rho C
        for _ in range(10):
            d, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            model = random_model(rng, d, m, 1)
            nu = rng.dirichlet(np.ones(d))
            c = obs_matrix(model)
            lead, _ = lead_drag(c, risk_tensor(model), nu)
            sigma = np.einsum("x,xij->ij", nu, risk_tensor(model)) + lead @ c
            E, p = token_basis(m), nu @ model.C
            mean = p @ E
            np.testing.assert_allclose(sigma, (E - mean).T @ (p[:, None] * (E - mean)), rtol=0, atol=1e-14)
            if m == 1:
                assert abs(sigma[0, 0] - (1.0 - float(nu @ (2.0 * model.C[:, 1] - 1.0)) ** 2)) <= 1e-14

    def test_zero_probability_token_takes_the_minimum_norm_control(self, rng):
        model, rho = zero_token_model(rng)
        traj = solve_optimal(model, rho, rng.standard_normal(3))
        assert len(traj.diagnostics) == 1 and "t=1, prefix=(1,)" in traj.diagnostics[0]

        c, R, nu = obs_matrix(model), risk_tensor(model), rho.at((1,))
        u, V = np.asarray(traj.U.at((1,))), np.asarray(traj.V.at((1,)))
        W = np.asarray(traj.Y.at((1,))) - c @ u
        lead, drag = lead_drag(c, R, nu)
        sigma = np.einsum("x,xij->ij", nu, R) + lead @ c
        rhs = -(lead @ W + drag @ V.ravel())
        assert np.linalg.matrix_rank(sigma) == 1
        np.testing.assert_allclose(sigma @ u, rhs, rtol=0, atol=1e-14)  # the system is consistent
        np.testing.assert_allclose(u, np.linalg.lstsq(sigma, rhs, rcond=None)[0], rtol=0, atol=1e-14)
        # e(0) = (-1, -1) and e(1) = (1, 0) differ by (2, 1): the null direction (1, -2) gets no control
        assert abs(u @ np.array([1.0, -2.0])) <= 1e-14


class TestSuccessorSplit:
    def test_mean_matches_stacked_mean_bit_for_bit(self, rng):
        for _ in range(300):
            d, m = int(rng.integers(1, 7)), int(rng.integers(1, 10))
            model = make_model(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d), size=d),
                               rng.dirichlet(np.ones(m + 1), size=d), 1)
            row = int(rng.integers(3))
            Y_next = rng.standard_normal((3 * (m + 1), d)) * 10.0 ** rng.uniform(-3, 3)
            successors = Y_next[row * (m + 1) : (row + 1) * (m + 1)]
            succ = model.A.dot(successors.T)  # column z: the successor along z
            mean, V = np.full(d, np.nan), np.full((d, m), np.nan)
            assert _successor_split(model.A, successors, mean, V) is None  # written in place
            assert mean.tobytes() == succ.mean(axis=-1).tobytes()
            assert V.tobytes() == (succ[:, 1:] - succ.mean(axis=-1)[:, None]).tobytes()
            # the successors added left to right; each row of the product is contiguous,
            # and numpy sums 8 or more contiguous terms pairwise instead
            if m + 1 < 8:
                total = succ[:, 0]
                for z in range(1, m + 1):
                    total = total + succ[:, z]
                assert mean.tobytes() == (total / (m + 1)).tobytes()


class TestWorkShape:
    """What the solves do per level and what they leave out, counted on the numpy and library calls."""

    def test_one_einsum_per_filled_level(self, rng):
        d, m, T = 3, 2, 4
        model = random_model(rng, d, m, T)
        with mock.patch.object(np, "einsum", side_effect=np.einsum) as einsum:
            solve_optimal(model, filter_process(model), rng.standard_normal(d))
        assert einsum.call_count == T  # levels 0..T-1, not one per prefix

    def test_sweep_makes_no_decompose_call(self, rng):
        model = random_model(rng, 3, 2, 3)
        with mock.patch.object(dual, "decompose", create=True, side_effect=hmm.decompose) as in_dual, \
                mock.patch.object(hmm, "decompose", side_effect=hmm.decompose) as in_hmm:
            solve_bsde(model, random_weight_process(rng, model.m, model.T), rng.standard_normal(model.d))
            solve_optimal(model, filter_process(model), rng.standard_normal(model.d))
        assert in_dual.call_count == in_hmm.call_count == 0


class TestLevelLaws:
    """Each row of the stacked level law against the per-prefix reference, byte for byte."""

    @staticmethod
    def last_state_token_model(rng, d, m):
        """Token m emitted by the last state only (by no state at d = 1): a measure without it has p(m) = 0."""
        C = rng.dirichlet(np.ones(m + 1), size=d)
        C[: max(d - 1, 1), m] = 0.0
        return make_model(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d), size=d),
                          C / C.sum(axis=1, keepdims=True), 3)

    @staticmethod
    def assert_rows_match_reference(model, rows):
        c, R = obs_matrix(model), risk_tensor(model)
        K_lead, K_drag, singular = dual._level_laws(model, c, R, rows)
        assert K_lead.shape == (len(rows), model.m, model.d) and K_drag.shape == (len(rows), model.m, model.d * model.m)
        for r, rho in enumerate(rows):
            want_lead, want_drag, want_singular = control_operator(model, c, R, rho)
            assert K_lead[r].tobytes() == want_lead.tobytes()
            assert K_drag[r].tobytes() == want_drag.tobytes()
            assert singular[r] == want_singular
        return singular

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_every_row_is_the_reference(self, rng, d, m):
        flagged = 0
        for model in (random_model(rng, d, m, 3), self.last_state_token_model(rng, d, m)):
            for rho in (filter_process(replace(model, zero_convention=True)), random_measure_process(rng, model)):
                for t in range(model.T):
                    rows = model.mu[None, :] if t == 0 else rho.levels[t]
                    self.assert_rows_match_reference(model, rows)
            no_last = np.append(rng.dirichlet(np.ones(d - 1)), 0.0) if d > 1 else np.ones(1)
            flagged += self.assert_rows_match_reference(model, np.stack([rng.dirichlet(np.ones(d)), no_last])).sum()
        assert flagged >= 1  # the measure without the last state takes the pinv branch

    def test_forced_lapack_singular_rows(self, rng):
        solve = np.linalg.solve

        def flaky_solve(a, b):
            # a system whose (0, 0) entry has its lowest mantissa bit set is declared singular,
            # and with it the whole stack that holds it
            if np.any(a[..., 0, 0].view(np.uint64) & 1):
                raise np.linalg.LinAlgError("forced")
            return solve(a, b)

        flagged = 0
        with mock.patch.object(np.linalg, "solve", flaky_solve):
            for d, m in ((2, 1), (3, 2), (4, 3), (5, 4)):
                model = random_model(rng, d, m, 3)
                rho = random_measure_process(rng, model)
                for t in range(model.T):
                    rows = model.mu[None, :] if t == 0 else rho.levels[t]
                    flagged += self.assert_rows_match_reference(model, rows).sum()
                F, diagnostics = rng.standard_normal(d), []
                backward_sweep_by_node(model, F, model.T, feedback_by_node(model, rho, diagnostics))
                assert solve_optimal(model, rho, F).diagnostics == tuple(diagnostics)
        assert flagged >= 1


    @pytest.mark.parametrize("n", [5, dual.SOLVE_BLOCK, 3 * dual.SOLVE_BLOCK + 7], ids=["short", "one", "partial"])
    def test_blocks_are_the_reference(self, rng, n):
        # a level shorter than one block, of one block, and not a whole number of blocks,
        # with rows at or below PRED_PROB_TOL inside the blocks
        model = self.last_state_token_model(rng, 3, 2)
        rows = rng.dirichlet(np.ones(3), size=n)
        rows[::4] = np.append(rng.dirichlet(np.ones(2)), 0.0)  # no mass on the state that emits token 2
        singular = self.assert_rows_match_reference(model, rows)
        assert singular.tolist() == [r % 4 == 0 for r in range(n)]
        with mock.patch.object(np.linalg, "solve", side_effect=np.linalg.solve) as solve:
            dual._level_laws(model, obs_matrix(model), risk_tensor(model), rows)
        solvable = n - int(singular.sum())  # the other rows, in stacks of SOLVE_BLOCK and one last partial stack
        assert [len(call.args[0]) for call in solve.call_args_list] == \
            [min(dual.SOLVE_BLOCK, solvable - start) for start in range(0, solvable, dual.SOLVE_BLOCK)]

    def test_a_block_lapack_reports_singular_is_solved_row_by_row(self, rng):
        solve = np.linalg.solve
        raised, passed = [], []

        def flaky_solve(a, b):
            # a system whose (0, 0) entry has its 6 lowest mantissa bits set (one in 64) is declared
            # singular, and with it the whole stack that holds it
            hit = bool(np.any((a[..., 0, 0].view(np.uint64) & 63) == 63))
            if a.ndim == 3:
                (raised if hit else passed).append(len(a))
            if hit:
                raise np.linalg.LinAlgError("forced")
            return solve(a, b)

        model = random_model(rng, 3, 2, 3)
        with mock.patch.object(np.linalg, "solve", flaky_solve):
            singular = self.assert_rows_match_reference(model, rng.dirichlet(np.ones(3), size=4 * dual.SOLVE_BLOCK))
        assert raised and passed  # some blocks fell back to the per-row rule, some did not
        assert 0 < singular.sum() < dual.SOLVE_BLOCK  # and only the flagged systems of those blocks are singular


class TestSweepMatchesNodeByNode:
    """The level-at-a-time sweep against the node-by-node reference, with the same diagnostics in the same order."""

    @staticmethod
    def assert_matches(traj, Y, V, U):
        for got, want in ((traj.Y, Y), (traj.V, V), (traj.U, U)):
            assert [level.shape for level in got.levels] == [level.shape for level in want.levels]
            for a, b in zip(got.levels, want.levels):
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-14

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_solve_bsde_and_solve_optimal(self, rng, d, m):
        for T in range(1, 5):
            model = random_model(rng, d, m, T)
            U, F = random_weight_process(rng, m, T), random_terminal(rng, model, path_dependent=T % 2 == 0)
            Y, V, _ = backward_sweep_by_node(model, F, T, lambda t, r, w, W, V: U.levels[t][r])
            self.assert_matches(solve_bsde(model, U, F), Y, V, U)
            for rho in (filter_process(model), random_measure_process(rng, model)):
                F = rng.standard_normal(d)
                diagnostics = []
                want = backward_sweep_by_node(model, F, T, feedback_by_node(model, rho, diagnostics))
                traj = solve_optimal(model, rho, F)
                self.assert_matches(traj, *want)
                assert traj.diagnostics == tuple(diagnostics) == ()

    def test_zero_probability_tokens(self, rng):
        model, rho = zero_token_model(rng)
        tree = rho.tree
        for w in ((0,), (0, 2), (1, 0), (2, 1)):
            tree[w] = np.array([0.4, 0.6, 0.0])  # no mass on the only state that emits token 2
        rho = from_tree(model.m, tree)
        for T in range(1, 4):
            F = rng.standard_normal(3)
            diagnostics = []
            want = backward_sweep_by_node(model, F, T, feedback_by_node(model, rho, diagnostics))
            traj = solve_optimal(replace(model, T=T), rho, F)
            self.assert_matches(traj, *want)
            assert traj.diagnostics == tuple(diagnostics)
        assert [d.split(": ")[0] for d in traj.diagnostics] == [
            f"singular predictive covariance at t={len(w)}, prefix={w}" for w in ((0, 2), (1, 0), (2, 1), (0,), (1,))
        ]


class TestEstimatorValues:
    def test_match_dot_with_embedded_tokens_bit_for_bit(self, rng):
        for m in range(1, 7):
            model = random_model(rng, 2, m, 2)
            traj = solve_bsde(model, random_weight_process(rng, m, 2), rng.standard_normal(2))
            E = token_basis(m)
            vals = estimator_values(model, traj)
            assert vals.shape == ((m + 1) ** 2,)
            for r, w in enumerate(prefixes(m, 2)):
                acc = float(model.mu @ traj.y0())
                for s in range(2):
                    acc -= float(np.asarray(traj.U.at(w[:s])) @ E[w[s]])
                assert vals[r] == acc


class TestEstimatorIsARepresentation:
    """build_weights of the estimator's leaf values gives back (mu(Y_0), U): the estimator is a predictor."""

    def test_build_weights_recovers_the_control(self, rng):
        for draw in range(120):
            d, m, T = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            model = random_model(rng, d, m, T)
            F = rng.standard_normal(d)
            if draw % 2:
                traj = solve_optimal(model, filter_process(model), F)
            else:
                traj = solve_bsde(model, random_weight_process(rng, m, T), F)
            rep = build_weights(estimator_values(model, traj), m, T)
            pairs = [(rep.constant, float(model.mu @ traj.y0()))]
            pairs += list(zip(rep.weights.levels, traj.U.levels))
            for got, want in pairs:
                scale = max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * scale


class TestPredictorWeightsAreTheOptimalControl:
    """The paper's identity: the optimal dual control for F = C(., q) is the predictor of P(Z_{T+1} = q | Z_1..Z_T)."""

    def test_positive_models_give_the_weights(self, rng):
        for _ in range(40):
            d, m, T = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            model = random_model(rng, d, m, T)
            pi = filter_process(model)
            for q in range(m + 1):
                traj = solve_optimal(model, pi, model.C[:, q])
                rep = represent_conditional(model, q)
                assert abs(rep.constant - float(model.mu @ traj.y0())) <= 1e-12
                for got, want in zip(rep.weights.levels, traj.U.levels, strict=True):
                    assert np.max(np.abs(got - want)) <= 1e-12

    def test_sparse_models_agree_on_possible_paths(self, rng):
        # represent gives impossible paths the value 0 and the dual's minimum-norm controls
        # another one, so only the values on possible paths are the same function
        constants_differ = 0
        for _ in range(60):
            d, m, T = int(rng.integers(2, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
            model = sparse_model(rng, d, m, T)
            pi = filter_process(replace(model, zero_convention=True))
            possible = pi.levels[T].sum(axis=-1) != 0.0
            for q in range(m + 1):
                traj = solve_optimal(model, pi, model.C[:, q])
                rep = represent_conditional(replace(model, zero_convention=True), q)
                diff = np.abs(estimator_values(model, traj) - path_values(rep))
                assert np.max(diff[possible]) <= 1e-10
                constants_differ += abs(rep.constant - float(model.mu @ traj.y0())) > 1e-6
        assert constants_differ > 0  # the sweep did meet paths where the two extensions part


class TestEstimatorPath:
    def test_time_zero_is_prior_mean(self, rng, reference_model):
        model = reference_model
        traj = solve_optimal(model, filter_process(model), rng.standard_normal(model.d))
        z = (1, 0, 1)
        assert estimator_path(model, traj, z, 0) == float(model.mu @ traj.y0())

    def test_constant_terminal_is_flat(self, reference_model):
        model = reference_model
        traj = solve_optimal(model, filter_process(model), np.full(model.d, 3.5))
        for t in range(model.T + 1):
            assert abs(estimator_path(model, traj, (1, 1, 0), t) - 3.5) <= 1e-12

    def test_recovers_filtered_terminal_mean(self, rng, reference_model):
        # the estimator at every time equals the filter applied to the backward solution
        model = reference_model
        pis_proc = filter_process(model)
        for j in range(model.d):
            F = np.zeros(model.d)
            F[j] = 1.0
            traj = solve_optimal(model, pis_proc, F)
            for z in prefixes(model.m, model.T):
                if path_probability(model, z) <= 0.0:
                    continue
                pis = forward_filter(model, z)
                for t in range(model.T + 1):
                    pi_t = model.mu if t == 0 else pis[t - 1]
                    lhs = float(pi_t @ np.asarray(traj.Y.at(z[:t])))
                    assert abs(lhs - estimator_path(model, traj, z, t)) <= 1e-9

    def test_out_of_range_time(self, rng, reference_model):
        model = reference_model
        traj = solve_optimal(model, filter_process(model), rng.standard_normal(model.d))
        with pytest.raises(ValueError, match="outside"):
            estimator_path(model, traj, (1, 1, 0), model.T + 1)

    @pytest.mark.parametrize("t", [True, 1.5, "1"])
    def test_time_must_be_an_integer(self, rng, reference_model, t):
        model = reference_model
        traj = solve_optimal(model, filter_process(model), rng.standard_normal(model.d))
        with pytest.raises(ValueError) as err:
            estimator_path(model, traj, (1, 1, 0), t)
        assert str(err.value) == f"time t = {t!r} is not an integer"
        assert estimator_path(model, traj, (1, 1, 0), 1.0) == estimator_path(model, traj, (1, 1, 0), 1)

    def test_path_shorter_than_time_names_both_lengths(self, rng, reference_model):
        model = reference_model
        traj = solve_optimal(model, filter_process(model), rng.standard_normal(model.d))
        with pytest.raises(ValueError, match="path of 1 tokens is shorter than time 3"):
            estimator_path(model, traj, (1,), 3)
        with pytest.raises(ValueError, match="path of 0 tokens is shorter than time 1"):
            estimator_path(model, traj, (), 1)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_bit_equal_to_cut_path_values(self, rng, m):
        # the walk against path_values of the estimator cut at t, at every prefix and every t;
        # from m = 4 on the order of the e(0) sum shows in the bits
        T = 4 if m <= 2 else 3
        for d in range(1, 5):
            for make in (random_model, sparse_model):
                model = make(rng, d, m, T)
                F = rng.standard_normal(d)
                rho = filter_process(replace(model, zero_convention=True))
                for traj in (solve_bsde(model, random_weight_process(rng, m, T), F), solve_optimal(model, rho, F)):
                    constant = float(model.mu @ traj.y0())
                    cut = [path_values(PredictorRepresentation(constant, AdaptedProcess(m, traj.U.levels[:t])))
                           for t in range(T + 1)]
                    with mock.patch.object(dual, "path_values", wraps=dual.path_values) as spy:
                        for t in range(T + 1):
                            walked = [estimator_path(model, traj, w, t) for w in prefixes(m, t)]
                            assert walked == cut[t].tolist(), (d, m, t)
                    assert spy.call_count == 0


class TestAdaptedness:
    def test_subtree_values_ignore_far_terminal_changes(self, rng, reference_model):
        # changing the terminal condition outside the subtree of a prefix leaves
        # the solution at that prefix bit-identical
        model = reference_model
        U = random_weight_process(rng, model.m, model.T)
        F_tree = random_terminal(rng, model, path_dependent=True).tree
        traj_a = solve_bsde(model, U, from_tree(model.m, F_tree))
        for w in prefixes(model.m, model.T):
            if w[0] != 0:
                F_tree[w] = F_tree[w] + rng.standard_normal(model.d)
        traj_b = solve_bsde(model, U, from_tree(model.m, F_tree))
        for t in range(1, model.T):
            for w in prefixes(model.m, t):
                if w[0] == 0:
                    assert np.array_equal(np.asarray(traj_a.Y.at(w)), np.asarray(traj_b.Y.at(w)))
                    assert np.array_equal(np.asarray(traj_a.V.at(w)), np.asarray(traj_b.V.at(w)))


class TestSquaredError:
    def test_perfect_estimator_of_observable_target(self):
        # fully informative chain: the terminal value is known from the tokens
        model = make_model([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], 2)
        F = np.array([1.0, -1.0])
        pi = filter_process(replace(model, zero_convention=True))
        traj = solve_optimal(model, pi, F)
        assert squared_error(model, traj, F) <= 1e-12

    def test_bit_equal_to_per_term_integrand_on_sparse_models(self, rng):
        impossible = 0
        for _ in range(6):
            model = sparse_model(rng, 3, 2, 3)
            F = rng.standard_normal(model.d)
            traj = solve_bsde(model, random_weight_process(rng, model.m, model.T), F)
            assert squared_error(model, traj, F) == squared_error_by_term(model, traj, F)
            impossible += sum(path_probability(model, z) == 0.0 for z in prefixes(model.m, model.T))
        assert impossible > 0  # the sweep did skip the joint paths of impossible observation paths

    def test_bit_equal_to_per_term_integrand_for_path_dependent_terminal(self, rng):
        for make in (random_model, sparse_model):
            model = make(rng, 3, 2, 3)
            F = random_terminal(rng, model, path_dependent=True)
            traj = solve_bsde(model, random_weight_process(rng, model.m, model.T), F)
            assert squared_error(model, traj, F) == squared_error_by_term(model, traj, F)

    def test_bit_equal_to_per_term_integrand_below_the_model_horizon(self, rng):
        model = random_model(rng, 3, 2, 4)
        rho = filter_process(model)
        for t in range(1, model.T):
            F = rng.standard_normal(model.d)
            traj = solve_optimal(replace(model, T=t), rho, F)
            assert traj.horizon == t
            assert squared_error(model, traj, F) == squared_error_by_term(model, traj, F)


class TestIntegrandsBitIdentical:
    """Squared error and MMSE equal exact_expectation of the plain per-term integrands, bit for bit.

    The cost is a forward contraction, not an enumeration: it agrees with the
    enumerated oracle ``total_cost`` to relative 1e-12.
    """

    @pytest.mark.parametrize(
        "make, d, m, T", [(random_model, 2, 1, 3), (sparse_model, 3, 2, 2), (random_model, 3, 1, 4)]
    )
    def test_against_plain_integrands(self, rng, make, d, m, T):
        for draw in range(7):
            model = make(rng, d, m, T)
            U = random_weight_process(rng, m, T)
            F = random_terminal(rng, model, path_dependent=draw % 2 == 1)
            if isinstance(F, AdaptedProcess):
                term = lambda z: np.asarray(F.at(z), dtype=float)  # noqa: E731
            else:
                term = lambda z: F  # noqa: E731
            traj = solve_bsde(model, U, F)
            est = estimator_values(model, traj)
            cache = {}

            def error(x_path, z_path):
                diff = term(z_path)[x_path[-1]] - est[prefix_rank(z_path, m)]
                return diff * diff

            def filter_error(x_path, z_path):
                if z_path not in cache:
                    cache[z_path] = float(forward_filter(model, z_path)[-1] @ term(z_path))
                diff = term(z_path)[x_path[-1]] - cache[z_path]
                return diff * diff

            mse = exact_expectation(model, error)
            report = duality_report(model, traj, F)
            J = total_cost(model, U, F)
            assert abs(report["J_T"] - J) <= 1e-12 * abs(J)
            assert squared_error(model, traj, F) == mse
            assert mmse(model, F) == exact_expectation(model, filter_error)
            assert report["mse"] == mse and report["gap"] == abs(report["J_T"] - mse)


class TestCostContraction:
    """The forward-contraction J_T against the enumerated J_T, and its tables against the per-node formula.

    J_T is compared at relative 1e-12, floored at max|F|^2: where the optimal
    control makes the cost zero (an observed state), both sides are sums of
    rounding residues of F's scale, and their ratio is noise.
    """

    SIZES = [(2, 1, 1), (2, 1, 5), (3, 1, 5), (2, 3, 4), (3, 2, 3), (3, 2, 4), (4, 2, 3), (4, 3, 2), (4, 1, 4)]

    @pytest.mark.parametrize("d, m, T", SIZES, ids=[f"d{d}-m{m}-T{T}" for d, m, T in SIZES])
    def test_matches_enumeration(self, rng, d, m, T):
        for make in (random_model, sparse_model):
            model = make(rng, d, m, T)
            for path_dependent in (False, True):
                F = random_terminal(rng, model, path_dependent)
                scale = float(np.max(np.abs(dual._terminal_level(F, d, m, T)))) ** 2
                # a random control, and the optimal feedback control under the zero convention
                for U in (random_weight_process(rng, m, T),
                          solve_optimal(model, filter_process(replace(model, zero_convention=True)), F).U):
                    J = total_cost(model, U, F)
                    got = dual._cost_of_trajectory(model, solve_bsde(model, U, F))
                    assert abs(got - J) <= 1e-12 * max(abs(J), scale), (got, J)

    @pytest.mark.parametrize("make", [random_model, sparse_model])
    def test_tables_match_running_cost_at_every_node(self, rng, make):
        model = make(rng, 3, 2, 3)
        traj = solve_bsde(model, random_weight_process(rng, model.m, model.T), rng.standard_normal(model.d))
        for t, table in enumerate(_running_cost_tables(model, traj)):
            for w, row in zip(prefixes(model.m, t + 1), table):
                y, v, u = traj.Y.at(w), traj.V.at(w[:t]), traj.U.at(w[:t])
                expect = running_cost(model, y, v, u)
                assert np.all(np.abs(row - expect) <= 1e-13 * np.maximum(1.0, np.abs(expect)))


class TestMmseAgainstExactArithmetic:
    """The minimum error three ways against ``oracles.mmse_exact``: enumerated, and as the optimal control's J_T and mse.

    Each joint term of the error is nonnegative, at most (2 max|F|)^2 times
    its probability, and carries the rounding of a T-step filter, so each
    float result is within a few eps of the condition figure (T+1) max|F|^2.
    In sweeps of over a thousand draws of each model kind the largest error
    was 2.2 eps times it.
    """

    BOUND_EPS = 8

    @pytest.mark.parametrize("make", [random_model, sparse_model])
    def test_within_a_few_eps_of_the_condition_figure(self, rng, make):
        eps = Fraction(np.finfo(float).eps)
        for draw in range(20):
            d, m, T = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = make(rng, d, m, T)
            F = random_terminal(rng, model, path_dependent=draw % 2 == 1)
            exact = mmse_exact(model, F)
            figure = (T + 1) * Fraction(float(np.max(np.abs(dual._terminal_level(F, d, m, T))))) ** 2
            pi = filter_process(replace(model, zero_convention=True))
            report = duality_report(model, solve_optimal(model, pi, F), F)
            for got in (mmse(model, F), report["J_T"], report["mse"]):
                assert abs(Fraction(got) - exact) <= self.BOUND_EPS * eps * figure, (got, float(exact))

    def test_blind_and_observed_states_give_the_variance_left(self):
        # Z_1 carries nothing, so the error is Var_{mu A}(F); or Z_1 reveals X_0, so it is E Var_{A[X_0]}(F)
        A = [[0.75, 0.25], [0.5, 0.5]]
        F = np.array([1.0, -1.0])
        assert mmse_exact(make_model([0.5, 0.5], A, np.full((2, 2), 0.5), 1), F) == Fraction(15, 16)
        assert mmse_exact(make_model([0.5, 0.5], A, np.eye(2), 1), F) == Fraction(7, 8)


class TestDualityAgainstExactArithmetic:
    """Both sides of the identity for a random control that is not optimal, against ``oracles.duality_exact``.

    The exact sides sweep the backward equation in Fractions and enumerate
    every joint path (2187 at d = 3, m = 2, T = 3). Each float side is
    within a few eps of the condition figure (T+1) M^2, with M the largest
    value that a variance or square takes in the float trajectory: |Y| (F
    is Y's level T), |(U_t + V_t(x)) . e(z)| and |F - S_T|. J_T adds T
    running costs and var(Y_0), each a variance of such values; mse
    squares F - S_T. In a sweep of 600 draws of each model kind the
    largest error was 1.5 eps times it.
    """

    BOUND_EPS = 8

    @pytest.mark.parametrize("make", [random_model, sparse_model, dyadic_model])
    def test_within_a_few_eps_of_the_condition_figure(self, rng, make):
        eps = Fraction(np.finfo(float).eps)
        for draw in range(6):
            d, m, T = (int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))) if draw else (3, 2, 3)
            model = make(rng, d, m, T)
            U = random_weight_process(rng, m, T)
            F = random_terminal(rng, model, path_dependent=draw % 2 == 1)
            traj = solve_bsde(model, U, F)
            risk = [(U.levels[t][:, None] + traj.V.levels[t]) @ token_basis(m).T for t in range(T)]
            misses = dual._terminal_level(F, d, m, T) - estimator_values(model, traj)[:, None]
            M = max(float(np.max(np.abs(a))) for a in (*traj.Y.levels, *risk, misses))
            figure = (T + 1) * Fraction(M) ** 2
            report = duality_report(model, traj, F)
            exact_J, exact_mse = duality_exact(model, U, F)
            for got, exact in ((report["J_T"], exact_J), (report["mse"], exact_mse)):
                assert abs(Fraction(got) - exact) <= self.BOUND_EPS * eps * figure, (got, float(exact))

    def test_identity_is_exact_on_exactly_normalized_models(self, rng):
        # float rows summing to 1 only to rounding move the two sides apart by about eps
        for _ in range(4):
            d, m, T = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
            model = dyadic_model(rng, d, m, T)
            J, mse = duality_exact(model, random_weight_process(rng, m, T), random_terminal(rng, model, True))
            assert J == mse
