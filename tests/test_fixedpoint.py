from unittest import mock

import numpy as np
import pytest

from dualfilter import fixedpoint
from dualfilter.adapted import AdaptedProcess, prefixes
from dualfilter.dual import estimator_values, solve_optimal
from dualfilter.fixedpoint import (
    apply_N_adapted,
    apply_N_path,
    bde_solve,
    fixed_point_residual,
    iterate,
    kl_divergence_bar,
    path_laws,
    scalar_feedback,
    step_law,
)
from dualfilter.hmm import is_probability_vector, scalar_obs
from dualfilter.oracle import filter_process, forward_filter, path_probability, sample_path

from conftest import (
    make_model,
    point_mass_model,
    random_measure_process,
    random_model,
    sparse_model,
    uninformative_model,
)


class TestScalarFeedback:
    def test_constant_function_gives_zero(self, rng, reference_model):
        model = reference_model
        nu = rng.dirichlet(np.ones(model.d))
        c = scalar_obs(model, 1)
        assert abs(scalar_feedback(step_law(nu, c), model.A @ np.full(model.d, 2.0))) <= 1e-14

    def test_degenerate_branch(self):
        # a token emitted surely by every state drives nu(c) to 1
        model = make_model([0.5, 0.5], np.eye(2), [[0.0, 1.0], [0.0, 1.0]], 1)
        c = scalar_obs(model, 1)
        np.testing.assert_array_equal(c, [1.0, 1.0])
        assert scalar_feedback(step_law(np.array([0.3, 0.7]), c), model.A @ np.array([1.0, -2.0])) == 0.0

    def test_against_independent_transcription(self, rng):
        model = random_model(rng, 3, 1, 1)
        f = rng.standard_normal(3)
        nu = rng.dirichlet(np.ones(3))
        c = scalar_obs(model, 1)
        nc = sum(nu[x] * c[x] for x in range(3))
        expect = -sum(nu[x] * (model.A[x] @ f) * (c[x] - nc) for x in range(3)) / (1 - nc**2)
        assert abs(scalar_feedback(step_law(nu, c), model.A @ f) - expect) <= 1e-14


class TestBdeSolve:
    def test_constant_terminal_rides_through(self, rng, reference_model):
        model = reference_model
        rho = np.stack([rng.dirichlet(np.ones(model.d)) for _ in range(model.T)])
        y0, controls = bde_solve(model, rho, (1, 0, 1), model.T, np.full(model.d, 3.0))
        np.testing.assert_allclose(controls, 0.0, atol=1e-13)
        np.testing.assert_allclose(y0, 3.0, atol=1e-12)

    def test_single_step_closed_form(self, rng, reference_model):
        model = reference_model
        rho = np.stack([rng.dirichlet(np.ones(model.d)) for _ in range(model.T)])
        f = rng.standard_normal(model.d)
        z = (1, 0, 1)
        y0, controls = bde_solve(model, rho, z, 1, f)
        c1 = scalar_obs(model, z[0])
        u0 = scalar_feedback(step_law(model.mu, c1), model.A @ f)
        assert controls.shape == (1,)
        assert controls[0] == u0
        np.testing.assert_allclose(y0, model.A @ f + c1 * u0, atol=1e-14)

    def test_reference_replay(self, rng, reference_model):
        # replay the recursion with bare loops and compare every control
        model = reference_model
        rho = np.stack([rng.dirichlet(np.ones(model.d)) for _ in range(model.T)])
        z = (1, 1, 0)
        f = np.array([1.0, 0.0])
        y0, controls = bde_solve(model, rho, z, model.T, f)
        y = f.copy()
        expect = np.zeros(model.T)
        for s in range(model.T - 1, -1, -1):
            c = 2.0 * model.C[:, z[s]] - 1.0
            nu = model.mu if s == 0 else rho[s - 1]
            nc = nu @ c
            u = 0.0 if abs(1 - nc**2) <= 1e-12 else -(nu @ ((model.A @ y) * (c - nc))) / (1 - nc**2)
            y = model.A @ y + c * u
            expect[s] = u
        np.testing.assert_allclose(controls, expect, atol=1e-14)
        np.testing.assert_allclose(y0, y, atol=1e-14)

    def test_time_bounds(self, rng, reference_model):
        model = reference_model
        rho = np.full((model.T, model.d), 0.5)
        with pytest.raises(ValueError, match="time"):
            bde_solve(model, rho, (1, 0, 1), 0, np.zeros(model.d))


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
    """The backward pass with the whole feedback law recomputed at every step, for comparison.

    nu(c), 1 - nu(c)^2, c - nu(c) and A y are computed inside the control,
    and A y once more for the update.
    """
    y = np.asarray(f, dtype=float)
    controls = np.zeros(t)
    for s in range(t - 1, -1, -1):
        c = scalar_obs(model, z[s])
        nu = model.mu if s == 0 else rho[s - 1]
        nc = float(nu @ c)
        denom = 1.0 - nc * nc
        u = 0.0 if abs(denom) <= fixedpoint.DEGENERATE_TOL else float(-(nu @ ((model.A @ y) * (c - nc))) / denom)
        y = model.A @ y + c * u
        controls[s] = u
    return y, controls


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
        laws = path_laws(model, rho, z, len(z))
        f = np.random.default_rng(len(z)).standard_normal(model.d)
        for t in range(1, len(z) + 1):
            y0, controls = bde_solve(model, rho, z, t, f)
            shared = bde_solve(model, rho, z, t, f, laws=laws)
            ref = bde_solve_per_call(model, rho, z, t, f)
            for got in (shared, ref):
                assert y0.tobytes() == got[0].tobytes() and controls.tobytes() == got[1].tobytes()

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
            rho = forward_filter(model, z, zero_convention=True)
            zero_rows += int((rho.sum(axis=1) == 0.0).sum())
            self.assert_same_map(model, rho, z)
        assert zero_rows > 0

    def test_degenerate_branch(self, rng):
        # token 1 is emitted surely by every state: c = 1 and nu(c) = 1 at every step
        model = make_model([0.3, 0.7], [[0.6, 0.4], [0.2, 0.8]], [[0.0, 1.0], [0.0, 1.0]], 5)
        z = (1, 1, 1, 1, 1)
        assert all(law is None for _, law in path_laws(model, forward_filter(model, z), z, 5))
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

    def test_standalone_pass_keeps_its_validation(self, reference_model):
        model = reference_model
        rho = np.full((model.T, model.d), 0.5)
        f = np.ones(model.d)
        for z, t, text in [((1, 0, 1), 0, "time 0 outside 1..3"), ((1, 0, 1), 4, "time 4 outside 1..3"),
                           ((1, 2, 1), 1, "token z_2 = 2 outside alphabet 0..1")]:
            with pytest.raises(ValueError) as err:
                bde_solve(model, rho, z, t, f)
            assert str(err.value) == text


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
                    assert flags[w]

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
            est = [estimator_values(model, solve_optimal(model, pi, basis[:, j], horizon=t))
                   for j in range(model.d)]
            for w in prefixes(model.m, t):
                v = np.array([e[w] for e in est])
                np.testing.assert_allclose(np.linalg.solve(basis.T, v), np.asarray(out.at(w)), atol=1e-10)


def apply_N_adapted_by_solves(model, rho, diagnostics=None):
    """apply_N_adapted written as T*d independent solve_optimal calls, for comparison."""
    tree = {}
    for t in range(1, model.T + 1):
        vals = {w: np.zeros(model.d) for w in prefixes(model.m, t)}
        for j in range(model.d):
            traj = solve_optimal(model, rho, np.eye(model.d)[:, j], horizon=t)
            if diagnostics is not None:
                diagnostics.append(traj.diagnostics)
            est = estimator_values(model, traj)
            for w in prefixes(model.m, t):
                vals[w][j] = est[w]
        tree.update(vals)
    return tree, {w: is_probability_vector(v) for w, v in tree.items()}


def assert_same_output(out, flags, ref_tree, ref_flags):
    assert list(out.tree) == list(ref_tree)
    for w, v in ref_tree.items():
        assert out.at(w).tobytes() == v.tobytes(), w
    assert flags == ref_flags


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
        # interior prefixes of lengths 0..T-1, each with one Sigma_p system for all T*d solves
        assert solve.call_count == sum((model.m + 1) ** t for t in range(model.T))
        assert all(call.args[0].shape == (model.m, model.m) for call in solve.call_args_list)
        assert pinv.call_count == 0

    def test_zero_probability_token_flags_each_solve_once(self, rng):
        # token 2 is emitted only by state 2, and rho puts no mass there at prefix (1,)
        C = [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]]
        model = make_model(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3), size=3), C, 3)
        tree = dict(random_measure_process(rng, model).tree)
        tree[(1,)] = np.array([0.4, 0.6, 0.0])
        rho = AdaptedProcess(tree)
        ref_diag, got_diag = [], []

        def recording_solve(*args, **kwargs):
            traj = solve_optimal(*args, **kwargs)
            got_diag.append((kwargs["horizon"], traj.diagnostics))
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
        tree = dict(pi.tree)
        del tree[(0, 1)]
        for run in (lambda rho: apply_N_adapted(model, rho), lambda rho: solve_optimal(model, rho, np.ones(2))):
            with pytest.raises(ValueError) as err:
                run(AdaptedProcess(tree))
            assert str(err.value) == "adapted process incomplete at level 2: 3 of 4 prefixes present"

    def test_forced_singular_systems_keep_per_solve_diagnostics(self, rng):
        model = random_model(rng, 3, 2, 3)
        rho = random_measure_process(rng, model)
        solve = np.linalg.solve

        def flaky_solve(a, b):
            # a deterministic share of the feedback systems is declared singular:
            # those whose (0, 0) entry has its lowest mantissa bit set
            if np.float64(a[0, 0]).view(np.uint64) & 1:
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


class TestFixedPointResidual:
    def test_filter_residual_tiny(self, reference_model):
        model = reference_model
        z = (1, 1, 0)
        pis = forward_filter(model, z)
        assert fixed_point_residual(model, pis, z, mode="path") <= 1e-10
        assert fixed_point_residual(model, filter_process(model), mode="adapted") <= 1e-10

    def test_perturbed_filter_has_positive_residual(self, reference_model):
        model = reference_model
        z = (1, 1, 0)
        pis = forward_filter(model, z)
        bumped = pis.copy()
        bumped[1, 0] += 0.1
        bumped[1, 1] -= 0.1
        assert fixed_point_residual(model, bumped, z, mode="path") > 1e-3

    def test_constant_map_image_is_fixed(self, rng):
        # with a single step the map ignores rho entirely, so its image is fixed
        model = uninformative_model(rng, 2, 1, 1)
        z = (1,)
        rho = np.array([[0.9, 0.1]])
        out, _ = apply_N_path(model, rho, z)
        assert fixed_point_residual(model, out, z, mode="path") <= 1e-14

    def test_unknown_mode(self, reference_model):
        with pytest.raises(ValueError, match="mode"):
            fixed_point_residual(reference_model, None, None, mode="bogus")


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

    def test_rounding_level_negatives_read_as_zero(self):
        # point-mass emissions: the map's first image on path 0.0.1 carries a -5.6e-17 entry
        model = point_mass_model()
        z = (0, 0, 1)
        raw, flags = apply_N_path(model, np.full((3, 3), 1.0 / 3), z)
        assert flags.all() and -1e-15 < raw.min() < 0.0
        trace = iterate(model, z, K=2)
        assert trace.iterates.min() == 0.0 and not trace.projected.any()
        assert np.array_equal(trace.iterates[1], np.where(raw < 0.0, 0.0, raw))

    def test_impossible_path_under_zero_convention(self):
        model = make_model([1.0, 0.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]], 2)
        trace = iterate(model, (0, 0), K=3, zero_convention=True)
        assert np.all(np.isfinite(trace.residuals))
        assert np.all(np.isfinite(trace.kl_per_iter))


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
