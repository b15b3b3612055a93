"""Dual control system for the filter: backward equation, cost, and feedback law.

The filter admits a dual description as an optimal control problem: a
control process U together with a terminal function F determine a backward
stochastic difference equation whose solution (Y, V) must stay adapted, a
quadratic cost whose value equals the mean-squared error of the induced
estimator, and a feedback law that recovers the exact filter when driven by
it. Expectations are exact enumerations, never Monte Carlo: the tolerances
downstream assume exactness.

Backward passes are level-sequential but nodes within a level are
independent; all functions are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adapted import AdaptedProcess, Prefix, prefixes
from .hmm import HmmModel, gamma_op, obs_matrix, risk_tensor, token_basis
from .oracle import DEFAULT_ENUM_BUDGET, exact_expectation

# Relative singular-value cutoff for every pseudo-inverse in this module.
PINV_RCOND = 1e-10

# A next token whose predictive probability (rho C)(z) is at or below this is
# treated as impossible: the predictive covariance is then singular and the
# feedback control takes its minimum-norm value.
PRED_PROB_TOL = 1e-12


@dataclass(frozen=True)
class DualTrajectory:
    """Solution of the backward equation: Y at levels 0..horizon, (V, U) below.

    Y values are (d,) vectors per prefix, V values are (d, m) arrays (an
    R^m row per state), U values are (m,) vectors. ``diagnostics`` names
    each node whose feedback control took the minimum-norm value of a
    singular system.
    """

    Y: AdaptedProcess
    V: AdaptedProcess
    U: AdaptedProcess
    horizon: int
    diagnostics: tuple[str, ...] = ()

    def y0(self) -> np.ndarray:
        return np.asarray(self.Y.at(()))


def _terminal_lookup(F, d: int, m: int, T: int):
    """Normalize a terminal condition to a path -> (d,) vector callable.

    Accepts a deterministic (d,) vector or an AdaptedProcess complete at
    level T.
    """
    if isinstance(F, AdaptedProcess):
        F.check_complete(m, [T])
        return lambda path: np.asarray(F.at(path), dtype=float)
    arr = np.array(F, dtype=float)
    if arr.shape != (d,):
        raise ValueError(f"deterministic terminal function must have shape ({d},), got {arr.shape}")
    arr.setflags(write=False)
    return lambda path: arr


def _successor_split(model: HmmModel, Y_next: dict[Prefix, np.ndarray], w: Prefix):
    """Mean/tilde split of z -> (A Y_{t+1})(prefix + z); returns (mean (d,), V (d, m)).

    The successors are added left to right and divided by m+1, which is
    what ``np.mean`` over the stacked successors does, to the bit.
    """
    succ = [model.A @ Y_next[w + (z,)] for z in range(model.m + 1)]
    total = succ[0]
    for s in succ[1:]:
        total = total + s
    mean = total / (model.m + 1)
    V = (np.array(succ[1:]) - mean).T
    return mean, V


def _backward_sweep(
    model: HmmModel, F, T: int, control: Callable[[int, Prefix, np.ndarray, np.ndarray], np.ndarray]
):
    """The backward equation Y_t = W + c U_t, W = mean + (c V) 1, from terminal F.

    At each node V_t is pinned by the mean/tilde split of the successor
    values, which is the only choice keeping Y_t measurable with respect to
    the prefix for every successor token; ``control(t, prefix, W, V_t)``
    then supplies U_t. Returns the Y, V and U trees.
    """
    term = _terminal_lookup(F, model.d, model.m, T)
    c_mat = obs_matrix(model)
    Y_tree: dict[Prefix, np.ndarray] = {w: term(w) for w in prefixes(model.m, T)}
    V_tree: dict[Prefix, np.ndarray] = {}
    U_tree: dict[Prefix, np.ndarray] = {}
    for t in range(T - 1, -1, -1):
        for w in prefixes(model.m, t):
            mean, V = _successor_split(model, Y_tree, w)
            W = mean + (c_mat * V).sum(axis=1)
            u = control(t, w, W, V)
            V_tree[w] = V
            U_tree[w] = u
            Y_tree[w] = W + c_mat @ u
    return Y_tree, V_tree, U_tree


def solve_bsde(model: HmmModel, U: AdaptedProcess, F, horizon: int | None = None) -> DualTrajectory:
    """Solve the backward equation for a given control U and terminal F.

    The backward relation holds identically at every node, not just in
    expectation.
    """
    T = model.T if horizon is None else int(horizon)
    U.check_complete(model.m, range(T))
    Y_tree, V_tree, _ = _backward_sweep(
        model, F, T, lambda t, w, W, V: np.asarray(U.at(w), dtype=float)
    )
    return DualTrajectory(
        Y=AdaptedProcess(Y_tree), V=AdaptedProcess(V_tree), U=U, horizon=T
    )


def bsde_residual_by_node(model: HmmModel, traj: DualTrajectory) -> dict[tuple[int, Prefix], float]:
    """Backward-relation residual per (time, prefix), maxed over states and successor tokens."""
    E = token_basis(model.m)
    c_mat = obs_matrix(model)
    out: dict[tuple[int, Prefix], float] = {}
    for t in range(traj.horizon):
        for w in prefixes(model.m, t):
            Yw = np.asarray(traj.Y.at(w))
            V = np.asarray(traj.V.at(w))
            u = np.asarray(traj.U.at(w))
            worst = 0.0
            for z in range(model.m + 1):
                ay = model.A @ np.asarray(traj.Y.at(w + (z,)))
                rhs = ay + c_mat @ u + (c_mat * V).sum(axis=1) - V @ E[z]
                worst = max(worst, float(np.max(np.abs(Yw - rhs))))
            out[(t, w)] = worst
    return out


def bsde_residual(model: HmmModel, traj: DualTrajectory) -> float:
    """Max over (node, state, successor token) of the backward-relation residual."""
    by_node = bsde_residual_by_node(model, traj)
    return max(by_node.values()) if by_node else 0.0


def _running_cost_tables(model: HmmModel, traj: DualTrajectory) -> list[dict[Prefix, np.ndarray]]:
    """Per step t, map from z_{1..t+1} to the (d,) vector x -> l(Y_{t+1}, V_t, U_t; x)."""
    R = risk_tensor(model)
    tables = []
    for t in range(traj.horizon):
        table: dict[Prefix, np.ndarray] = {}
        for w in prefixes(model.m, t):
            V = np.asarray(traj.V.at(w))
            u = np.asarray(traj.U.at(w))
            S = u[None, :] + V
            quad = np.einsum("xi,xij,xj->x", S, R, S)
            for z in range(model.m + 1):
                y_next = np.asarray(traj.Y.at(w + (z,)))
                table[w + (z,)] = gamma_op(model, y_next) + quad
        tables.append(table)
    return tables


def _per_observation_path(lookup: Callable[[Prefix], object]) -> Callable[[Prefix], object]:
    """``lookup`` memoized on the latest z_path, for integrands of exact_expectation.

    exact_expectation passes one z_path tuple to all of that path's joint
    terms in a row, so ``lookup`` runs once per observation path and each
    joint term only reads what it returned.
    """
    last_z, last = None, None

    def at(z_path):
        nonlocal last_z, last
        if z_path is not last_z:
            last_z, last = z_path, lookup(z_path)
        return last

    return at


def _cost_of_trajectory(model: HmmModel, traj: DualTrajectory, budget: int) -> float:
    y0 = traj.y0()
    var0 = float(model.mu @ (y0 * y0) - (model.mu @ y0) ** 2)
    tables = _running_cost_tables(model, traj)
    T = traj.horizon
    rows = _per_observation_path(
        lambda z_path: [tables[t][z_path[: t + 1]].tolist() for t in range(T)]
    )

    def h(x_path, z_path):
        # an explicit left-to-right sum: sum() may compensate float sums (Python >= 3.12)
        acc = 0.0
        for row, x in zip(rows(z_path), x_path):
            acc += row[x]
        return acc

    return var0 + exact_expectation(model, h, T=T, budget=budget)


def estimator_values(model: HmmModel, traj: DualTrajectory) -> dict[Prefix, float]:
    """mu(Y_0) - sum_s U_s^T e(z_{s+1}) at every prefix, including the root.

    Each prefix's terms u^T e(z) are read once: u @ e(0) for z = 0 and u_z
    for z >= 1, the same bits as u @ e(z) for every z (the z = 0 row of
    E @ u is not, from m = 4 on).
    """
    e0 = token_basis(model.m)[0]
    vals: dict[Prefix, float] = {(): float(model.mu @ traj.y0())}
    for t in range(traj.horizon):
        for w in prefixes(model.m, t):
            u = np.asarray(traj.U.at(w))
            base = vals[w]
            for z, term in enumerate([float(u @ e0), *u.tolist()]):
                vals[w + (z,)] = base - term
    return vals


def estimator_path(model: HmmModel, traj: DualTrajectory, z, t: int) -> float:
    """mu(Y_0) - sum_{s<t} U_s(z_1..z_s)^T e(z_{s+1}) along one path."""
    if not 0 <= t <= traj.horizon:
        raise ValueError(f"time {t} outside 0..{traj.horizon}")
    E = token_basis(model.m)
    acc = float(model.mu @ traj.y0())
    for s in range(t):
        u = np.asarray(traj.U.at(tuple(z[:s])))
        acc -= float(u @ E[z[s]])
    return acc


def squared_error(
    model: HmmModel,
    traj: DualTrajectory,
    F,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> float:
    """E|F(X_T) - S_T|^2 for the estimator S_T induced by the trajectory."""
    T = traj.horizon
    term = _terminal_lookup(F, model.d, model.m, T)
    est = estimator_values(model, traj)
    at = _per_observation_path(lambda z_path: (term(z_path).tolist(), est[z_path]))

    def h(x_path, z_path):
        row, s = at(z_path)
        diff = row[x_path[-1]] - s
        return diff * diff

    return exact_expectation(model, h, T=T, budget=budget)


def duality_report(
    model: HmmModel,
    U: AdaptedProcess | DualTrajectory,
    F,
    horizon: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict:
    """Both sides of the duality identity: {'J_T': ..., 'mse': ..., 'gap': ...}.

    U is the control process, or its trajectory as ``solve_bsde(model, U,
    F)`` returned it, for a caller that reads the trajectory too; the
    horizon is then the trajectory's own.
    """
    if isinstance(U, DualTrajectory):
        if horizon is not None and int(horizon) != U.horizon:
            raise ValueError(f"horizon {horizon} differs from the trajectory's ({U.horizon})")
        traj = U
    else:
        traj = solve_bsde(model, U, F, horizon=horizon)
    J = _cost_of_trajectory(model, traj, budget)
    mse = squared_error(model, traj, F, budget=budget)
    return {"J_T": J, "mse": mse, "gap": abs(J - mse)}


def _lead_drag(c_mat: np.ndarray, R: np.ndarray, rho: np.ndarray):
    """The two terms of the feedback law at rho as matrices: (lead (m, d), drag (m, d m)).

    lead @ y = rho((c - rho(c)) y) and drag @ v.ravel() = rho(R v) for a
    function y (d,) and a (d, m) array v.
    """
    d, m = c_mat.shape
    lead = (rho[:, None] * (c_mat - rho @ c_mat)).T
    drag = (rho[:, None, None] * R).transpose(1, 0, 2).reshape(m, d * m)
    return lead, drag


def _control_operator(model: HmmModel, c_mat: np.ndarray, R: np.ndarray, rho: np.ndarray):
    """The feedback law at rho solved for the control: (K_lead, K_drag, singular).

    With Y = W + c u, the law u = phi(Y, V; rho) is the linear system
    Sigma_p u = -(lead @ W + drag @ V.ravel()), where Sigma_p = rho(R) +
    lead @ c is the covariance of e(Z) under the predictive law p = rho C.
    So u = -(K_lead @ W + K_drag @ V.ravel()) with [K_lead | K_drag] =
    Sigma_p^{-1} [lead | drag]. Sigma_p is singular exactly when some token
    has p(z) = 0, decided with PRED_PROB_TOL; then K is the minimum-norm
    solution (pseudo-inverse, cutoff PINV_RCOND) and ``singular`` is True.
    LAPACK's exact-singularity error, which the tolerance should preclude,
    takes the same branch.
    """
    lead, drag = _lead_drag(c_mat, R, rho)
    sigma = np.einsum("x,xij->ij", rho, R) + lead @ c_mat
    gains = np.hstack([lead, drag])
    singular = bool((rho @ model.C).min() <= PRED_PROB_TOL)
    if not singular:
        try:
            K = np.linalg.solve(sigma, gains)
        except np.linalg.LinAlgError:
            singular = True
    if singular:
        K = np.linalg.pinv(sigma, rcond=PINV_RCOND) @ gains
    return K[:, : model.d], K[:, model.d :], singular


def solve_optimal(
    model: HmmModel,
    rho: AdaptedProcess,
    F,
    horizon: int | None = None,
    *,
    laws: dict[Prefix, tuple[np.ndarray, np.ndarray, bool]] | None = None,
) -> DualTrajectory:
    """Backward solve with the control eliminated by the feedback law.

    rho supplies the measure at prefixes of length 1..horizon-1; at the
    root the prior mu is used (the time-0 history is trivial). The sweep is
    solve_bsde's, with U_t = phi(Y_t, V_t; rho_t) and Y_t = W + c U_t.
    Substituting is affine in U_t. Multiplied through by rho(R) it is the
    m x m system Sigma_p U_t = -(lead(W) + drag(V_t)) in the predictive
    covariance Sigma_p = rho(R) + lead(c) (see ``_control_operator``), which
    needs no pseudo-inverse of rho(R). Nodes where Sigma_p is singular (a
    next token of predictive probability 0) take the minimum-norm control
    and are named in the trajectory diagnostics.

    The solved law, a control operator (K_lead, K_drag), depends only on
    the measure at the node, so each node does U_t = -(K_lead W + K_drag
    vec(V_t)). ``laws`` is a memo of that operator per prefix, filled on
    first use: pass one dict to several solves with the same model and rho
    (any F and horizon) and each prefix's law is solved once. It changes no
    result, and every solve records its own diagnostics. A caller passing
    ``laws`` has checked rho complete on the levels the solve reads
    (apply_N_adapted checks once for all its solves); without it the solve
    checks, with a fresh memo.
    """
    T = model.T if horizon is None else int(horizon)
    if laws is None:
        if T >= 2:
            rho.check_complete(model.m, range(1, T))
        laws = {}
    c_mat = obs_matrix(model)
    R = risk_tensor(model)
    diagnostics: list[str] = []

    def feedback(t, w, W, V):
        law = laws.get(w)
        if law is None:
            nu = model.mu if t == 0 else np.asarray(rho.at(w), dtype=float)
            law = laws[w] = _control_operator(model, c_mat, R, nu)
        K_lead, K_drag, singular = law
        if singular:
            diagnostics.append(f"singular predictive covariance at t={t}, prefix={w}: minimum-norm control")
        return -(K_lead @ W + K_drag @ V.ravel())

    Y_tree, V_tree, U_tree = _backward_sweep(model, F, T, feedback)
    return DualTrajectory(
        Y=AdaptedProcess(Y_tree),
        V=AdaptedProcess(V_tree),
        U=AdaptedProcess(U_tree),
        horizon=T,
        diagnostics=tuple(diagnostics),
    )
