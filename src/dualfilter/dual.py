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
from .hmm import HmmModel, gamma_op, obs_matrix, risk_matrix, risk_tensor, token_basis
from .oracle import DEFAULT_ENUM_BUDGET, exact_expectation, forward_filter

# Relative singular-value cutoff for every pseudo-inverse in this module.
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class DualTrajectory:
    """Solution of the backward equation: Y at levels 0..horizon, (V, U) below.

    Y values are (d,) vectors per prefix, V values are (d, m) arrays (an
    R^m row per state), U values are (m,) vectors. ``diagnostics`` records
    pseudo-inverse fallbacks on singular feedback systems.
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
    """Mean/tilde split of z -> (A Y_{t+1})(prefix + z); returns (mean (d,), V (d, m))."""
    succ = np.stack([model.A @ Y_next[w + (z,)] for z in range(model.m + 1)])
    mean = succ.mean(axis=0)
    V = (succ[1:] - mean).T
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


def running_cost(model: HmmModel, y: np.ndarray, v: np.ndarray, u: np.ndarray, x: int) -> float:
    """l(y, v, u; x): transition variance of y plus the (u + v(x)) quadratic risk."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != (model.d, model.m):
        raise ValueError(f"v must have shape ({model.d}, {model.m}), got {v.shape}")
    if u.shape != (model.m,):
        raise ValueError(f"u must have shape ({model.m},), got {u.shape}")
    s = u + v[x]
    return float(gamma_op(model, y)[x] + s @ risk_matrix(model, x) @ s)


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


def _cost_of_trajectory(model: HmmModel, traj: DualTrajectory, budget: int) -> float:
    y0 = traj.y0()
    var0 = float(model.mu @ (y0 * y0) - (model.mu @ y0) ** 2)
    tables = _running_cost_tables(model, traj)
    T = traj.horizon

    def h(x_path, z_path):
        return sum(tables[t][z_path[: t + 1]][x_path[t]] for t in range(T))

    return var0 + exact_expectation(model, h, T=T, budget=budget)


def total_cost(
    model: HmmModel,
    U: AdaptedProcess,
    F,
    horizon: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> float:
    """J(U; F) = var(Y_0(X_0)) + E[sum_t l(Y_{t+1}, V_t, U_t; X_t)], exactly.

    Y_0 is deterministic because the root of the prefix tree is a single
    node, so the variance term is under the prior mu alone.
    """
    T = model.T if horizon is None else int(horizon)
    traj = solve_bsde(model, U, F, horizon=T)
    return _cost_of_trajectory(model, traj, budget)


def estimator_values(model: HmmModel, traj: DualTrajectory) -> dict[Prefix, float]:
    """mu(Y_0) - sum_s U_s^T e(z_{s+1}) at every prefix, including the root."""
    E = token_basis(model.m)
    vals: dict[Prefix, float] = {(): float(model.mu @ traj.y0())}
    for t in range(traj.horizon):
        for w in prefixes(model.m, t):
            u = np.asarray(traj.U.at(w))
            for z in range(model.m + 1):
                vals[w + (z,)] = vals[w] - float(u @ E[z])
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

    def h(x_path, z_path):
        diff = term(z_path)[x_path[-1]] - est[z_path]
        return diff * diff

    return exact_expectation(model, h, T=T, budget=budget)


def duality_report(
    model: HmmModel,
    U: AdaptedProcess,
    F,
    horizon: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict:
    """Both sides of the duality identity: {'J_T': ..., 'mse': ..., 'gap': ...}."""
    T = model.T if horizon is None else int(horizon)
    traj = solve_bsde(model, U, F, horizon=T)
    J = _cost_of_trajectory(model, traj, budget)
    mse = squared_error(model, traj, F, budget=budget)
    return {"J_T": J, "mse": mse, "gap": abs(J - mse)}


def _feedback_law(c_mat: np.ndarray, R: np.ndarray, rho: np.ndarray):
    """phi(y, v; rho) = -G (lead(y) + drag(v)), returned as (G, lead, drag).

    G = rho(R)^+ (relative singular-value cutoff PINV_RCOND), lead(y) =
    rho((c - rho(c)) y) and drag(v) = rho(R v). lead is linear and also
    takes a (d, k) stack of functions, one per column.
    """
    dev = c_mat - rho @ c_mat
    G = np.linalg.pinv(np.einsum("x,xij->ij", rho, R), rcond=PINV_RCOND)

    def lead(y):
        return np.einsum("x,xi,x...->i...", rho, dev, y)

    def drag(v):
        return np.einsum("x,xij,xj->i", rho, R, v)

    return G, lead, drag


def optimal_feedback(model: HmmModel, y: np.ndarray, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Feedback law phi(y, v; rho) = -rho(R)^+ (rho((c - rho(c)) y) + rho(R v)).

    This is the stationarity condition of the cost in the control: the
    rho-weighted covariance coupling of y with c plus the risk-weighted
    martingale term, premultiplied by the pseudo-inverse of rho(R) (relative
    singular-value cutoff PINV_RCOND), so the law is total even when rho(R)
    is singular.
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    rho = np.asarray(rho, dtype=float)
    G, lead, drag = _feedback_law(obs_matrix(model), risk_tensor(model), rho)
    return -G @ (lead(y) + drag(v))


def solve_optimal(
    model: HmmModel,
    rho: AdaptedProcess,
    F,
    horizon: int | None = None,
) -> DualTrajectory:
    """Backward solve with the control eliminated by the feedback law.

    rho supplies the measure at prefixes of length 1..horizon-1; at the
    root the prior mu is used (the time-0 history is trivial). The sweep is
    solve_bsde's, with U_t = phi(Y_t, V_t; rho_t) and Y_t = W + c U_t.
    Substituting is affine in U_t, giving the m x m linear system
    (I + G lead(c)) U_t = -G (lead(W) + drag(V_t)), solved exactly; singular
    systems fall back to the pseudo-inverse and are flagged in the
    trajectory diagnostics.
    """
    T = model.T if horizon is None else int(horizon)
    if T >= 2:
        rho.check_complete(model.m, range(1, T))
    c_mat = obs_matrix(model)
    R = risk_tensor(model)
    eye_m = np.eye(model.m)
    diagnostics: list[str] = []

    def feedback(t, w, W, V):
        nu = model.mu if t == 0 else np.asarray(rho.at(w), dtype=float)
        G, lead, drag = _feedback_law(c_mat, R, nu)
        lhs = eye_m + G @ lead(c_mat)
        rhs = -G @ (lead(W) + drag(V))
        try:
            return np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            diagnostics.append(f"singular feedback system at t={t}, prefix={w}")
            return np.linalg.pinv(lhs, rcond=PINV_RCOND) @ rhs

    Y_tree, V_tree, U_tree = _backward_sweep(model, F, T, feedback)
    return DualTrajectory(
        Y=AdaptedProcess(Y_tree),
        V=AdaptedProcess(V_tree),
        U=AdaptedProcess(U_tree),
        horizon=T,
        diagnostics=tuple(diagnostics),
    )


def mmse(model: HmmModel, F, horizon: int | None = None, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """E|F(X_T) - pi_T(F)|^2: the best achievable squared error, from the oracle filter."""
    T = model.T if horizon is None else int(horizon)
    term = _terminal_lookup(F, model.d, model.m, T)
    cache: dict[Prefix, float] = {}

    def h(x_path, z_path):
        if z_path not in cache:
            pi_T = forward_filter(model, z_path)[-1]
            cache[z_path] = float(pi_T @ term(z_path))
        diff = term(z_path)[x_path[-1]] - cache[z_path]
        return diff * diff

    return exact_expectation(model, h, T=T, budget=budget)
