"""Dual control system for the filter: backward equation, cost, and feedback law.

The filter admits a dual description as an optimal control problem: a
control process U together with a terminal function F determine a backward
stochastic difference equation whose solution (Y, V) must stay adapted, a
quadratic cost whose value equals the mean-squared error of the induced
estimator, and a feedback law that recovers the exact filter when driven by
it. Expectations are exact, never Monte Carlo: the cost contracts per-node
tables with the forward joint measure, and the squared error enumerates the
joint paths, so each duality gap checks one against the other.

Backward passes run one level at a time, from the leaves up: nodes within
a level are independent. All functions are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable

import numpy as np

from .adapted import AdaptedProcess, Prefix, prefix_rank, prefixes
from .hmm import HmmModel, check_integer, gamma_op, obs_matrix, risk_tensor, token_basis, validate_tokens
from .oracle import exact_expectation, forward_step
from .predictor import PredictorRepresentation, path_values

# Relative singular-value cutoff for every pseudo-inverse in this module.
PINV_RCOND = 1e-10

# A next token whose predictive probability (rho C)(z) is at or below this is
# treated as impossible: the predictive covariance is then singular and the
# feedback control takes its minimum-norm value.
PRED_PROB_TOL = 1e-12

# Feedback systems per stacked solve in ``_level_laws``: a level's systems are solved this many at a time.
SOLVE_BLOCK = 32


@dataclass(frozen=True)
class DualTrajectory:
    """Solution of the backward equation: Y at levels 0..horizon, (V, U) at levels 0..horizon-1.

    The horizon is read off Y's levels. As level arrays (see ``adapted``),
    Y's level t has shape ((m+1)^t, d), a (d,) vector per prefix; V's has
    shape ((m+1)^t, d, m), an R^m row per state; U's has shape ((m+1)^t,
    m). ``diagnostics`` names each node whose feedback control took the
    minimum-norm value of a singular system; it is empty for a given control.
    """

    Y: AdaptedProcess
    V: AdaptedProcess
    U: AdaptedProcess
    diagnostics: tuple[str, ...]

    @property
    def horizon(self) -> int:
        return len(self.Y.levels) - 1

    def y0(self) -> np.ndarray:
        return self.Y.levels[0][0]


def _terminal_level(F, d: int, m: int, T: int) -> np.ndarray:
    """Terminal F as a ((m+1)^T, d) level: a deterministic (d,) vector at every prefix, or a process's level T."""
    if isinstance(F, AdaptedProcess):
        return np.asarray(F.check_complete(m, [T]).levels[T], dtype=float)
    arr = np.array(F, dtype=float)
    if arr.shape != (d,):
        raise ValueError(f"deterministic terminal function must have shape ({d},), got {arr.shape}")
    return np.broadcast_to(arr, ((m + 1) ** T, d))


def _successor_split(A: np.ndarray, successors: np.ndarray, mean: np.ndarray, V: np.ndarray) -> None:
    """``decompose`` of z -> (A Y_{t+1})(prefix + z) at one node, written into ``mean`` (d,) and ``V`` (d, m).

    ``successors`` are the node's m+1 rows of Y_{t+1}: one product of A
    with them gives the successor values as the columns of a (d, m+1)
    array, and the split has ``decompose``'s arithmetic and bits.
    """
    s = A.dot(successors.T)
    np.divide(np.add.reduce(s, axis=1), len(successors), out=mean)
    np.subtract(s[:, 1:], mean[:, None], out=V)


def _backward_sweep(model: HmmModel, F, control: Callable[..., np.ndarray]):
    """The backward equation Y_t = W + c U_t, W = mean + (c V) 1, from F at T = model.T, one level at a time.

    V_t is pinned by the mean/tilde split of each node's successor values,
    the only choice keeping Y_t measurable with respect to the prefix for
    every successor token. The split is one ``_successor_split`` call per
    node, which the benchmark's node counts are pinned to: one product,
    sum, divide and subtract into that node's row of the level's means
    (n, d) and V_t (n, d, m), in place. W,
    the level's (n, m) controls ``control(t, W, V_t)`` and Y_t are stacked
    numpy operations on the whole level. Returns the Y, V and U processes.
    """
    c_mat, T = obs_matrix(model), model.T
    Y = [None] * T + [_terminal_level(F, model.d, model.m, T)]
    V, U = [None] * T, [None] * T
    for t in range(T - 1, -1, -1):
        W, V[t] = np.empty(((model.m + 1) ** t, model.d)), np.empty(((model.m + 1) ** t, model.d, model.m))
        for successors, mean, V_node in zip(Y[t + 1].reshape(len(W), model.m + 1, model.d), W, V[t]):
            _successor_split(model.A, successors, mean, V_node)
        W += (c_mat * V[t]).sum(axis=-1)  # W = mean + (c V) 1
        U[t] = control(t, W, V[t])
        Y[t] = W + U[t] @ c_mat.T
    return AdaptedProcess(model.m, tuple(Y)), AdaptedProcess(model.m, tuple(V)), AdaptedProcess(model.m, tuple(U))


def solve_bsde(model: HmmModel, U: AdaptedProcess, F) -> DualTrajectory:
    """Solve the backward equation over the model's horizon for a given control U and terminal F.

    The backward relation holds identically at every node, not just in
    expectation.
    """
    U.check_complete(model.m, range(model.T))
    Y, V, _ = _backward_sweep(model, F, lambda t, W, V: U.levels[t])
    return DualTrajectory(Y=Y, V=V, U=U, diagnostics=())


def bsde_residual_by_node(model: HmmModel, traj: DualTrajectory) -> AdaptedProcess:
    """Backward-relation residual at every node of levels 0..horizon-1, maxed over states and successor tokens.

    Each level is one batch over (node, token) of A Y_{t+1} + c U + (c V) 1 - V e(z), the terms added
    in that order; every matrix-vector product is its own, so each node has the bits it has alone.
    The products stay stacked ``@``, not per-node ``ndarray.dot``, since the batch is what shares those bits.
    """
    E = token_basis(model.m)
    c_mat = obs_matrix(model)
    levels = []
    for t in range(traj.horizon):
        Y, V, U = traj.Y.levels[t], traj.V.levels[t], traj.U.levels[t]
        Y_next = traj.Y.levels[t + 1].reshape(len(Y), model.m + 1, model.d)
        cU, cV = (c_mat @ U[..., None])[..., 0], (c_mat * V).sum(axis=-1)  # (node, state)
        AY, VE = (model.A @ Y_next[..., None])[..., 0], (V[:, None] @ E[:, :, None])[..., 0]  # (node, token, state)
        rhs = AY + cU[:, None] + cV[:, None] - VE
        levels.append(np.abs(Y[:, None] - rhs).max(axis=(1, 2)))
    return AdaptedProcess(model.m, tuple(levels))


def _running_cost_tables(model: HmmModel, traj: DualTrajectory) -> list[np.ndarray]:
    """Per step t, level t+1 of x -> l(Y_{t+1}, V_t, U_t; x): a ((m+1)^(t+1), d) array."""
    R = risk_tensor(model)
    tables = []
    for t in range(traj.horizon):
        V, U, Y_next = traj.V.levels[t], traj.U.levels[t], traj.Y.levels[t + 1]
        S = U[:, None] + V  # the risk term depends on the parent prefix only: repeated down its children
        quad = np.einsum("rxi,xij,rxj->rx", S, R, S)
        tables.append(gamma_op(model, Y_next) + np.repeat(quad, model.m + 1, axis=0))
    return tables


def _cost_of_trajectory(model: HmmModel, traj: DualTrajectory) -> float:
    """J_T = var(Y_0(X_0)) + sum_t <sigma_{t+1}, l_t>, sigma_{t+1} = P(Z_1..Z_{t+1} = prefix, X_t = x).

    sigma_{t+1} = P(Z_1..Z_t = prefix) pi_t C(., z), pi_0 = mu: one ``forward_step`` of pi_t C(., z)
    gives pi_{t+1} and the mass, P(child) = P(parent) mass.
    """
    y0 = traj.y0()
    J = float(model.mu @ (y0 * y0) - (model.mu @ y0) ** 2)
    emit = np.ascontiguousarray(model.C.T)  # filter_levels' layout, so pi_t has its bits
    pi, prob = model.mu, np.ones(1)
    for table in _running_cost_tables(model, traj):
        w = pi.reshape(-1, 1, model.d) * emit
        J += float(np.sum((prob.reshape(-1, 1, 1) * w).reshape(-1, model.d) * table))
        pi, mass = forward_step(model, w)
        prob = prob.reshape(-1, 1) * mass
    return J


def estimator_values(model: HmmModel, traj: DualTrajectory) -> np.ndarray:
    """mu(Y_0) - sum_s U_s^T e(z_{s+1}) on every path of the horizon, in prefix-rank order: its ``path_values``."""
    U = AdaptedProcess(model.m, traj.U.levels[: traj.horizon])
    return path_values(PredictorRepresentation(float(model.mu @ traj.y0()), U))


def estimator_path(model: HmmModel, traj: DualTrajectory, z, t: int) -> float:
    """mu(Y_0) - sum_{s<t} U_s(z_1..z_s)^T e(z_{s+1}) along one path of at least t tokens.

    A walk down the one path in O(t): each step subtracts u @ e(0) for z = 0
    and u_z otherwise, with u the U row at that prefix, which are
    ``path_values``' operations in its order, so the value has the bits of
    ``estimator_values`` cut at t. Only the first t tokens are read.
    """
    t = check_integer(t, "time t")
    if not 0 <= t <= traj.horizon:
        raise ValueError(f"time {t} outside 0..{traj.horizon}")
    w = validate_tokens(z[:t], model.m)
    if len(w) < t:
        raise ValueError(f"path of {len(w)} tokens is shorter than time {t}")
    e0 = token_basis(model.m)[0]
    value, rank = float(model.mu @ traj.y0()), 0
    for U, tok in zip(traj.U.levels, w):
        u = U[rank]
        value -= u.dot(e0) if tok == 0 else u[tok - 1]
        rank = rank * (model.m + 1) + tok
    return float(value)


def squared_error(model: HmmModel, traj: DualTrajectory, F) -> float:
    """E|F(X_T) - S_T|^2 for the estimator S_T induced by the trajectory, by ``exact_expectation``.

    The squares (F(x) - S_T)^2 are one table, a row of d values per
    observation path in prefix-rank order, with the bits of the per-term
    difference squared. The integrand reads its entry: it finds the row only
    when z_path is a new tuple, which relies on ``exact_expectation`` passing
    one tuple object to all joint terms of an observation path.
    """
    T = traj.horizon
    table = ((_terminal_level(F, model.d, model.m, T) - estimator_values(model, traj)[:, None]) ** 2).tolist()
    last_z, row = None, None

    def h(x_path, z_path):
        nonlocal last_z, row
        if z_path is not last_z:
            last_z, row = z_path, table[prefix_rank(z_path, model.m)]
        return row[x_path[-1]]

    return exact_expectation(model, h, T=T)


def duality_report(model: HmmModel, traj: DualTrajectory, F) -> dict:
    """Both sides of the duality identity: {'J_T': ..., 'mse': ..., 'gap': ...}.

    traj is the trajectory ``solve_bsde(model, U, F)`` returns for the control U.
    J_T is a forward contraction; mse enumerates every joint path, so a
    caller sizes the model first (the CLI's ``duality`` checks ``enum_budget``).
    """
    J = _cost_of_trajectory(model, traj)
    mse = squared_error(model, traj, F)
    return {"J_T": J, "mse": mse, "gap": abs(J - mse)}


def _level_laws(model: HmmModel, c_mat: np.ndarray, R: np.ndarray, rows: np.ndarray):
    """The feedback law at each measure of a level, rows (n, d), solved for the control: (K_lead, K_drag, singular).

    With Y = W + c u, the law u = phi(Y, V; rho) at a measure rho is the
    linear system Sigma_p u = -(lead @ W + drag @ V.ravel()), where lead
    (m, d) and drag (m, d m) are the matrices of y -> rho((c - rho(c)) y)
    and v -> rho(R v), and Sigma_p = rho(R) + lead @ c is the covariance of
    e(Z) under the predictive law p = rho C. So u = -(K_lead @ W + K_drag @
    V.ravel()) with [K_lead | K_drag] = Sigma_p^{-1} [lead | drag]. The
    terms are stacked over the level, lead and drag in K_lead (n, m, d) and
    K_drag (n, m, d m), each row with the bits of the term at that one
    measure. Sigma_p is singular exactly when some token has p(z) = 0,
    decided with PRED_PROB_TOL, or when LAPACK says so: that row is the
    minimum-norm solution (pseudo-inverse, cutoff PINV_RCOND), flagged in
    ``singular``. The other rows are solved SOLVE_BLOCK at a time, one
    stacked ``np.linalg.solve`` per block, which LAPACK solves matrix by
    matrix, with the bits of one solve per row. A block that LAPACK reports
    singular is solved again row by row, so exactly its singular rows are
    flagged. The stacked gains [lead | drag] are a block's, not a level's.
    """
    n, (d, m) = len(rows), c_mat.shape
    K_lead, K_drag = np.empty((n, m, d)), np.empty((n, m, d * m))
    # written in K's own memory order: a transposed output costs numpy a buffer the size of the level
    np.subtract(c_mat.T, (rows[:, None, :] @ c_mat).transpose(0, 2, 1), out=K_lead)
    K_lead *= rows[:, None, :]
    np.multiply(rows[:, None, :, None], R.transpose(1, 0, 2), out=K_drag.reshape(n, m, d, m))
    sigma = np.einsum("nx,xij->nij", rows, R) + K_lead @ c_mat
    singular = (rows[:, None, :] @ model.C).min(axis=(1, 2)) <= PRED_PROB_TOL

    def gains(r):
        return np.concatenate((K_lead[r], K_drag[r]), axis=-1)

    def store(r, K):
        K_lead[r], K_drag[r] = K[..., :d], K[..., d:]

    def solve_row(r):
        if not singular[r]:
            try:
                K = np.linalg.solve(sigma[r], gains(r))
            except np.linalg.LinAlgError:
                singular[r] = True
        if singular[r]:
            K = np.linalg.pinv(sigma[r], rcond=PINV_RCOND) @ gains(r)
        store(r, K)

    for r in np.flatnonzero(singular).tolist():
        solve_row(r)
    solvable = np.flatnonzero(~singular)
    for start in range(0, len(solvable), SOLVE_BLOCK):
        block = solvable[start : start + SOLVE_BLOCK]
        try:
            store(block, np.linalg.solve(sigma[block], gains(block)))
        except np.linalg.LinAlgError:
            for r in block.tolist():
                solve_row(r)
    return K_lead, K_drag, singular


def solve_optimal(
    model: HmmModel,
    rho: AdaptedProcess,
    F,
    *,
    laws: dict[int, tuple[np.ndarray, np.ndarray, tuple[Prefix, ...]]] | None = None,
) -> DualTrajectory:
    """Backward solve over the model's horizon T with the control eliminated by the feedback law.

    rho supplies the measure at prefixes of length 1..T-1, and deeper
    levels are not read; at the root the prior mu is used (the time-0
    history is trivial). A shorter horizon t is a solve on
    ``replace(model, T=t)``. The sweep is solve_bsde's, with U_t =
    phi(Y_t, V_t; rho_t) and Y_t = W + c U_t.
    Substituting is affine in U_t. Multiplied through by rho(R) it is the
    m x m system Sigma_p U_t = -(lead(W) + drag(V_t)) in the predictive
    covariance Sigma_p = rho(R) + lead(c) (see ``_level_laws``), which
    needs no pseudo-inverse of rho(R). Nodes where Sigma_p is singular (a
    next token of predictive probability 0) take the minimum-norm control
    and are named in the trajectory diagnostics.

    The solved law, a control operator (K_lead, K_drag), depends only on
    the measure at the node, so each level does U_t = -(K_lead W + K_drag
    vec(V_t)) as stacked products. ``laws`` is a memo keyed by level t,
    filled on first use by ``_level_laws`` on the level's measures, read
    into one (n, d) array with one ``rho.at`` per prefix, whose systems are
    solved in stacks of SOLVE_BLOCK: K_lead (n, m, d), K_drag (n, m, d m)
    and the singular prefixes in rank order. Pass one
    dict to several solves with the same rho and any F, on models that
    differ only in T (``replace(model, T=t)`` keeps the bits of mu, A and
    C, see ``HmmModel``), and each prefix's law is solved once. It changes no
    result, and every solve records its own diagnostics. A caller passing
    ``laws`` has checked rho complete on the levels the solve reads
    (apply_N_adapted checks once for all its solves); without it the
    solve checks, with a fresh memo.
    """
    if laws is None:
        rho.check_complete(model.m, range(1, model.T))
        laws = {}
    c_mat = obs_matrix(model)
    R = risk_tensor(model)
    diagnostics: list[str] = []

    def feedback(t, W, V):
        if t not in laws:
            rows = np.empty((len(W), model.d))
            for r, w in enumerate(prefixes(model.m, t)):
                rows[r] = rho.at(w) if t else model.mu
            K_lead, K_drag, singular = _level_laws(model, c_mat, R, rows)
            laws[t] = K_lead, K_drag, tuple(compress(prefixes(model.m, t), singular))
        K_lead, K_drag, singular = laws[t]
        diagnostics.extend(f"singular predictive covariance at t={t}, prefix={w}: minimum-norm control" for w in singular)
        return -((K_lead @ W[..., None]) + (K_drag @ V.reshape(len(V), -1, 1)))[..., 0]

    Y, V, U = _backward_sweep(model, F, feedback)
    return DualTrajectory(Y=Y, V=V, U=U, diagnostics=tuple(diagnostics))
