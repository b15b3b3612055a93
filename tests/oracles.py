"""Independent references that the tests check the library against.

None of the commands needs these: brute-force enumerations over hidden
paths, a least-squares construction of the predictor weights, the feedback
law transcribed from its formula, and the two costs of the dual problem
(the control cost of a given control and the minimum mean-squared error).
"""

from itertools import product

import numpy as np

from dualfilter import dual
from dualfilter.adapted import AdaptedProcess, prefixes
from dualfilter.hmm import gamma_op, obs_matrix, risk_tensor, token_basis, validate_tokens
from dualfilter.oracle import DEFAULT_ENUM_BUDGET, ImpossibleObservationError, exact_expectation, forward_filter
from dualfilter.predictor import PredictorRepresentation


def path_probability_enumerated(model, z) -> float:
    """Brute-force P(Z = z): plain sum over all d^T hidden paths, no DP."""
    z = validate_tokens(z, model.m)
    T = len(z)
    total = 0.0
    for x_path in product(range(model.d), repeat=T):
        p = model.mu[x_path[0]]
        for t in range(T):
            p *= model.C[x_path[t], z[t]]
            if t + 1 < T:
                p *= model.A[x_path[t], x_path[t + 1]]
        total += p
    return float(total)


def filter_by_enumeration(model, z) -> np.ndarray:
    """Filter by brute-force conditioning on the joint path space.

    Independent of forward_filter: enumerates every hidden path consistent
    with each prefix and normalizes. (T, d) output matching forward_filter.
    """
    z = validate_tokens(z, model.m)
    T = len(z)
    pis = np.zeros((T, model.d))
    for t in range(1, T + 1):
        # joint weights of (x_0..x_t, z_1..z_t); marginalize onto x_t
        marg = np.zeros(model.d)
        for x_path in product(range(model.d), repeat=t + 1):
            p = model.mu[x_path[0]]
            for s in range(t):
                p *= model.C[x_path[s], z[s]] * model.A[x_path[s], x_path[s + 1]]
            marg[x_path[-1]] += p
        mass = marg.sum()
        if mass <= 0.0:
            raise ImpossibleObservationError(t, z[:t])
        pis[t - 1] = marg / mass
    return pis


def build_weights_lstsq(target, m: int, T: int) -> PredictorRepresentation:
    """Predictor weights by a per-prefix least-squares fit of mean + tilde^T e(z).

    Same induction shape as build_weights, but each split solves the
    (m+1) x (m+1) linear system against the token basis instead of using
    the closed-form decomposition; used to cross-check uniqueness.
    """
    level = {w: float(target[w]) for w in prefixes(m, T)}
    design = np.hstack([np.ones((m + 1, 1)), token_basis(m)])
    tree = {}
    for t in range(T, 0, -1):
        next_level = {}
        for w in prefixes(m, t - 1):
            s = np.array([level[w + (z,)] for z in range(m + 1)])
            coef, *_ = np.linalg.lstsq(design, s, rcond=None)
            tree[w] = -coef[1:]
            next_level[w] = float(coef[0])
        level = next_level
    return PredictorRepresentation(constant=level[()], weights=AdaptedProcess(tree), m=m, T=T)


def optimal_feedback(model, y, v, rho) -> np.ndarray:
    """phi(y, v; rho) = -rho(R)^+ (rho((c - rho(c)) y) + rho(R v)), transcribed from the formula.

    y is a function (d,), v a (d, m) array with row x the R^m value v(x),
    and rho a measure (d,). The pseudo-inverse keeps the law total where
    rho(R) is singular.
    """
    y, v, rho = (np.asarray(a, dtype=float) for a in (y, v, rho))
    c = obs_matrix(model)
    R = risk_tensor(model)
    lead = rho @ ((c - rho @ c) * y[:, None])
    drag = np.einsum("x,xij,xj->i", rho, R, v)
    return -np.linalg.pinv(np.einsum("x,xij->ij", rho, R), rcond=dual.PINV_RCOND) @ (lead + drag)


def running_cost(model, y, v, u, x: int) -> float:
    """l(y, v, u; x): transition variance of y plus the (u + v(x)) quadratic risk."""
    s = np.asarray(u, dtype=float) + np.asarray(v, dtype=float)[x]
    return float(gamma_op(model, y)[x] + s @ risk_tensor(model)[x] @ s)


def total_cost(model, U, F) -> float:
    """J(U; F) = var(Y_0(X_0)) + E[sum_t l(Y_{t+1}, V_t, U_t; X_t)]: the J_T side of duality_report."""
    return dual._cost_of_trajectory(model, dual.solve_bsde(model, U, F), DEFAULT_ENUM_BUDGET)


def mmse(model, F) -> float:
    """E|F(X_T) - pi_T(F)|^2: the best achievable squared error, from the oracle filter."""
    term = dual._terminal_lookup(F, model.d, model.m, model.T)
    estimates = {}

    def h(x_path, z_path):
        if z_path not in estimates:
            row = term(z_path)
            estimates[z_path] = (row.tolist(), float(forward_filter(model, z_path)[-1] @ row))
        row, s = estimates[z_path]
        diff = row[x_path[-1]] - s
        return diff * diff

    return exact_expectation(model, h)
