"""Independent references that the tests check the library against.

None of the commands needs these: brute-force enumerations over hidden
paths, a least-squares construction of the predictor weights, the per-path
scalar signal and the feedback law transcribed from their formulas, the
backward equation swept and its residual taken node by node, the two
costs of the dual problem (the control cost of a given control and the
minimum mean-squared error), an estimator's squared error term by term,
and, in exact rational arithmetic, the forward recursion, the per-path
map, the minimum mean-squared error, the predictor weights and both sides
of the duality identity for a given control.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from dualfilter import dual
from dualfilter.adapted import AdaptedProcess, prefix_rank, prefixes
from dualfilter.hmm import decompose, gamma_op, obs_matrix, risk_tensor, token_basis, validate_tokens
from dualfilter.oracle import ImpossibleObservationError, exact_expectation, forward_filter
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


def forward_exact(model, z):
    """(pi_1..pi_T, P(Z = z)) in ``Fraction`` arithmetic on the exact rationals of the model's floats.

    Each step weights pi_{t-1} by C(., z_t), divides by the mass and pushes
    through A; a zero mass gives the zero measure (0/0 := 0). The
    probability is the product of the masses, so it is 0 exactly on an
    impossible path. Rows are lists of d Fractions.
    """
    z = validate_tokens(z, model.m)
    A, C = ([[Fraction(v) for v in row] for row in arr.tolist()] for arr in (model.A, model.C))
    pi, prob, rows = [Fraction(v) for v in model.mu.tolist()], Fraction(1), []
    for tok in z:
        w = [p * c[tok] for p, c in zip(pi, C)]
        mass = sum(w)
        prob *= mass
        pi = [sum(wx * a[y] for wx, a in zip(w, A)) / mass if mass else Fraction(0) for y in range(model.d)]
        rows.append(pi)
    return rows, prob


def apply_N_path_exact(model, rho, z):
    """The per-path map rho -> rho_plus in ``Fraction`` arithmetic on the exact rationals of the floats.

    Each backward pass runs the paper's open-loop step y -> A y + c u, with
    c = 2 C(., z) - 1 and u = -nu((A y)(c - nu(c))) / (1 - nu(c)^2), from
    y_t = 1_{x=j} down to y_0; nu is mu at step 0 and rho_s at step s. The
    step is degenerate, u = 0, when min(|p|, |q|) <= PRED_PROB_TOL for the
    predictive probabilities p = nu(C(., z)) and q = nu(sum of C's other
    columns). rho_plus_t(j) = mu(y_0) - sum_s u_s. Rows are lists of d
    Fractions, row t-1 for time t.
    """
    z = validate_tokens(z, model.m)
    A, C, rho = ([[Fraction(v) for v in row] for row in np.asarray(arr, dtype=float).tolist()]
                 for arr in (model.A, model.C, rho))
    mu, tol, d = [Fraction(v) for v in model.mu.tolist()], Fraction(dual.PRED_PROB_TOL), model.d
    steps = []
    for s, tok in enumerate(z):
        nu = mu if s == 0 else rho[s - 1]
        p = sum(n * row[tok] for n, row in zip(nu, C))
        q = sum(n * sum(v for k, v in enumerate(row) if k != tok) for n, row in zip(nu, C))
        c = [2 * row[tok] - 1 for row in C]
        steps.append((nu, c, sum(n * cx for n, cx in zip(nu, c)), min(abs(p), abs(q)) <= tol))
    rows = []
    for t in range(1, len(z) + 1):
        row = []
        for j in range(d):
            y, spent = [Fraction(int(x == j)) for x in range(d)], Fraction(0)
            for nu, c, nc, degenerate in reversed(steps[:t]):
                Ay = [sum(a * v for a, v in zip(A[x], y)) for x in range(d)]
                u = 0 if degenerate else -sum(n * ay * (cx - nc) for n, ay, cx in zip(nu, Ay, c)) / (1 - nc * nc)
                y, spent = [ay + cx * u for ay, cx in zip(Ay, c)], spent + u
            row.append(sum(m0 * v for m0, v in zip(mu, y)) - spent)
        rows.append(row)
    return rows


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
    weights = [None] * T
    for t in range(T, 0, -1):
        next_level, rows = {}, []
        for w in prefixes(m, t - 1):
            s = np.array([level[w + (z,)] for z in range(m + 1)])
            coef, *_ = np.linalg.lstsq(design, s, rcond=None)
            rows.append(-coef[1:])
            next_level[w] = float(coef[0])
        weights[t - 1] = np.array(rows)
        level = next_level
    return PredictorRepresentation(constant=level[()], weights=AdaptedProcess(m, tuple(weights)))


def scalar_obs(model, z: int) -> np.ndarray:
    """The per-state scalar observation x -> 2 C(x, z) - 1."""
    z = int(z)
    if not 0 <= z <= model.m:
        raise ValueError(f"token {z} outside alphabet 0..{model.m}")
    return 2.0 * model.C[:, z] - 1.0


def backward_sweep_by_node(model, F, T: int, control):
    """The backward equation Y_t = W + c U_t, W = mean + (c V) 1, swept one node at a time.

    At each node the successor values A Y_{t+1}(prefix + z) are one
    matrix-vector product per token, stacked and split by ``decompose``;
    ``control(t, row, prefix, W, V_t)`` supplies the node's U_t. Returns
    the Y, V and U processes, V as (d, m) rows.
    """
    d, m = model.d, model.m
    c_mat = obs_matrix(model)
    Y = [None] * T + [dual._terminal_level(F, d, m, T)]
    V, U = [None] * T, [None] * T
    for t in range(T - 1, -1, -1):
        n = (m + 1) ** t
        Y[t], V[t], U[t] = np.empty((n, d)), np.empty((n, d, m)), np.empty((n, m))
        for r, w in enumerate(prefixes(m, t)):
            successors = Y[t + 1][r * (m + 1) : (r + 1) * (m + 1)]
            mean, v = decompose(np.array([model.A.dot(y) for y in successors]).T)
            W = mean + (c_mat * v).sum(axis=1)
            u = control(t, r, w, W, v)
            V[t][r], U[t][r] = v, u
            Y[t][r] = W + c_mat.dot(u)
    return AdaptedProcess(m, tuple(Y)), AdaptedProcess(m, tuple(V)), AdaptedProcess(m, tuple(U))


def bsde_residual_levels(model, traj) -> list[np.ndarray]:
    """Per level 0..horizon-1, each node's backward-relation residual maxed over states and successor tokens.

    Node by node and token by token: |Y_t - (A Y_{t+1} + c U_t + (c V_t) 1 - V_t e(z))|, with
    Y_{t+1} the successor of the node along z.
    """
    E = token_basis(model.m)
    c_mat = obs_matrix(model)
    levels = []
    for t in range(traj.horizon):
        Y, V, U = traj.Y.levels[t], traj.V.levels[t], traj.U.levels[t]
        Y_next = traj.Y.levels[t + 1].reshape(len(Y), model.m + 1, model.d)
        worst = np.zeros(len(Y))
        for r in range(len(Y)):
            for z in range(model.m + 1):
                rhs = model.A @ Y_next[r, z] + c_mat @ U[r] + (c_mat * V[r]).sum(axis=1) - V[r] @ E[z]
                worst[r] = max(worst[r], float(np.max(np.abs(Y[r] - rhs))))
        levels.append(worst)
    return levels


def bsde_residual(model, traj) -> float:
    """Max over (node, state, successor token) of the backward-relation residual."""
    return max((float(level.max()) for level in bsde_residual_levels(model, traj)), default=0.0)


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


def running_cost(model, y, v, u) -> np.ndarray:
    """x -> l(y, v, u; x) as a (d,) array: transition variance of y plus the (u + v(x)) quadratic risk."""
    R = risk_tensor(model)
    s = np.asarray(u, dtype=float) + np.asarray(v, dtype=float)
    return gamma_op(model, y) + np.array([s[x] @ R[x] @ s[x] for x in range(model.d)])


def total_cost(model, U, F) -> float:
    """J(U; F) = var(Y_0(X_0)) + E[sum_t l(Y_{t+1}, V_t, U_t; X_t)] by enumerating every joint path.

    The J_T side of duality_report, computed independently of its forward
    contraction: each node's running cost comes from ``running_cost`` and the
    expectation from ``exact_expectation``.
    """
    traj = dual.solve_bsde(model, U, F)
    T = traj.horizon
    costs, rows = {}, {}

    def node_cost(t, prefix):
        # l_t at the node z_1..z_{t+1}, for every state x_t
        if prefix not in costs:
            y, v, u = traj.Y.at(prefix), traj.V.at(prefix[:t]), traj.U.at(prefix[:t])
            costs[prefix] = running_cost(model, y, v, u).tolist()
        return costs[prefix]

    def h(x_path, z_path):
        if z_path not in rows:
            rows[z_path] = [node_cost(t, z_path[: t + 1]) for t in range(T)]
        acc = 0.0
        for row, x in zip(rows[z_path], x_path):
            acc += row[x]
        return acc

    y0 = traj.y0()
    return float(model.mu @ (y0 * y0) - (model.mu @ y0) ** 2) + exact_expectation(model, h, T=T)


def squared_error_by_term(model, traj, F) -> float:
    """E|F(X_T) - S_T|^2 as ``exact_expectation`` of the plain integrand: each joint term takes and squares its difference."""
    T = traj.horizon
    rows = dual._terminal_level(F, model.d, model.m, T).tolist()
    est = dual.estimator_values(model, traj).tolist()

    def h(x_path, z_path):
        r = prefix_rank(z_path, model.m)
        diff = rows[r][x_path[-1]] - est[r]
        return diff * diff

    return exact_expectation(model, h, T=T)


def mmse(model, F) -> float:
    """E|F(X_T) - pi_T(F)|^2: the best achievable squared error, from the oracle filter."""
    term = AdaptedProcess(model.m, (None,) * model.T + (dual._terminal_level(F, model.d, model.m, model.T),))
    estimates = {}

    def h(x_path, z_path):
        if z_path not in estimates:
            row = term.at(z_path)
            estimates[z_path] = (row.tolist(), float(forward_filter(model, z_path)[-1] @ row))
        row, s = estimates[z_path]
        diff = row[x_path[-1]] - s
        return diff * diff

    return exact_expectation(model, h)


def mmse_exact(model, F) -> Fraction:
    """E|F(X_T) - pi_T(F)|^2 in ``Fraction`` arithmetic: the sum over every observation path z of P(z) Var_{pi_T}(F).

    P(z) and pi_T come from ``forward_exact`` on the exact rationals of the
    model's floats, and F's values are the exact rationals of its floats; an
    impossible path adds 0. F is a (d,) vector or an adapted process whose
    level T holds F at each path.
    """
    rows = [[Fraction(v) for v in row] for row in dual._terminal_level(F, model.d, model.m, model.T).tolist()]
    total = Fraction(0)
    for z, row in zip(prefixes(model.m, model.T), rows):
        pis, prob = forward_exact(model, z)
        mean = sum(p * f for p, f in zip(pis[-1], row))
        total += prob * sum(p * (f - mean) ** 2 for p, f in zip(pis[-1], row))
    return total


def build_weights_exact(target, m: int, T: int):
    """build_weights in ``Fraction`` arithmetic on the exact rationals of the float target: (constant, levels).

    Level t-1 of levels lists one row of m Fractions per prefix of length
    t-1 in rank order, the weight -tilde of the split of its m+1 children's
    values into mean + tilde . e(z).
    """
    level = [Fraction(v) for v in np.asarray(target, dtype=float).tolist()]
    levels = [None] * T
    for t in range(T, 0, -1):
        rows = [level[r : r + m + 1] for r in range(0, len(level), m + 1)]
        level = [sum(row) / (m + 1) for row in rows]
        levels[t - 1] = [[mean - s for s in row[1:]] for row, mean in zip(rows, level)]
    return level[0], levels


def path_values_exact(constant, levels, m: int):
    """constant - sum_t U_t(z_1..z_t) . e(z_{t+1}) on every path, in ``prefixes(m, T)`` order, as Fractions.

    e(0) = -(e(1) + ... + e(m)), so the z = 0 term is minus the row's sum.
    """
    level = [Fraction(constant)]
    for U in levels:
        level = [v - (-sum(u) if z == 0 else u[z - 1]) for v, u in zip(level, U) for z in range(m + 1)]
    return level


def duality_exact(model, U, F):
    """(J_T, mse) of the control U in ``Fraction`` arithmetic on the exact rationals of the floats.

    The backward equation is swept node by node: the successor values
    (A Y_{t+1})(prefix + z) split into mean + V e(z), W = mean + (c V) 1
    and Y_t = W + c U_t. Both sides then sum over every joint path
    (x_0..x_T, z_1..z_T) of weight mu(x_0) prod_t C(x_t, z_{t+1}) A(x_t, x_{t+1}):
    J_T = Var_mu(Y_0) + E sum_t [Var(Y_{t+1}(X_{t+1}) | X_t) + Var(e(Z_{t+1}) . (U_t + V_t(X_t)) | X_t)],
    each conditional variance taken from its law (a row of A, a row of C), and
    mse = E (F(X_T) - S_T)^2 with S_T = mu(Y_0) - sum_t U_t . e(z_{t+1}).
    Both are Fractions; the identity says they are equal.
    """
    d, m, T = model.d, model.m, model.T
    mu, A, C = ([Fraction(v) for v in np.ravel(arr).tolist()] for arr in (model.mu, model.A, model.C))
    A, C = [A[x * d : (x + 1) * d] for x in range(d)], [C[x * (m + 1) : (x + 1) * (m + 1)] for x in range(d)]
    c = [[C[x][i] - C[x][0] for i in range(1, m + 1)] for x in range(d)]
    Uf = [[[Fraction(v) for v in row] for row in U.levels[t].tolist()] for t in range(T)]
    Y = [None] * T + [[[Fraction(v) for v in row] for row in dual._terminal_level(F, d, m, T).tolist()]]
    V = [None] * T
    for t in range(T - 1, -1, -1):
        Y[t], V[t] = [], []
        for r, u in enumerate(Uf[t]):
            AY = [[sum(a * y for a, y in zip(A[x], Y[t + 1][r * (m + 1) + z])) for x in range(d)] for z in range(m + 1)]
            mean = [sum(AY[z][x] for z in range(m + 1)) / (m + 1) for x in range(d)]
            v = [[AY[i][x] - mean[x] for i in range(1, m + 1)] for x in range(d)]
            w = [mean[x] + sum(ci * vi for ci, vi in zip(c[x], v[x])) for x in range(d)]
            Y[t].append([w[x] + sum(ci * ui for ci, ui in zip(c[x], u)) for x in range(d)])
            V[t].append(v)

    def var(law, values):
        first = sum(p * f for p, f in zip(law, values))
        return sum(p * f * f for p, f in zip(law, values)) - first * first

    def e_dot(s, z):
        return -sum(s) if z == 0 else s[z - 1]

    def node_costs(t, r, z):
        # the running cost at the node z_1..z_{t+1}, child z of row r of level t, as a list over x_t
        child = Y[t + 1][r * (m + 1) + z]
        risk = [[e_dot([ui + vi for ui, vi in zip(Uf[t][r], V[t][r][x])], k) for k in range(m + 1)] for x in range(d)]
        return [var(A[x], child) + var(C[x], risk[x]) for x in range(d)]

    # costs[t][rank of z_1..z_{t+1}], steps[z][x][y] = C(x, z) A(x, y)
    costs = [[node_costs(t, r, z) for r in range((m + 1) ** t) for z in range(m + 1)] for t in range(T)]
    steps = [[[C[x][z] * a for a in A[x]] for x in range(d)] for z in range(m + 1)]
    y0 = Y[0][0]
    J, mse = var(mu, y0), Fraction(0)
    for z_path in product(range(m + 1), repeat=T):
        ranks = [prefix_rank(z_path[:t], m) for t in range(T + 1)]
        path_costs = [costs[t][ranks[t + 1]] for t in range(T)]
        estimate = sum(p * y for p, y in zip(mu, y0)) - sum(e_dot(Uf[t][ranks[t]], z) for t, z in enumerate(z_path))
        squares = [(f - estimate) ** 2 for f in Y[T][ranks[T]]]
        for x_path in product(range(d), repeat=T + 1):
            weight = mu[x_path[0]]
            for t, z in enumerate(z_path):
                weight *= steps[z][x_path[t]][x_path[t + 1]]
            J += weight * sum(cost[x] for cost, x in zip(path_costs, x_path))
            mse += weight * squares[x_path[-1]]
    return J, mse
