"""Fixed-point inference map whose fixed point is the exact filter trajectory.

Two versions are provided and deliberately kept separate: a per-path form
driven by the scalar observation signal 2 C(x, z_t) - 1, and an
adapted-process form driven by the dual-control feedback law. Both send a
candidate measure sequence rho to the sequence of estimator values obtained
by solving a backward equation per basis function; the exact filter is a
fixed point. Both normalize by the predictive covariance of the next
token: the adapted form solves its feedback law in Sigma_p = rho(R) +
lead(c), the covariance of the embedded next token e(Z) under p = rho C
(law of total covariance, since c(x) is the conditional mean of e(Z) given
X = x); for m = 1 this is 4 p_0 p_1, the per-path form's denominator. Both
call a step degenerate when a predictive probability is at or below
PRED_PROB_TOL. The two maps still differ off the fixed point, so neither is
a special case of the other; both have the filter as a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adapted import AdaptedProcess
from .dual import PRED_PROB_TOL, estimator_values, solve_optimal
from .hmm import HmmModel, check_integer, drop_rounding_negatives, is_probability_vector, validate_tokens
from .oracle import forward_filter, kl_divergence_bar, next_token_prob


def step_law(A: np.ndarray, nu: np.ndarray, col: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The step's law G = [[0, k^T], [0, M]], a (d+1, d+1) array: gain k stacked on M = A + c k^T.

    col = C(., z) is the observed token's emission column, rest the sum of
    C's other columns, and c = 2 col - 1 the scalar signal. The control
    -nu((A y)(c - nu(c))) / (1 - nu(c)^2) is linear in y, so it is u = k . y
    and the backward step y -> A y + c u is the one matrix M. G acts on a
    backward state (v, y) of length d+1 whose first entry carries the last
    step's control; the zero first column drops it, so G (v, y) =
    (k . y, M y) = (u, next y) is the next state, in one product. nu is read
    as a conditional measure, divided by its mass unless that is 0. In the
    predictive probabilities p = nu(col) and q = nu(rest), 1 - nu(c)^2 =
    4 p q (Sigma_p at m = 1) and nu (c - nu(c)) = 2 nu (col - p) =
    -2 nu (rest - q), so k = -A^T (nu (col - p)) / (2 p q), or, when q < p,
    the equal A^T (nu (rest - q)) / (2 p q), so it never subtracts a p or q
    near 1. Since A 1 = 1 and p + q = 1, k . 1 = 0 to a few eps whatever the
    mass of nu: the constant function rides through with zero control. The
    step is degenerate when min(|p|, |q|) <= PRED_PROB_TOL, the adapted map's
    rule on the simplex (see dual._level_laws; the absolute values keep
    signed measures off that branch, and the zero measure takes it); then
    k = 0 and M is A.
    """
    nu = nu / (float(nu.sum()) or 1.0)
    p, q = float(nu @ col), float(nu @ rest)
    G = np.zeros((len(nu) + 1, len(nu) + 1))
    G[1:, 1:] = A
    if min(abs(p), abs(q)) <= PRED_PROB_TOL:
        return G
    if p <= q:
        k = -(A.T @ (nu * (col - p))) / (2.0 * p * q)
    else:
        k = (A.T @ (nu * (rest - q))) / (2.0 * p * q)
    G[0, 1:] = k
    G[1:, 1:] += np.outer(2.0 * col - 1.0, k)
    return G


def scalar_feedback(G: np.ndarray, state: np.ndarray) -> tuple[float, np.ndarray]:
    """One closed-loop backward step under a ``step_law`` law G: (u, next state) from one product.

    state is (v, y) with any finite v, the carried control that G ignores;
    the next state G state = (u, M y) with u = k . y.
    """
    nxt = G.dot(state)
    return nxt.item(0), nxt


def path_laws(model: HmmModel, rho: np.ndarray, z) -> list[np.ndarray]:
    """``step_law``'s G_s (gain k_s and transition M_s) for every backward step s = 0..T-1 on a path z of T tokens.

    rho is the per-path measure sequence as a (T, d) array (row s-1 holds
    rho_s). The law at step s >= 1 is taken at rho_s and at step 0 at the
    prior mu, with the observed token z_{s+1}. z and the shape of rho are
    checked here, once for all the passes that share the laws, and each
    token's column and rest sum are built once.
    """
    z = validate_tokens(z, model.m)
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (len(z), model.d):
        raise ValueError(f"rho must have shape ({len(z)}, {model.d}), got {rho.shape}")
    C = model.C
    cols = [(C[:, tok], np.delete(C, tok, axis=1).sum(axis=1)) for tok in range(model.m + 1)]
    return [step_law(model.A, model.mu if s == 0 else rho[s - 1], *cols[tok]) for s, tok in enumerate(z)]


def bde_solve(laws: list, t: int, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward pass y_s = A y_{s+1} + c_{s+1} u_s for s = t-1..0, from terminal y_t = f.

    ``laws`` is ``path_laws``'s output for (rho, z): the control at step
    s >= 1 is the scalar feedback at rho_s and at step 0 it uses the prior
    mu. Each step is one ``scalar_feedback`` call, which runs it in
    closed-loop form: one ``ndarray.dot`` of the law G_s with the state
    (u_{s+1}, y_{s+1}) gives the state (u_s, y_s), u_s = k_s . y_{s+1} and
    y_s = M_s y_{s+1} (see ``step_law``); the pass starts from (0, f). This
    sums in another order than A y + c u, so values agree with the
    open-loop form to rounding, not bit for bit. Returns (y_0, controls
    u_0..u_{t-1}).
    """
    state = np.concatenate(([0.0], np.asarray(f, dtype=float)))
    controls = [0.0] * t
    for s in range(t - 1, -1, -1):
        controls[s], state = scalar_feedback(laws[s], state)
    return state[1:], np.array(controls)


def apply_N_path(model: HmmModel, rho: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """One application of the per-path map: rho -> rho_plus on a fixed path.

    For each time t and each basis function 1_{x=j}, the backward pass gives
    rho_plus_t(j) = mu(y_0) - sum_{s<t} u_s. Returns (rho_plus, in_domain)
    where in_domain[t-1] says whether rho_plus_t is a probability vector;
    leaving the domain is a flag, not an error. Mass is preserved to a few
    eps per step: each law reads rho_s divided by its mass, so k . 1 = 0 up
    to rounding, the constant function rides through each M_s with zero
    control (see ``step_law``), and a mass error in rho does not reach the
    image. The step laws depend only on (rho, z), so they are built once
    and shared by all T*d passes.

    The map is strictly causal: component t reads z_1..z_t and rho only at
    times before t (step s uses rho_s, and step 0 uses mu). So rho_T never
    matters, and if rho equals the filter at times < t, N(rho) equals it at
    times <= t up to rounding: T applications from any start give the filter.
    That rounding is not a few eps on every model: the map's sensitivity to
    rho_s is about 1/p_s, with p_s the predictive probability of the
    observed token, so layer k amplifies rounding by the product of 1/p_s
    along the path. On a sparse model with three steps at p = 2.4e-4 the
    error reached 4.1e-7.
    """
    laws = path_laws(model, rho, z)
    T = len(laws)
    indicators = np.eye(model.d)
    out = np.zeros((T, model.d))
    for t in range(1, T + 1):
        for j in range(model.d):
            y0, controls = bde_solve(laws, t, indicators[j])
            out[t - 1, j] = float(model.mu.dot(y0)) - float(controls.sum())
    return out, is_probability_vector(out)


def apply_N_adapted(model: HmmModel, rho: AdaptedProcess) -> tuple[AdaptedProcess, AdaptedProcess]:
    """One application of the adapted-process map over the whole prefix tree.

    For each time t, the dual backward equation is solved on the horizon-t
    model ``replace(model, T=t)`` once per terminal indicator 1_{x=j}, with
    the feedback law evaluated at rho (prior mu at the root); level t of the
    output, a ((m+1)^t, d) array, collects column j from the estimator
    values. rho is checked complete once, and the T*d solves, each a sweep
    one level at a time, share one memo of the feedback laws per level (see
    solve_optimal's ``laws``; the horizon-t models keep the bits of mu, A
    and C), so each prefix's predictive-covariance system is solved once.
    Returns the output process and its domain flags, a process of bools,
    both with levels 1..T.

    Like the per-path map it is strictly causal: level t of the output
    reads rho only at levels 1..t-1, so rho's level T never matters and T
    applications from any start give the filter.
    """
    rho.check_complete(model.m, range(1, model.T))
    indicators = np.eye(model.d)
    levels = [None]
    laws: dict = {}  # each level's feedback laws, solved once per prefix and shared by all T*d solves
    for t in range(1, model.T + 1):
        sub = replace(model, T=t)
        level = np.zeros(((model.m + 1) ** t, model.d))
        for j in range(model.d):
            level[:, j] = estimator_values(sub, solve_optimal(sub, rho, indicators[j], laws=laws))
        levels.append(level)
    flags = [None, *(is_probability_vector(level) for level in levels[1:])]
    return AdaptedProcess(model.m, tuple(levels)), AdaptedProcess(model.m, tuple(flags))


def fixed_point_residual(image: np.ndarray, rho: np.ndarray) -> float:
    """Max-norm distance between rho and its image under the map, given as matching (N, d) row stacks.

    The rows are the per-path map's times, or the adapted map's levels
    1..T stacked in order. Rows where rho is the zero measure (the
    zero-probability convention) are skipped in the comparison.
    """
    image, rho = np.asarray(image, dtype=float), np.asarray(rho, dtype=float)
    if image.shape != rho.shape or rho.ndim != 2:
        raise ValueError(f"image and rho must be matching (N, d) stacks, got shapes {image.shape} and {rho.shape}")
    return float(np.max(np.abs(image - rho)[rho.sum(axis=1) != 0.0], initial=0.0))


@dataclass(frozen=True)
class IterationTrace:
    """Iterates of the per-path map with residual and divergence diagnostics.

    iterates[0] is the supplied initialization; residuals[k] is the max-norm
    step from iterate k to k+1; kl_per_iter[k] compares iterate k+1's
    next-token predictions against the oracle's; in_domain[k, t-1] flags
    membership of component t before any projection; projected[k] records
    whether clipping back to the simplex was needed.
    """

    iterates: np.ndarray
    residuals: np.ndarray
    kl_per_iter: np.ndarray
    in_domain: np.ndarray
    projected: np.ndarray


def iterate(
    model: HmmModel,
    z,
    rho0: np.ndarray | None = None,
    *,
    K: int,
) -> IterationTrace:
    """Apply the per-path map K times, recording residuals and KL diagnostics.

    The map is strictly causal (see ``apply_N_path``), so from any start,
    K >= T applications give the filter up to rounding, which layer k
    amplifies by the product of 1/p_s along the path (p_s the predictive
    probability of the observed token). The default start is the uniform
    measure at every time. Rounding-level negative entries read as 0
    (``drop_rounding_negatives``); iterates that leave the simplex beyond
    that are clipped at zero and renormalized (and flagged) so the
    iteration is total. The map adds no mass, so this projection is for
    sparse models, whose near-degenerate steps amplify rounding, and starts
    far from the filter. Under ``model.zero_convention``, times with an
    impossible observation prefix contribute a zero reference column and
    drop out of the KL diagnostic.
    """
    z = validate_tokens(z, model.m)
    T = len(z)
    K = check_integer(K, "K")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if rho0 is None:
        rho0 = np.full((T, model.d), 1.0 / model.d)
    rho0 = np.asarray(rho0, dtype=float)

    pis_ref = forward_filter(model, z)
    possible = pis_ref.sum(axis=1) > 0.0
    p_ref = np.zeros((model.m + 1, T))
    p_ref[:, possible] = next_token_prob(model, pis_ref[possible]).T

    iterates = np.zeros((K + 1, T, model.d))
    iterates[0] = rho0
    residuals = np.zeros(K)
    kls = np.zeros(K)
    in_domain = np.zeros((K, T), dtype=bool)
    projected = np.zeros(K, dtype=bool)
    cur = rho0
    for k in range(K):
        out, flags = apply_N_path(model, cur, z)
        residuals[k] = float(np.max(np.abs(out - cur)))
        in_domain[k] = flags
        out = drop_rounding_negatives(out)
        if not flags.all():
            out = np.clip(out, 0.0, None)
            sums = out.sum(axis=1, keepdims=True)
            sums[sums == 0.0] = 1.0
            out = out / sums
            projected[k] = True
        kls[k] = kl_divergence_bar(p_ref, next_token_prob(model, out).T)
        iterates[k + 1] = out
        cur = out
    return IterationTrace(
        iterates=iterates,
        residuals=residuals,
        kl_per_iter=kls,
        in_domain=in_domain,
        projected=projected,
    )

