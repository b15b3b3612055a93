"""Fixed-point inference map whose fixed point is the exact filter trajectory.

Two versions are provided and deliberately kept separate: a per-path form
driven by the scalar observation signal 2 C(x, z_t) - 1, and an
adapted-process form driven by the dual-control feedback law. Both send a
candidate measure sequence rho to the sequence of estimator values obtained
by solving a backward equation per basis function; the exact filter is a
fixed point. Both normalize by a predictive covariance: the adapted form
solves its feedback law in Sigma_p = rho(R) + lead(c), the covariance of the
embedded next token e(Z) under p = rho C (law of total covariance, since
c(x) is the conditional mean of e(Z) given X = x), and for m = 1 this is
1 - rho(c)^2, the per-path form's denominator. The two maps still differ off
the fixed point, so neither is a special case of the other; both have the
filter as a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapted import AdaptedProcess, Prefix, prefixes
from .dual import estimator_values, solve_optimal
from .hmm import HmmModel, drop_rounding_negatives, is_probability_vector, scalar_obs, validate_tokens
from .oracle import forward_filter, next_token_prob

# |1 - nu(c)^2| at or below this is treated as the degenerate branch (control 0).
DEGENERATE_TOL = 1e-12


def step_law(nu: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The part of the scalar feedback law fixed by the step: (nu, c - nu(c), 1 - nu(c)^2).

    Returns None (the degenerate branch, control 0) when |1 - nu(c)^2| is at
    or below ``DEGENERATE_TOL``.
    """
    nu = np.asarray(nu, dtype=float)
    c = np.asarray(c, dtype=float)
    nc = float(nu @ c)
    denom = 1.0 - nc * nc
    if abs(denom) <= DEGENERATE_TOL:
        return None
    return nu, c - nc, denom


def scalar_feedback(law: tuple[np.ndarray, np.ndarray, float] | None, Af: np.ndarray) -> float:
    """Scalar control -nu((Af)(c - nu(c))) / (1 - nu(c)^2) under a ``step_law``; 0 when degenerate."""
    if law is None:
        return 0.0
    nu, centered, denom = law
    return float(-(nu @ (Af * centered)) / denom)


def path_laws(model: HmmModel, rho: np.ndarray, z, t: int) -> list:
    """(c_{s+1}, step law) for the backward steps s = 0..t-1 on the validated path z.

    The law at step s >= 1 is taken at rho_s (row s-1 of rho) and at step 0
    at the prior mu; c_{s+1} = 2 C(., z_{s+1}) - 1 is the observation signal.
    """
    obs = [scalar_obs(model, tok) for tok in range(model.m + 1)]
    return [(obs[z[s]], step_law(model.mu if s == 0 else rho[s - 1], obs[z[s]])) for s in range(t)]


def bde_solve(model: HmmModel, rho: np.ndarray, z, t: int, f: np.ndarray, *, laws: list | None = None):
    """Backward pass y_s = A y_{s+1} + c_{s+1} u_s from terminal y_t = f.

    rho is the per-path measure sequence as a (T, d) array (row s-1 holds
    rho_s); the control at step s >= 1 is the scalar feedback at rho_s and
    at step 0 it uses the prior mu. Returns (y_0, controls u_0..u_{t-1}).

    ``laws`` is the output of ``path_laws`` for (rho, z) over at least t
    steps. A caller making many passes on one path builds it once and
    passes it to each; rho and z are then not read again. Without it the
    pass validates z and t and builds its own.
    """
    if laws is None:
        z = validate_tokens(z, model.m)
        if not 1 <= t <= len(z):
            raise ValueError(f"time {t} outside 1..{len(z)}")
        laws = path_laws(model, np.asarray(rho, dtype=float), z, t)
    y = np.asarray(f, dtype=float)
    controls = np.zeros(t)
    for s in range(t - 1, -1, -1):
        c, law = laws[s]
        Ay = model.A @ y
        u = scalar_feedback(law, Ay)
        y = Ay + c * u
        controls[s] = u
    return y, controls


def apply_N_path(model: HmmModel, rho: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """One application of the per-path map: rho -> rho_plus on a fixed path.

    For each time t and each basis function 1_{x=j}, the backward pass gives
    rho_plus_t(j) = mu(y_0) - sum_{s<t} u_s. Returns (rho_plus, in_domain)
    where in_domain[t-1] says whether rho_plus_t is a probability vector;
    leaving the domain is a flag, not an error. Mass is preserved
    structurally (the constant function rides through A with zero control),
    and component t only reads z_1..z_t, so the map is causal. The step
    laws depend only on (rho, z), so they are built once and shared by all
    T*d passes.
    """
    z = validate_tokens(z, model.m)
    T = len(z)
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (T, model.d):
        raise ValueError(f"rho must have shape ({T}, {model.d}), got {rho.shape}")
    laws = path_laws(model, rho, z, T)
    out = np.zeros_like(rho)
    for t in range(1, T + 1):
        for j in range(model.d):
            f = np.zeros(model.d)
            f[j] = 1.0
            y0, controls = bde_solve(model, rho, z, t, f, laws=laws)
            out[t - 1, j] = float(model.mu @ y0) - float(controls.sum())
    in_domain = np.array([is_probability_vector(out[i]) for i in range(T)])
    return out, in_domain


def apply_N_adapted(model: HmmModel, rho: AdaptedProcess) -> tuple[AdaptedProcess, dict[Prefix, bool]]:
    """One application of the adapted-process map over the whole prefix tree.

    For each time t, the dual backward equation is solved on the horizon-t
    subproblem once per terminal indicator 1_{x=j}, with the feedback law
    evaluated at rho (prior mu at the root); the time-t output at each
    length-t prefix collects the estimator values. rho is checked complete
    once, and the T*d solves share one memo of the feedback law per prefix
    (see solve_optimal's ``laws``), so each prefix's predictive-covariance
    system is solved once. Returns the output process and a per-prefix
    domain flag.
    """
    rho.check_complete(model.m, range(1, model.T))
    indicators = np.eye(model.d)
    tree: dict[Prefix, np.ndarray] = {}
    laws: dict = {}  # one feedback law per prefix, shared by all T*d solves
    for t in range(1, model.T + 1):
        vals = {w: np.zeros(model.d) for w in prefixes(model.m, t)}
        for j in range(model.d):
            est = estimator_values(model, solve_optimal(model, rho, indicators[j], horizon=t, laws=laws))
            for w in prefixes(model.m, t):
                vals[w][j] = est[w]
        tree.update(vals)
    flags = {w: is_probability_vector(v) for w, v in tree.items()}
    return AdaptedProcess(tree), flags


def fixed_point_residual(model: HmmModel, rho, z=None, mode: str = "path") -> float:
    """Max-norm distance between rho and its image under the map.

    In path mode rho is a (T, d) array for the path z; in adapted mode rho
    is the full prefix-tree process and z is ignored. Entries carrying a
    zero measure (the zero-probability convention) are skipped in the
    comparison.
    """
    if mode == "path":
        rho = np.asarray(rho, dtype=float)
        out, _ = apply_N_path(model, rho, z)
        keep = rho.sum(axis=1) != 0.0
        if not keep.any():
            return 0.0
        return float(np.max(np.abs(out[keep] - rho[keep])))
    if mode == "adapted":
        out, _ = apply_N_adapted(model, rho)
        worst = 0.0
        for w, v in out.tree.items():
            ref = np.asarray(rho.at(w), dtype=float)
            if ref.sum() == 0.0:
                continue
            worst = max(worst, float(np.max(np.abs(v - ref))))
        return worst
    raise ValueError(f"mode must be 'path' or 'adapted', got {mode!r}")


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
    K: int = 10,
    zero_convention: bool = False,
) -> IterationTrace:
    """Apply the per-path map K times, recording residuals and KL diagnostics.

    No convergence is asserted anywhere: this is an exploratory driver. The
    default start is the uniform measure at every time. Rounding-level
    negative entries read as 0 (``drop_rounding_negatives``); iterates that
    leave the simplex beyond that are clipped at zero and renormalized (and
    flagged) so the iteration is total. Under the zero convention, times
    with an impossible observation prefix contribute a zero reference
    column and drop out of the KL diagnostic.
    """
    z = validate_tokens(z, model.m)
    T = len(z)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if rho0 is None:
        rho0 = np.full((T, model.d), 1.0 / model.d)
    rho0 = np.asarray(rho0, dtype=float)

    pis_ref = forward_filter(model, z, zero_convention=zero_convention)
    p_ref = np.zeros((model.m + 1, T))
    for t in range(T):
        if pis_ref[t].sum() > 0.0:
            p_ref[:, t] = next_token_prob(model, pis_ref[t])

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
        p_iter = np.zeros_like(p_ref)
        for t in range(T):
            p_iter[:, t] = next_token_prob(model, out[t])
        kls[k] = kl_divergence_bar(p_ref, p_iter)
        iterates[k + 1] = out
        cur = out
    return IterationTrace(
        iterates=iterates,
        residuals=residuals,
        kl_per_iter=kls,
        in_domain=in_domain,
        projected=projected,
    )


def kl_divergence_bar(p_final: np.ndarray, p_layer: np.ndarray) -> float:
    """Time-averaged KL divergence (1/T) sum_t KL(p_final_t || p_layer_t).

    Both arrays are (m+1, T) with each column a probability vector. Where
    the reference puts mass on a token the comparison assigns none, the
    divergence is reported as +inf rather than raising.
    """
    p_final = np.asarray(p_final, dtype=float)
    p_layer = np.asarray(p_layer, dtype=float)
    if p_final.shape != p_layer.shape or p_final.ndim != 2:
        raise ValueError(f"shapes must match and be 2-d, got {p_final.shape} and {p_layer.shape}")
    support = p_final > 0.0
    if np.any(support & (p_layer <= 0.0)):
        return float("inf")
    # only supported entries are divided and weighted, so log(0) and 0/0 never occur
    ratio = np.divide(p_final, p_layer, out=np.ones_like(p_final), where=support)
    terms = np.multiply(p_final, np.log(ratio), out=np.zeros_like(p_final), where=support)
    total = 0.0
    for col in terms.sum(axis=0).tolist():  # column by column, left to right
        total += col
    # KL is nonnegative; rounding on near-identical inputs can dip a few ulp below zero.
    return max(total / p_final.shape[1], 0.0)
