"""Ground-truth machinery: exact filtering and exhaustive path enumeration.

Everything here is exact arithmetic over the finite joint path space; the
rest of the package is validated against these routines. No sampling, no
log-space: sizes are desk-scale by contract (the CLI's ``enum_budget``).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .adapted import AdaptedProcess
from .hmm import HmmModel, check_probability_vector, validate_tokens

# Default cap on d^(T+1) * (m+1)^(T+1) for exhaustive expectations: (m+1) times
# the d^(T+1) * (m+1)^T joint paths that exact_expectation walks.
DEFAULT_ENUM_BUDGET = 10**7


class ImpossibleObservationError(ValueError):
    """Raised when an observation prefix has probability zero."""

    def __init__(self, t: int, prefix):
        self.t = t
        self.prefix = tuple(prefix)
        super().__init__(
            f"impossible observation: prefix z_1..z_{t} = {self.prefix} has probability 0"
        )


class EnumerationBudgetError(ValueError):
    """Raised when an exhaustive enumeration would exceed the configured budget."""


def forward_step(model: HmmModel, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one forward step: (pi_t, mass) from w = pi_{t-1} C(., z_t), per row of w (d,) or (..., d).

    mass = sum_x w(x) = P(z_t | z_1..z_{t-1}) and pi_t = A^T (w / mass); a zero-mass row is all zeros
    and is divided by 1, so it gives the zero measure. Each row is its own matrix-vector product: its
    bits do not depend on the stack. The product stays ``@``, not ``ndarray.dot``, because
    ``filter_levels`` runs this same stacked call and shares its bits with ``forward_filter``.
    """
    mass = w.sum(axis=-1)
    pi = (model.A.T @ (w / (mass + (mass == 0.0))[..., None])[..., None])[..., 0]
    return pi, mass


def forward_filter(model: HmmModel, z, zero_convention: bool = False) -> np.ndarray:
    """Exact conditional distributions pi_1..pi_T for one observation path.

    Returns a (T, d) array whose row t-1 is pi_t(x) = P(X_t = x | z_1..z_t).
    The prior on X_0 is mu. Because tokens are emitted by the state before
    the transition (C(x, z) = P(Z_{t+1} = z | X_t = x)), step t is one
    ``forward_step`` of the time t-1 posterior reweighted by C(., z_t).

    A zero-probability prefix raises ImpossibleObservationError naming the
    offending time; with ``zero_convention`` the 0/0 := 0 rule is used
    instead and all remaining rows are zero measures.
    """
    z = validate_tokens(z, model.m)
    pis, prev = np.empty((len(z), model.d)), model.mu
    for i, tok in enumerate(z):
        prev, mass = forward_step(model, prev * model.C[:, tok])
        if mass <= 0.0 and not zero_convention:
            raise ImpossibleObservationError(i + 1, z[: i + 1])
        pis[i] = prev
    return pis


def filter_levels(model: HmmModel, zero_convention: bool = False) -> list[np.ndarray]:
    """The filter at every prefix of length 1..model.T, one array per level.

    Level t is a ((m+1)^t, d) array whose row r is pi_t at the prefix of
    rank r (the level layout of ``adapted``). Each level is one
    ``forward_step`` on the whole stack of the level above, so every row
    equals forward_filter(model, prefix)[-1] to the bit; the product
    therefore stays ``forward_step``'s stacked ``@``. All levels together
    hold about (m+1)/m (m+1)^T d floats.

    A zero-probability prefix raises ImpossibleObservationError unless
    ``zero_convention``, in which case it and every prefix below it carry
    the zero measure. The error is forward_filter's on the first length-T
    path, in lexicographic order, whose last row is zero: it names that
    path's first impossible prefix, which is the lexicographically smallest
    impossible prefix whose own prefixes are all possible.
    """
    # row z is C(., z); in C order every row of w is contiguous, so its sum has forward_filter's bits
    emit = np.ascontiguousarray(model.C.T)
    levels, prev = [], model.mu[None, :]
    for _ in range(model.T):
        prev = forward_step(model, prev[:, None, :] * emit)[0].reshape(-1, model.d)
        levels.append(prev)
    dead = np.flatnonzero(~prev.any(axis=1))
    if dead.size and not zero_convention:
        forward_filter(model, np.unravel_index(dead[0], (model.m + 1,) * model.T))
    return levels


def filter_process(model: HmmModel, zero_convention: bool = False) -> AdaptedProcess:
    """The filter as an adapted process: ``filter_levels``' arrays (and errors) as levels 1..T, level 0 absent."""
    return AdaptedProcess(model.m, (None, *filter_levels(model, zero_convention)))


def next_token_prob(model: HmmModel, pi: np.ndarray) -> np.ndarray:
    """p(z) = sum_x pi(x) C(x, z) for one measure (d,) or each row of a stack (..., d).

    Every row is validated by ``check_probability_vector``, so
    rounding-level negative entries read as 0. Each row is its own
    vector-matrix product, so its bits do not depend on the stack.
    """
    pi = check_probability_vector(pi)
    return (pi[..., None, :] @ model.C)[..., 0, :]


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


def path_probability(model: HmmModel, z) -> float:
    """P(Z_1..Z_T = z), the product of forward_step's masses; 0.0 if impossible, and underflows to 0.0 on long paths."""
    z = validate_tokens(z, model.m)
    pi, p = model.mu, 1.0
    for tok in z:
        pi, mass = forward_step(model, pi * model.C[:, tok])
        p *= mass
    return float(p)


def check_enum_budget(model: HmmModel, T: int, budget: int) -> None:
    cost = model.d ** (T + 1) * (model.m + 1) ** (T + 1)
    if cost > budget:
        raise EnumerationBudgetError(
            f"d^(T+1)*(m+1)^(T+1) = {cost} exceeds the enumeration budget {budget} "
            f"((m+1) times the d^(T+1)*(m+1)^T joint paths walked); reduce T, d, or m"
        )


def exact_expectation(model: HmmModel, h, T: int | None = None) -> float:
    """E[h(X, Z)] by exhaustive enumeration of joint paths.

    h is called as h(x_path, z_path) with x_path = (x_0, ..., x_T) and
    z_path = (z_1, ..., z_T), once per joint path of positive probability,
    in lexicographic (z_path, x_path) order: every x_path of one z_path, in
    ``product`` order, before the next z_path. All calls for one z_path get
    the same tuple object. Paths of probability zero are skipped and h is
    not called on them. It is the squared-error side of the duality identity,
    which checks the cost's forward contraction, and the tests' reference;
    tolerances assume exactness, so there is deliberately no sampling fallback.
    The walk itself checks no size: ``check_enum_budget`` is the gate, and
    the CLI runs it once, before any draw.

    The weights of all d^(T+1) hidden paths of one z_path are built at once
    with numpy: d^(T+1) floats, which is the working memory beyond the
    model. Each weight is mu(x_0), multiplied in turn by
    (C(x_t, z_{t+1}) A(x_t, x_{t+1})) for t = 0..T-1, and the terms
    weight * h are added in call order, so the result is the same to the bit
    as a term-by-term loop in that order.
    """
    T = model.T if T is None else int(T)
    d, n_tok = model.d, model.m + 1
    # steps[z][a, b] = C(a, z) A(a, b): the factor of one step a -> b emitting z.
    steps = [model.C[:, [tok]] * model.A for tok in range(n_tok)]
    total = 0.0
    for z_path in product(range(n_tok), repeat=T):
        p = model.mu
        for t, tok in enumerate(z_path):
            p = p[..., None] * steps[tok].reshape((1,) * t + (d, d))
        for x_path, w in zip(product(range(d), repeat=T + 1), p.ravel().tolist()):
            if w > 0.0:
                total += w * h(x_path, z_path)
    return float(total)


def sample_path(model: HmmModel, rng: np.random.Generator, T: int | None = None) -> tuple[int, ...]:
    """Draw one observation path z_1..z_T from the model (positive probability by construction)."""
    T = model.T if T is None else int(T)
    x = rng.choice(model.d, p=model.mu)
    toks = []
    for _ in range(T):
        toks.append(int(rng.choice(model.m + 1, p=model.C[x])))
        x = rng.choice(model.d, p=model.A[x])
    return tuple(toks)
