"""Ground-truth machinery: exact filtering and exhaustive path enumeration.

Everything here is exact arithmetic over the finite joint path space; the
rest of the package is validated against these routines. No sampling, no
log-space: sizes are desk-scale by contract (see ``enum_budget``).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .adapted import AdaptedProcess
from .hmm import HmmModel, check_probability_vector, validate_tokens

# Default cap on d^(T+1) * (m+1)^(T+1) for exhaustive expectations.
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


def forward_filter(model: HmmModel, z, zero_convention: bool = False) -> np.ndarray:
    """Exact conditional distributions pi_1..pi_T for one observation path.

    Returns a (T, d) array whose row t-1 is pi_t(x) = P(X_t = x | z_1..z_t).
    The prior on X_0 is mu. Because tokens are emitted by the state before
    the transition (C(x, z) = P(Z_{t+1} = z | X_t = x)), each step first
    reweights the time t-1 posterior by C(., z_t), normalizes, and then
    pushes through A.

    A zero-probability prefix raises ImpossibleObservationError naming the
    offending time; with ``zero_convention`` the 0/0 := 0 rule is used
    instead and all remaining rows are zero measures.
    """
    z = validate_tokens(z, model.m)
    pis = np.zeros((len(z), model.d))
    prev = model.mu
    for i, tok in enumerate(z):
        w = prev * model.C[:, tok]
        mass = w.sum()
        if mass <= 0.0:
            if zero_convention:
                # 0/0 := 0 extension: this and all later measures are zero.
                return pis
            raise ImpossibleObservationError(i + 1, z[: i + 1])
        prev = model.A.T @ (w / mass)
        pis[i] = prev
    return pis


def _filter_walk(model: HmmModel, T: int, zero_convention: bool = False, leaves: bool = False):
    """Yield (prefix, pi) for every prefix of length 1..T, depth first.

    Prefixes come in preorder with tokens in increasing order, so the
    length-T prefixes come in lexicographic order; ``leaves`` yields only
    those. Each pi is computed from its parent's with forward_filter's own
    arithmetic on 1-D arrays, so it equals forward_filter(model, prefix)[-1]
    to the bit. The walk keeps an explicit stack of at most T (m+1) pending
    children and stores no tree; every yielded pi is a new array.

    The first zero-probability prefix in preorder raises
    ImpossibleObservationError, the same (t, prefix) a forward_filter loop
    over the length-T paths in lexicographic order raises first. With
    ``zero_convention`` that prefix and every prefix below it carry the
    zero measure instead.
    """
    n_tok = model.m + 1
    cols = [model.C[:, tok] for tok in range(n_tok)]
    # (prefix, parent's pi or None for a zero measure), popped in preorder
    stack = [((tok,), model.mu) for tok in reversed(range(n_tok))] if T > 0 else []
    while stack:
        prefix, prev = stack.pop()
        if prev is None:
            pi = None
        else:
            w = prev * cols[prefix[-1]]
            mass = w.sum()
            if mass <= 0.0:
                if not zero_convention:
                    raise ImpossibleObservationError(len(prefix), prefix)
                pi = None
            else:
                pi = model.A.T @ (w / mass)
        if not leaves or len(prefix) == T:
            yield prefix, np.zeros(model.d) if pi is None else pi
        if len(prefix) < T:
            stack.extend((prefix + (tok,), pi) for tok in reversed(range(n_tok)))


def filter_process(model: HmmModel, T: int | None = None, zero_convention: bool = False) -> AdaptedProcess:
    """The filter as an adapted process: pi_t at every prefix of length 1..T.

    Zero-probability prefixes raise unless ``zero_convention``, in which case
    they carry the zero measure.
    """
    T = model.T if T is None else int(T)
    return AdaptedProcess(dict(_filter_walk(model, T, zero_convention)))


def next_token_prob(model: HmmModel, pi: np.ndarray) -> np.ndarray:
    """p(z) = sum_x pi(x) C(x, z), a probability vector over the alphabet.

    pi is validated by ``check_probability_vector``, so rounding-level
    negative entries read as 0.
    """
    pi = check_probability_vector(pi, tol=1e-9)
    return pi @ model.C


def path_probability(model: HmmModel, z) -> float:
    """P(Z_1..Z_T = z) by sum-product over hidden paths."""
    z = validate_tokens(z, model.m)
    w = model.mu.copy()
    for i, tok in enumerate(z):
        w = w * model.C[:, tok]
        if i + 1 < len(z):
            w = model.A.T @ w
    return float(w.sum())


def path_probability_enumerated(model: HmmModel, z) -> float:
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


def filter_by_enumeration(model: HmmModel, z) -> np.ndarray:
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


def check_enum_budget(model: HmmModel, T: int, budget: int = DEFAULT_ENUM_BUDGET) -> None:
    cost = model.d ** (T + 1) * (model.m + 1) ** (T + 1)
    if cost > budget:
        raise EnumerationBudgetError(
            f"exhaustive enumeration needs d^(T+1)*(m+1)^(T+1) = {cost} terms, "
            f"budget is {budget}; reduce T, d, or m"
        )


def exact_expectation(model: HmmModel, h, T: int | None = None, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """E[h(X, Z)] by exhaustive enumeration of joint paths.

    h is called as h(x_path, z_path) with x_path = (x_0, ..., x_T) and
    z_path = (z_1, ..., z_T), once per joint path of positive probability,
    in lexicographic (z_path, x_path) order: every x_path of one z_path, in
    ``product`` order, before the next z_path. All calls for one z_path get
    the same tuple object. Paths of probability zero are skipped and h is
    not called on them. This is the oracle for every expectation in the
    dual-control machinery; tolerances there assume exactness, so there is
    deliberately no sampling fallback.

    The weights of all d^(T+1) hidden paths of one z_path are built at once
    with numpy: d^(T+1) floats, which is the working memory beyond the
    model. Each weight is mu(x_0), multiplied in turn by
    (C(x_t, z_{t+1}) A(x_t, x_{t+1})) for t = 0..T-1, and the terms
    weight * h are added in call order, so the result is the same to the bit
    as a term-by-term loop in that order.
    """
    T = model.T if T is None else int(T)
    check_enum_budget(model, T, budget)
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
