import numpy as np
import pytest

from dualfilter.adapted import AdaptedProcess, prefixes
from dualfilter.hmm import HmmModel


def make_model(mu, A, C, T):
    mu = np.asarray(mu, dtype=float)
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    return HmmModel(mu, A, C, T)


def random_model(rng, d, m, T):
    """Dirichlet rows: strictly positive entries, so every path has positive probability."""
    return make_model(
        rng.dirichlet(np.ones(d)),
        rng.dirichlet(np.ones(d), size=d),
        rng.dirichlet(np.ones(m + 1), size=d),
        T,
    )


def sparse_model(rng, d, m, T, p_zero=0.4):
    """Dirichlet rows with entries zeroed at random (each row keeps one): some paths have probability 0."""

    def rows(n, k):
        P = rng.dirichlet(np.ones(k), size=n)
        P[rng.random((n, k)) < p_zero] = 0.0
        for row in P:
            if row.sum() == 0.0:
                row[rng.integers(k)] = 1.0
        return P / P.sum(axis=1, keepdims=True)

    return make_model(rows(1, d)[0], rows(d, d), rows(d, m + 1), T)


def dyadic_simplex(rng, n, bits):
    """A probability vector of n multiples of 2^-bits: its float entries sum to 1 exactly."""
    cuts = np.sort(rng.integers(0, 2**bits + 1, n - 1))
    return np.diff(np.concatenate([[0], cuts, [2**bits]])) / 2.0**bits


def dyadic_model(rng, d, m, T, bits=20):
    """mu and every row of A and C drawn by dyadic_simplex: exactly normalized, so identities hold exactly."""
    return make_model(dyadic_simplex(rng, d, bits), [dyadic_simplex(rng, d, bits) for _ in range(d)],
                      [dyadic_simplex(rng, m + 1, bits) for _ in range(d)], T)


def point_mass_model():
    """d=3, m=1, T=3: every emission row is a point mass, so the risk tensor is zero."""
    return make_model([0.5, 0.5, 0.0], [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
                      [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], 3)


def from_tree(m, tree):
    """The AdaptedProcess holding a prefix-keyed dict's values; each level present must be complete.

    Tests that edit single prefixes edit ``proc.tree`` and rebuild with this.
    """
    depth = max((len(w) for w in tree), default=-1) + 1
    return AdaptedProcess(m, tuple(
        np.array([tree[w] for w in prefixes(m, t)]) if any(len(w) == t for w in tree) else None
        for t in range(depth)
    ))


def scaled(proc, s):
    """The adapted process with every level multiplied by s."""
    return AdaptedProcess(proc.m, tuple(s * level for level in proc.levels))


def random_measure_process(rng, model):
    """Probability vectors at every prefix of length 1..T-1: a rho that is not the filter."""
    levels = [rng.dirichlet(np.ones(model.d), size=(model.m + 1) ** t) for t in range(1, model.T)]
    return AdaptedProcess(model.m, (None, *levels))


def uninformative_model(rng, d, m, T):
    """Emission rows all uniform: observations carry no information about the state."""
    C = np.full((d, m + 1), 1.0 / (m + 1))
    return make_model(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d), size=d), C, T)


@pytest.fixture
def reference_model():
    """Two states, binary tokens, horizon 3; sticky chain with informative emissions."""
    return make_model(
        mu=[0.5, 0.5],
        A=[[0.9, 0.1], [0.1, 0.9]],
        C=[[0.2, 0.8], [0.7, 0.3]],
        T=3,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
