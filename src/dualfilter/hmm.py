"""Finite-space HMM model, the token-embedding basis, and derived observation operators.

State indices are 0-based throughout the Python API (states ``0..d-1``);
file formats and CSV reports label states 1-based. Tokens are ``0..m`` in
both. All types are immutable plain data after construction and all
operations are pure functions, so everything here is safe for concurrent
read-only use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Row sums of A and C must be within this tolerance of 1 at construction;
# rows are then renormalized exactly.
ROW_SUM_TOL = 1e-9

# Probability vectors must sum to 1 within this tolerance.
PROB_SUM_TOL = 1e-12

# A computed probability entry in [-ROUNDING_TOL, 0) is rounding error and
# reads as 0; an entry below -ROUNDING_TOL is a real negative.
ROUNDING_TOL = 1e-10


@dataclass(frozen=True)
class Spaces:
    """Sizes of the finite problem: d states, m+1 tokens, horizon T."""

    d: int
    m: int
    T: int

    def __post_init__(self):
        if self.d < 1 or self.m < 1 or self.T < 1:
            raise ValueError(
                f"spaces require d >= 1, m >= 1, T >= 1; got d={self.d}, m={self.m}, T={self.T}"
            )


def check_probability_vector(p: np.ndarray, tol: float = PROB_SUM_TOL) -> np.ndarray:
    """Validate entries >= 0 summing to 1 within ``tol``; returns the array.

    Rounding-level negative entries read as 0 (``drop_rounding_negatives``).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"probability vector must be 1-d, got shape {p.shape}")
    if np.any(p < 0):
        p = drop_rounding_negatives(p)
        if np.any(p < 0):
            raise ValueError(f"probability vector has negative entries: {p}")
    s = p.sum()
    if abs(s - 1.0) > tol:
        raise ValueError(f"probability vector sums to {s!r}, expected 1 within {tol}")
    return p


def is_probability_vector(p: np.ndarray, tol: float = ROUNDING_TOL) -> bool:
    """Non-raising membership test for P(S), used for domain flags."""
    p = np.asarray(p, dtype=float)
    return bool(np.all(p >= -tol) and abs(p.sum() - 1.0) <= tol)


def drop_rounding_negatives(p: np.ndarray) -> np.ndarray:
    """p with every entry in [-ROUNDING_TOL, 0) set to 0; other entries unchanged."""
    p = np.asarray(p, dtype=float)
    return np.where((p < 0.0) & (p >= -ROUNDING_TOL), 0.0, p)


def _stochastic_matrix(M, name: str, rows: int, cols: int) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {M.shape}")
    if np.any(M < 0):
        raise ValueError(f"{name} has negative entries")
    sums = M.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} sums to {sums[bad[0]]!r}, expected 1 within {ROW_SUM_TOL}")
    return M / sums[:, None]


@dataclass(frozen=True)
class HmmModel:
    """HMM(mu, A, C): prior mu on X_0, transition A, emission C.

    The emission convention is C(x, z) = P(Z_{t+1} = z | X_t = x): token
    z_{t+1} is emitted by the state *before* the transition to X_{t+1}.
    Rows of A and C are validated to sum to 1 within ROW_SUM_TOL and then
    renormalized exactly; negative entries fail construction.
    """

    spaces: Spaces
    mu: np.ndarray
    A: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        d, m = self.spaces.d, self.spaces.m
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (d,):
            raise ValueError(f"mu must have shape ({d},), got {mu.shape}")
        if np.any(mu < 0):
            raise ValueError("mu has negative entries")
        if abs(mu.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"mu sums to {mu.sum()!r}, expected 1 within {ROW_SUM_TOL}")
        mu = mu / mu.sum()
        A = _stochastic_matrix(self.A, "A", d, d)
        C = _stochastic_matrix(self.C, "C", d, m + 1)
        for name, arr in (("mu", mu), ("A", A), ("C", C)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return self.spaces.d

    @property
    def m(self) -> int:
        return self.spaces.m

    @property
    def T(self) -> int:
        return self.spaces.T

    def to_dict(self) -> dict:
        return {
            "d": self.spaces.d,
            "m": self.spaces.m,
            "T": self.spaces.T,
            "mu": self.mu.tolist(),
            "A": [row.tolist() for row in self.A],
            "C": [row.tolist() for row in self.C],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "HmmModel":
        try:
            spaces = Spaces(d=int(obj["d"]), m=int(obj["m"]), T=int(obj["T"]))
            return cls(spaces=spaces, mu=obj["mu"], A=obj["A"], C=obj["C"])
        except KeyError as exc:
            raise ValueError(f"model file missing key {exc.args[0]!r}") from exc

    @classmethod
    def from_json(cls, text: str) -> "HmmModel":
        return cls.from_dict(json.loads(text))


def validate_tokens(z, m: int) -> tuple[int, ...]:
    """Check every token lies in {0, ..., m}; returns the path as a tuple."""
    z = tuple(int(t) for t in z)
    for i, tok in enumerate(z):
        if not 0 <= tok <= m:
            raise ValueError(f"token z_{i + 1} = {tok} outside alphabet 0..{m}")
    return z


def token_basis(m: int) -> np.ndarray:
    """(m+1, m) matrix whose row z is the embedded token e(z).

    e(z) is the canonical basis vector of R^m for z = 1..m and
    e(0) = -(e(1) + ... + e(m)), so the rows sum to zero.
    """
    E = np.zeros((m + 1, m))
    E[1:, :] = np.eye(m)
    E[0, :] = -1.0
    return E


def decompose(s: np.ndarray) -> tuple[float, np.ndarray]:
    """Split a token-indexed function s into (mean, tilde) with s(z) = mean + tilde . e(z).

    s is a length-(m+1) vector indexed by z = 0..m. The decomposition is
    unique: mean is the plain average over the alphabet and tilde(i) =
    s(i) - mean for i = 1..m. Total function, no error cases.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.shape[0] < 2:
        raise ValueError(f"expected a length-(m+1) vector with m >= 1, got shape {s.shape}")
    mean = s.mean()
    tilde = s[1:] - mean
    return float(mean), tilde


def obs_matrix(model: HmmModel) -> np.ndarray:
    """(d, m) matrix whose row x is c(x) = [C(x,1) - C(x,0), ..., C(x,m) - C(x,0)]."""
    return model.C[:, 1:] - model.C[:, :1]


def scalar_obs(model: HmmModel, z: int) -> np.ndarray:
    """The per-state scalar observation x -> 2 C(x, z) - 1."""
    z = int(z)
    if not 0 <= z <= model.m:
        raise ValueError(f"token {z} outside alphabet 0..{model.m}")
    return 2.0 * model.C[:, z] - 1.0


def gamma_op(model: HmmModel, f: np.ndarray) -> np.ndarray:
    """Per-state conditional variance of f under one transition of A.

    (Gamma f)(x) = sum_y A(x,y) f(y)^2 - (A f)(x)^2; entrywise >= 0 for any
    row-stochastic A (variance of f(X_{t+1}) given X_t = x).
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (model.d,):
        raise ValueError(f"f must have shape ({model.d},), got {f.shape}")
    return model.A @ (f * f) - (model.A @ f) ** 2


def risk_tensor(model: HmmModel) -> np.ndarray:
    """(d, m, m) stack of R(x) = diag(c(x)) + C(x,0) (I + 11^T) - c(x) c(x)^T over states.

    R(x) is the conditional covariance of the embedded next token e(Z_{t+1})
    given X_t = x, hence symmetric positive semidefinite.
    """
    c = obs_matrix(model)
    eye = np.eye(model.m)
    return c[:, :, None] * eye + model.C[:, 0, None, None] * (eye + 1.0) - c[:, :, None] * c[:, None, :]
