"""Finite-space HMM model, the token-embedding basis, and derived observation operators.

State indices are 0-based throughout the Python API (states ``0..d-1``);
file formats and CSV reports label states 1-based. Tokens are ``0..m`` in
both. All types are immutable plain data after construction and all
operations are pure functions, so everything here is safe for concurrent
read-only use.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

# A distribution must sum to 1 within this tolerance: a probability vector,
# and at construction mu and each row of A and C (a row not already within
# rounding of 1 is then divided by its sum once).
PROB_SUM_TOL = 1e-9

# A computed probability entry in [-ROUNDING_TOL, 0) is rounding error and
# reads as 0; an entry below -ROUNDING_TOL is a real negative.
ROUNDING_TOL = 1e-10


def check_probability_vector(p: np.ndarray) -> np.ndarray:
    """Validate entries >= 0 summing to 1 within PROB_SUM_TOL; returns the array.

    p is one vector or a stack of them along the last axis, and every one
    is checked; an error names the first bad vector's entries or sum.
    Rounding-level negative entries read as 0 (``drop_rounding_negatives``).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        raise ValueError("probability vector must have at least one axis, got a scalar")
    if np.any(p < 0):
        p = drop_rounding_negatives(p)
        negative = np.any(p < 0, axis=-1)
        if np.any(negative):
            row = p.reshape(-1, p.shape[-1])[np.flatnonzero(negative)[0]]
            raise ValueError(f"probability vector has negative entries: {row}")
    s = p.sum(axis=-1)
    bad = np.flatnonzero(np.abs(s - 1.0) > PROB_SUM_TOL)
    if bad.size:
        raise ValueError(f"probability vector sums to {np.ravel(s)[bad[0]]!r}, expected 1 within {PROB_SUM_TOL}")
    return p


def is_probability_vector(p: np.ndarray) -> bool | np.ndarray:
    """Non-raising membership test for P(S) within ROUNDING_TOL, used for domain flags.

    One vector gives a bool; a stack along the last axis gives a bool array of shape p.shape[:-1].
    """
    p = np.asarray(p, dtype=float)
    ok = np.all(p >= -ROUNDING_TOL, axis=-1) & (np.abs(p.sum(axis=-1) - 1.0) <= ROUNDING_TOL)
    return bool(ok) if p.ndim == 1 else ok


def drop_rounding_negatives(p: np.ndarray) -> np.ndarray:
    """p with every entry in [-ROUNDING_TOL, 0) set to 0; other entries unchanged."""
    p = np.asarray(p, dtype=float)
    return np.where((p < 0.0) & (p >= -ROUNDING_TOL), 0.0, p)


def _check_sizes(d: int, m: int, T: int) -> None:
    """The spaces must be nonempty and the horizon positive: d, m and T all at least 1."""
    if min(d, m, T) < 1:
        raise ValueError(f"spaces require d >= 1, m >= 1, T >= 1; got d={d}, m={m}, T={T}")


def _stochastic_matrix(M, name: str, rows: int, cols: int) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(M < 0):
        raise ValueError(f"{name} has negative entries")
    sums = M.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > PROB_SUM_TOL)[0]
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} sums to {sums[bad[0]]!r}, expected 1 within {PROB_SUM_TOL}")
    # a divided row sums to 1 within about cols*eps/2, so a row within 4*cols*eps is kept as given:
    # loading a model's own arrays again changes no bit
    kept = np.abs(sums - 1.0) <= 4 * cols * np.finfo(float).eps
    return np.where(kept[:, None], M, M / sums[:, None])


@dataclass(frozen=True, eq=False)
class HmmModel:
    """HMM(mu, A, C) over horizon T: prior mu on X_0, transition A, emission C.

    The emission convention is C(x, z) = P(Z_{t+1} = z | X_t = x): token
    z_{t+1} is emitted by the state *before* the transition to X_{t+1}.
    The sizes are read off the arrays: d = len(mu) states and m+1 tokens,
    one per column of C. mu, as a one-row matrix, and the rows of A and C
    are validated to sum to 1 within PROB_SUM_TOL; negative or non-finite
    entries fail construction. A row whose float sum is within 4 cols eps
    of 1 is kept as given and every other row is divided by its sum once,
    so building a model from another model's arrays changes no bit. T is
    read by ``check_integer`` and stored as the int it equals (2.0 is 2).

    ``zero_convention`` picks the version of the conditional measure on an
    observation prefix of probability 0: False raises
    ``ImpossibleObservationError``, True uses the 0/0 := 0 zero measure.
    It is a run choice, not part of the HMM, so ``to_dict`` and the model
    file leave it out; set it with ``dataclasses.replace``.

    Two models are equal exactly when T, zero_convention and the bits of
    mu, A and C are, and equal models hash alike.
    """

    mu: np.ndarray
    A: np.ndarray
    C: np.ndarray
    T: int
    zero_convention: bool = False

    def __post_init__(self):
        mu, C = np.asarray(self.mu, dtype=float), np.asarray(self.C, dtype=float)
        if mu.ndim != 1 or C.ndim != 2:
            raise ValueError(f"mu must be a vector and C a matrix, got shapes {mu.shape} and {C.shape}")
        d, m, T = len(mu), C.shape[1] - 1, check_integer(self.T, "model size T")
        _check_sizes(d, m, T)
        object.__setattr__(self, "T", T)
        if not isinstance(self.zero_convention, bool):
            raise ValueError(f"zero_convention must be true or false, got {self.zero_convention!r}")
        mu = _stochastic_matrix(mu[None, :], "mu", 1, d)[0]
        A = _stochastic_matrix(self.A, "A", d, d)
        C = _stochastic_matrix(C, "C", d, m + 1)
        for name, arr in (("mu", mu), ("A", A), ("C", C)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _key(self) -> tuple:
        return self.T, self.zero_convention, self.mu.tobytes(), self.A.tobytes(), self.C.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, HmmModel) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def d(self) -> int:
        return len(self.mu)

    @property
    def m(self) -> int:
        return self.C.shape[1] - 1

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "T": self.T,
            "mu": self.mu.tolist(),
            "A": [row.tolist() for row in self.A],
            "C": [row.tolist() for row in self.C],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "HmmModel":
        """Load ``to_dict``'s output; its sizes d, m and T must be integers that match mu and C."""
        if not isinstance(obj, dict):
            raise ValueError(f"model file must hold a JSON object with keys d, m, T, mu, A and C, "
                             f"got {type(obj).__name__}")
        try:
            d, m, T, mu, A, C = (obj[key] for key in ("d", "m", "T", "mu", "A", "C"))
        except KeyError as exc:
            raise ValueError(f"model file missing key {exc.args[0]!r}") from exc
        # the file is stricter than the library: its sizes are JSON integers, so 3.0 is an error
        for name, val in (("d", d), ("m", m), ("T", T)):
            if isinstance(val, bool) or not isinstance(val, int):
                raise ValueError(f"model size {name} must be an integer, got {val!r}")
        _check_sizes(d, m, T)
        for name, arr, shape in (("mu", mu, (d,)), ("C", C, (d, m + 1))):
            if np.shape(arr) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.shape(arr)}")
        return cls(mu=mu, A=A, C=C, T=T)

    @classmethod
    def from_json(cls, text: str) -> "HmmModel":
        return cls.from_dict(json.loads(text))


def check_integer(val, name: str) -> int:
    """val as an int if it is integer-valued; the one rule for every integer argument.

    Ints, numpy integers and whole reals such as 2.0 pass as the int they
    equal; a bool, a non-whole or non-finite real, a string or anything else
    raises ValueError naming ``name``.
    """
    if isinstance(val, bool) or not (isinstance(val, numbers.Real) and float(val).is_integer()):
        raise ValueError(f"{name} = {val!r} is not an integer")
    return int(val)


def validate_tokens(z, m: int) -> tuple[int, ...]:
    """Check z is a sequence of integer-valued tokens in {0, ..., m}; returns it as a tuple of ints.

    Each token is read by ``check_integer``: 1.0 and numpy integers pass as the ints they equal; 1.5,
    '1' or a bool raise ValueError, as do bytes or a non-iterable z.
    """
    try:
        if isinstance(z, (bytes, bytearray)):
            raise TypeError
        z = tuple(z)
    except TypeError:
        raise ValueError(f"observation path must be a sequence of tokens, got {z!r}") from None
    for i, tok in enumerate(z):
        # plain ints, the common case, skip the call
        if type(tok) is not int:
            check_integer(tok, f"token z_{i + 1}")
        if not 0 <= tok <= m:
            raise ValueError(f"token z_{i + 1} = {int(tok)} outside alphabet 0..{m}")
    return tuple(int(tok) for tok in z)


def token_basis(m: int) -> np.ndarray:
    """(m+1, m) matrix whose row z is the embedded token e(z).

    e(z) is the canonical basis vector of R^m for z = 1..m and
    e(0) = -(e(1) + ... + e(m)), so the rows sum to zero.
    """
    E = np.zeros((m + 1, m))
    E[1:, :] = np.eye(m)
    E[0, :] = -1.0
    return E


def decompose(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split token-indexed functions s into (mean, tilde) with s(z) = mean + tilde . e(z).

    s is one length-(m+1) vector indexed by z = 0..m, or a stack of them
    along the last axis. The decomposition is unique: mean is the plain
    average over the alphabet, of shape s.shape[:-1] (a numpy float for one
    vector), and tilde(i) = s(i) - mean for i = 1..m. The mean is the sum
    divided by m+1, which is ``np.mean``'s own arithmetic, so it has
    ``s.mean(axis=-1)``'s bits in any memory order without its per-call
    overhead.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 0 or s.shape[-1] < 2:
        raise ValueError(f"expected length-(m+1) vectors with m >= 1 along the last axis, got shape {s.shape}")
    mean = s.sum(axis=-1) / s.shape[-1]
    return mean, s[..., 1:] - mean[..., None]


def obs_matrix(model: HmmModel) -> np.ndarray:
    """(d, m) matrix whose row x is c(x) = [C(x,1) - C(x,0), ..., C(x,m) - C(x,0)]."""
    return model.C[:, 1:] - model.C[:, :1]


def gamma_op(model: HmmModel, f: np.ndarray) -> np.ndarray:
    """Per-state conditional variance under one transition of A, for one function f (d,) or each row of a stack (..., d).

    (Gamma f)(x) = sum_y A(x,y) f(y)^2 - (A f)(x)^2; entrywise >= 0 for any
    row-stochastic A (variance of f(X_{t+1}) given X_t = x).
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (model.d,):
        raise ValueError(f"f must have shape (..., {model.d}), got {f.shape}")
    return (f * f) @ model.A.T - (f @ model.A.T) ** 2


def risk_tensor(model: HmmModel) -> np.ndarray:
    """(d, m, m) stack of R(x) = diag(c(x)) + C(x,0) (I + 11^T) - c(x) c(x)^T over states.

    R(x) is the conditional covariance of the embedded next token e(Z_{t+1})
    given X_t = x, hence symmetric positive semidefinite.
    """
    c = obs_matrix(model)
    eye = np.eye(model.m)
    return c[:, :, None] * eye + model.C[:, 0, None, None] * (eye + 1.0) - c[:, :, None] * c[:, None, :]
