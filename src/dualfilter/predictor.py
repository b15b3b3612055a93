"""Constructive nonlinear-predictor weights for path-indexed targets.

Any function of a full observation path can be written as a constant minus
an adapted-weighted sum of embedded tokens; the weights fall out of a
backward induction that repeatedly splits the last token off via the
mean/tilde decomposition. Applied to conditional next-token probabilities
this yields the predictor weights realized here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapted import AdaptedProcess
from .hmm import HmmModel, check_integer, decompose, token_basis, validate_tokens
from .oracle import filter_levels, next_token_prob


@dataclass(frozen=True)
class PredictorRepresentation:
    """constant - sum_t U_t(prefix)^T e(z_{t+1}); the alphabet 0..m and the horizon T are read off the weights."""

    constant: float
    weights: AdaptedProcess

    @property
    def m(self) -> int:
        return self.weights.m

    @property
    def T(self) -> int:
        return len(self.weights.levels)


def build_weights(target: np.ndarray, m: int, T: int) -> PredictorRepresentation:
    """Backward induction from the values of all (m+1)^T paths, in ``prefixes(m, T)`` order.

    Level by level, the values are reshaped to one row of m+1 children per
    prefix and each row is decomposed into (mean, tilde); the weight at the
    prefix is -tilde and the means are the level t-1 values. Reconstruction
    along every path is exact.
    """
    level = np.asarray(target, dtype=float)
    if level.shape != ((m + 1) ** T,):
        raise ValueError(f"target array must hold all (m+1)^T = {(m + 1) ** T} path values, got shape {level.shape}")
    weights = [None] * T
    for t in range(T, 0, -1):
        level, tilde = decompose(level.reshape(-1, m + 1))
        weights[t - 1] = -tilde
    return PredictorRepresentation(constant=float(level[0]), weights=AdaptedProcess(m, tuple(weights)))


def path_values(rep: PredictorRepresentation) -> np.ndarray:
    """The represented value on every path of T tokens, in ``prefixes(m, T)`` order: the inverse of ``build_weights``.

    Level by level from the constant, each child is its parent minus
    u^T e(z), taken as u @ e(0) for z = 0 (one dot per row) and u_z for
    z >= 1: the same bits as a per-path loop of dots u @ e(z) (the z = 0
    row of E @ u is not, from m = 4 on). The stacked ``@`` stays, not a
    per-row ``ndarray.dot``, since the batch is what shares those bits.
    """
    e0 = token_basis(rep.m)[0]
    level = np.array([float(rep.constant)])
    for U in rep.weights.levels:
        terms = np.concatenate([U[:, None, :] @ e0, U], axis=1)
        level = (level[:, None] - terms).ravel()
    return level


def represent_conditional(model: HmmModel, z_query: int) -> PredictorRepresentation:
    """Predictor weights for path -> P(Z_{T+1} = z_query | Z_1..Z_T = path), T = model.T.

    The target is the filtered next-token probability on every path, read off the last of
    ``filter_levels`` in one stacked ``next_token_prob`` call. Impossible paths raise, or with
    ``model.zero_convention`` take the value 0 (the 0/0 := 0 extension). The weights are unique only once
    impossible paths have values: the optimal dual control for F = C(., z_query) along the filter gives
    them another, so it is this predictor on the possible paths only (on every path of a positive model).
    """
    z_query = check_integer(z_query, "query token")
    if not 0 <= z_query <= model.m:
        raise ValueError(f"token {z_query} outside alphabet 0..{model.m}")
    pi_T = filter_levels(model)[-1]
    possible = pi_T.sum(axis=-1) != 0.0  # zero rows only under the zero convention
    target = np.zeros(len(pi_T))
    target[possible] = next_token_prob(model, pi_T[possible])[:, z_query]
    return build_weights(target, model.m, model.T)


def evaluate(rep: PredictorRepresentation, z):
    """constant - sum_t U_t(z_1..z_t)^T e(z_{t+1}) along one path or each row of a stack.

    z is one path (T,), which gives a float, or paths (N, T), which give an
    (N,) array: each path's entry of ``path_values``, gathered by its rank.
    Tokens are read as ``validate_tokens`` reads them, with its errors. The
    ranks are one int64 vector built by Horner's rule, a column at a time,
    so a table of small integers (say int8) is never copied whole.
    """
    z = np.asarray(z)
    if z.ndim not in (1, 2):
        raise ValueError(f"expected one path (T,) or paths (N, T), got shape {z.shape}")
    if z.shape[-1] != rep.T:
        raise ValueError(f"path length {z.shape[-1]} does not match horizon {rep.T}")
    paths = np.atleast_2d(z)
    whole = paths.dtype.kind in "iu" or paths.dtype.kind == "f" and bool(np.all(paths == np.floor(paths)))
    if not (whole and (paths.size == 0 or 0 <= paths.min() and paths.max() <= rep.m)):
        # raises at the first bad token in row order, or gives the rows as ints
        paths = np.array([validate_tokens(row, rep.m) for row in paths.tolist()], dtype=int).reshape(paths.shape)
    ranks = np.zeros(len(paths), dtype=np.int64)
    for col in paths.T:
        ranks *= rep.m + 1
        ranks += col.astype(np.int64, copy=False)
    acc = path_values(rep)[ranks]
    return float(acc[0]) if z.ndim == 1 else acc
