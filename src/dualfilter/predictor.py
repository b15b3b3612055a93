"""Constructive nonlinear-predictor weights for path-indexed targets.

Any function of a full observation path can be written as a constant minus
an adapted-weighted sum of embedded tokens; the weights fall out of a
backward induction that repeatedly splits the last token off via the
mean/tilde decomposition. Applied to conditional next-token probabilities
this yields the predictor weights realized here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .adapted import AdaptedProcess, Prefix, prefix_string, parse_prefix, prefixes
from .hmm import HmmModel, decompose, token_basis, validate_tokens
from .oracle import _filter_walk, next_token_prob


@dataclass(frozen=True)
class PredictorRepresentation:
    """constant - sum_t U_t(prefix)^T e(z_{t+1}) over a horizon of T tokens."""

    constant: float
    weights: AdaptedProcess
    m: int
    T: int

    def to_dict(self) -> dict:
        pairs = []
        for t in range(self.T):
            for w, val in self.weights.level_items(t):
                pairs.append([prefix_string(w), np.asarray(val).tolist()])
        return {"constant": self.constant, "weights": pairs, "m": self.m, "T": self.T}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "PredictorRepresentation":
        tree = {parse_prefix(k): np.asarray(v, dtype=float) for k, v in obj["weights"]}
        return cls(
            constant=float(obj["constant"]),
            weights=AdaptedProcess(tree),
            m=int(obj["m"]),
            T=int(obj["T"]),
        )


def _check_target(target: Mapping, m: int, T: int) -> dict[Prefix, float]:
    out = {}
    for path in prefixes(m, T):
        if path not in target:
            raise ValueError(f"target map missing path {path}; all (m+1)^T paths are required")
        out[path] = float(target[path])
    return out


def build_weights(target: Mapping, m: int, T: int) -> PredictorRepresentation:
    """Backward induction from a complete map over all (m+1)^T paths.

    Level by level, the map z -> S_t(prefix, z) is decomposed into
    (mean, tilde); the weight at the prefix is -tilde and the mean becomes
    the level t-1 value. Reconstruction along every path is exact.
    """
    level = _check_target(target, m, T)
    tree: dict[Prefix, np.ndarray] = {}
    for t in range(T, 0, -1):
        next_level: dict[Prefix, float] = {}
        for w in prefixes(m, t - 1):
            s = np.array([level[w + (z,)] for z in range(m + 1)])
            mean, tilde = decompose(s)
            tree[w] = -tilde
            next_level[w] = mean
        level = next_level
    return PredictorRepresentation(constant=level[()], weights=AdaptedProcess(tree), m=m, T=T)


def build_weights_lstsq(target: Mapping, m: int, T: int) -> PredictorRepresentation:
    """Independent construction: per-prefix least-squares fit of mean + tilde^T e(z).

    Same induction shape as build_weights but each split solves the
    (m+1) x (m+1) linear system against the token basis instead of using
    the closed-form decomposition; used to cross-check uniqueness.
    """
    level = _check_target(target, m, T)
    design = np.hstack([np.ones((m + 1, 1)), token_basis(m)])
    tree: dict[Prefix, np.ndarray] = {}
    for t in range(T, 0, -1):
        next_level: dict[Prefix, float] = {}
        for w in prefixes(m, t - 1):
            s = np.array([level[w + (z,)] for z in range(m + 1)])
            coef, *_ = np.linalg.lstsq(design, s, rcond=None)
            tree[w] = -coef[1:]
            next_level[w] = float(coef[0])
        level = next_level
    return PredictorRepresentation(constant=level[()], weights=AdaptedProcess(tree), m=m, T=T)


def represent_conditional(
    model: HmmModel,
    z_query: int,
    T: int | None = None,
    zero_convention: bool = False,
) -> PredictorRepresentation:
    """Predictor weights for path -> P(Z_{T+1} = z_query | Z_1..Z_T = path).

    The target is the filtered next-token probability on every path, read
    off one depth-first filter walk that holds one path's measure at a time;
    with ``zero_convention`` impossible paths contribute target value 0 (the
    0/0 := 0 extension), otherwise they raise.
    """
    T = model.T if T is None else int(T)
    z_query = int(z_query)
    if not 0 <= z_query <= model.m:
        raise ValueError(f"token {z_query} outside alphabet 0..{model.m}")
    target = {}
    for path, pi_T in _filter_walk(model, T, zero_convention, leaves=True):
        if zero_convention and pi_T.sum() == 0.0:
            target[path] = 0.0
        else:
            target[path] = float(next_token_prob(model, pi_T)[z_query])
    return build_weights(target, model.m, T)


def evaluate(rep: PredictorRepresentation, z) -> float:
    """constant - sum_t U_t(z_1..z_t)^T e(z_{t+1}) along one path.

    The weights are read off the tree directly. u^T e(z) is u_z for z >= 1
    and u^T e(0) = -(u_1 + ... + u_m), which is added as u^T 1: the same
    bits as the dot with e(z).
    """
    z = validate_tokens(z, rep.m)
    if len(z) != rep.T:
        raise ValueError(f"path length {len(z)} does not match horizon {rep.T}")
    tree = rep.weights.tree
    ones = np.ones(rep.m)
    acc = rep.constant
    for t, tok in enumerate(z):
        u = tree[z[:t]]
        if tok:
            acc -= float(u[tok - 1])
        else:
            acc += float(np.dot(u, ones))
    return acc
