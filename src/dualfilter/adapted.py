"""Adapted processes stored as one array per level of the observation prefix tree.

A value attached to the prefix (z_1, ..., z_t) can only depend on the first
t observations, so measurability with respect to the observation history is
structural: there is nowhere to store a look-ahead.

Level t holds the (m+1)^t prefixes of length t in prefix-rank order: row r
is the prefix whose base-(m+1) digits are r, first token most significant,
which is the order of ``prefixes(m, t)``. So the children of row r are rows
r (m+1) + z of level t+1, and a level of shape ((m+1)^t, ...) reshapes to
((m+1)^(t-1), m+1, ...) with one row of siblings per parent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .hmm import validate_tokens

Prefix = tuple[int, ...]


def prefixes(m: int, t: int) -> Iterator[Prefix]:
    """All (m+1)^t token prefixes of length t, in prefix-rank order."""
    return product(range(m + 1), repeat=t)


def prefix_rank(prefix: Prefix, m: int) -> int:
    """The row of a validated prefix in its level: the number with base-(m+1) digits ``prefix``."""
    return functools.reduce(lambda rank, tok: rank * (m + 1) + tok, prefix, 0)


@dataclass(frozen=True)
class AdaptedProcess:
    """Values at every prefix of the levels present, over the alphabet 0..m.

    ``levels[t]`` is None where level t is absent, or an array of shape
    ((m+1)^t, ...) whose row r is the time-t value at the prefix of rank r,
    so a level present is complete by construction. Rows are floats or
    arrays, of one shape per level.
    """

    m: int
    levels: tuple

    def __post_init__(self):
        levels = tuple(None if level is None else np.asarray(level) for level in self.levels)
        for t, level in enumerate(levels):
            if level is not None and level.shape[:1] != ((self.m + 1) ** t,):
                raise ValueError(f"level {t} must have {(self.m + 1) ** t} rows, got shape {level.shape}")
        object.__setattr__(self, "levels", levels)

    def at(self, prefix) -> object:
        """The value at ``prefix``, any sequence of integer-valued tokens (``validate_tokens``)."""
        w = validate_tokens(prefix, self.m)
        if len(w) >= len(self.levels) or self.levels[len(w)] is None:
            raise ValueError(f"adapted process has no value at prefix {w}")
        return self.levels[len(w)][prefix_rank(w, self.m)]

    @property
    def tree(self) -> dict[Prefix, object]:
        """A prefix-keyed copy of the values, level by level in rank order, for tests and inspection."""
        present = [(t, level) for t, level in enumerate(self.levels) if level is not None]
        return {w: value for t, level in present for w, value in zip(prefixes(self.m, t), level)}

    def check_complete(self, m: int, levels) -> "AdaptedProcess":
        """Check the alphabet is 0..m and every level in ``levels`` is present; returns self."""
        if self.m != m:
            raise ValueError(f"adapted process is over the alphabet 0..{self.m}, expected 0..{m}")
        for t in levels:
            if t >= len(self.levels) or self.levels[t] is None:
                raise ValueError(f"adapted process incomplete: level {t} is absent")
        return self


def random_weight_process(rng: np.random.Generator, m: int, T: int, scale: float = 1.0) -> AdaptedProcess:
    """Seeded random control process: an R^m value at every prefix of length 0..T-1, drawn in rank order."""
    return AdaptedProcess(m, tuple(scale * rng.standard_normal(((m + 1) ** t, m)) for t in range(T)))


def prefix_string(prefix: Prefix) -> str:
    """Serialize a prefix as token digits joined by '.'; the root is ''."""
    return ".".join(str(t) for t in prefix)
