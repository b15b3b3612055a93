"""Adapted processes stored as trees keyed by observation prefixes.

A value attached to the prefix (z_1, ..., z_t) can only depend on the first
t observations, so measurability with respect to the observation history is
structural: there is nowhere to store a look-ahead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Mapping

import numpy as np

Prefix = tuple[int, ...]


def prefixes(m: int, t: int) -> Iterator[Prefix]:
    """All (m+1)^t token prefixes of length t, in lexicographic order."""
    return product(range(m + 1), repeat=t)


@dataclass(frozen=True)
class AdaptedProcess:
    """Prefix-keyed values; the value at a length-t key is the time-t value.

    Values are floats or numpy arrays. The tree is stored densely over all
    (m+1)^t prefixes per level (desk scale), which the completeness checks
    below enforce.
    """

    tree: Mapping[Prefix, object] = field(default_factory=dict)

    def at(self, prefix) -> object:
        """The value at ``prefix``, any sequence of integer-valued tokens.

        Integer-valued floats and numpy integers hash like the ints they
        equal, so they find the same key; a token such as 1.5 finds none.
        """
        key = tuple(prefix)
        try:
            return self.tree[key]
        except KeyError:
            shown = tuple(np.asarray(key).tolist())
            raise ValueError(f"adapted process has no value at prefix {shown}") from None

    def level_items(self, t: int) -> list[tuple[Prefix, object]]:
        return sorted((k, v) for k, v in self.tree.items() if len(k) == t)

    def check_complete(self, m: int, levels) -> "AdaptedProcess":
        counts = Counter(len(k) for k in self.tree)
        for t in levels:
            want = (m + 1) ** t
            have = counts[t]
            if have != want:
                raise ValueError(
                    f"adapted process incomplete at level {t}: {have} of {want} prefixes present"
                )
        return self

    @classmethod
    def from_function(cls, m: int, levels, fn: Callable[[Prefix], object]) -> "AdaptedProcess":
        tree = {}
        for t in levels:
            for w in prefixes(m, t):
                tree[w] = fn(w)
        return cls(tree)


def random_weight_process(rng: np.random.Generator, m: int, T: int, scale: float = 1.0) -> AdaptedProcess:
    """Seeded random control process: an R^m value at every prefix of length 0..T-1."""
    return AdaptedProcess.from_function(
        m, range(T), lambda _: scale * rng.standard_normal(m)
    )


def prefix_string(prefix: Prefix) -> str:
    """Serialize a prefix as token digits joined by '.'; the root is ''."""
    return ".".join(str(t) for t in prefix)


def parse_prefix(text: str) -> Prefix:
    if text == "":
        return ()
    return tuple(int(t) for t in text.split("."))
