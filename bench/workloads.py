"""Workload inputs: seeded HMM models and observation paths, and the CLI ops run on them.

Every model is a strictly positive Dirichlet draw, so every observation
prefix has positive probability. The CLI receives only the files and flags
built here; nothing else about the seed reaches it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("enum-duality", "seq-long", "tree-dense")


@dataclass
class Op:
    """One CLI invocation: its arguments, its report directory and the inputs it was given."""

    name: str
    kind: str  # which report checker applies: oracle, fixedpoint, duality, represent, attention
    argv: list[str]
    out: Path
    model: dict
    path: tuple[int, ...] = ()
    sizes: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    work: Path  # inputs, reports and logs of this run
    setup: Op  # minimal invocation timed for setup_s
    ops: list[Op]  # one pass, in order


def tree_nodes(m: int, T: int) -> int:
    """Prefixes of length 0..T: the nodes of a full (m+1)-ary prefix tree of depth T."""
    return sum((m + 1) ** t for t in range(T + 1))


def joint_terms(d: int, m: int, T: int) -> int:
    """Joint (hidden path, observation path) terms that exact_expectation walks."""
    return d ** (T + 1) * (m + 1) ** T


def random_model(rng: np.random.Generator, d: int, m: int, T: int) -> dict:
    return {
        "d": d,
        "m": m,
        "T": T,
        "mu": rng.dirichlet(np.ones(d)).tolist(),
        "A": rng.dirichlet(np.ones(d), size=d).tolist(),
        "C": rng.dirichlet(np.ones(m + 1), size=d).tolist(),
    }


def random_path(rng: np.random.Generator, m: int, T: int) -> tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, m + 1, size=T))


def path_arg(path) -> str:
    return ".".join(str(t) for t in path)


class _Builder:
    """Writes model files under ``work`` and names each op's report directory."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def model_file(self, name: str, model: dict) -> str:
        path = self.work / "inputs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(model, indent=2, sort_keys=True) + "\n")
        return self.rel(path)

    def op(self, name, kind, command, model_file, model, flags, path=(), **sizes) -> Op:
        out = self.work / "reports" / name
        argv = [command, "--model", model_file, *flags, "--out", self.rel(out)]
        if path:
            argv += ["--path", path_arg(path)]
        sizes = {"d": model["d"], "m": model["m"], "T": len(path) if path else model["T"], **sizes}
        return Op(name, kind, argv, out, model, tuple(path), sizes)

    def setup(self, model_file: str, model: dict, rng) -> Op:
        """oracle with a one-token path: start-up, import and model validation, little else."""
        return self.op("setup", "oracle", "oracle", model_file, model, [], random_path(rng, model["m"], 1))


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` under ``work`` and list its ops."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([WORKLOADS.index(name), seed])
    b = _Builder(root, work)

    if name == "enum-duality":
        d, m, T = 3, 2, 5
        model = random_model(rng, d, m, T)
        mf = b.model_file("model", model)
        cli_seed = str(int(rng.integers(2**31)))
        ops = [
            b.op(
                "duality", "duality", "duality", mf, model, ["--draws", "2", "--seed", cli_seed],
                joint_terms=joint_terms(d, m, T), tree_nodes=tree_nodes(m, T),
            )
        ]
        return Workload(name, work, b.setup(mf, model, rng), ops)

    if name == "seq-long":
        d, m = 8, 1
        model = random_model(rng, d, m, 200)
        mf = b.model_file("model", model)
        path = random_path(rng, m, 1000)
        cli_seed = str(int(rng.integers(2**31)))
        ops = [
            b.op("fixedpoint-path", "fixedpoint", "fixedpoint", mf, model,
                 ["--mode", "path", "--iterations", "1"], path[:200]),
            b.op("attention-demo", "attention", "attention-demo", mf, model, ["--seed", cli_seed], path[:500]),
            b.op("oracle", "oracle", "oracle", mf, model, [], path),
        ]
        return Workload(name, work, b.setup(mf, model, rng), ops)

    d, m = 4, 2
    base = random_model(rng, d, m, 7)
    adapted_model = dict(base, T=7)
    represent_model = dict(base, T=8)
    adapted_file = b.model_file("model-T7", adapted_model)
    represent_file = b.model_file("model-T8", represent_model)
    ops = [
        b.op("fixedpoint-adapted", "fixedpoint", "fixedpoint", adapted_file, adapted_model,
             ["--mode", "adapted", "--iterations", "1"], random_path(rng, m, 7),
             tree_nodes=tree_nodes(m, 7)),
        b.op("represent", "represent", "represent", represent_file, represent_model,
             ["--z-query", str(int(rng.integers(m + 1)))],
             tree_nodes=tree_nodes(m, 8), paths=(m + 1) ** 8),
    ]
    return Workload(name, work, b.setup(adapted_file, adapted_model, rng), ops)
