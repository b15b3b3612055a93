"""Tests of the benchmark's own arithmetic.

    PYTHONPATH=src python3 -m pytest bench -q

The work counts the traced run reports are checked against brute counts of
the underlying steps at d=2, m=1, T=2; self time is checked on a synthetic
nested call driven by a fake clock.
"""

import sys
import types
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from dualfilter import dual, fixedpoint, oracle, predictor  # noqa: E402
from dualfilter.adapted import random_weight_process  # noqa: E402
from dualfilter.hmm import HmmModel  # noqa: E402
from layers import LAYERS, Layer  # noqa: E402
from run import layer_values  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import joint_terms, random_model, tree_nodes  # noqa: E402

D, M, T = 2, 1, 2


@pytest.fixture
def model():
    return HmmModel.from_dict(random_model(np.random.default_rng(7), D, M, T))


def counting(module, name):
    """Patch ``module.name`` with a call-counting wrapper; the mock's call_count is the brute count."""
    return mock.patch.object(module, name, side_effect=getattr(module, name))


def test_joint_terms_match_enumeration(model):
    calls = []
    tracer = Tracer()
    with tracer.install(LAYERS):
        oracle.exact_expectation(model, lambda x, z: calls.append((x, z)) or 1.0)
    values = layer_values(tracer)
    assert len(calls) == len(set(calls)) == D ** (T + 1) * (M + 1) ** T == joint_terms(D, M, T)
    assert values["oracle.exact_expectation.joint_terms"] == len(calls)


def test_tree_node_counts_match_enumeration(model):
    rng = np.random.default_rng(1)
    tracer = Tracer()
    with tracer.install(LAYERS), counting(dual, "_successor_split") as split:
        pi = oracle.filter_process(model)
        dual.solve_bsde(model, random_weight_process(rng, M, T), rng.standard_normal(D))
        dual.solve_optimal(model, pi, rng.standard_normal(D))
        rep = predictor.represent_conditional(model, 0)
    values = layer_values(tracer)
    interior = sum(1 for t in range(T) for _ in product(range(M + 1), repeat=t))
    assert values["oracle.filter_process.nodes"] == tree_nodes(M, T) - 1 == len(pi.tree)
    assert split.call_count == 2 * interior
    assert values["dual.solve_bsde.nodes"] == values["dual.solve_optimal.nodes"] == interior
    assert values["predictor.build_weights.nodes"] == interior == len(rep.weights.tree)
    assert values["dual.solve_optimal.pinv_fallbacks"] == 0


def test_path_steps_match_feedback_calls(model):
    z = (1, 0)
    rho = oracle.forward_filter(model, z)
    tracer = Tracer()
    with tracer.install(LAYERS), counting(fixedpoint, "scalar_feedback") as feedback:
        fixedpoint.apply_N_path(model, rho, z)
    values = layer_values(tracer)
    # one feedback evaluation per backward step; T*d output entries
    assert values["fixedpoint.bde_solve.calls"] == T * D
    assert values["fixedpoint.bde_solve.steps"] == feedback.call_count == D * T * (T + 1) // 2
    assert values["fixedpoint.apply_N_path.steps_per_entry"] == feedback.call_count / (T * D) == (T + 1) / 2
    assert values["oracle.forward_filter.steps"] == 0  # forward_filter ran before tracing


def test_adapted_nodes_per_entry_match_backward_steps(model):
    pi = oracle.filter_process(model)
    tracer = Tracer()
    with tracer.install(LAYERS), counting(dual, "_successor_split") as split:
        out, _ = fixedpoint.apply_N_adapted(model, pi)
    values = layer_values(tracer)
    entries = len(out.tree) * D
    assert entries == (tree_nodes(M, T) - 1) * D
    assert values["fixedpoint.apply_N_adapted.nodes_per_entry"] == split.call_count / entries
    assert values["dual.solve_optimal.calls"] == T * D


@pytest.fixture
def synthetic():
    """A package ``fakepkg`` whose ``outer`` calls ``inner`` twice, also through an alias module."""
    clock = types.SimpleNamespace(now=0.0)
    layer = types.ModuleType("fakepkg.layer")
    user = types.ModuleType("fakepkg.user")

    def inner():
        clock.now += 2.0
        return 1

    def outer():
        clock.now += 1.0
        total = layer.inner() + user.inner_alias()
        clock.now += 1.0
        return total

    layer.inner, layer.outer, user.inner_alias = inner, outer, inner
    pkg = types.ModuleType("fakepkg")
    modules = {"fakepkg": pkg, "fakepkg.layer": layer, "fakepkg.user": user}
    with mock.patch.dict(sys.modules, modules):
        yield clock, layer, user


def test_self_time_of_nested_spans(synthetic):
    clock, layer, user = synthetic
    layers = [
        Layer("outer", "fakepkg.layer:outer", ("calls",), (), "", nested="inner.n"),
        Layer("inner", "fakepkg.layer:inner", ("calls",), (), "", lambda a, r: {"n": r}),
    ]
    originals = (layer.outer, layer.inner, user.inner_alias)
    tracer = Tracer(clock=lambda: clock.now)
    with tracer.install(layers, package="fakepkg"):
        assert layer.outer() == 2
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 6.0, 2.0)
    assert (inner.calls, inner.total_s, inner.self_s) == (2, 4.0, 4.0)
    assert outer.nested["inner.n"] == 2 and inner.work["n"] == 2
    assert (layer.outer, layer.inner, user.inner_alias) == originals


def test_every_layer_target_resolves():
    tracer = Tracer()
    with tracer.install(LAYERS):
        pass
    assert set(tracer.stats) == {layer.key for layer in LAYERS}
