"""The library functions the traced run wraps, the stats it reports, and what each should move.

Each entry is one layer boundary. ``target`` names the function as
``module:attribute.path`` (a ``commands.<name>`` step indexes the click
group's command table). ``on`` lists the workloads meant to exercise it: the
traced run fails if one of them records no calls there. ``moves`` says which
end-to-end metric, on which workload, the layer's numbers should drive.

Work counts come from each call's bound arguments ``a`` and its return
value ``r``. ``*_per_entry`` stats divide a count summed over the nested
calls (``nested``) by the call's own ``entries`` count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ALL = ("enum-duality", "seq-long", "tree-dense")
DUAL, SEQ, TREE = ALL


@dataclass(frozen=True)
class Layer:
    key: str
    target: str
    stats: tuple[str, ...]
    on: tuple[str, ...]
    moves: str
    work: Callable[[dict, object], dict] | None = None
    timed: bool = True  # False: count calls only, no span
    nested: str | None = None  # "<layer key>.<count>" summed over calls made inside this one


def _horizon(a) -> int:
    return a["model"].T if a["T"] is None else int(a["T"])


LAYERS = (
    Layer("oracle.forward_filter", "dualfilter.oracle:forward_filter",
          ("calls", "self_s", "steps"), ALL, "wall_s on tree-dense and seq-long",
          lambda a, r: {"steps": len(a["z"])}),
    Layer("oracle.filter_process", "dualfilter.oracle:filter_process",
          ("calls", "self_s", "nodes"), (DUAL, TREE), "wall_s on tree-dense",
          lambda a, r: {"nodes": len(r.tree)}),
    Layer("oracle.path_probability", "dualfilter.oracle:path_probability",
          ("calls", "self_s"), (DUAL,), "wall_s on enum-duality"),
    Layer("oracle.next_token_prob", "dualfilter.oracle:next_token_prob",
          ("calls", "self_s"), (SEQ, TREE), "wall_s on seq-long and tree-dense"),
    Layer("oracle.exact_expectation", "dualfilter.oracle:exact_expectation",
          ("calls", "self_s", "joint_terms"), (DUAL,), "wall_s on enum-duality",
          lambda a, r: {"joint_terms": a["model"].d ** (_horizon(a) + 1) * (a["model"].m + 1) ** _horizon(a)}),
    Layer("dual.duality_report", "dualfilter.dual:duality_report",
          ("calls", "total_s"), (DUAL,), "wall_s on enum-duality"),
    Layer("dual.solve_bsde", "dualfilter.dual:solve_bsde",
          ("calls", "self_s", "nodes"), (DUAL,), "wall_s on enum-duality",
          lambda a, r: {"nodes": len(r.V.tree)}),
    Layer("dual.solve_optimal", "dualfilter.dual:solve_optimal",
          ("calls", "self_s", "nodes", "pinv_fallbacks"), (DUAL, TREE),
          "wall_s and peak_rss_mb on tree-dense",
          lambda a, r: {"nodes": len(r.V.tree), "pinv_fallbacks": len(r.diagnostics)}),
    Layer("dual.bsde_residual_by_node", "dualfilter.dual:bsde_residual_by_node",
          ("calls", "self_s"), (DUAL,), "wall_s on enum-duality"),
    Layer("dual.estimator_values", "dualfilter.dual:estimator_values",
          ("calls", "self_s"), (DUAL, TREE), "wall_s and peak_rss_mb on tree-dense"),
    Layer("dual.estimator_path", "dualfilter.dual:estimator_path",
          ("calls", "self_s"), (DUAL,), "wall_s on enum-duality"),
    Layer("fixedpoint.apply_N_path", "dualfilter.fixedpoint:apply_N_path",
          ("calls", "total_s", "self_s", "steps_per_entry"), (SEQ, TREE), "wall_s on seq-long",
          lambda a, r: {"entries": r[0].size}, nested="fixedpoint.bde_solve.steps"),
    Layer("fixedpoint.bde_solve", "dualfilter.fixedpoint:bde_solve",
          ("calls", "self_s", "steps"), (SEQ, TREE), "wall_s on seq-long",
          lambda a, r: {"steps": int(a["t"])}),
    Layer("fixedpoint.apply_N_adapted", "dualfilter.fixedpoint:apply_N_adapted",
          ("calls", "total_s", "self_s", "nodes_per_entry"), (TREE,), "wall_s on tree-dense",
          lambda a, r: {"entries": len(r[0].tree) * a["model"].d}, nested="dual.solve_optimal.nodes"),
    Layer("fixedpoint.iterate", "dualfilter.fixedpoint:iterate",
          ("calls", "total_s"), (SEQ, TREE), "wall_s on seq-long"),
    Layer("predictor.represent_conditional", "dualfilter.predictor:represent_conditional",
          ("calls", "self_s"), (TREE,), "wall_s on tree-dense"),
    Layer("predictor.build_weights", "dualfilter.predictor:build_weights",
          ("calls", "self_s", "nodes"), (TREE,), "wall_s on tree-dense",
          lambda a, r: {"nodes": len(r.weights.tree)}),
    Layer("predictor.evaluate", "dualfilter.predictor:evaluate",
          ("calls", "self_s"), (TREE,), "wall_s on tree-dense"),
    Layer("attention.layer_forward", "dualfilter.attention:layer_forward",
          ("calls", "self_s", "positions"), (SEQ,), "wall_s on seq-long",
          lambda a, r: {"positions": r.shape[1]}),
    Layer("attention.simplified_form", "dualfilter.attention:simplified_form",
          ("calls", "self_s"), (SEQ,), "wall_s on seq-long"),
    Layer("attention.predictions", "dualfilter.attention:predictions",
          ("calls", "self_s"), (SEQ,), "wall_s on seq-long"),
    Layer("adapted.AdaptedProcess.at", "dualfilter.adapted:AdaptedProcess.at",
          ("calls",), (DUAL, TREE), "wall_s on tree-dense", timed=False),
    Layer("hmm.HmmModel.from_json", "dualfilter.hmm:HmmModel.from_json",
          ("self_s",), ALL, "setup_s on every workload"),
    Layer("cli.oracle", "dualfilter.cli:main.commands.oracle.callback",
          ("total_s", "self_s"), (SEQ,), "wall_s on seq-long"),
    Layer("cli.fixedpoint", "dualfilter.cli:main.commands.fixedpoint.callback",
          ("total_s", "self_s"), (SEQ, TREE), "wall_s on seq-long and tree-dense"),
    Layer("cli.duality", "dualfilter.cli:main.commands.duality.callback",
          ("total_s", "self_s"), (DUAL,), "wall_s on enum-duality"),
    Layer("cli.represent", "dualfilter.cli:main.commands.represent.callback",
          ("total_s", "self_s"), (TREE,), "wall_s on tree-dense"),
    Layer("cli.attention-demo", "dualfilter.cli:main.commands.attention-demo.callback",
          ("total_s", "self_s"), (SEQ,), "wall_s on seq-long"),
)

# Traced wall time of the ops against the same ops run in-process without tracing, minus 1.
OVERHEAD = "trace.overhead_frac"

UNITS = {"total_s": "s", "self_s": "s", "steps_per_entry": "steps/entry", "nodes_per_entry": "nodes/entry"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(f"{layer.key}.{stat}", UNITS.get(stat, "count")) for layer in LAYERS for stat in layer.stats]
    return names + [(OVERHEAD, "ratio")]
