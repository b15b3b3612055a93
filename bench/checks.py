"""Correctness checks on the reports one CLI invocation wrote.

Tolerances are pinned here, not read from the library, so that loosening
them in the program does not loosen the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOLERANCES = {"fixed_point": 1e-10, "duality": 1e-9, "representation": 1e-12, "eq8": 1e-12}
# The benchmark's own forward recursion against the oracle report.
FILTER_TOL = 1e-12
GOLDEN_REL_TOL = 1e-9


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def digest(out: Path) -> str:
    """Hash of every report file's name and bytes, for the byte-identical rerun contract."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def reference_filter(model: dict, path) -> np.ndarray:
    """pi_t for t = 1..T: reweight by the emission column of z_t, normalize, push through A."""
    A, C = np.asarray(model["A"]), np.asarray(model["C"])
    prev = np.asarray(model["mu"])
    out = np.zeros((len(path), len(prev)))
    for i, tok in enumerate(path):
        w = prev * C[:, tok]
        prev = A.T @ (w / w.sum())
        out[i] = prev
    return out


def _check_oracle(op, problems: list[str]) -> dict:
    traj = read_csv(op.out / "filter_trajectory.csv")
    probs = read_csv(op.out / "next_token_probs.csv")
    d, n_tok, T = op.model["d"], op.model["m"] + 1, len(op.path)
    if len(traj) != T * d or len(probs) != T * n_tok:
        problems.append(f"expected {T * d} filter rows and {T * n_tok} probability rows, "
                        f"got {len(traj)} and {len(probs)}")
        return {}
    pis = np.array([float(r["pi"]) for r in traj]).reshape(T, d)
    ref = reference_filter(op.model, op.path)
    err = float(np.max(np.abs(pis - ref)))
    if err > FILTER_TOL:
        problems.append(f"filter differs from the reference recursion by {err:.3e}")
    p = np.array([float(r["prob"]) for r in probs]).reshape(T, n_tok)
    err = float(np.max(np.abs(p - ref @ np.asarray(op.model["C"]))))
    if err > FILTER_TOL:
        problems.append(f"next-token probabilities differ from pi C by {err:.3e}")
    return {}


def _check_fixedpoint(op, problems: list[str]) -> dict:
    mode = op.argv[op.argv.index("--mode") + 1]
    rep = read_json(op.out / "residual_report.json")[mode]
    tol = TOLERANCES["fixed_point"]
    if not rep["pass"] or not rep["residual"] <= tol:
        problems.append(f"fixed-point residual {rep['residual']!r} (pass={rep['pass']}, tolerance {tol})")
    if (op.out / "findings.json").exists():
        problems.append("findings.json written")
    return {}


def _check_duality(op, problems: list[str]) -> dict:
    rep = read_json(op.out / "duality_report.json")
    tol = TOLERANCES["duality"]
    draws = int(op.argv[op.argv.index("--draws") + 1])
    if len(rep["draws"]) != draws:
        problems.append(f"expected {draws} draws, got {len(rep['draws'])}")
    gaps = [r["gap"] for r in rep["draws"]] + [rep["max_gap"]]
    if not rep["pass"] or not all(g <= tol for g in gaps):
        problems.append(f"duality gap {max(gaps)!r} (pass={rep['pass']}, tolerance {tol})")
    worst = max(float(r["max_residual"]) for r in read_csv(op.out / "diagnostics.csv"))
    if not worst <= tol:
        problems.append(f"diagnostics residual {worst!r} above {tol}")
    return {"J_T": [r["J_T"] for r in rep["draws"]], "mse": [r["mse"] for r in rep["draws"]]}


def _check_represent(op, problems: list[str]) -> dict:
    rep = read_json(op.out / "representation.json")
    tol = TOLERANCES["representation"]
    if not rep["reconstruction_error"] <= tol:
        problems.append(f"reconstruction error {rep['reconstruction_error']!r} above {tol}")
    return {"constant": rep["constant"]}


def _check_attention(op, problems: list[str]) -> dict:
    rep = read_json(op.out / "attention_report.json")
    tol = TOLERANCES["eq8"]
    if not rep["bilinear_equality_ok"] or not rep["bilinear_equality_error"] <= tol:
        problems.append(f"bilinear equality error {rep['bilinear_equality_error']!r} "
                        f"(ok={rep['bilinear_equality_ok']}, tolerance {tol})")
    rows = read_csv(op.out / "layer_predictions.csv")
    last = max(int(r["layer"]) for r in rows)
    return {"final_layer_probs": [float(r["prob"]) for r in rows if int(r["layer"]) == last]}


CHECKERS = {
    "oracle": _check_oracle,
    "fixedpoint": _check_fixedpoint,
    "duality": _check_duality,
    "represent": _check_represent,
    "attention": _check_attention,
}


def check_reports(op) -> tuple[list[str], dict]:
    """Problems found in the op's reports, and its headline values for the goldens."""
    problems: list[str] = []
    try:
        headline = CHECKERS[op.kind](op, problems)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"], {}
    return problems, headline


def compare_golden(headline: dict, golden: dict) -> list[str]:
    problems = []
    for key, want in golden.items():
        got = headline.get(key)
        want_list = want if isinstance(want, list) else [want]
        got_list = got if isinstance(got, list) else [got]
        if got is None or len(got_list) != len(want_list):
            problems.append(f"headline {key} missing or of the wrong length")
            continue
        bad = [i for i, (g, w) in enumerate(zip(got_list, want_list))
               if not math.isclose(g, w, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0)]
        if bad:
            i = bad[0]
            problems.append(f"headline {key}[{i}] = {got_list[i]!r}, golden {want_list[i]!r} "
                            f"({len(bad)} of {len(want_list)} off)")
    return problems
