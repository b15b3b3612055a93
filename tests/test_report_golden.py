"""Report bytes pinned by sha256: every command on two small fixed models.

Tolerance checks elsewhere let a change move the last bits of a report;
these hashes do not. Each case runs inside an isolated working directory
with relative model paths, so the config hash in every report header is the
same wherever the suite runs. A change that is meant to alter report bytes
(a new report field, a different order of summation) re-records the hashes
with ``PYTHONPATH=src python tests/test_report_golden.py``, which also lists
under ``changed`` each report whose digest differs from CASES, and says why
in CHANGES.md; the hashes assume numpy's float64 arithmetic and may need
re-recording after a numpy upgrade that changes rounding.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from dualfilter.cli import main

# d=3, m=2, T=3; every entry positive, so every prefix is possible.
DENSE = {
    "d": 3,
    "m": 2,
    "T": 3,
    "mu": [0.5, 0.3, 0.2],
    "A": [[0.7, 0.2, 0.1], [0.15, 0.6, 0.25], [0.3, 0.3, 0.4]],
    "C": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]],
}

# d=3, m=1, T=3; state 0 only emits 0, state 2 only emits 1 and never
# leaves, so some prefixes (1.0, 0.1.0, ...) have probability 0.
SPARSE = {
    "d": 3,
    "m": 1,
    "T": 3,
    "mu": [0.5, 0.5, 0.0],
    "A": [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    "C": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
}

MODELS = {"dense.json": DENSE, "sparse.json": SPARSE}

# (case, argv without --out, exit code, {report: sha256})
CASES = [
    ("oracle", ["oracle", "--model", "dense.json", "--path", "2.0.1"], 0, {
        "filter_trajectory.csv": "b40b1c98f54a753b23b057a2f7f2858b8b08adbbcd3d1cc85f0dfadf07c78068",
        "next_token_probs.csv": "1d7704df92ed70e3a7b3a2adbcf0c7c5a45c9b8afb62aaf26e805efa323a6aec",
    }),
    ("fixedpoint-path", ["fixedpoint", "--model", "dense.json", "--path", "1.2.0", "--iterations", "2"], 0, {
        "iteration_trace.csv": "fc4a33ff3d1ee26e26cce3f6dc1ae5463e8da674e27e860c9315435e2180bb19",
        "residual_report.json": "acdc06a702f589a4a74ec43b166148b93b70379d04da1b430e5be7a78fa16904",
    }),
    ("fixedpoint-adapted", ["fixedpoint", "--model", "dense.json", "--mode", "adapted", "--path", "0.1.2",
                            "--iterations", "2"], 0, {
        "iteration_trace.csv": "48f2f4edcd85412e2571d23cdb38c209418b0005064aa23cd669b22e872e7ca7",
        "residual_report.json": "f6c2752e1d5d7f97af00b21c531071083b5d032b9691345bb38923a4b61a12c6",
    }),
    ("duality", ["duality", "--model", "dense.json", "--draws", "2", "--seed", "5"], 0, {
        "diagnostics.csv": "76dd76b0743928ebc292ad835dbbbc43233abe5e4abbf9a7b881fff5e78f8a14",
        "duality_report.json": "d48660ec6a638e88195695a97ed7b746d9b3cbbc93c27d51aab4b18879374216",
    }),
    ("represent", ["represent", "--model", "dense.json", "--z-query", "1"], 0, {
        "representation.json": "568656ee82e62817192f0b97a2db57248582fee330ccdb6f61a41c39aca7cfbe",
    }),
    ("attention-demo", ["attention-demo", "--model", "dense.json", "--path", "0.2.1.1.0", "--seed", "3"], 0, {
        "attention_report.json": "27e56cd133b44429b69707c4da68d2dabbd04e4f73f972abe269b7868e330f44",
        "layer_divergence.csv": "d0d9071f33d11134d6d1202d2d3bb662c5c3f3b4d8cf6abcbc9f6b75e07c756b",
        "layer_predictions.csv": "8a054791e00cf589a7960acce587980d8e12c55b134021202e0c27182dffc2d2",
    }),
    ("represent-zero", ["represent", "--model", "sparse.json", "--z-query", "0", "--zero-convention"], 0, {
        "representation.json": "5803b5a8752b1b4626cf908952496f8172ac8209edc5477d249f566409c45e9c",
    }),
    ("fixedpoint-adapted-zero", ["fixedpoint", "--model", "sparse.json", "--mode", "adapted", "--path", "0.1.1",
                                 "--iterations", "1", "--zero-convention"], 0, {
        "iteration_trace.csv": "9abc6bbe050e053d16cdd411e6042e717509a0a735507771ae7f8fd2ecf39cca",
        "residual_report.json": "535ba850586a5decaa87962f75835c041fe1d21a9f4c34e2a11983ddcb2f0f95",
    }),
    # rows 2 and 3 of the filter are zero measures and row 1 is (0, 0, 1), where
    # token 0 has predictive probability 0: both reach the per-path map's degenerate branch
    ("fixedpoint-path-zero", ["fixedpoint", "--model", "sparse.json", "--path", "1.0.1", "--iterations", "2",
                              "--zero-convention"], 0, {
        "iteration_trace.csv": "633fc703675a4003e0ad99deda8b7ff3aa3e0f64e44b09f9c78271c954dc7da5",
        "residual_report.json": "078749e4a17c6013394aae8088631dff7f8de951cc0d6739bfc3da9cc46041a8",
    }),
]


def run_case(runner, argv):
    """Run one case in the current directory; returns (click result, {report: sha256})."""
    for name, model in MODELS.items():
        Path(name).write_text(json.dumps(model))
    out = Path("out")
    res = runner.invoke(main, [*argv, "--out", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return res, digests


@pytest.mark.parametrize("case, argv, code, want", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(case, argv, code, want):
    runner = CliRunner()
    with runner.isolated_filesystem():
        res, got = run_case(runner, argv)
    assert res.exit_code == code, res.output
    assert got == want


if __name__ == "__main__":
    # Re-record: print each case's exit code, digests, and the reports whose digest differs from CASES.
    runner = CliRunner()
    for case, argv, _, want in CASES:
        with runner.isolated_filesystem():
            res, got = run_case(runner, argv)
        changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
        json.dump({"case": case, "exit": res.exit_code, "reports": got, "changed": changed}, sys.stdout)
        sys.stdout.write("\n")
