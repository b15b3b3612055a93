"""Report bytes pinned by sha256: every command on two small fixed models.

Tolerance checks elsewhere let a change move the last bits of a report;
these hashes do not. Each case runs inside an isolated working directory
with relative model paths, so the config hash in every report header is the
same wherever the suite runs. A change that is meant to alter report bytes
(a new report field, a different order of summation) re-records the hashes
with ``PYTHONPATH=src python tests/test_report_golden.py``, which also lists
under ``changed`` each report whose digest differs from CASES, old beside
new, and says why in CHANGES.md; the hashes assume numpy's float64
arithmetic and may need re-recording after a numpy upgrade that changes
rounding.
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

# Config files written beside the models; a case names one with --config.
CONFIGS = {"heads4.json": {"attn_heads": 4}, "T9.json": {"T": 9}}

# (case, argv without --out, exit code, {report: sha256})
CASES = [
    ("oracle", ["oracle", "--model", "dense.json", "--path", "2.0.1"], 0, {
        "filter_trajectory.csv": "b40b1c98f54a753b23b057a2f7f2858b8b08adbbcd3d1cc85f0dfadf07c78068",
        "next_token_probs.csv": "1d7704df92ed70e3a7b3a2adbcf0c7c5a45c9b8afb62aaf26e805efa323a6aec",
    }),
    ("fixedpoint-path", ["fixedpoint", "--model", "dense.json", "--path", "1.2.0", "--iterations", "2"], 0, {
        "iteration_trace.csv": "34672994abae2d6e49e786286e8484cac83409ed662c95fc1b12cf47573fd9d7",
        "residual_report.json": "ef9ca470e97aae0e210db93217eebff5f0834fe7468aeec52ceecc3be91b9e50",
    }),
    ("fixedpoint-adapted", ["fixedpoint", "--model", "dense.json", "--mode", "adapted", "--path", "0.1.2",
                            "--iterations", "2"], 0, {
        "iteration_trace.csv": "2ccef796393ac4b1cb4565ab9911d63b4f498918dba248a87bcdf72267446b9e",
        "residual_report.json": "1f88fe591b7c4b71d8808da6e203b3accbcbd24b07c09c6a33df8b133be5064c",
    }),
    ("duality", ["duality", "--model", "dense.json", "--draws", "2", "--seed", "5"], 0, {
        "diagnostics.csv": "904eb10fa97cc293ab7c3b251249f642c218a79cafad08a04be5d746048efec1",
        "duality_report.json": "d48660ec6a638e88195695a97ed7b746d9b3cbbc93c27d51aab4b18879374216",
    }),
    ("represent", ["represent", "--model", "dense.json", "--z-query", "1"], 0, {
        "representation.json": "568656ee82e62817192f0b97a2db57248582fee330ccdb6f61a41c39aca7cfbe",
    }),
    ("attention-demo", ["attention-demo", "--model", "dense.json", "--path", "0.2.1.1.0", "--seed", "3"], 0, {
        "attention_report.json": "72692aedfd1746e199d96d857819d18eefb434227ccea8dda8db22264227e373",
        "layer_divergence.csv": "0b97b49100d97b6bc8183719744661c776125b9cfedd74c25366ba11c965d7f6",
        "layer_predictions.csv": "4ff695f5a976829dcae322af89d3ce4314fc45fe70c65024db8d9cd425bd3bca",
    }),
    # d_V = 2 per head: the layer's stacked head projections at a head count other than the default 2
    ("attention-demo-heads4", ["attention-demo", "--model", "dense.json", "--config", "heads4.json",
                               "--path", "0.2.1.1.0", "--seed", "3"], 0, {
        "attention_report.json": "d676a603a7d46728cec332f5f639d0d25bbad423ed41ca0a2af76069b15aaea8",
        "layer_divergence.csv": "c86f495802ede467ee3968da5235b4f9f6d2c3dfef38be2e5d360c754a6900c9",
        "layer_predictions.csv": "225350c74cff32edee141cba985a595440d945c0fb48bf4db9c224df37bc389c",
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
    # without --path the path is sampled first, then the command makes its own draws from the same generator
    ("oracle-sampled", ["oracle", "--model", "dense.json", "--seed", "4"], 0, {
        "filter_trajectory.csv": "72c784184fe7eeb9fc38be1fb1c2824f214e54da969c457b712fe160bc13e774",
        "next_token_probs.csv": "11caee127ba1e50a209524a537d9a2cf412d3af30954b0edaa3973281ae0d2be",
    }),
    # config T samples from the model at that horizon: the same draws as a model file with T = 9
    ("oracle-sampled-T9", ["oracle", "--model", "dense.json", "--config", "T9.json", "--seed", "4"], 0, {
        "filter_trajectory.csv": "52eedc34ab04d40de59ac1f4e3e4dbfa697b595756c7b8050536491e20b396b1",
        "next_token_probs.csv": "1466a92b325449e9dcca1f5d006ed72459281853239fa1db16ec2344a46c36a6",
    }),
    ("attention-demo-sampled", ["attention-demo", "--model", "dense.json", "--seed", "3"], 0, {
        "attention_report.json": "afe7fe5c3a25f4c52a6bbdd01862f750b6dd035178da5641be4fa9a86e1a3ee0",
        "layer_divergence.csv": "66c641bc193d7629f6c9fd7b9ecd3e239fb1c33c5b008485cd285e5bdcd2d490",
        "layer_predictions.csv": "9c67f5dde2bb94742d78b3ad9e712eb15d88694e73577d02855523fe5acc444e",
    }),
]


def run_case(runner, argv):
    """Run one case in the current directory; returns (click result, {report: sha256})."""
    for name, doc in {**MODELS, **CONFIGS}.items():
        Path(name).write_text(json.dumps(doc))
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
    # Re-record: print each case's exit code, digests, and the old and new digest of each report that moved.
    runner = CliRunner()
    for case, argv, _, want in CASES:
        with runner.isolated_filesystem():
            res, got = run_case(runner, argv)
        changed = {name: {"old": want.get(name), "new": got.get(name)}
                   for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)}
        json.dump({"case": case, "exit": res.exit_code, "reports": got, "changed": changed}, sys.stdout)
        sys.stdout.write("\n")
