"""Report bytes pinned by sha256: every command on two small fixed models.

Tolerance checks elsewhere let a change move the last bits of a report;
these hashes do not. Each case runs inside an isolated working directory
with relative model paths, so the config hash in every report header is the
same wherever the suite runs. A change that is meant to alter report bytes
(a new report field, a different order of summation) re-records the hashes
with ``PYTHONPATH=src python tests/test_report_golden.py``, which also lists
under ``changed`` each report whose digest differs from CASES, old beside
new, and under ``bodies`` each report's digest without its header (a CSV's
first line, a JSON's ``header`` key), so bodies that match across a change
show that only the config hash moved. The change says why in CHANGES.md.
The hashes assume numpy's float64 arithmetic and may need re-recording
after a numpy upgrade that changes rounding.
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

MODELS = {"dense.json": DENSE, "dense9.json": {**DENSE, "T": 9}, "sparse.json": SPARSE}

# Config files written beside the models; a case names one with --config.
CONFIGS = {"heads4.json": {"attn_heads": 4}}

# (case, argv without --out, exit code, {report: sha256})
CASES = [
    ("oracle", ["oracle", "--model", "dense.json", "--path", "2.0.1"], 0, {
        "filter_trajectory.csv": "f3a51a932936ea113a758d06c99655b9e10cd6512f8999ef949a432f55248725",
        "next_token_probs.csv": "39e5df393d88fa4214a564feb5bb0a5ac571b240421c67f274b76474874458c7",
    }),
    ("fixedpoint-path", ["fixedpoint", "--model", "dense.json", "--path", "1.2.0", "--iterations", "2"], 0, {
        "iteration_trace.csv": "6a1ee7c71024fcebe81de6d5620cf735507a909331433a92bacdedb22b53d9bb",
        "residual_report.json": "b0aac6e37b6559dd56ebbd99561a19f0bd4a531839c89ee65cdb4d9eb80bb31d",
    }),
    ("fixedpoint-adapted", ["fixedpoint", "--model", "dense.json", "--mode", "adapted", "--path", "0.1.2",
                            "--iterations", "2"], 0, {
        "iteration_trace.csv": "8d8448c53630e7d9bce812bb3829a03923581d8e9781f253c47b944e94cc2938",
        "residual_report.json": "29dc551cff3238b031255242e0bb84f8e7dc420bc337f32b3d167a65e98ac6b8",
    }),
    ("duality", ["duality", "--model", "dense.json", "--draws", "2", "--seed", "5"], 0, {
        "diagnostics.csv": "a9ce24f321cb214e10b9c4b44fee61f8a60f1b7409a8451a83fc48ebdba6d66c",
        "duality_report.json": "4eb84cb95b37d4b8fd872571fbb2f172629dcd99e375f1db245369ffe580892b",
    }),
    ("represent", ["represent", "--model", "dense.json", "--z-query", "1"], 0, {
        "representation.json": "ae003bca74962c935e51b9c362b674cde10de817cff0d0baccd18fca7b33205f",
    }),
    ("attention-demo", ["attention-demo", "--model", "dense.json", "--path", "0.2.1.1.0", "--seed", "3"], 0, {
        "attention_report.json": "de24ac3569e9cc95d37c8ab3894ddb545a078a86080d304ad8e03192ea24e59b",
        "layer_divergence.csv": "74f5885934039adafc3b6277f8fd2db3c94c64e4e46ffdec5332906e61f18055",
        "layer_predictions.csv": "7be39f94275541f2e0e272c50cd5a5ef98131793bee0a1dc4ce31827ae6b9240",
    }),
    # the demo's head count is a constant, so a config that sets it is an input error and writes no report
    ("attention-demo-heads4", ["attention-demo", "--model", "dense.json", "--config", "heads4.json",
                               "--path", "0.2.1.1.0", "--seed", "3"], 2, {}),
    ("represent-zero", ["represent", "--model", "sparse.json", "--z-query", "0", "--zero-convention"], 0, {
        "representation.json": "6bdd633faea14804ae359481e2e0e25ecc55c9cd2039cf7c43458a6360466ff5",
    }),
    ("fixedpoint-adapted-zero", ["fixedpoint", "--model", "sparse.json", "--mode", "adapted", "--path", "0.1.1",
                                 "--iterations", "1", "--zero-convention"], 0, {
        "iteration_trace.csv": "d8f214917d64cf8406b5dac99c0bec8ceca965e0babaedf865bfc908cd07a879",
        "residual_report.json": "5cc4daa2f933187dfa39a27180e52d598203dfd8357797e18895f0958301a56e",
    }),
    # rows 2 and 3 of the filter are zero measures and row 1 is (0, 0, 1), where
    # token 0 has predictive probability 0: both reach the per-path map's degenerate branch
    ("fixedpoint-path-zero", ["fixedpoint", "--model", "sparse.json", "--path", "1.0.1", "--iterations", "2",
                              "--zero-convention"], 0, {
        "iteration_trace.csv": "b5c6f92806188ec5339cc0c1a399fabe9ef2be7613e1db33408a61b91ad45444",
        "residual_report.json": "9009e36fa222742523a3e107fad8ca41218430bd76aa4574b6d526fc701f8888",
    }),
    # prefixes such as 1.0 and 0.1.0 have probability 0, so the estimator identity skips them
    ("duality-zero", ["duality", "--model", "sparse.json", "--draws", "2", "--seed", "5", "--zero-convention"], 0, {
        "diagnostics.csv": "bca8a091d158e40426bf22848c437a524c2a35551b3c9336952f058ed9ea7653",
        "duality_report.json": "5824450cc1e84a8265182d526d149fa3109118e2ad480104159449809283b6b5",
    }),
    # without --path the path is sampled first, then the command makes its own draws from the same generator
    ("oracle-sampled", ["oracle", "--model", "dense.json", "--seed", "4"], 0, {
        "filter_trajectory.csv": "dac5270d3db5ad59da051824f7487063d02c74a16b3d4df7856086b63304be23",
        "next_token_probs.csv": "27974e48bb214abdd9c01da6dd8791f6af9eae7adc9d8526b8f6d5e1d63ab5d8",
    }),
    # a sampled path has the model file's horizon
    ("oracle-sampled-T9", ["oracle", "--model", "dense9.json", "--seed", "4"], 0, {
        "filter_trajectory.csv": "2a768342b4b224b07e95d8e83ffe684619148c4e55bfa5174fba4906b0b36a63",
        "next_token_probs.csv": "2f98da47bf5106da8c77146d5ddb88a887399a3f6b5131f29a9029505f511c9d",
    }),
    ("attention-demo-sampled", ["attention-demo", "--model", "dense.json", "--seed", "3"], 0, {
        "attention_report.json": "87d1bfa60c00050fe7963ec7e374175dd48864c18f47cd97df2a6b5ac3d2d9ca",
        "layer_divergence.csv": "9a913e0c7060748918c42ac7800a40d40b8786749b2c252edea1d572be81675f",
        "layer_predictions.csv": "a42d6a5e6c56736494a40fbff64b7edc2ece9588da106c0b66eb94a7f6922fd3",
    }),
]


def body_digest(path):
    """sha256 of a report without its header: a CSV without its first line, a JSON without its header key."""
    text = path.read_text()
    if path.suffix == ".json":
        text = json.dumps({k: v for k, v in json.loads(text).items() if k != "header"}, indent=2, sort_keys=True)
    else:
        text = text.split("\n", 1)[1]
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(runner, argv):
    """Run one case in the current directory; returns (click result, {report: sha256}, {report: body sha256}).

    A command that exits before it makes the output directory wrote no reports.
    """
    for name, doc in {**MODELS, **CONFIGS}.items():
        Path(name).write_text(json.dumps(doc))
    out = Path("out")
    res = runner.invoke(main, [*argv, "--out", str(out)])
    reports = sorted(out.iterdir()) if out.exists() else []
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in reports}
    return res, digests, {p.name: body_digest(p) for p in reports}


@pytest.mark.parametrize("case, argv, code, want", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(case, argv, code, want):
    runner = CliRunner()
    with runner.isolated_filesystem():
        res, got, _ = run_case(runner, argv)
    assert res.exit_code == code, res.output
    assert got == want


if __name__ == "__main__":
    # Re-record: print each case's exit code, digests, the old and new digest of each report that moved,
    # and each report's body digest
    runner = CliRunner()
    for case, argv, _, want in CASES:
        with runner.isolated_filesystem():
            res, got, bodies = run_case(runner, argv)
        changed = {name: {"old": want.get(name), "new": got.get(name)}
                   for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)}
        json.dump({"case": case, "exit": res.exit_code, "reports": got, "changed": changed, "bodies": bodies},
                  sys.stdout)
        sys.stdout.write("\n")
