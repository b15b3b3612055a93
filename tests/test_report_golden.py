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
        "filter_trajectory.csv": "de6438dc60810f017be2a3622098f34e3747cc4fd9504b302bdd3a676085eb18",
        "next_token_probs.csv": "ad5cc87cf956317a2f51ae0cb84ba81b125e6e7546903b7ad69318f57f08d719",
    }),
    ("fixedpoint-path", ["fixedpoint", "--model", "dense.json", "--path", "1.2.0", "--iterations", "2"], 0, {
        "iteration_trace.csv": "ead319b2a5deee0f190898c32a8e50254606296da3b3a197566a026f9ee56cce",
        "residual_report.json": "cb48e8a667c7f983973f74a84f01ff88be450d366aeb97368173bc5465e9b7ea",
    }),
    ("fixedpoint-adapted", ["fixedpoint", "--model", "dense.json", "--mode", "adapted", "--path", "0.1.2",
                            "--iterations", "2"], 0, {
        "iteration_trace.csv": "d0e527b4424d41ec429e0745305bfe2a7becb6c4892ab8655d17e4e89d06e6b5",
        "residual_report.json": "ff60e5d81888822565f9f187babc39023ad94e0079c61d43e6806b7d877ede5b",
    }),
    ("duality", ["duality", "--model", "dense.json", "--draws", "2", "--seed", "5"], 0, {
        "diagnostics.csv": "d019d7154ac546b02e26b3aa3c2b6a78f0b793ed709332542c4a570edf3493c8",
        "duality_report.json": "d80951c2dd29cb29623bad9b09c4c485f23f729c30680e3b8e1973b91e2c634b",
    }),
    ("represent", ["represent", "--model", "dense.json", "--z-query", "1"], 0, {
        "representation.json": "4a099db993f3fb9bff082397fa0108340df8c6d667cca28d3d6a49ea283b04a3",
    }),
    ("attention-demo", ["attention-demo", "--model", "dense.json", "--path", "0.2.1.1.0", "--seed", "3"], 0, {
        "attention_report.json": "cbafefeb2f283e34d345822275bd8ca664cc88a9f524f9695f37bc4c08e4eae1",
        "layer_divergence.csv": "55a68c5d163af344abd294e143ae11a5c1e5d3986a5f4071efdaf02e505b1560",
        "layer_predictions.csv": "dde1d5a93243c806e4b0d363ac5f395a68b9a1a7aae0bb2ff883e02b2616dbe9",
    }),
    # d_V = 2 per head: the layer's stacked head projections at a head count other than the default 2
    ("attention-demo-heads4", ["attention-demo", "--model", "dense.json", "--config", "heads4.json",
                               "--path", "0.2.1.1.0", "--seed", "3"], 0, {
        "attention_report.json": "04a72bcfb5e62a70b23ab066c9e215ce3f952a9c90f9e1e22423e78bf1ae3e9e",
        "layer_divergence.csv": "59354725ad64b0b4ed3b718bc3986c981f7c8b6bb5032496bc2b1ceae78e5964",
        "layer_predictions.csv": "e4093cb07912ed87e6e54ef57867101b076dbcc9116a527ddf1b3361470f4dde",
    }),
    ("represent-zero", ["represent", "--model", "sparse.json", "--z-query", "0", "--zero-convention"], 0, {
        "representation.json": "6e18e041fb54a7e7a2e21a3bb5287d13903ac0ac10a81582f751a1a13b073b2d",
    }),
    ("fixedpoint-adapted-zero", ["fixedpoint", "--model", "sparse.json", "--mode", "adapted", "--path", "0.1.1",
                                 "--iterations", "1", "--zero-convention"], 0, {
        "iteration_trace.csv": "1e191883f586bf8b090d541ff8e82e700e30d756d85ece9b4c8442fa2e6dfad3",
        "residual_report.json": "3f3361029ac3d492d399aa68ed9d24e090889eccbc1796fd68c30c70f8bc5b5f",
    }),
    # rows 2 and 3 of the filter are zero measures and row 1 is (0, 0, 1), where
    # token 0 has predictive probability 0: both reach the per-path map's degenerate branch
    ("fixedpoint-path-zero", ["fixedpoint", "--model", "sparse.json", "--path", "1.0.1", "--iterations", "2",
                              "--zero-convention"], 0, {
        "iteration_trace.csv": "b0df853d99591c7db8ce0aeebfd80276643f9e65b2ef6e835da86fbce6eb842e",
        "residual_report.json": "0f0daa8e2752ee815eaa85dfb8f5b6d18acde0f3849aca6f08565aeccb0f692b",
    }),
    # without --path the path is sampled first, then the command makes its own draws from the same generator
    ("oracle-sampled", ["oracle", "--model", "dense.json", "--seed", "4"], 0, {
        "filter_trajectory.csv": "a1efd4ddb300d800401edaf60228a8dc93ea908cb1596f0eab10812ac9fe0b9a",
        "next_token_probs.csv": "f8863afe8847ab4a6ad53613be5257ea0685c7412594412ecc2af95130e9d381",
    }),
    # a sampled path has the model file's horizon
    ("oracle-sampled-T9", ["oracle", "--model", "dense9.json", "--seed", "4"], 0, {
        "filter_trajectory.csv": "cc91e5a1edae3d59fea5683d9639c2812b2d5f2f7e5f02a05aaece227c0868a2",
        "next_token_probs.csv": "3d6bf3f19517b2c865554cfab73f7eb8be8715b2ed6d9db6d909469dd1f6abc8",
    }),
    ("attention-demo-sampled", ["attention-demo", "--model", "dense.json", "--seed", "3"], 0, {
        "attention_report.json": "5cdeae76013e0fd654d383683ef5eae09a4f5b1606e4325ba56574ada7e15775",
        "layer_divergence.csv": "1879bb2ee41e5df4051797dbfdd38e034ff2c6fd9ef6fbfdcb092963f6af6144",
        "layer_predictions.csv": "ea5cb42e7f27e1b5ff6a8a7dc858ab4248a52c255b88f926fb39344fc9c3b813",
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
    """Run one case in the current directory; returns (click result, {report: sha256}, {report: body sha256})."""
    for name, doc in {**MODELS, **CONFIGS}.items():
        Path(name).write_text(json.dumps(doc))
    out = Path("out")
    res = runner.invoke(main, [*argv, "--out", str(out)])
    reports = sorted(out.iterdir())
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
