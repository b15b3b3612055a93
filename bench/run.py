#!/usr/bin/env python3
"""Outside-in benchmark of the dualfilter CLI.

    python3 bench/run.py --workload seq-long --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is not installed, so each
op runs ``python -m dualfilter.cli`` with the checkout's ``src`` on
PYTHONPATH. The load is a closed loop with one client: one CLI process at a
time, each started after the previous one exited, the way CI scripts call it.

``--trace 0`` times every op as its own process and reports the end-to-end
metrics: ``wall_s`` (median over passes of one pass's summed launch-to-exit
time), ``setup_s`` (median over several launches of a one-token ``oracle``
call) and ``peak_rss_mb`` (median over passes of the largest child max-RSS).
Each launch's wall time is scaled to a reference host speed by the
calibration loop run after every launch (see ``calibrate.py``).
``--trace 1`` runs the same ops in-process, alternately plain and with every
layer of ``layers.py`` wrapped, and reports the per-layer metrics. Without
``--trace`` both runs are made and every metric is reported.

Every op's reports are checked (see ``checks.py``); an op that fails a check
counts as failed. ``--workload`` takes one name, a comma-separated list or
``all``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from calibrate import REF_S, calibrate
from checks import check_reports, compare_golden, digest
from layers import LAYERS, OVERHEAD, metric_names
from tracing import Tracer
from workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
GOLDEN_SEED = 0
MIN_SETUP_LAUNCHES = 7
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot measure: no program, a lost launcher, or a traced layer with no calls."""


class Ledger:
    """Counts ops, checks each op's reports, and keeps the first digest and headline per op."""

    def __init__(self, goldens: dict | None):
        self.goldens = goldens
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.digests: dict[str, str] = {}
        self.headlines: dict[str, dict] = {}

    def record(self, op, code: int, stderr: str) -> None:
        self.attempted += 1
        if code != 0:
            last = stderr.strip().splitlines()[-1:] or ["no message"]
            self.failures.append((op.name, [f"exit code {code}: {last[0]}"]))
            return
        problems, headline = check_reports(op)
        reports = digest(op.out)
        if self.digests.setdefault(op.name, reports) != reports:
            problems.append("reports differ in bytes from this op's first run")
        if self.goldens is not None and op.name in self.goldens:
            problems += compare_golden(headline, self.goldens[op.name])
        self.headlines.setdefault(op.name, headline)
        if problems:
            self.failures.append((op.name, problems))


@contextlib.contextmanager
def launcher(log: Path):
    """Yield ``launch(op) -> (wall s, max RSS MB, exit code, stderr)``, each op run by ``launch.py``.

    Ops start from that small process, not from this one, so each op's max
    RSS is its own.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = Path(__file__).with_name("launch.py")
    # leaving the block closes the launcher's stdin, which ends it, and waits for it
    with subprocess.Popen([sys.executable, str(script)], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:

        def launch(op):
            shutil.rmtree(op.out, ignore_errors=True)
            request = {"argv": [sys.executable, "-m", "dualfilter.cli", *op.argv],
                       "cwd": str(ROOT), "env": env, "stderr": str(log)}
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            reply = proc.stdout.readline()
            if not reply:
                raise BenchError("the launcher process exited")
            reply = json.loads(reply)
            return reply["wall"], reply["maxrss_kib"] / 1024.0, reply["code"], log.read_text()

        yield launch


def timed_run(wl, seconds: float, ledger: Ledger) -> tuple[dict, list[str]]:
    with launcher(wl.work / "stderr.txt") as launch:
        cals = []

        def run(op):
            """Launch one op: (wall s scaled to the reference host speed, raw wall s, max RSS MB)."""
            wall, rss, code, err = launch(op)
            cals.append(calibrate())  # before the checks, so that it follows the op closely
            ledger.record(op, code, err)
            return wall * REF_S / ((cals[-2] + cals[-1]) / 2), wall, rss

        _, _, code, err = launch(wl.setup)  # the first start in a checkout also writes bytecode caches
        ledger.record(wl.setup, code, err)
        calibrate()  # warm-up
        cals.append(calibrate())
        # setup launches follow each pass, so that they sample the same stretch of time as the passes
        setup, passes = [], []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append([run(op) for op in wl.ops])
            setup.append(run(wl.setup))
        while len(setup) < MIN_SETUP_LAUNCHES:
            setup.append(run(wl.setup))

    lines = []
    for i, op in enumerate(wl.ops):
        sizes = " ".join(f"{k}={v}" for k, v in op.sizes.items())
        lines.append(f"  op {op.name:<20} {sizes:<48} median {statistics.median(p[i][0] for p in passes):8.4f} s "
                     f"(raw {statistics.median(p[i][1] for p in passes):8.4f} s)  "
                     f"max rss {max(p[i][2] for p in passes):6.1f} MB")
    lines.append(f"  {len(setup)} timed setup launches, {len(passes)} passes; raw wall per pass "
                 f"median {statistics.median(sum(o[1] for o in p) for p in passes):.4f} s, raw setup "
                 f"median {statistics.median(s[1] for s in setup):.4f} s; calibration loop median "
                 f"{statistics.median(cals):.4f} s (reference {REF_S} s), {len(cals)} runs")
    metrics = {
        "wall_s": statistics.median(sum(o[0] for o in p) for p in passes),
        "setup_s": statistics.median(s[0] for s in setup),
        "peak_rss_mb": statistics.median(max(o[2] for o in p) for p in passes),
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, lines


def run_inprocess(cli, op) -> tuple[float, int, str]:
    """Invoke the CLI's click group in this process: (wall seconds, exit code, stderr)."""
    shutil.rmtree(op.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    code = 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main.main(args=op.argv, prog_name="dualfilter", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # an op that crashes is a failed op, not a crashed benchmark
        code = 1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, err.getvalue()


def layer_values(tracer: Tracer) -> dict[str, float]:
    values = {}
    for layer in LAYERS:
        st = tracer.stats[layer.key]
        for stat in layer.stats:
            if stat in ("calls", "total_s", "self_s"):
                value = getattr(st, stat)
            elif stat.endswith("_per_entry"):
                entries = st.work["entries"]
                value = st.nested[layer.nested] / entries if entries else 0.0
            else:
                value = st.work[stat]
            values[f"{layer.key}.{stat}"] = value
    return values


def traced_run(wl, seconds: float, ledger: Ledger) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(ROOT / "src"))
    import dualfilter.cli as cli

    def run_pass():
        walls = []
        for op in wl.ops:
            wall, code, err = run_inprocess(cli, op)
            ledger.record(op, code, err)
            walls.append(wall)
        return sum(walls)

    # pay click's and numpy's first-use costs before the first plain pass is timed
    _, code, err = run_inprocess(cli, wl.setup)
    ledger.record(wl.setup, code, err)
    tracers, overheads = [], []
    start = time.perf_counter()
    while len(tracers) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        plain_s = run_pass()
        tracer = Tracer()
        with tracer.install(LAYERS):
            traced_s = run_pass()
        tracers.append(tracer)
        overheads.append(traced_s / plain_s - 1.0)

    silent = [layer.key for layer in LAYERS
              if wl.name in layer.on and tracers[0].stats[layer.key].calls == 0]
    if silent:
        raise BenchError(f"traced layers recorded no calls on {wl.name}: {', '.join(silent)}")
    units = dict(metric_names())
    traced = [layer_values(t) for t in tracers]
    counts = [{k: v for k, v in t.items() if units[k] != "s"} for t in traced]
    if any(c != counts[0] for c in counts):
        raise BenchError(f"per-layer work counts differ between traced passes of {wl.name}")

    metrics = {}
    for name, unit in metric_names():
        if name == OVERHEAD:
            metrics[name] = (statistics.median(overheads), unit)
        elif unit == "s":
            metrics[name] = (statistics.median(t[name] for t in traced), unit)
        else:
            metrics[name] = (counts[0][name], unit)
    return metrics, [f"  {len(traced)} traced passes, each paired with a plain in-process pass"]


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="name, comma-separated names, or 'all'")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; both when omitted")
    parser.add_argument("--write-goldens", action="store_true",
                        help=f"store this run's headline values as the goldens (seed {GOLDEN_SEED} only)")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    if args.write_goldens and args.seed != GOLDEN_SEED:
        parser.error(f"goldens are stored for seed {GOLDEN_SEED} only")
    if not (ROOT / "src" / "dualfilter" / "cli.py").is_file():
        raise BenchError(f"no dualfilter sources under {ROOT / 'src'}; run from a source checkout")

    os.chdir(ROOT)  # op arguments name files relative to the checkout root
    goldens = load_goldens()
    if args.seed == GOLDEN_SEED and not args.write_goldens and not all(n in goldens for n in names):
        raise BenchError(f"{GOLDENS.name} has no goldens for some of {', '.join(names)}")

    attempted = failed = 0
    metrics = {}
    modes = [args.trace] if args.trace is not None else [0, 1]
    for name in names:
        for trace in modes:
            # one directory per process, so runs sharing a checkout do not overwrite each other's reports
            wl = build(name, args.seed, ROOT, WORK / f"{name}-{os.getpid()}")
            ledger = Ledger(goldens.get(name) if args.seed == GOLDEN_SEED and not args.write_goldens else None)
            values, lines = (traced_run if trace else timed_run)(wl, args.seconds, ledger)
            shutil.rmtree(wl.work)
            print(f"workload {name} (seed {args.seed}, {'traced in-process' if trace else 'timed'}): "
                  f"{ledger.attempted} ops, {len(ledger.failures)} failed")
            for line in lines:
                print(line)
            for (op_name, problems), n in Counter((op, "; ".join(p)) for op, p in ledger.failures).items():
                print(f"  FAILED {op_name} ({n}x): {problems}")
            for metric, (value, unit) in values.items():
                print(f"  {metric:<44} {value:>14.6g} {unit}")
            prefix = f"{name}:" if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
            attempted += ledger.attempted
            failed += len(ledger.failures)
            if args.write_goldens:
                goldens[name] = {k: v for k, v in ledger.headlines.items() if v}

    if args.write_goldens:
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(3)
