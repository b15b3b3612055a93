"""Command-line driver: models in, CSV/JSON reports out.

Consumers are scripts and CI, so everything is non-interactive and
deterministic: all randomness flows from one seeded generator, every report
starts with a header carrying the version, seed, and a hash of the resolved
configuration, and re-running with the same inputs reproduces each file
byte for byte.

Exit codes are a stable contract: 0 ok, 2 input error, 3 impossible
observation, 4 invariant violation: a check beyond its fixed TOLERANCES bound.

``main`` is the click group; tests and in-process callers invoke it and
keep a normal garbage collector. A launched process (``python -m
dualfilter.cli`` or the ``dualfilter`` script) enters through ``run``,
which keeps OpenSSL from loading and freezes the collector once ``main``
has exited, so the interpreter's shutdown does not walk and free every
cycle the imports built.
"""

from __future__ import annotations

import csv
import functools
import gc
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from itertools import islice
from pathlib import Path

import click
import numpy as np

# CPython's own SHA-256 (named _sha2 from 3.12), not hashlib: this module is imported before
# run() blocks _hashlib, and main called in-process never blocks it, so hashlib would load OpenSSL
try:
    from _sha2 import sha256
except ImportError:
    from _sha256 import sha256

from . import __version__
from .adapted import AdaptedProcess, prefix_string, prefix_strings
from .hmm import HmmModel, validate_tokens
from .oracle import ImpossibleObservationError, sample_path

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3
EXIT_INVARIANT = 4

# Each check's pass bound; fixed, so a report's pass always means the same bound.
TOLERANCES = {
    "fixed_point": 1e-10,
    "duality": 1e-9,
    "representation": 1e-12,
    "eq8": 1e-12,
}

# Rows of a report's weight list rendered per write: the file's text is never built whole.
JSON_CHUNK = 256

# The one size gate, checked before any work: duality's (m+1) times the joint paths it enumerates,
# and the floats of the prefix tree's leaf level that represent and fixedpoint --mode adapted build.
ENUM_BUDGET = 10**7

# The attention demo's fixed toy stack: signal dimension, heads and layers.
ATTN_D, ATTN_HEADS, ATTN_LAYERS = 8, 2, 4

# Integer config fields and their least allowed value.
INT_MINIMA = {"seed": 0, "K": 1, "draws": 1}


@dataclass
class ExperimentConfig:
    """What a run varies, resolved: flags over file values. T is the model file's; budget and sizes are constants."""

    model_path: str | None = None
    seed: int = 0
    K: int = 10
    draws: int = 20
    zero_convention: bool = False
    output_dir: str = "out"

    def validate(self) -> "ExperimentConfig":
        """Type- and range-check every field; nothing is coerced, so the hash is the value given."""
        for name, low in INT_MINIMA.items():
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, int):
                raise ValueError(f"{name} must be an integer, got {val!r}")
            if val < low:
                raise ValueError(f"{name} must be >= {low}, got {val}")
        for name in ("model_path", "output_dir"):
            val = getattr(self, name)
            if not isinstance(val, str) and not (name == "model_path" and val is None):
                raise ValueError(f"{name} must be a string, got {val!r}")
        if not isinstance(self.zero_convention, bool):
            raise ValueError(f"zero_convention must be true or false, got {self.zero_convention!r}")
        return self

    def hash(self) -> str:
        # output_dir is where the report lands, not part of what it says
        payload = {k: v for k, v in self.__dict__.items() if k != "output_dir"}
        blob = json.dumps(payload, sort_keys=True, default=str)
        return sha256(blob.encode()).hexdigest()[:12]

    def header(self) -> dict:
        return {"version": __version__, "seed": self.seed, "config_hash": self.hash()}

    def header_line(self) -> str:
        return f"# dualfilter {__version__} seed={self.seed} config={self.hash()}"


CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def load_config(config_path: str | None, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object with flat keys")
        for key, val in raw.items():
            if key not in CONFIG_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, val)
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    return cfg.validate()


def _load_model(cfg: ExperimentConfig) -> HmmModel:
    if cfg.model_path is None:
        raise ValueError("no model given: pass --model or set model_path in the config")
    try:
        text = Path(cfg.model_path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read model file {cfg.model_path}: {exc}") from exc
    try:
        return replace(HmmModel.from_json(text), zero_convention=cfg.zero_convention)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file {cfg.model_path} is not valid JSON: {exc}") from exc


def _check_size(cost: int, formula: str, what: str) -> None:
    """The one size gate: a ValueError when ``cost``, the value of ``formula``, is over ENUM_BUDGET."""
    if cost > ENUM_BUDGET:
        raise ValueError(f"{formula} = {cost} exceeds the enumeration budget {ENUM_BUDGET} ({what}); "
                         "reduce T, d, or m")


def _check_tree_size(model: HmmModel) -> None:
    """Gate a command that builds every prefix level: its leaf level holds d*(m+1)^T floats."""
    _check_size(model.d * (model.m + 1) ** model.T, "d*(m+1)^T", "floats in the prefix tree's leaf level")


def _parse_path(text: str | None, model: HmmModel, generator) -> tuple[int, ...]:
    if text is None:
        return sample_path(model, generator())
    tokens = text.replace(",", ".").split(".")
    if "" in tokens:
        raise ValueError(f"path must be one or more tokens joined by '.' or ',' with none empty, got {text!r}")
    for tok in tokens:
        # int() would also take '1_0', ' 1', '+1' and non-ASCII digits
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"path token {tok!r} is not a decimal integer (ASCII digits 0-9 only)")
    return validate_tokens([int(t) for t in tokens], model.m)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_csv(path: Path, cfg: ExperimentConfig, columns, rows):
    """Write the header line, the column names and ``rows``, which may be any iterable of rows."""
    with path.open("w", newline="") as fh:
        fh.write(cfg.header_line() + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _json_float(x: float) -> str:
    """A float as ``json`` writes it: its repr, or NaN, Infinity and -Infinity."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _weight_pairs(weights: AdaptedProcess):
    """The list items of ``weights`` as [prefix string, row] pairs at depth 2, JSON_CHUNK rows of text at a time.

    Level by level in rank order, with the bytes ``json.dump(..., indent=2)``
    gives each pair as an item of a top-level key's list. A prefix string is
    digits and dots, which json writes between quotes unchanged.
    """
    for t, level in enumerate(weights.levels):
        names = prefix_strings(weights.m, t)
        width = level.shape[1]
        item = '[\n      "%s",\n      [\n        ' + ",\n        ".join(["%s"] * width) + "\n      ]\n    ]"
        for start in range(0, len(level), JSON_CHUNK):
            chunk = level[start : start + JSON_CHUNK]
            values = map(_json_float, chunk.ravel().tolist())
            # zip draws each row's width values from the one iterator: (name, *row) per item
            yield ",\n    ".join(item % fields for fields in zip(islice(names, len(chunk)), *[values] * width))


def _write_json(path: Path, cfg: ExperimentConfig, payload: dict):
    """Write ``{"header": ..., **payload}`` with the bytes of ``json.dump(doc, fh, indent=2, sort_keys=True)`` and a newline.

    Each top-level value goes through ``json.dumps``, except an
    ``AdaptedProcess`` of rows, which is written as the list of its
    (prefix string, row) pairs, level by level in rank order
    (``_weight_pairs``), a chunk at a time: json's indenting encoder is pure
    Python and would walk every number of it.
    """
    doc = {"header": cfg.header(), **payload}
    with path.open("w") as fh:
        for i, key in enumerate(sorted(doc)):
            fh.write(("{" if i == 0 else ",") + f"\n  {json.dumps(key)}: ")
            value = doc[key]
            if not isinstance(value, AdaptedProcess):
                fh.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
                continue
            opened = False
            for chunk in _weight_pairs(value):
                fh.write(("," if opened else "[") + "\n    " + chunk)
                opened = True
            fh.write("\n  ]" if opened else "[]")
        fh.write("\n}\n")


pass_config_options = [
    click.option("--model", "model_path", type=str, default=None, help="HMM model JSON file."),
    click.option("--config", "config_path", type=str, default=None, help="Experiment config JSON."),
    click.option("--seed", type=int, default=None, help="Seed for the run's generator."),
    click.option("--out", "output_dir", type=str, default=None, help="Output directory."),
    click.option(
        "--zero-convention/--no-zero-convention",
        default=None,
        help="Use the 0/0 := 0 extension on impossible observation prefixes.",
    ),
]


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact HMM filtering, its dual control system, and fixed-point inference checks."""


def command(name: str, *options, path_help: str | None = None):
    """Register ``fn(cfg, model, generator, [z,] **flags)`` as a subcommand on the shared skeleton.

    The skeleton adds the common options, resolves the config (flags that
    name an ExperimentConfig field override it) and loads the model. It
    passes ``generator``, a no-argument function that returns the run's one
    generator, seeded with ``cfg.seed`` and built on the first call, so a
    run that draws nothing never builds it. When ``path_help`` is given it
    takes a ``--path`` option and passes the tokens as ``z`` (sampled from
    the generator when omitted, before the command's own draws). It owns
    the exit-code contract: an impossible observation exits 3, any other
    ValueError 2, a normal return 0; the command itself exits 4 on an
    invariant violation. Each command imports the library functions it
    runs in its body, so a launch loads only those modules.
    """
    if path_help is not None:
        options = (click.option("--path", "path_text", type=str, default=None, help=path_help), *options)

    def register(fn):
        @functools.wraps(fn)
        def callback(config_path, path_text=None, **flags):
            overrides = {key: flags.pop(key) for key in list(flags) if key in CONFIG_FIELDS}
            try:
                cfg = load_config(config_path, **overrides)
                model = _load_model(cfg)
                generator = functools.cache(lambda: np.random.default_rng(cfg.seed))
                if path_help is not None:
                    flags["z"] = _parse_path(path_text, model, generator)
                fn(cfg, model, generator, **flags)
            # ImpossibleObservationError subclasses ValueError, so it goes first
            except ImpossibleObservationError as exc:
                _fail(EXIT_IMPOSSIBLE, str(exc))
            except ValueError as exc:
                _fail(EXIT_INPUT, str(exc))
            sys.exit(EXIT_OK)

        for opt in reversed(pass_config_options + list(options)):
            callback = opt(callback)
        return main.command(name)(callback)

    return register


PATH_HELP = "Observation path, tokens joined by '.' or ','."


@command("oracle", path_help=PATH_HELP)
def cmd_oracle(cfg, model, generator, z):
    """Write the exact filter trajectory and next-token probabilities for one path."""
    from .oracle import forward_filter, next_token_prob

    pis = forward_filter(model, z)

    out = _out_dir(cfg)
    _write_csv(
        out / "filter_trajectory.csv",
        cfg,
        ["t", "x", "pi"],
        ((t, x, repr(pi)) for t, row in enumerate(pis.tolist(), start=1) for x, pi in enumerate(row, start=1)),
    )
    possible = np.flatnonzero(pis.sum(axis=1) != 0.0)
    probs = next_token_prob(model, pis[possible])
    prob_rows = (
        (t + 1, tok, repr(p))
        for t, row in zip(possible.tolist(), probs.tolist())
        for tok, p in enumerate(row)
    )
    _write_csv(out / "next_token_probs.csv", cfg, ["t", "z", "prob"], prob_rows)
    click.echo(f"wrote filter trajectory for path {prefix_string(z)} to {out}")


@command(
    "fixedpoint",
    click.option("--mode", type=click.Choice(["path", "adapted"]), default="path", show_default=True),
    click.option("--iterations", "K", type=int, default=None, help="Number of map applications for the trace."),
    path_help=PATH_HELP,
)
def cmd_fixedpoint(cfg, model, generator, z, mode):
    """Check the filter is a fixed point of the inference map and run the iteration driver."""
    from .fixedpoint import apply_N_adapted, apply_N_path, fixed_point_residual, iterate
    from .oracle import filter_process, forward_filter

    if mode == "adapted":
        _check_tree_size(model)
    tol = TOLERANCES["fixed_point"]
    out = _out_dir(cfg)
    if mode == "path":
        rho = forward_filter(model, z)
        image, _ = apply_N_path(model, rho, z)
    else:
        pi_proc = filter_process(model)
        image_proc, _ = apply_N_adapted(model, pi_proc)
        image, rho = (np.concatenate(proc.levels[1:]) for proc in (image_proc, pi_proc))
    residual = fixed_point_residual(image, rho)
    trace = iterate(model, z, K=cfg.K)

    rows = (
        (k, t, repr(residual), repr(kl), int(flag))
        for k, (residual, kl, flags) in enumerate(
            zip(trace.residuals.tolist(), trace.kl_per_iter.tolist(), trace.in_domain.tolist()), start=1
        )
        for t, flag in enumerate(flags, start=1)
    )
    _write_csv(out / "iteration_trace.csv", cfg, ["iter", "t", "residual_tv", "kl_bar", "in_domain"], rows)

    ok = residual <= tol
    _write_json(
        out / "residual_report.json",
        cfg,
        {mode: {"residual": residual, "tolerance": tol, "pass": bool(ok), "path": prefix_string(z)}},
    )
    if not ok:
        _write_json(
            out / "findings.json",
            cfg,
            {
                "finding": "filter is not a fixed point at the stated tolerance",
                "mode": mode,
                "residual": residual,
                "tolerance": tol,
                "model": model.to_dict(),
                "path": prefix_string(z),
            },
        )
        _fail(EXIT_INVARIANT, f"fixed-point residual {residual:.3e} exceeds tolerance {tol:.1e}")
    click.echo(f"fixed-point residual {residual:.3e} (tolerance {tol:.1e}) -> pass")


@command("duality", click.option("--draws", type=int, default=None, help="Number of random (U, F) draws."))
def cmd_duality(cfg, model, generator):
    """Cross-check the control cost against the estimator mean-squared error."""
    from .adapted import prefixes, random_weight_process
    from .dual import bsde_residual_by_node, duality_report, estimator_path, solve_bsde, solve_optimal
    from .oracle import filter_process, forward_filter, path_probability

    # fixedpoint is not run here. It is loaded so that it is already in
    # sys.modules when bench/tracing.py's Tracer.install starts: otherwise
    # install imports it itself on reaching the fixedpoint.* targets, after
    # oracle.forward_filter, dual.solve_optimal and dual.estimator_values are
    # wrapped, so fixedpoint binds the wrappers, undo never restores them, and
    # the next traced workload records no calls on those layers.
    from . import fixedpoint  # noqa: F401

    tol = TOLERANCES["duality"]
    _check_size(model.d ** (model.T + 1) * (model.m + 1) ** (model.T + 1), "d^(T+1)*(m+1)^(T+1)",
                "(m+1) times the d^(T+1)*(m+1)^T joint paths walked")
    rng = generator()
    reports = []
    node_residuals = [np.zeros((model.m + 1) ** t) for t in range(model.T)]  # max over draws, per level
    for _ in range(cfg.draws):
        U = random_weight_process(rng, model.m, model.T)
        F = rng.standard_normal(model.d)
        traj = solve_bsde(model, U, F)
        reports.append(duality_report(model, traj, F))
        for worst, level in zip(node_residuals, bsde_residual_by_node(model, traj).levels):
            np.maximum(worst, level, out=worst)

    # estimator identity along the optimal feedback trajectory
    pi_proc = filter_process(model)
    F = rng.standard_normal(model.d)
    traj = solve_optimal(model, pi_proc, F)
    est_worst = []
    for t in range(model.T + 1):
        errors = []
        for w in prefixes(model.m, t):
            if t > 0 and path_probability(model, w) <= 0.0:
                continue
            pi_t = model.mu if t == 0 else forward_filter(model, w)[-1]
            lhs = float(pi_t @ np.asarray(traj.Y.at(w)))
            errors.append(abs(lhs - estimator_path(model, traj, w, t)))
        est_worst.append(float(np.max(errors, initial=0.0)))

    out = _out_dir(cfg)
    # np.max and <= keep a NaN failing, where Python's max can drop it
    max_gap = float(np.max([r["gap"] for r in reports]))
    max_row = float(np.max(np.concatenate([*node_residuals, est_worst])))  # every diagnostics row
    ok = max_gap <= tol and max_row <= tol
    report = {"draws": reports, "max_gap": max_gap, "tolerance": tol, "pass": ok}
    _write_json(out / "duality_report.json", cfg, report)
    diag_rows = [
        ["bsde_residual", t, prefix_string(w), repr(res)]
        for t, level in enumerate(node_residuals)
        for w, res in zip(prefixes(model.m, t), level.tolist())
    ] + [["estimator_identity", t, "", repr(err)] for t, err in enumerate(est_worst)]
    _write_csv(out / "diagnostics.csv", cfg, ["check", "t", "prefix", "max_residual"], diag_rows)
    if not max_gap <= tol:
        _fail(EXIT_INVARIANT, f"duality gap {max_gap:.3e} exceeds tolerance {tol:.1e}")
    if not ok:
        _fail(EXIT_INVARIANT, f"diagnostics residual {max_row:.3e} exceeds tolerance {tol:.1e}")
    click.echo(f"duality gap over {cfg.draws} draws: max {max_gap:.3e} (tolerance {tol:.1e}) -> pass")


def _reconstruction_error(model, rep, z_query: int) -> float:
    """Worst |evaluate - oracle| over every possible path; its tables are freed before the report is built."""
    from .oracle import filter_levels, next_token_prob
    from .predictor import evaluate

    pi_T = filter_levels(model)[-1]
    possible = pi_T.sum(axis=1) != 0.0
    paths = np.indices((model.m + 1,) * model.T, dtype=np.min_scalar_type(model.m)).reshape(model.T, -1).T[possible]
    target = next_token_prob(model, pi_T[possible])[:, z_query]
    return float(np.max(np.abs(evaluate(rep, paths) - target), initial=0.0))


@command(
    "represent",
    click.option("--z-query", type=int, default=0, show_default=True,
                 help="Token whose conditional probability is represented."),
)
def cmd_represent(cfg, model, generator, z_query):
    """Build the predictor weights for a next-token conditional probability."""
    from .predictor import represent_conditional

    _check_tree_size(model)
    rep = represent_conditional(model, z_query)
    tol = TOLERANCES["representation"]
    worst = _reconstruction_error(model, rep, z_query)
    ok = worst <= tol

    out = _out_dir(cfg)
    payload = {"constant": rep.constant, "weights": rep.weights, "m": rep.m, "T": rep.T,
               "z_query": z_query, "reconstruction_error": worst}
    _write_json(out / "representation.json", cfg, payload)
    if not ok:
        _fail(EXIT_INVARIANT, f"reconstruction error {worst:.3e} exceeds tolerance {tol:.1e}")
    click.echo(f"representation for z={z_query}: constant {rep.constant:.6f}, reconstruction error {worst:.3e}")


@command("attention-demo", path_help="Prompt tokens joined by '.' or ','.")
def cmd_attention_demo(cfg, model, generator, z):
    """Run a seeded toy attention stack and emit per-layer prediction tables."""
    from .attention import (
        embed_sequence,
        layer_forward,
        layer_stack,
        positional_encoding,
        predictions,
        random_layer_params,
        simplified_form,
    )
    from .oracle import kl_divergence_bar

    rng = generator()
    params = random_layer_params(rng, ATTN_D, ATTN_HEADS)
    emb = rng.standard_normal((ATTN_D, model.m + 1)) / np.sqrt(ATTN_D)
    pe = positional_encoding(ATTN_D, len(z))
    sig0 = embed_sequence(emb, pe, z)
    layers = layer_stack(params, sig0, ATTN_LAYERS)
    tables = [predictions(emb, sig) for sig in layers]

    out = _out_dir(cfg)
    rows = (
        (ell, t, tok, repr(prob))
        for ell, table in enumerate(tables)
        for t, col in enumerate(table.T.tolist(), start=1)
        for tok, prob in enumerate(col)
    )
    _write_csv(out / "layer_predictions.csv", cfg, ["layer", "t", "z", "prob"], rows)

    final = tables[-1]
    kl_rows = [
        [ell, repr(kl_divergence_bar(final, tables[ell]))] for ell in range(len(tables) - 1)
    ]
    _write_csv(out / "layer_divergence.csv", cfg, ["layer", "kl_bar"], kl_rows)

    # cross-path equality of the bilinear form against the attention map the stack applies
    sig = rng.standard_normal((ATTN_D, len(z)))
    attended = layer_forward(params, sig)
    tol = TOLERANCES["eq8"]
    worst = float(np.max([
        abs(float(f @ attended[:, t - 1]) - simplified_form(params, sig, t, f))
        for t, f in enumerate(rng.standard_normal((len(z), ATTN_D)), start=1)
    ]))
    ok = worst <= tol
    _write_json(
        out / "attention_report.json",
        cfg,
        {
            "prompt": prefix_string(z),
            "layers": ATTN_LAYERS,
            "bilinear_equality_error": worst,
            "bilinear_equality_ok": ok,
        },
    )
    if not ok:
        _fail(EXIT_INVARIANT, f"bilinear-form equality error {worst:.3e} exceeds tolerance {tol:.1e}")
    click.echo(f"attention demo wrote {ATTN_LAYERS} layer tables; bilinear equality error {worst:.3e}")


def run():
    """Process entry point: block OpenSSL, run ``main``, then freeze the garbage collector as the process's last act.

    ``run`` first marks ``_hashlib`` absent, so a launch that draws random
    numbers never loads OpenSSL; ``main`` called in-process keeps it.
    ``main`` ends by raising SystemExit; the freeze moves every tracked
    object to the permanent generation, so interpreter shutdown skips the
    collection of the cycles that importing numpy, click and the library
    built and exits sooner. ``atexit`` handlers and stdio flushing still
    run. Frozen cyclic garbage is never finalized, so every report must be
    closed before ``main`` returns; ``_write_csv`` and ``_write_json`` open
    each report in a ``with`` block, so it is closed when they return.
    """
    # numpy.random -> secrets -> hmac -> _hashlib would load libcrypto. A None entry makes
    # `import _hashlib` fail, which hashlib and hmac handle as on a build without OpenSSL:
    # they fall back to the built-in _sha*, _md5 and _blake2 modules and to
    # _operator._compare_digest. numpy takes only secrets.randbits, which is
    # SystemRandom().getrandbits over os.urandom, and every run seeds its generator with
    # cfg.seed, so no draw changes; the config hash comes from _sha2/_sha256. setdefault
    # leaves an _hashlib that is already loaded in place.
    sys.modules.setdefault("_hashlib", None)
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
