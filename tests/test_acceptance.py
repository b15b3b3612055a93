"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Tolerances are pinned here and match the per-module contracts.
"""

import time
from itertools import product

import numpy as np
from click.testing import CliRunner

from dualfilter.adapted import AdaptedProcess, prefixes, random_weight_process
from dualfilter.attention import (
    attention_weights,
    layer_forward,
    random_layer_params,
    simplified_form,
)
from dualfilter.cli import main
from dualfilter.dual import duality_report, solve_bsde, solve_optimal
from dualfilter.fixedpoint import apply_N_adapted, apply_N_path
from dualfilter.hmm import decompose, token_basis
from dualfilter.oracle import (
    filter_process,
    forward_filter,
    kl_divergence_bar,
    next_token_prob,
    path_probability,
    sample_path,
)
from dualfilter.predictor import evaluate, represent_conditional

from conftest import random_model, scaled, write_model
from oracles import build_weights_lstsq, mmse, total_cost


def report(number, name, ok, detail):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def test_criterion_01_path_fixed_point():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    dims = list(product(range(2, 6), range(1, 7)))  # (d, T)
    while count < 100:
        d, T = dims[count % len(dims)]
        model = random_model(rng, d, 1, T)
        for _ in range(10):
            z = sample_path(model, rng)
            pis = forward_filter(model, z)
            out, _ = apply_N_path(model, pis, z)
            worst = max(worst, float(np.max(np.abs(out - pis))))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    report(
        1,
        "path-mode fixed point at the filter",
        ok,
        f"max residual {worst:.3e} over 100 models x 10 paths (tol 1e-10), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_adapted_fixed_point():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    dims = list(product(range(2, 6), (1, 2), range(1, 5)))  # (d, m, T)
    while count < 100:
        d, m, T = dims[count % len(dims)]
        model = random_model(rng, d, m, T)
        pi = filter_process(model)
        out, _ = apply_N_adapted(model, pi)
        for w, v in out.tree.items():
            worst = max(worst, float(np.max(np.abs(np.asarray(v) - np.asarray(pi.at(w))))))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    report(
        2,
        "adapted fixed point at the filter",
        ok,
        f"max residual {worst:.3e} over 100 models, every prefix (tol 1e-10), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_duality_principle():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
        model = random_model(rng, d, m, T)
        U = random_weight_process(rng, m, T)
        if i % 3 == 0:
            F = AdaptedProcess(m, (None,) * T + (rng.standard_normal(((m + 1) ** T, d)),))
        else:
            F = rng.standard_normal(d)
        worst = max(worst, duality_report(model, solve_bsde(model, U, F), F)["gap"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report(
        3,
        "cost equals estimator mean-squared error",
        ok,
        f"max gap {worst:.3e} over 100 (U, F) draws (tol 1e-9), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_optimality():
    rng = np.random.default_rng(404)
    worst_mmse = 0.0
    worst_gain = 0.0  # how much any perturbation improved on the optimum
    for i in range(20):
        d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        model = random_model(rng, d, m, T)
        F = rng.standard_normal(d)
        traj = solve_optimal(model, filter_process(model), F)
        J_opt = total_cost(model, traj.U, F)
        worst_mmse = max(worst_mmse, abs(J_opt - mmse(model, F)))
        for _ in range(50):
            s = float(rng.uniform(0.01, 1.0))
            bump = scaled(random_weight_process(rng, m, T), s)
            U_pert = AdaptedProcess(m, tuple(u + b for u, b in zip(traj.U.levels, bump.levels)))
            worst_gain = max(worst_gain, J_opt - total_cost(model, U_pert, F))
    ok = worst_mmse <= 1e-9 and worst_gain <= 1e-9
    report(
        4,
        "feedback control achieves the minimum",
        ok,
        f"max |J - MMSE| {worst_mmse:.3e}, max perturbation gain {worst_gain:.3e} "
        f"over 20 models x 50 perturbations (tol 1e-9)",
    )


def test_criterion_05_estimator_identity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        d, m, T = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
        model = random_model(rng, d, m, T)
        F = rng.standard_normal(d)
        traj = solve_optimal(model, filter_process(model), F)
        E = token_basis(m)
        for z in prefixes(m, T):
            if path_probability(model, z) <= 0.0:
                continue
            pis = forward_filter(model, z)
            acc = float(model.mu @ traj.y0())
            for t in range(T + 1):
                pi_t = model.mu if t == 0 else pis[t - 1]
                lhs = float(pi_t @ np.asarray(traj.Y.at(z[:t])))
                worst = max(worst, abs(lhs - acc))
                if t < T:
                    acc -= float(np.asarray(traj.U.at(z[:t])) @ E[z[t]])
    ok = worst <= 1e-9
    report(
        5,
        "filtered solution equals the running estimator",
        ok,
        f"max deviation {worst:.3e} over 20 models, all times and paths (tol 1e-9)",
    )


def test_criterion_06_representation():
    rng = np.random.default_rng(606)
    worst_recon = 0.0
    worst_agree = 0.0
    worst_total = 0.0
    agree_checked = 0
    for _ in range(20):
        d, m, T = int(rng.integers(2, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
        model = random_model(rng, d, m, T)
        paths = list(prefixes(m, T))
        min_prob = min(path_probability(model, z) for z in paths)
        reps = []
        for q in range(m + 1):
            rep = represent_conditional(model, q)
            reps.append(rep)
            target = {}
            for z in paths:
                pi_T = forward_filter(model, z)[-1]
                target[z] = float(next_token_prob(model, pi_T)[q])
                worst_recon = max(worst_recon, abs(evaluate(rep, z) - target[z]))
            if min_prob > 1e-6:
                alt = build_weights_lstsq(target, m, T)
                worst_agree = max(worst_agree, abs(rep.constant - alt.constant))
                for t in range(T):
                    for w in prefixes(m, t):
                        worst_agree = max(
                            worst_agree,
                            float(np.max(np.abs(rep.weights.at(w) - alt.weights.at(w)))),
                        )
                agree_checked += 1
        for z in paths:
            worst_total = max(worst_total, abs(sum(evaluate(r, z) for r in reps) - 1.0))
    ok = worst_recon <= 1e-12 and worst_agree <= 1e-10 and worst_total <= 1e-10
    report(
        6,
        "predictor representation of conditionals",
        ok,
        f"max reconstruction {worst_recon:.3e} (tol 1e-12), constructions agree to "
        f"{worst_agree:.3e} on {agree_checked} cases (tol 1e-10), pathwise totals off by "
        f"{worst_total:.3e} (tol 1e-10)",
    )


def test_criterion_07_decomposition():
    rng = np.random.default_rng(707)
    worst = 0.0
    for m in range(1, 6):
        E = token_basis(m)
        for _ in range(2000):
            s = rng.standard_normal(m + 1) * float(rng.choice([0.01, 1.0, 1000.0]))
            mean, tilde = decompose(s)
            recon = mean + E @ tilde
            worst = max(worst, float(np.max(np.abs(recon - s))) / max(1.0, float(np.max(np.abs(s)))))
        # uniqueness: the zero function is the only one with a null decomposition
        mean, tilde = decompose(np.zeros(m + 1))
        assert mean == 0.0 and not tilde.any()
    ok = worst <= 1e-14
    report(
        7,
        "mean/tilde split of token functions",
        ok,
        f"max relative round-trip error {worst:.3e} over 10^4 functions, m = 1..5 (tol 1e-14)",
    )


def head_outputs(params, block):
    """Every head's output at the last position of block, heads stacked in order: sum_s alpha(s; t, h) W_V^h sigma_s."""
    return np.concatenate([W_V @ (block @ w) for W_V, w in zip(params.W_V, attention_weights(params, block))])


def test_criterion_08_attention_invariants():
    rng = np.random.default_rng(808)
    d, T = 8, 6
    worst_weight = 0.0
    worst_perm = 0.0
    worst_eq = 0.0
    causal_ok = True
    draws = 0
    while draws < 100:
        n_head = (1, 2, 4)[draws % 3]
        params = random_layer_params(rng, d, n_head)
        sig = rng.standard_normal((d, T))
        for t in range(1, T + 1):
            w = attention_weights(params, sig[:, :t])
            worst_weight = max(worst_weight, float(-w.min()), float(np.max(np.abs(w.sum(axis=1) - 1.0))))
        out = layer_forward(params, sig)
        bumped = sig.copy()
        bumped[:, 3:] = rng.standard_normal((d, T - 3))
        causal_ok &= np.array_equal(layer_forward(params, bumped)[:, :3], out[:, :3])
        base = head_outputs(params, sig[:, :5])
        perm = rng.permutation(4)
        shuffled = sig[:, :5].copy()
        shuffled[:, :4] = shuffled[:, perm]
        permed = head_outputs(params, shuffled)
        worst_perm = max(worst_perm, float(np.max(np.abs(base - permed))))
        f = rng.standard_normal(d)
        for t in (1, 4, T):
            worst_eq = max(worst_eq, abs(float(f @ out[:, t - 1]) - simplified_form(params, sig, t, f)))
        draws += 1
    ok = worst_weight <= 1e-12 and causal_ok and worst_perm <= 1e-12 and worst_eq <= 1e-12
    report(
        8,
        "attention-layer invariants",
        ok,
        f"weights off-simplex by {worst_weight:.3e}, causality bit-exact {causal_ok}, "
        f"permutation deviation {worst_perm:.3e}, bilinear-form mismatch {worst_eq:.3e} "
        f"over 100 draws (tol 1e-12)",
    )


def test_criterion_09_kl_metric():
    rng = np.random.default_rng(909)
    p = np.stack([rng.dirichlet(np.ones(3)) for _ in range(5)], axis=1)
    zero_ok = kl_divergence_bar(p, p) == 0.0
    ln2_err = abs(kl_divergence_bar(np.array([[1.0], [0.0]]), np.array([[0.5], [0.5]])) - np.log(2.0))
    # demo outputs: seeded stack, divergence of each layer against the last
    from dualfilter.attention import embed_sequence, layer_stack, positional_encoding, predictions

    params = random_layer_params(rng, 8, 2)
    emb = rng.standard_normal((8, 3)) / np.sqrt(8)
    pe = positional_encoding(8, 6)
    sig0 = embed_sequence(emb, pe, tuple(int(t) for t in rng.integers(0, 3, size=6)))
    tables = [predictions(emb, sig) for sig in layer_stack(params, sig0, 4)]
    divs = [kl_divergence_bar(tables[-1], tab) for tab in tables[:-1]]
    demo_ok = all(v >= 0.0 and np.isfinite(v) for v in divs)
    ok = zero_ok and ln2_err <= 1e-12 and demo_ok
    report(
        9,
        "time-averaged KL metric",
        ok,
        f"zero on identical inputs {zero_ok}, two-point example off by {ln2_err:.3e} "
        f"(tol 1e-12), demo divergences nonnegative {demo_ok}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    model = random_model(rng, 2, 1, 3)
    model_file = write_model(tmp_path / "model.json", model)
    runner = CliRunner()
    commands = {
        "oracle": ["oracle", "--seed", "7"],
        "fixedpoint": ["fixedpoint", "--seed", "7", "--iterations", "4"],
        "duality": ["duality", "--seed", "7", "--draws", "3"],
        "represent": ["represent", "--z-query", "1"],
        "attention-demo": ["attention-demo", "--seed", "7"],
    }
    identical = True
    for name, args in commands.items():
        blobs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{name}-{attempt}"
            res = runner.invoke(main, args + ["--model", str(model_file), "--out", str(out)])
            assert res.exit_code == 0, f"{name}: {res.output}"
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        identical &= blobs[0] == blobs[1]
    report(
        10,
        "deterministic CLI reports",
        identical,
        "all five commands re-run byte-identically" if identical else "reports differ between runs",
    )
