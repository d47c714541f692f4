"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line with its headline numbers after its
assertions succeed, so a verbose run reads as a checklist. The heavy
criteria time themselves against their stated budgets.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import specseq.experiments as ex
from specseq import (
    BandSpec,
    DesignProblem,
    ScoreKind,
    arcsin_trace_ratio,
    exhaustive_search,
    halved_constraint_optimum,
    metric_bundle,
    run_design,
    solve_relaxation,
)
from specseq.cli import main
from specseq.sdp import circulant
from helpers import sample_candidate


def paper_bands(n):
    return (
        ex.scale_runs(((25, 6), (40, 6)), n),
        ex.scale_runs(((10, 6), (50, 6)), n),
    )


def report_stat(report, statistic):
    return {
        row["sweep"]: (row["value"], row["std_error"])
        for row in report.rows
        if row["statistic"] == statistic
    }


def test_criterion_1_oracle_match():
    # n=16, 50 random 2+2-bin configurations, alpha=4, 4096 trials:
    # the randomized design must recover the exhaustive optimum
    started = time.perf_counter()
    choices = ex.oracle_band_choices(16)
    rng = np.random.default_rng(2026)
    picked = [choices[i] for i in sorted(rng.choice(len(choices), size=50, replace=False))]
    ratios = []
    exact = 0
    for msg, intf in picked:
        p = DesignProblem(
            16, BandSpec(msg), BandSpec(intf), 4.0, trials=4096,
            seed=int(rng.integers(0, 2**63)),
        )
        oracle_best = exhaustive_search(p).best_by_power[1].message_power
        sol = solve_relaxation(p)
        res = run_design(p, sol, score=ScoreKind.MESSAGE_POWER)
        achieved = res.best.metrics.message_power if res.best else 0.0
        ratio = achieved / oracle_best
        ratios.append(ratio)
        if abs(ratio - 1.0) <= 1e-9:
            exact += 1
    elapsed = time.perf_counter() - started
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio >= 0.99
    assert exact >= 0.95 * len(picked)
    assert elapsed <= 600.0
    print(
        f"ACCEPTANCE 1 oracle match: PASS mean_ratio={mean_ratio:.6f} "
        f"exact={exact}/{len(picked)} elapsed={elapsed:.0f}s"
    )


def test_criterion_2_approximation_ratio_floor():
    # n=64 scaled bands, alpha=5, 1e4 trials: the expected approximation
    # ratio keeps Nesterov's 2/pi floor. Signs of w ~ N(0, S) have
    # E[s s^T] = (2/pi) arcsin(S), so E[gamma] = (2/pi) tr(A_M arcsin S)
    # / tr(A_M S), and arcsin(S) - S is PSD (a sum of Schur powers of S)
    # while A_M is PSD, so E[gamma] >= 2/pi. The sample mean of gamma over
    # all trials must reach the floor and match that exact value within
    # 5/sqrt(L) standard deviations. The floor holds for the mean, not for
    # every draw: the smallest feasible gamma is an order statistic that
    # falls as the trial count grows, so it is reported only.
    started = time.perf_counter()
    message, interferer = paper_bands(64)
    p = DesignProblem(64, message, interferer, 5.0, trials=10000, seed=0)
    sol = solve_relaxation(p)
    res = run_design(p, sol, retain=True)
    table = res.trial_table
    floor = 2.0 / math.pi
    exact = floor * arcsin_trace_ratio(circulant(sol.spectrum), p.message)
    mean = float(table.gamma.mean())
    limit = 5.0 * float(table.gamma.std(ddof=1)) / math.sqrt(p.trials)
    elapsed = time.perf_counter() - started
    assert res.n_feasible > 0
    assert exact >= floor
    assert mean >= floor - limit
    assert abs(mean - exact) <= limit
    assert elapsed <= 300.0
    worst = float(table.gamma[table.feasible].min())
    print(
        f"ACCEPTANCE 2 approximation ratio floor: PASS exact_mean_gamma={exact:.4f} "
        f"sample_mean_gamma={mean:.4f} limit={limit:.4f} floor={floor:.4f} "
        f"min_feasible_gamma={worst:.4f} n_feasible={res.n_feasible} "
        f"elapsed={elapsed:.0f}s"
    )


def test_criterion_3_relaxation_dominance():
    # n=12, 20 random configurations: the relaxation objective dominates
    # the exhaustive optimum under the halved bound, certified by KKT
    rng = np.random.default_rng(99)
    worst_gap = math.inf
    worst_kkt = 0.0
    for i in range(20):
        bins = rng.permutation(12)
        msg = BandSpec(tuple(int(b) for b in bins[:3]))
        intf = BandSpec(tuple(int(b) for b in bins[3:6]))
        probe = DesignProblem(12, msg, intf, 0.0, 10, 0)
        s = rng.integers(0, 2, 12) * 2 - 1
        alpha = max(0.5, 2.0 * metric_bundle(probe, s).interferer_power)
        p = DesignProblem(12, msg, intf, alpha, 10, int(i))
        sol = solve_relaxation(p)
        halved = halved_constraint_optimum(p)
        worst_gap = min(worst_gap, sol.objective - halved)
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        assert halved <= sol.objective + 1e-4
        assert sol.kkt_residual <= 1e-5
    print(
        f"ACCEPTANCE 3 relaxation dominance: PASS worst_margin={worst_gap:.2e} "
        f"worst_kkt={worst_kkt:.2e}"
    )


def test_criterion_4_pairwise_expectation_identity():
    # random n=32 solution, 1e5 samples: empirical E[s_i s_j] matches
    # (2/pi) arcsin(S_ij) entrywise within 5/sqrt(L)
    message = BandSpec((3, 4, 5, 11, 12))
    interferer = BandSpec((18, 19, 20))
    p = DesignProblem(32, message, interferer, 4.0, trials=10, seed=0)
    sol = solve_relaxation(p)
    trials = 100000
    acc = np.zeros((32, 32))
    block = []
    for ell in range(trials):
        cand = sample_candidate(sol.factor, np.random.default_rng(p.seed ^ ell))
        block.append(cand.astype(float))
        if len(block) == 4096:
            arr = np.asarray(block)
            acc += arr.T @ arr
            block = []
    if block:
        arr = np.asarray(block)
        acc += arr.T @ arr
    acc /= trials
    expected = (2.0 / math.pi) * np.arcsin(np.clip(circulant(sol.spectrum), -1.0, 1.0))
    deviation = float(np.abs(acc - expected).max())
    limit = 5.0 / math.sqrt(trials)
    assert deviation <= limit
    print(
        f"ACCEPTANCE 4 pairwise expectation: PASS max_dev={deviation:.5f} "
        f"limit={limit:.5f}"
    )


def test_criterion_5_bounded_differences():
    # every single-entry flip moves the interferer power by at most 4K
    message = BandSpec((3, 4, 5, 11, 12))
    interferer = BandSpec((18, 19, 20, 21))
    p = DesignProblem(32, message, interferer, 4.0, trials=100, seed=7)
    sol = solve_relaxation(p)
    k = len(p.interferer)
    worst = 0.0
    for ell in range(100):
        cand = sample_candidate(sol.factor, np.random.default_rng(p.seed ^ ell))
        g0 = metric_bundle(p, cand).interferer_power
        for i in range(p.n):
            flipped = cand.copy()
            flipped[i] = -flipped[i]
            worst = max(worst, abs(metric_bundle(p, flipped).interferer_power - g0))
    assert worst <= 4.0 * k + 1e-9
    print(f"ACCEPTANCE 5 bounded differences: PASS worst_delta={worst:.3f} bound={4*k}")


def test_criterion_6_beta_empirics():
    # 1000 random unit-diagonal PSD matrices per cell: at least 99% of
    # arcsin trace ratios stay below pi - 1
    cfg = ex.default_config(ex.ExperimentKind.BETA_DISTRIBUTION, seed=0)
    cfg = replace(cfg, sweep=((32, 4, 4), (64, 8, 8)), repetitions=1000)
    report = ex.run_experiment(cfg)
    fractions = report_stat(report, "fraction_below_pi_minus_1")
    for cell, (value, _) in fractions.items():
        assert value >= 0.99, f"cell {cell}: fraction {value}"
    detail = " ".join(f"{cell}={value:.3f}" for cell, (value, _) in sorted(fractions.items()))
    print(f"ACCEPTANCE 6 beta empirics: PASS {detail}")


def test_criterion_7_feasibility_curves():
    # n=64 default grids: rounded candidates dominate uniform sequences,
    # curves are monotone within two standard errors, and the
    # concentration bound upper-bounds the threshold exceedance rate
    started = time.perf_counter()
    alpha_cfg = ex.default_config(ex.ExperimentKind.FEASIBILITY_VS_ALPHA, seed=0)
    assert alpha_cfg.problem.n == 64
    assert alpha_cfg.sweep == tuple(np.arange(0.5, 5.25, 0.5))
    report = ex.run_experiment(alpha_cfg)
    rounded = report_stat(report, "rounded_feasible_rate")
    uniform = report_stat(report, "uniform_feasible_rate")
    exceed = report_stat(report, "threshold_exceed_rate")
    bound = report_stat(report, "mcdiarmid_bound")
    alphas = sorted(rounded)
    for a in alphas:
        assert rounded[a][0] >= uniform[a][0], f"alpha={a}"
        assert bound[a][0] >= exceed[a][0], f"alpha={a}"
    for lo, hi in zip(alphas, alphas[1:]):
        slack = 2.0 * (rounded[lo][1] + rounded[hi][1])
        assert rounded[hi][0] >= rounded[lo][0] - slack

    width_cfg = ex.default_config(ex.ExperimentKind.FEASIBILITY_VS_WIDTH, seed=0)
    assert width_cfg.sweep == tuple(range(1, 11))
    report_w = ex.run_experiment(width_cfg)
    rounded_w = report_stat(report_w, "rounded_feasible_rate")
    uniform_w = report_stat(report_w, "uniform_feasible_rate")
    exceed_w = report_stat(report_w, "threshold_exceed_rate")
    bound_w = report_stat(report_w, "mcdiarmid_bound")
    widths = sorted(rounded_w)
    for w in widths:
        assert rounded_w[w][0] >= uniform_w[w][0], f"width={w}"
        assert bound_w[w][0] >= exceed_w[w][0], f"width={w}"
    for lo, hi in zip(widths, widths[1:]):
        slack = 2.0 * (rounded_w[lo][1] + rounded_w[hi][1])
        assert rounded_w[hi][0] <= rounded_w[lo][0] + slack
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 7 feasibility curves: PASS alpha_rates="
        f"{rounded[alphas[0]][0]:.3f}..{rounded[alphas[-1]][0]:.3f} "
        f"width_rates={rounded_w[widths[0]][0]:.3f}..{rounded_w[widths[-1]][0]:.3f} "
        f"elapsed={elapsed:.0f}s"
    )


def test_criterion_8_baseline_ordering():
    # n=64, message width 10, interferer widths 1..10, 20 configurations
    # each: the randomized design beats the binary-constrained baselines
    # and the quantized eigenvector in mean rejection ratio everywhere,
    # and SHAPE objective traces never increase
    started = time.perf_counter()
    cfg = ex.default_config(ex.ExperimentKind.BASELINE_COMPARISON, seed=0)
    assert cfg.problem.n == 64
    assert len(cfg.problem.message) == 10
    assert cfg.sweep == tuple(range(1, 11))
    assert cfg.repetitions == 20
    # apart from mean_seconds the rows do not depend on the worker count,
    # and two workers shorten the run
    report = ex.run_experiment(cfg, jobs=2)
    by_width = {}
    for row in report.rows:
        by_width.setdefault(row["width"], {})[row["method"]] = row

    def strictly_better(a, b):
        # mean ordering in the extended reals: a run that exactly nulls
        # the interferer band has an infinite ratio, so saturated means
        # tie-break on the fraction of such perfect runs, then on the
        # mean over the finite runs
        perfect_a = a["n_perfect"] / a["n_runs"]
        perfect_b = b["n_perfect"] / b["n_runs"]
        if perfect_a == 0.0 and perfect_b == 0.0:
            return a["mean_rho"] > b["mean_rho"]
        if perfect_a != perfect_b:
            return perfect_a > perfect_b
        if a["finite_mean_rho"] is None or b["finite_mean_rho"] is None:
            return False
        return a["finite_mean_rho"] > b["finite_mean_rho"]

    lines = []
    for width in sorted(by_width):
        methods = by_width[width]
        alg1 = methods["alg1"]
        assert alg1["n_runs"] > 0, f"width={width}: no successful design runs"
        for rival in ("shape_binary", "lpnn_binary", "eigenvector"):
            other = methods[rival]
            assert other["n_runs"] > 0
            assert strictly_better(alg1, other), (
                f"width={width}: alg1 mean={alg1['mean_rho']:.4g} "
                f"perfect={alg1['n_perfect']} vs {rival} "
                f"mean={other['mean_rho']:.4g} perfect={other['n_perfect']}"
            )
        for shape_method in ("shape_unimodular", "shape_binary"):
            row = methods[shape_method]
            assert row["n_monotone"] == row["n_runs"], f"width={width} {shape_method}"
        lines.append(f"w{width}:{alg1['mean_rho']:.3g}")
    elapsed = time.perf_counter() - started
    print(
        "ACCEPTANCE 8 baseline ordering: PASS alg1_mean_rho "
        + " ".join(lines)
        + f" elapsed={elapsed:.0f}s"
    )


def test_criterion_9_determinism(tmp_path, capsys):
    # every subcommand, run twice with the same config and seed, emits
    # byte-identical output (wall-clock columns excepted)
    problem = {
        "n": 16, "message": [2, 3], "interferer": [6, 7],
        "alpha": 2.0, "trials": 200, "seed": 11,
    }
    problem_path = tmp_path / "p.json"
    problem_path.write_text(json.dumps(problem))

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    # stdout-producing subcommands
    for argv in (
        ("design", str(problem_path)),
        ("design", str(problem_path), "--score", "rho"),
        ("oracle", str(problem_path)),
        ("shape", str(problem_path), "--shape-max-iters", "50"),
        ("lpnn", str(problem_path), "--lpnn-max-iters", "50"),
        ("dump-sdp", str(problem_path)),
    ):
        code_a, out_a = run(*argv)
        code_b, out_b = run(*argv)
        assert code_a == code_b
        assert out_a == out_b, f"stdout differs for {argv[0]}"

    # file-producing experiment subcommands
    experiment_configs = [
        {"kind": "FeasibilityVsAlpha", "seed": 3, "sweep": [2.0, 3.0],
         "problem": {"n": 16, "message": [2, 3], "interferer": [6, 7],
                     "alpha": 3.0, "trials": 400, "seed": 3}},
        {"kind": "RatioHistogram", "seed": 4, "sweep": [400],
         "problem": {"n": 16, "message": [2, 3], "interferer": [6, 7],
                     "alpha": 3.0, "trials": 400, "seed": 4}},
        {"kind": "BetaDistribution", "seed": 5, "sweep": [[16, 2, 2]], "repetitions": 60},
        {"kind": "OracleComparison", "seed": 6, "sweep": [32, 64], "repetitions": 3},
    ]
    for config in experiment_configs:
        cfg_path = tmp_path / f"cfg_{config['kind']}.json"
        cfg_path.write_text(json.dumps(config))
        out_a = tmp_path / f"{config['kind']}_a.csv"
        out_b = tmp_path / f"{config['kind']}_b.csv"
        assert run("experiment", str(cfg_path), "--output", str(out_a), "--jobs", "1")[0] == 0
        assert run("experiment", str(cfg_path), "--output", str(out_b), "--jobs", "1")[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes(), config["kind"]

    # the baseline comparison carries wall-clock timings by design; it is
    # deterministic in every other column
    config = {
        "kind": "BaselineComparison", "seed": 7, "sweep": [2], "repetitions": 2,
        "problem": {"n": 16, "message": [2, 3, 4], "interferer": [8, 9],
                    "alpha": 3.0, "trials": 300, "seed": 7},
    }
    cfg_path = tmp_path / "cfg_baseline.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "baseline_a.csv"
    out_b = tmp_path / "baseline_b.csv"
    assert run("experiment", str(cfg_path), "--output", str(out_a), "--jobs", "1")[0] == 0
    assert run("experiment", str(cfg_path), "--output", str(out_b), "--jobs", "1")[0] == 0

    def strip_timing(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("mean_seconds")
        return [
            ",".join(v for i, v in enumerate(line.split(",")) if i != drop)
            for line in lines
        ]

    assert strip_timing(out_a) == strip_timing(out_b)

    # dump-sdp to a file as well
    dump_a = tmp_path / "dump_a.csv"
    dump_b = tmp_path / "dump_b.csv"
    assert run("dump-sdp", str(problem_path), "--output", str(dump_a))[0] == 0
    assert run("dump-sdp", str(problem_path), "--output", str(dump_b))[0] == 0
    assert dump_a.read_bytes() == dump_b.read_bytes()
    print("ACCEPTANCE 9 determinism: PASS all subcommands byte-identical")
