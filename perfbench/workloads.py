"""Workload catalogues, the items they run, and the checks on every output.

Each workload is a fixed list of items, one pass over the list being the
unit the benchmark times. Band layouts are literal here, so the inputs do
not move when package helpers change. The workload seed reaches the
program only through each item's problem seed, which sets its rounding
draws; it is spawned from the seed with SeedSequence the way the
experiment harness seeds its jobs, but 64 bits wide. Baseline starting
points are fixed (see ``_compare``).

Every call into a layer goes through ``tracer.call`` so the traced run
records one span per call; the untraced run uses a tracer that calls
straight through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from specseq import (
    BandSpec,
    DesignProblem,
    ScoreKind,
    exhaustive_search,
    metric_bundle,
    quantized_principal_eigenvector,
    run_design,
    run_lpnn,
    run_shape,
    solve_relaxation,
)

#: bound on the relaxation's KKT residual and on the relative distance of
#: its objective from the stored reference; the package's own tests hold
#: the solver to the same 1e-5
SOLVER_TOL = 1e-5

#: relative slack for quantities that must agree up to floating-point roundoff
ROUNDOFF = 1e-9

#: iteration budget of run_shape and run_lpnn (their defaults, and the harness's)
BASELINE_MAX_ITERS = 10000

BASELINE_VARIANTS = ("unimodular", "binary")


@dataclass(frozen=True)
class Item:
    """One unit of work: a problem template and what to run on it."""

    key: str
    kind: str  # "design", "baseline" or "oracle"
    n: int
    message: tuple
    interferer: tuple
    alpha: float
    trials: int
    score: ScoreKind = ScoreKind.MESSAGE_POWER
    retain: bool = False
    baseline_iters: int = BASELINE_MAX_ITERS
    start_seed: int | None = None  # fixed SHAPE/LPNN start; None: the problem seed

    def problem(self, seed: int) -> DesignProblem:
        return DesignProblem(
            n=self.n, message=BandSpec(self.message), interferer=BandSpec(self.interferer),
            alpha=self.alpha, trials=self.trials, seed=seed,
        )


def bins(*runs) -> tuple:
    """Bins of contiguous (start, width) runs."""
    return tuple(k for start, width in runs for k in range(start, start + width))


def _design_solve():
    # the published layout scaled to n=256, two random contiguous layouts
    # drawn once and frozen here, and one n=128 layout whose message
    # mirrors n-k all sit in the interferer band: a real sequence has
    # |X_k| = |X_(n-k)|, so the halved constraint binds and the solver
    # bisects on the multiplier instead of solving once
    power = ScoreKind.MESSAGE_POWER
    return [
        Item("paper-256", "design", 256, bins((50, 12), (80, 12)),
             bins((20, 12), (100, 12)), 5.0, 10000, power),
        Item("contig-256-a", "design", 256, bins((30, 12), (52, 12)),
             bins((83, 12), (114, 12)), 5.0, 10000, power),
        Item("contig-256-b", "design", 256, bins((40, 12), (72, 12)),
             bins((95, 12), (114, 12)), 5.0, 10000, power),
        Item("mirror-128", "design", 128, bins((20, 6)),
             bins((103, 6), (40, 4)), 4.0, 10000, power),
    ]


def _design_trials():
    # published layout at n=64; alpha from about 10% feasible to about 100%
    return [
        Item(f"paper-64-alpha{alpha:g}", "design", 64, bins((12, 3), (20, 3)),
             bins((5, 3), (25, 3)), alpha, 100000, ScoreKind.REJECTION_RATIO, True)
        for alpha in (1.0, 2.0, 5.0)
    ]


def _compare():
    # BaselineComparison jobs (n=64, message width 10, interferer widths
    # 1, 4 and 10) alternating with OracleComparison jobs (n=16, 2+2 bins).
    # SHAPE's cycle count is heavy-tailed in its random start (160 to
    # 10 000 cycles on one layout), which alone moved this workload's time
    # by 10% between seeds; so SHAPE and LPNN start from fixed points, the
    # ones workload seed 0 draws in its first pass, and the seed varies
    # only the rounding draws of every item
    rho = ScoreKind.REJECTION_RATIO
    power = ScoreKind.MESSAGE_POWER
    items = [
        Item("baseline-64-w1", "baseline", 64, bins((43, 10)), bins((31, 1)), 5.0, 10000, rho),
        Item("oracle-16-a", "oracle", 16, (1, 2), (3, 4), 4.0, 4096, power),
        Item("baseline-64-w4", "baseline", 64, bins((39, 10)), bins((1, 4)), 5.0, 10000, rho),
        Item("oracle-16-b", "oracle", 16, (1, 8), (4, 6), 4.0, 4096, power),
        Item("baseline-64-w10", "baseline", 64, bins((22, 10)), bins((51, 10)), 5.0, 10000, rho),
        Item("oracle-16-c", "oracle", 16, (3, 4), (2, 5), 4.0, 4096, power),
    ]
    return [replace(item, start_seed=item_seed(0, 0, i)) if item.kind == "baseline" else item
            for i, item in enumerate(items)]


WORKLOADS = {
    "design-solve": _design_solve,
    "design-trials": _design_trials,
    "compare": _compare,
}


def catalogue(workload: str) -> list:
    return WORKLOADS[workload]()


def warmup_items(workload: str) -> list:
    """Tiny items of the same kinds as the workload's, run before timing."""
    items = catalogue(workload)
    retain = any(item.retain for item in items)
    return [
        Item(f"warmup-{kind}", kind, 8, (1, 2), (3, 4), 2.0, 256,
             ScoreKind.REJECTION_RATIO, retain, baseline_iters=20)
        for kind in sorted({item.kind for item in items})
    ]


def item_seed(seed: int, pass_index: int, item_index: int) -> int:
    """64-bit problem seed of one item of one pass, spawned from the workload seed."""
    seq = np.random.SeedSequence(seed, spawn_key=(pass_index, item_index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# ----------------------------------------------------------------------
# checks: each appends one message per violation to ``errors``


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=ROUNDOFF, abs_tol=1e-12)


def _check_binary(seq, n: int, what: str, errors: list):
    arr = np.asarray(seq)
    if arr.shape != (n,):
        errors.append(f"{what}: shape {arr.shape}, expected ({n},)")
    elif not np.all(np.abs(arr) == 1) or np.iscomplexobj(arr):
        errors.append(f"{what}: entries are not all +-1")


def _check_metrics(p: DesignProblem, seq, reported, what: str, errors: list):
    """Reported metrics must equal a re-score with the public metric_bundle."""
    fresh = metric_bundle(p, seq)
    for name in ("message_power", "interferer_power", "rejection_ratio",
                 "reciprocal_dynamic_range"):
        got, want = getattr(reported, name), getattr(fresh, name)
        if not _close(got, want):
            errors.append(f"{what}: reported {name} {got!r}, re-scored {want!r}")
    if reported.feasible != fresh.feasible:
        errors.append(f"{what}: reported feasible {reported.feasible}, re-scored {fresh.feasible}")
    return fresh


def check_solution(p, sol, expected_objective, errors: list):
    if not sol.kkt_residual <= SOLVER_TOL:
        errors.append(f"relaxation: KKT residual {sol.kkt_residual:.3e} above {SOLVER_TOL}")
    if expected_objective is not None:
        gap = abs(sol.objective - expected_objective)
        if not gap <= SOLVER_TOL * max(1.0, abs(expected_objective)):
            errors.append(
                f"relaxation: objective {sol.objective!r}, reference {expected_objective!r}"
            )


def check_design(p, sol, res, retain: bool, errors: list):
    if res.n_trials != p.trials or not 0 <= res.n_feasible <= res.n_trials:
        errors.append(f"design: {res.n_feasible} feasible of {res.n_trials} trials")
    if res.best is None:
        errors.append("design: no feasible candidate")
    else:
        _check_binary(res.best.sequence, p.n, "design winner", errors)
        fresh = _check_metrics(p, res.best.sequence, res.best.metrics, "design winner", errors)
        if not fresh.interferer_power <= p.alpha + ROUNDOFF * max(1.0, p.alpha):
            errors.append(
                f"design winner: interferer power {fresh.interferer_power!r} above {p.alpha}"
            )
        if res.best.gamma is None or not _close(
            res.best.gamma, fresh.message_power / sol.objective
        ):
            errors.append(f"design winner: gamma {res.best.gamma!r} does not match re-score")
    if retain:
        table = res.trial_table
        if table is None or table.feasible.shape != (p.trials,):
            errors.append("design: per-trial table missing or wrong length")
        elif int(table.feasible.sum()) != res.n_feasible:
            errors.append("design: per-trial table disagrees with the feasible count")


def check_shape(p, result, variant: str, errors: list):
    trace = result.trace
    rises = np.diff(trace) > ROUNDOFF * np.maximum(1.0, trace[:-1])
    if np.any(rises):
        errors.append(f"shape {variant}: objective trace rises at step {int(np.argmax(rises)) + 1}")
    _check_baseline_output(p, result, f"shape {variant}", variant, errors)


def _check_baseline_output(p, result, what: str, variant: str, errors: list):
    if variant == "binary":
        _check_binary(result.sequence, p.n, what, errors)
    else:
        seq = np.asarray(result.sequence)
        if seq.shape != (p.n,) or not np.allclose(np.abs(seq), 1.0, rtol=0.0, atol=ROUNDOFF):
            errors.append(f"{what}: output is not unimodular of length {p.n}")
    _check_metrics(p, result.sequence, result.metrics, what, errors)


# ----------------------------------------------------------------------
# item runners


def _run_design_part(item, p, tracer, reference, rec, errors):
    sol = tracer.call("sdp.solve_relaxation", solve_relaxation, p)
    res = tracer.call(
        "rounding.run_design", run_design, p, sol, score=item.score, retain=item.retain
    )
    expected = None if reference is None else reference["objective"][item.key]
    check_solution(p, sol, expected, errors)
    check_design(p, sol, res, item.retain, errors)
    rec.update(
        objective=sol.objective, kkt=sol.kkt_residual, dual=sol.dual_multiplier,
        n_trials=res.n_trials, n_feasible=res.n_feasible,
        gamma=None if res.best is None else res.best.gamma,
        best_power=None if res.best is None else res.best.metrics.message_power,
    )
    return sol


def _run_baselines(item, p, sol, tracer, rec, errors):
    eig = tracer.call("rounding.quantized_principal_eigenvector",
                      quantized_principal_eigenvector, p, sol)
    _check_binary(eig.sequence, p.n, "eigenvector", errors)
    _check_metrics(p, eig.sequence, eig.metrics, "eigenvector", errors)
    if item.start_seed is not None:
        p = replace(p, seed=item.start_seed)
    rec["shape"], rec["lpnn"], rec["rho"] = [], [], []
    for variant in BASELINE_VARIANTS:
        result = tracer.call("baselines.run_shape", run_shape, p, variant,
                             max_iters=item.baseline_iters)
        check_shape(p, result, variant, errors)
        rec["shape"].append((result.iterations, result.iterations < item.baseline_iters))
        rec["rho"].append(result.metrics.rejection_ratio)
    for variant in BASELINE_VARIANTS:
        result = tracer.call("baselines.run_lpnn", run_lpnn, p, variant,
                             max_iters=item.baseline_iters)
        _check_baseline_output(p, result, f"lpnn {variant}", variant, errors)
        rec["lpnn"].append((result.iterations, result.iterations < item.baseline_iters))
        rec["rho"].append(result.metrics.rejection_ratio)


def _run_oracle(item, p, tracer, reference, rec, errors):
    found = tracer.call("oracle.exhaustive_search", exhaustive_search, p)
    seq, metrics = found.best_by_power
    optimum = metrics.message_power
    _check_binary(seq, p.n, "oracle optimum", errors)
    fresh = _check_metrics(p, seq, metrics, "oracle optimum", errors)
    if not fresh.feasible:
        errors.append("oracle optimum: sequence is infeasible")
    if reference is not None:
        expected = reference["oracle_power"][item.key]
        if not _close(optimum, expected):
            errors.append(f"oracle: optimum {optimum!r}, reference {expected!r}")
    rec.update(sequences=found.n_enumerated, oracle_feasible=found.n_feasible, optimum=optimum)
    return optimum


def run_item(item: Item, seed: int, tracer, reference, index: int = 0) -> dict:
    """Run one item and check its outputs.

    Returns a record with the item's counters and ``errors``, the list of
    failed checks (an exception counts as one). ``reference`` holds the
    stored relaxation objectives and oracle optima by item key; pass None
    to skip only that comparison.
    """
    p = item.problem(seed)
    rec = {"key": item.key, "kind": item.kind, "seed": seed}
    errors: list = []
    with tracer.span("bench.item", item=index):
        try:
            optimum = None
            if item.kind == "oracle":
                optimum = _run_oracle(item, p, tracer, reference, rec, errors)
            sol = _run_design_part(item, p, tracer, reference, rec, errors)
            if item.kind == "baseline":
                _run_baselines(item, p, sol, tracer, rec, errors)
            if optimum is not None and rec["best_power"] is not None:
                if rec["best_power"] > optimum * (1.0 + ROUNDOFF):
                    errors.append(
                        f"design: best power {rec['best_power']!r} beats the exhaustive "
                        f"optimum {optimum!r}"
                    )
                rec["match"] = abs(rec["best_power"] / optimum - 1.0) <= ROUNDOFF
        except Exception as exc:  # any failure of the program counts against the item
            errors.append(f"{type(exc).__name__}: {exc}")
    rec["errors"] = errors
    return rec
