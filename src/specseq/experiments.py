"""Monte-Carlo experiment harnesses with seeded, reproducible CSV reports.

Each harness sweeps one parameter, runs seeded jobs per sweep point, and
emits one CSV row per (sweep point, statistic). Every row carries the
config echo needed to regenerate it. Job seeds are spawned from the
experiment seed in a fixed order, so reports are bit-identical across
reruns regardless of worker parallelism (wall-clock columns excepted).

Desk-scale defaults (n=64, 1e4 trials) finish in minutes on one core;
paper_scale=True switches to the full n=128 configurations.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import combinations

import numpy as np

from . import baselines, oracle, rounding, sdp
from ._version import __version__
from .errors import DivergenceError, InfeasibleRelaxationError, NoFeasibleError
from .problem import BandSpec, DesignProblem, ScoreKind, band_metrics, is_int_list, json_int

#: reference length the published band layouts are given for
_REFERENCE_N = 128

#: contiguous (start, width) runs of the published band layouts
_ALPHA_MESSAGE_RUNS = ((25, 6), (40, 6))
_ALPHA_INTERFERER_RUNS = ((10, 6), (50, 6))
_WIDTH_MESSAGE_RUNS = ((1, 10), (50, 11))
_WIDTH_INTERFERER_START = 20

_BASE_COLUMNS = ("kind", "version", "seed", "n", "alpha", "trials", "repetitions")
_STAT_COLUMNS = ("sweep", "statistic", "value", "std_error")
_BASELINE_COLUMNS = (
    "width", "method", "mean_rho", "se_rho", "mean_seconds",
    "n_runs", "n_perfect", "finite_mean_rho", "n_monotone",
)


class ExperimentKind(Enum):
    FEASIBILITY_VS_ALPHA = "FeasibilityVsAlpha"
    FEASIBILITY_VS_WIDTH = "FeasibilityVsWidth"
    RATIO_HISTOGRAM = "RatioHistogram"
    BETA_DISTRIBUTION = "BetaDistribution"
    ORACLE_COMPARISON = "OracleComparison"
    BASELINE_COMPARISON = "BaselineComparison"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: ExperimentKind
    problem: DesignProblem
    sweep: tuple
    repetitions: int
    seed: int
    shape_max_iters: int = 10000
    lpnn_max_iters: int = 10000

    def __post_init__(self):
        if len(self.sweep) == 0:
            raise ValueError("sweep grid must be nonempty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        for name in ("shape_max_iters", "lpnn_max_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        # the experiment seed keys every draw, the problem's rounding draws included
        object.__setattr__(self, "problem", replace(self.problem, seed=self.seed))


@dataclass
class ExperimentReport:
    kind: ExperimentKind
    metadata: dict
    columns: tuple
    rows: list = field(default_factory=list)

    def default_filename(self) -> str:
        return f"{self.kind.value}_{self.metadata['seed']}.csv"

    def write_csv(self, path) -> int:
        header = _BASE_COLUMNS + self.columns
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in self.rows:
                merged = {**self.metadata, **row}
                writer.writerow([_format_cell(merged.get(col)) for col in header])
        return len(self.rows)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def scale_runs(runs, n: int) -> BandSpec:
    """Scale contiguous (start, width) runs from the reference length to n.

    A run that starts above DC stays above DC after rounding: letting a
    band slip onto bin 0 would change the problem structure (the all-ones
    matrix becomes the unique optimum and every candidate degenerates to
    the constant sequence).
    """
    bins = []
    for start, width in runs:
        new_start = round(start * n / _REFERENCE_N)
        if start > 0:
            new_start = max(1, new_start)
        new_width = max(1, round(width * n / _REFERENCE_N))
        bins.extend(range(new_start, new_start + new_width))
    return BandSpec(tuple(bins))


def _interferer_band_for_width(width: int, n: int) -> BandSpec:
    start = round(_WIDTH_INTERFERER_START * n / _REFERENCE_N)
    return BandSpec(tuple(range(start, start + width)))


def default_config(
    kind: ExperimentKind, seed: int = 0, paper_scale: bool = False
) -> ExperimentConfig:
    """Fully-populated config for a kind at desk or paper scale."""
    n = 128 if paper_scale else 64
    trials = 100000 if paper_scale else 10000
    if kind is ExperimentKind.FEASIBILITY_VS_ALPHA:
        problem = DesignProblem(
            n=n,
            message=scale_runs(_ALPHA_MESSAGE_RUNS, n),
            interferer=scale_runs(_ALPHA_INTERFERER_RUNS, n),
            alpha=5.0,
            trials=trials,
        )
        top = 10.0 if paper_scale else 5.0
        sweep = tuple(np.arange(0.5, top + 0.25, 0.5))
        return ExperimentConfig(kind, problem, sweep, 1, seed)
    if kind is ExperimentKind.FEASIBILITY_VS_WIDTH:
        problem = DesignProblem(
            n=n,
            message=scale_runs(_WIDTH_MESSAGE_RUNS, n),
            interferer=_interferer_band_for_width(1, n),
            alpha=3.0,
            trials=trials,
        )
        sweep = tuple(range(1, 21 if paper_scale else 11))
        return ExperimentConfig(kind, problem, sweep, 1, seed)
    if kind is ExperimentKind.RATIO_HISTOGRAM:
        problem = DesignProblem(
            n=n,
            message=scale_runs(_ALPHA_MESSAGE_RUNS, n),
            interferer=scale_runs(_ALPHA_INTERFERER_RUNS, n),
            alpha=5.0,
            trials=1000000 if paper_scale else 10000,
        )
        return ExperimentConfig(kind, problem, (problem.trials,), 1, seed)
    if kind is ExperimentKind.BETA_DISTRIBUTION:
        problem = DesignProblem(n=32, message=BandSpec((1,)), interferer=BandSpec((4,)), alpha=1.0)
        cells = ((32, 4, 4), (64, 8, 8)) + (((128, 12, 12),) if paper_scale else ())
        return ExperimentConfig(kind, problem, cells, 1000, seed)
    if kind is ExperimentKind.ORACLE_COMPARISON:
        problem = DesignProblem(
            n=16,
            message=BandSpec((1, 2)),
            interferer=BandSpec((3, 4)),
            alpha=4.0,
            trials=65536 if paper_scale else 4096,
        )
        sweep = (
            (256, 1024, 4096, 16384, 65536) if paper_scale else (64, 256, 1024, 4096)
        )
        reps = 420 if paper_scale else 50
        return ExperimentConfig(kind, problem, sweep, reps, seed)
    if kind is ExperimentKind.BASELINE_COMPARISON:
        problem = DesignProblem(
            n=n,
            message=BandSpec(tuple(range(10, 20))),
            interferer=BandSpec(tuple(range(30, 35))),
            alpha=5.0,
            trials=trials,
        )
        reps = 10 if paper_scale else 20
        return ExperimentConfig(kind, problem, tuple(range(1, 11)), reps, seed)
    raise ValueError(f"unknown kind {kind!r}")


def config_from_json_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON object, filling unspecified parts with defaults."""
    if not isinstance(data, dict):
        raise ValueError(f"experiment config must be a JSON object: {data!r}")
    known = {f.name for f in fields(ExperimentConfig)} | {"paper_scale"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown experiment fields: {sorted(unknown)}")
    if "kind" not in data:
        raise ValueError("experiment config requires a 'kind' field")
    kind = ExperimentKind(data["kind"])
    paper_scale = data.get("paper_scale", False)
    if type(paper_scale) is not bool:
        raise ValueError(f"field 'paper_scale' must be true or false: {paper_scale!r}")
    base = default_config(kind, seed=json_int(data, "seed", 0), paper_scale=paper_scale)
    updates = {}
    if "problem" in data:
        updates["problem"] = DesignProblem.from_json_dict(data["problem"])
    if "sweep" in data:
        sweep = data["sweep"]
        cells = kind is ExperimentKind.BETA_DISTRIBUTION
        if not isinstance(sweep, list) or not all(
            (is_int_list(v) and len(v) == 3 and 1 <= v[1] <= v[0] and v[2] >= 1)
            if cells else type(v) in (int, float)
            for v in sweep
        ):
            entries = "[n, K, R] integer cells with 1 <= K <= n and R >= 1" if cells else "numbers"
            raise ValueError(f"sweep of {kind.value} must list {entries}: {sweep!r}")
        updates["sweep"] = tuple(tuple(v) if cells else v for v in sweep)
    for name in ("repetitions", "shape_max_iters", "lpnn_max_iters"):
        if name in data:
            updates[name] = json_int(data, name)
    return replace(base, **updates)


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "kind": cfg.kind.value,
        "version": __version__,
        "seed": cfg.seed,
        "n": cfg.problem.n,
        "alpha": cfg.problem.alpha,
        "trials": cfg.problem.trials,
        "repetitions": cfg.repetitions,
    }


def _map_jobs(fn, args_list, jobs: int):
    if jobs > 1 and len(args_list) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(args_list))) as pool:
            return list(pool.map(fn, args_list))
    return [fn(args) for args in args_list]


def _child_seed(root: np.random.SeedSequence, index: int) -> int:
    return int(np.random.SeedSequence(root.entropy, spawn_key=(index,)).generate_state(1)[0])


def _stat(sweep, statistic: str, value, std_error=0.0) -> dict:
    return {"sweep": sweep, "statistic": statistic, "value": value, "std_error": std_error}


def _binomial_se(rate: float, count: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / count) if count > 0 else 0.0


def _mean_se(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        # a perfectly nulled band makes the ratio infinite; the mean is
        # then infinite and a standard error is meaningless
        return math.inf, None
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _uniform_metrics(p: DesignProblem, count: int, rng) -> tuple:
    """Message powers and feasibility of `count` uniform +-1 sequences.

    Each block's signs go into one float array made once, as in
    rounding.run_design; the draws stay int64, whose stream they are.
    """
    block = 65536
    f = np.empty(count)
    feasible = np.empty(count, dtype=bool)
    buffer = np.empty((min(block, count), p.n))
    for done in range(0, count, block):
        signs = buffer[: min(block, count - done)]
        np.multiply(rng.integers(0, 2, size=signs.shape), 2.0, out=signs)
        np.subtract(signs, 1.0, out=signs)
        metrics = band_metrics(p, signs)
        f[done : done + len(signs)] = metrics.message_power
        feasible[done : done + len(signs)] = metrics.feasible
    return f, feasible


# ----------------------------------------------------------------------
# feasibility curves


def _feasibility_point(args):
    p, sweep_value, uniform_seed = args
    try:
        sol = sdp.solve_relaxation(p)
    except InfeasibleRelaxationError as exc:
        # flush a sentinel row instead of losing the whole sweep
        return [_stat(sweep_value, "FAILED", type(exc).__name__, None)]
    res = rounding.run_design(p, sol, retain=True)
    table = res.trial_table
    rate = res.feasibility_rate
    k = len(p.interferer)
    threshold = (res.beta + 1.0) * p.alpha / math.pi
    exceed = float(np.mean(table.interferer_power >= threshold)) if k else 0.0
    _, uniform_feasible = _uniform_metrics(p, p.trials, np.random.default_rng(uniform_seed))
    uniform_rate = float(np.mean(uniform_feasible))
    rows = [
        _stat(sweep_value, "rounded_feasible_rate", rate, _binomial_se(rate, p.trials)),
        _stat(sweep_value, "uniform_feasible_rate", uniform_rate,
              _binomial_se(uniform_rate, p.trials)),
        _stat(sweep_value, "threshold_exceed_rate", exceed, _binomial_se(exceed, p.trials)),
        _stat(sweep_value, "beta", res.beta),
    ]
    if k:
        rows.append(_stat(sweep_value, "mcdiarmid_bound", rounding.mcdiarmid_bound(p)))
    return rows


def _feasibility_curve(cfg: ExperimentConfig, points, jobs: int) -> list:
    """Rows of one feasibility point per (problem, sweep value), seeded in order."""
    root = np.random.SeedSequence(cfg.seed)
    args = [(p, value, _child_seed(root, i)) for i, (p, value) in enumerate(points)]
    return [row for rows in _map_jobs(_feasibility_point, args, jobs) for row in rows]


def _feasibility_vs_alpha(cfg: ExperimentConfig, jobs: int) -> list:
    """Feasibility rates of rounded and uniform sequences across tolerances."""
    points = [(replace(cfg.problem, alpha=float(a)), float(a)) for a in cfg.sweep]
    return _feasibility_curve(cfg, points, jobs)


def _feasibility_vs_width(cfg: ExperimentConfig, jobs: int) -> list:
    """Feasibility rates across contiguous interferer band widths."""
    p = cfg.problem
    points = [
        (replace(p, interferer=_interferer_band_for_width(w, p.n)), w) for w in map(int, cfg.sweep)
    ]
    return _feasibility_curve(cfg, points, jobs)


# ----------------------------------------------------------------------
# approximation-ratio histogram


def _ratio_histogram(cfg: ExperimentConfig, jobs: int) -> list:
    """Distribution of the approximation ratio over feasible candidates."""
    p = cfg.problem
    root = np.random.SeedSequence(cfg.seed)
    sol = sdp.solve_relaxation(p)
    res = rounding.run_design(p, sol, retain=True)
    table = res.trial_table

    edges = np.linspace(0.0, 1.0, 31)
    centers = (edges[:-1] + edges[1:]) / 2.0

    feasible_gamma = table.gamma[table.feasible]
    f_u, uniform_feasible = _uniform_metrics(
        p, p.trials, np.random.default_rng(_child_seed(root, 0))
    )
    uniform_gamma = f_u[uniform_feasible] / sol.objective
    rows = []
    for statistic, gamma in (
        ("rounded_gamma_count", feasible_gamma), ("uniform_gamma_count", uniform_gamma)
    ):
        counts, _ = np.histogram(np.clip(gamma, 0.0, 1.0), bins=edges)
        rows.extend(
            _stat(float(center), statistic, int(count)) for center, count in zip(centers, counts)
        )

    eig = rounding.quantized_principal_eigenvector(p, sol)
    scalars = [
        ("min_feasible_gamma", res.gamma_min_feasible),
        ("mean_feasible_gamma", float(np.mean(feasible_gamma)) if feasible_gamma.size else None),
        ("eigenvector_gamma", eig.gamma),
        ("eigenvector_feasible", float(eig.metrics.feasible)),
        ("uniform_mean_gamma", float(np.mean(uniform_gamma)) if uniform_gamma.size else None),
        ("n_feasible", res.n_feasible),
        ("uniform_n_feasible", int(uniform_feasible.sum())),
        ("relaxation_objective", sol.objective),
    ]
    rows.extend(_stat(None, name, value) for name, value in scalars)
    return rows


# ----------------------------------------------------------------------
# arcsin trace ratio over random correlation matrices


def _beta_cell(args):
    n, k, rank, reps, seed = args
    rng = np.random.default_rng(seed)
    values = np.empty(reps)
    for i in range(reps):
        g = rng.standard_normal((n, rank))
        s = g @ g.T
        d = np.sqrt(np.diag(s))
        d[d == 0.0] = 1.0
        s = s / np.outer(d, d)
        np.fill_diagonal(s, 1.0)
        start = int(rng.integers(0, n - k + 1))
        values[i] = rounding.arcsin_trace_ratio(s, BandSpec(tuple(range(start, start + k))))
    label = f"n{n}_K{k}_R{rank}"
    finite = values[np.isfinite(values)]
    below = float(np.mean(values < math.pi - 1.0))
    rows = [
        _stat(label, "fraction_below_pi_minus_1", below, _binomial_se(below, reps)),
        _stat(label, "n_finite", int(finite.size)),
    ]
    for q in (1, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99):
        quantile = float(np.percentile(finite, q)) if finite.size else None
        rows.append(_stat(label, f"beta_q{q:02d}", quantile))
    return rows


def _beta_distribution(cfg: ExperimentConfig, jobs: int) -> list:
    """Arcsin trace ratio of random unit-diagonal PSD matrices per (n, K, R) cell."""
    root = np.random.SeedSequence(cfg.seed)
    args = [
        (int(n), int(k), int(rank), cfg.repetitions, _child_seed(root, i))
        for i, (n, k, rank) in enumerate(cfg.sweep)
    ]
    return [row for rows in _map_jobs(_beta_cell, args, jobs) for row in rows]


# ----------------------------------------------------------------------
# oracle comparison at exhaustive-search scale


def oracle_band_choices(n: int = 16):
    """All disjoint 2-bin message/interferer choices over the independent bins.

    For real sequences the spectrum is conjugate-symmetric, so only bins
    1..n/2 carry independent magnitudes; at n=16, choosing 2 of 8 for the
    message and 2 of the remaining 6 for the interferer gives 420 layouts.
    """
    universe = tuple(range(1, n // 2 + 1))
    choices = []
    for msg in combinations(universe, 2):
        rest = tuple(b for b in universe if b not in msg)
        for intf in combinations(rest, 2):
            choices.append((msg, intf))
    return choices


def _ratio(achieved: float, target: float) -> float:
    """Achieved score over the exhaustive optimum; an infinite optimum is met only by infinity."""
    if math.isinf(target):
        return 1.0 if math.isinf(achieved) else 0.0
    if target == 0.0:
        return 1.0
    return achieved / target


def _oracle_job(args):
    """Per prefix length, the score ratios of the best feasible trial to the optima.

    None for a layout without a feasible sequence or relaxation; a length
    whose trial prefix holds no feasible trial maps to None.
    """
    n, msg, intf, alpha, trials, seed, sweep = args
    p = DesignProblem(
        n=n, message=BandSpec(msg), interferer=BandSpec(intf),
        alpha=alpha, trials=trials, seed=seed,
    )
    try:
        best = oracle.exhaustive_search(p)
        sol = sdp.solve_relaxation(p)
    except (NoFeasibleError, InfeasibleRelaxationError):
        return None
    table = rounding.run_design(p, sol, retain=True).trial_table
    scores = {
        "power": (table.message_power, best.best_by_power[1].message_power),
        "rho": (table.rejection_ratio, best.best_by_rho[1].rejection_ratio),
        "chi": (table.reciprocal_dynamic_range, best.best_by_chi[1].reciprocal_dynamic_range),
    }
    out = dict.fromkeys(map(int, sweep))
    for length in out:
        mask = table.feasible[:length]
        if mask.any():
            out[length] = {
                name: _ratio(float(values[:length][mask].max()), target)
                for name, (values, target) in scores.items()
            }
    return out


def _oracle_comparison(cfg: ExperimentConfig, jobs: int) -> list:
    """Metric ratios of the randomized design against exhaustive optima at the config's n."""
    n = cfg.problem.n
    oracle.check_size(n)
    root = np.random.SeedSequence(cfg.seed)
    choices = oracle_band_choices(n)
    if not choices:
        raise ValueError(f"n={n} has fewer than the 4 independent bins two 2-bin bands need")
    if cfg.repetitions < len(choices):
        rng = np.random.default_rng(_child_seed(root, 0))
        picked = rng.choice(len(choices), size=cfg.repetitions, replace=False)
        choices = [choices[i] for i in sorted(picked)]
    trials = max(int(v) for v in cfg.sweep)
    args = [
        (n, msg, intf, cfg.problem.alpha, trials, _child_seed(root, 1 + i), tuple(cfg.sweep))
        for i, (msg, intf) in enumerate(choices)
    ]
    results = _map_jobs(_oracle_job, args, jobs)

    active = [r for r in results if r is not None]
    rows = [
        _stat(None, "skipped_configs", len(results) - len(active)),
        _stat(None, "n_configs", len(results)),
    ]
    for length in map(int, cfg.sweep):
        found = [r[length] for r in active if r[length] is not None]
        if found:
            for name in ("power", "rho", "chi"):
                mean, se = _mean_se([ratios[name] for ratios in found])
                rows.append(_stat(length, f"{name}_ratio_mean", mean, se))
            exact = float(np.mean([abs(ratios["power"] - 1.0) <= 1e-9 for ratios in found]))
            rows.append(
                _stat(length, "power_exact_match_rate", exact, _binomial_se(exact, len(found)))
            )
        rows.append(_stat(length, "no_feasible_configs", len(active) - len(found)))
    return rows


# ----------------------------------------------------------------------
# baseline comparison


def _random_disjoint_bands(n, message_width, interferer_width, rng):
    """Contiguous random-start bands that do not overlap; both widths must fit in n together."""
    while True:
        m_start = int(rng.integers(0, n - message_width + 1))
        i_start = int(rng.integers(0, n - interferer_width + 1))
        msg = range(m_start, m_start + message_width)
        intf = range(i_start, i_start + interferer_width)
        if not set(msg) & set(intf):
            return BandSpec(tuple(msg)), BandSpec(tuple(intf))


def _baseline_job(args):
    """Every method on one random layout at the sweep's band width.

    Reads only the config problem's n, message width, alpha and trials;
    the bands and the seed are drawn here. The problem's own bins are never
    read, but they must still be in range, since a problem is checked when
    it is built.
    """
    cfg, width, seed = args
    rng = np.random.default_rng(seed)
    msg, intf = _random_disjoint_bands(cfg.problem.n, len(cfg.problem.message), width, rng)
    p = replace(cfg.problem, message=msg, interferer=intf, seed=int(seed))
    out = {}

    t0 = time.perf_counter()
    try:
        sol = sdp.solve_relaxation(p)
        solve_seconds = time.perf_counter() - t0
        t1 = time.perf_counter()
        res = rounding.run_design(p, sol, score=ScoreKind.REJECTION_RATIO)
        design_seconds = time.perf_counter() - t1
        if res.best is None:
            out["alg1"] = None
        else:
            out["alg1"] = (res.best.metrics.rejection_ratio, solve_seconds + design_seconds)
        t2 = time.perf_counter()
        eig = rounding.quantized_principal_eigenvector(p, sol)
        out["eigenvector"] = (
            eig.metrics.rejection_ratio, solve_seconds + time.perf_counter() - t2
        )
    except InfeasibleRelaxationError:
        out["alg1"] = None
        out["eigenvector"] = None

    for method, variant in (
        ("shape_unimodular", "unimodular"), ("shape_binary", "binary")
    ):
        t0 = time.perf_counter()
        result = baselines.run_shape(p, variant, max_iters=cfg.shape_max_iters)
        monotone = bool(
            np.all(np.diff(result.trace) <= 1e-9 * np.maximum(1.0, result.trace[:-1]))
        )
        out[method] = (result.metrics.rejection_ratio, time.perf_counter() - t0, monotone)

    for method, variant in (
        ("lpnn_unimodular", "unimodular"), ("lpnn_binary", "binary")
    ):
        t0 = time.perf_counter()
        try:
            result = baselines.run_lpnn(p, variant, max_iters=cfg.lpnn_max_iters)
            out[method] = (result.metrics.rejection_ratio, time.perf_counter() - t0)
        except DivergenceError:
            out[method] = None
    return out


_BASELINE_METHODS = (
    "alg1", "shape_unimodular", "shape_binary",
    "lpnn_unimodular", "lpnn_binary", "eigenvector",
)


def _baseline_comparison(cfg: ExperimentConfig, jobs: int) -> list:
    """Mean rejection ratio and wall-clock time per method across interferer widths."""
    n, message_width = cfg.problem.n, len(cfg.problem.message)
    for width in map(int, cfg.sweep):
        if message_width + width > n:
            # no two disjoint contiguous bands fit, so the band draw would never return
            raise ValueError(
                f"interferer width {width} and message width {message_width} "
                f"do not fit disjointly in n={n}"
            )
    root = np.random.SeedSequence(cfg.seed)
    args = []
    for wi, width in enumerate(cfg.sweep):
        for rep in range(cfg.repetitions):
            args.append((cfg, int(width), _child_seed(root, wi * cfg.repetitions + rep)))
    results = _map_jobs(_baseline_job, args, jobs)

    rows = []
    for wi, width in enumerate(cfg.sweep):
        chunk = results[wi * cfg.repetitions : (wi + 1) * cfg.repetitions]
        for method in _BASELINE_METHODS:
            entries = [r[method] for r in chunk if r[method] is not None]
            row = dict.fromkeys(_BASELINE_COLUMNS)
            row.update(width=int(width), method=method, n_runs=len(entries))
            rows.append(row)
            if not entries:
                continue
            rhos = np.asarray([e[0] for e in entries], dtype=float)
            mean, se = _mean_se(rhos)
            # a run with an exactly nulled interferer band reports an
            # infinite ratio; split those out so saturated means stay
            # interpretable
            finite = rhos[np.isfinite(rhos)]
            row.update(
                mean_rho=mean, se_rho=se,
                mean_seconds=float(np.mean([e[1] for e in entries])),
                n_perfect=int(np.isinf(rhos).sum()),
                finite_mean_rho=float(finite.mean()) if finite.size else None,
                n_monotone=sum(e[2] for e in entries) if method.startswith("shape") else None,
            )
    return rows


_HARNESSES = {
    ExperimentKind.FEASIBILITY_VS_ALPHA: _feasibility_vs_alpha,
    ExperimentKind.FEASIBILITY_VS_WIDTH: _feasibility_vs_width,
    ExperimentKind.RATIO_HISTOGRAM: _ratio_histogram,
    ExperimentKind.BETA_DISTRIBUTION: _beta_distribution,
    ExperimentKind.ORACLE_COMPARISON: _oracle_comparison,
    ExperimentKind.BASELINE_COMPARISON: _baseline_comparison,
}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run the config's harness; wrap its rows with the config echo and the kind's columns.

    jobs bounds the worker processes and must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    baseline = cfg.kind is ExperimentKind.BASELINE_COMPARISON
    columns = _BASELINE_COLUMNS if baseline else _STAT_COLUMNS
    return ExperimentReport(cfg.kind, _metadata(cfg), columns, _HARNESSES[cfg.kind](cfg, jobs))
