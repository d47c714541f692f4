"""Benchmark of the specseq design pipeline, its baselines and its oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.WORKLOADS`` and README.md) in this
process through the package's public API, one item at a time. A pass is
one run over the workload's fixed item list; whole passes repeat for
about ``--seconds``, and every output is checked. The package is
imported from ``src/`` next to this directory, never from an installed
copy.

With ``--trace 0`` it reports the end-to-end metrics, each item's time
divided by the host slowness the speed probe measured around it (see
speed.py). With ``--trace 1`` it spends half the time untraced and half
traced, with the same seeds, and reports per-layer metrics from spans
recorded around each call into a layer. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Spans and a full
result record, environment included, are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: child processes timed to give setup_s; the median is reported
SETUP_SAMPLES = 7

#: name -> unit of every metric, end-to-end first, then per layer
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "feasible_rate": "ratio",
    "gamma_mean": "ratio",
}
PER_LAYER = {
    "sdp.solve_s": "s",
    "sdp.solve_calls": "count",
    "sdp.solve_s_p50": "s",
    "sdp.active_ratio": "ratio",
    "sdp.kkt_max": "residual",
    "rounding.design_s": "s",
    "rounding.trials": "count",
    "rounding.trials_per_s": "1/s",
    "rounding.feasible_ratio": "ratio",
    "rounding.eigvec_s": "s",
    "baselines.shape_s": "s",
    "baselines.shape_iters": "count",
    "baselines.shape_us_per_iter": "us",
    "baselines.shape_converged_ratio": "ratio",
    "baselines.lpnn_s": "s",
    "baselines.lpnn_iters": "count",
    "baselines.lpnn_us_per_iter": "us",
    "baselines.lpnn_converged_ratio": "ratio",
    "baselines.rho_mean": "ratio",
    "baselines.rho_inf": "count",
    "oracle.search_s": "s",
    "oracle.sequences": "count",
    "oracle.us_per_sequence": "us",
    "oracle.feasible_ratio": "ratio",
    "oracle.match_rate": "ratio",
    "bench.self_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.slowness": "ratio",
}


def import_package():
    """Put ``src/`` first on the path and make sure specseq comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import specseq
    except ImportError as exc:
        sys.exit(f"cannot import specseq from {SRC}: {exc}")
    if Path(specseq.__file__).resolve().parent != SRC / "specseq":
        sys.exit(f"specseq was imported from {specseq.__file__}, not from {SRC}")


# ----------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
    }


# ----------------------------------------------------------------------
# set-up and the timed passes


def setup(workload: str):
    """Inputs, reference and warm-up: everything done before timing."""
    import workloads
    from spans import NullTracer

    items = workloads.catalogue(workload)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    warm = [workloads.run_item(item, i, NullTracer(), None)
            for i, item in enumerate(workloads.warmup_items(workload))]
    return items, reference, warm


def setup_seconds(workload: str, seed: int, probe) -> list:
    """Wall time of fresh interpreters that import, build inputs and warm up.

    Each time is divided by the host slowness the probe measures around it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    probe.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - t0
        times.append(seconds / probe.bracket())
    return times


def run_passes(items, seed: int, seconds: float, tracer, reference, probe) -> list:
    """Run whole passes over the items for about ``seconds`` in all.

    A further pass starts only while, at the mean pass length so far, it
    is expected to end within ``seconds``, so a slow host makes fewer
    passes rather than a longer run. A pass's time is the sum of its item
    times; the speed probe samples before the first item and after every
    item and is not counted. ``ref_seconds`` sums each item's time over the slowness
    around it (raw seconds without a probe). Pass r, item i gets problem
    seed item_seed(seed, r, i), so a traced and an untraced phase of one
    run do the same work.
    """
    import workloads

    passes = []
    if probe is not None:
        probe.sample()
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
        r = len(passes)
        records = []
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            rec = workloads.run_item(
                item, workloads.item_seed(seed, r, i), tracer, reference,
                index=r * len(items) + i,
            )
            rec["seconds"] = time.perf_counter() - t0
            rec["slowness"] = 1.0 if probe is None else probe.bracket()
            records.append(rec)
        passes.append({
            "seconds": sum(rec["seconds"] for rec in records),
            "ref_seconds": sum(rec["seconds"] / rec["slowness"] for rec in records),
            "records": records,
        })
    return passes


# ----------------------------------------------------------------------
# metrics


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def records_of(passes) -> list:
    return [rec for p in passes for rec in p["records"]]


def end_to_end(passes, setup_times) -> dict:
    """End-to-end metrics; times are in seconds at the probe's reference speed."""
    records = records_of(passes)
    designs = [r for r in records if "n_trials" in r]
    gammas = [r["gamma"] for r in designs if r["gamma"] is not None]
    # medians over passes, so that one pass slowed by the host moves neither
    wall = statistics.median(p["ref_seconds"] for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "items_per_s": len(passes[0]["records"]) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "feasible_rate": _mean(r["n_feasible"] / r["n_trials"] for r in designs),
        "gamma_mean": _mean(gammas),
    }


def per_layer(traced, untraced, spans, slowness: float) -> dict:
    """Per-layer metrics of the traced passes.

    Times and counts are per pass; span times are raw seconds.
    """
    from spans import layer_self_seconds, self_times

    n_pass = len(traced)
    own = self_times(spans)

    def busy(name):
        return sum(own[s.span_id] for s in spans if s.name == name)

    records = records_of(traced)
    designs = [r for r in records if "n_trials" in r]
    trials = sum(r["n_trials"] for r in designs)
    solves = [s.seconds for s in spans if s.name == "sdp.solve_relaxation"]
    out = {
        "sdp.solve_s": busy("sdp.solve_relaxation") / n_pass,
        "sdp.solve_calls": len(solves) / n_pass,
        "sdp.solve_s_p50": statistics.median(solves) if solves else 0.0,
        "sdp.active_ratio": _mean(r["dual"] > 0 for r in designs),
        "sdp.kkt_max": max((r["kkt"] for r in designs), default=0.0),
        "rounding.design_s": busy("rounding.run_design") / n_pass,
        "rounding.trials": trials / n_pass,
        "rounding.trials_per_s": _ratio(trials, busy("rounding.run_design")),
        "rounding.feasible_ratio": _ratio(sum(r["n_feasible"] for r in designs), trials),
        "rounding.eigvec_s": busy("rounding.quantized_principal_eigenvector") / n_pass,
    }
    for method in ("shape", "lpnn"):
        runs = [run for r in records for run in r.get(method, ())]
        iters = sum(it for it, _ in runs)
        seconds = busy(f"baselines.run_{method}")
        out[f"baselines.{method}_s"] = seconds / n_pass
        out[f"baselines.{method}_iters"] = iters / n_pass
        out[f"baselines.{method}_us_per_iter"] = 1e6 * _ratio(seconds, iters)
        out[f"baselines.{method}_converged_ratio"] = _mean(done for _, done in runs)
    rhos = [rho for r in records for rho in r.get("rho", ())]
    finite = [rho for rho in rhos if rho != float("inf")]
    out["baselines.rho_mean"] = _mean(finite)
    out["baselines.rho_inf"] = (len(rhos) - len(finite)) / n_pass
    oracles = [r for r in records if "sequences" in r]
    sequences = sum(r["sequences"] for r in oracles)
    out["oracle.search_s"] = busy("oracle.exhaustive_search") / n_pass
    out["oracle.sequences"] = sequences / n_pass
    out["oracle.us_per_sequence"] = 1e6 * _ratio(busy("oracle.exhaustive_search"), sequences)
    out["oracle.feasible_ratio"] = _ratio(sum(r["oracle_feasible"] for r in oracles), sequences)
    out["oracle.match_rate"] = _mean(r["match"] for r in oracles if "match" in r)
    out["bench.self_s"] = layer_self_seconds(spans).get("bench", 0.0) / n_pass
    # in seconds at reference speed, so that the host's drift between the
    # two phases does not pass for tracing cost
    out["bench.trace_overhead_s"] = (
        statistics.median(p["ref_seconds"] for p in traced)
        - statistics.median(p["ref_seconds"] for p in untraced)
    )
    out["bench.slowness"] = slowness
    return out


def report_line(metrics: dict, units: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


# ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build inputs and warm up, then exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads
    from spans import NullTracer, Tracer, to_json
    from speed import SpeedProbe

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        setup(args.workload)
        return 0

    probe = SpeedProbe()
    setup_times = None if args.trace else setup_seconds(args.workload, args.seed, probe)
    items, reference, warm = setup(args.workload)
    env = environment(args.workload, args.seed)
    print("environment:", json.dumps(env), flush=True)
    if args.trace:
        untraced = run_passes(items, args.seed, args.seconds / 2, NullTracer(), reference,
                              probe)
        tracer = Tracer()
        traced = run_passes(items, args.seed, args.seconds / 2, tracer, reference, probe)
        phases = untraced + traced
        metrics = per_layer(traced, untraced, tracer.spans, probe.slowness())
        units = PER_LAYER
    else:
        tracer = None
        phases = run_passes(items, args.seed, args.seconds, NullTracer(), reference, probe)
        metrics = end_to_end(phases, setup_times)
        units = END_TO_END

    records = warm + records_of(phases)
    failed = [r for r in records if r["errors"]]
    for rec in failed:
        print(f"FAILED {rec['key']} seed={rec['seed']}: {'; '.join(rec['errors'])}",
              file=sys.stderr)
    timed = records_of(phases)
    item_p50 = statistics.median(r["seconds"] / r["slowness"] for r in timed)
    print(f"passes: {len(phases)}, items: {len(timed)}, failed: {len(failed)}, "
          f"slowness: {probe.slowness():.4f} over {len(probe.samples)} probe samples")
    print(f"  item_s_p50 = {item_p50:.4f} s over {len(timed)} items; raw: median pass "
          f"{statistics.median(p['seconds'] for p in phases):.4f} s, "
          f"item_s_p50 {statistics.median(r['seconds'] for r in timed):.4f} s")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]!r} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    result = {"environment": env, "seconds": args.seconds, "setup_samples": setup_times,
              "probe_samples": probe.samples, "pass_seconds": [p["seconds"] for p in phases],
              "ref_pass_seconds": [p["ref_seconds"] for p in phases],
              "metrics": metrics, "records": records}
    (OUT / f"{stem}.json").write_text(json.dumps(result, default=str), encoding="utf-8")
    if tracer is not None:
        (OUT / f"{stem}_spans.json").write_text(json.dumps(to_json(tracer.spans)),
                                                encoding="utf-8")

    print(report_line(metrics, units, len(records), len(failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
