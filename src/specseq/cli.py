"""Command-line entry point.

Subcommands take a JSON config file and write JSON to stdout or CSV to a
file. JSON output is strict: a non-finite number (a perfect notch's
rejection ratio, beta when the relaxation nulls the interferer band) is
written as the string "inf", "-inf" or "nan", the spelling of the CSV
reports. All randomness flows from the config seed, overridable with
--seed; without either the seed is 0, never entropy. A config must
describe a valid problem before --seed, --alpha and --trials replace its
fields. Exit codes: 0 on success, 2 when a design finds no feasible
sequence, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import baselines, experiments, oracle, rounding, sdp
from ._version import __version__
from .errors import InfeasibleRelaxationError, SpecseqError
from .problem import DesignProblem, ScoreKind, sequence_line


def _load_problem(args) -> DesignProblem:
    with open(args.config, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    p = DesignProblem.from_json_dict(data)
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "trials", "alpha")
        if getattr(args, name, None) is not None
    }
    return replace(p, **overrides)


def _strict(value):
    """Replace each non-finite float by its repr ("inf", "-inf", "nan")."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _emit(payload: dict) -> None:
    json.dump(_strict(payload), sys.stdout, sort_keys=True, indent=2, allow_nan=False)
    sys.stdout.write("\n")


def cmd_design(args) -> int:
    p = _load_problem(args)
    score = ScoreKind.from_string(args.score)
    try:
        sol = sdp.solve_relaxation(p)
    except InfeasibleRelaxationError as exc:
        print(f"relaxation infeasible: {exc}", file=sys.stderr)
        _emit(
            rounding.DesignResult(
                best=None, n_feasible=0, n_trials=0, feasibility_rate=0.0,
                gamma_min_feasible=None, beta=None, score_kind=score,
            ).to_json_dict()
        )
        return 2
    result = rounding.run_design(p, sol, score=score)
    _emit(result.to_json_dict())
    if result.best is not None and args.sequence_out:
        with open(args.sequence_out, "w", encoding="utf-8") as handle:
            handle.write(sequence_line(result.best.sequence) + "\n")
    return 0 if result.best is not None else 2


def cmd_oracle(args) -> int:
    p = _load_problem(args)
    result = oracle.exhaustive_search(p)

    def pack(entry):
        seq, metrics = entry
        return {
            "sequence": [int(v) for v in seq],
            "metrics": metrics.to_json_dict(),
        }

    _emit(
        {
            "best_by_power": pack(result.best_by_power),
            "best_by_rho": pack(result.best_by_rho),
            "best_by_chi": pack(result.best_by_chi),
            "n_feasible": result.n_feasible,
            "n_enumerated": result.n_enumerated,
        }
    )
    return 0


def _emit_baseline(result) -> None:
    seq = np.asarray(result.sequence)
    if np.iscomplexobj(seq):
        payload_seq = {"re": [float(v) for v in seq.real], "im": [float(v) for v in seq.imag]}
    else:
        payload_seq = [int(v) for v in seq]
    _emit(
        {
            "sequence": payload_seq,
            "metrics": result.metrics.to_json_dict(),
            "iterations": result.iterations,
        }
    )


def cmd_shape(args) -> int:
    p = _load_problem(args)
    result = baselines.run_shape(p, args.variant, max_iters=args.shape_max_iters)
    _emit_baseline(result)
    return 0


def cmd_lpnn(args) -> int:
    p = _load_problem(args)
    result = baselines.run_lpnn(p, args.variant, max_iters=args.lpnn_max_iters)
    _emit_baseline(result)
    return 0


def cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.paper_scale:
        data["paper_scale"] = True
    cfg = experiments.config_from_json_dict(data)
    if args.trials is not None:
        cfg = replace(cfg, problem=replace(cfg.problem, trials=args.trials))
    if args.alpha is not None:
        cfg = replace(cfg, problem=replace(cfg.problem, alpha=args.alpha))
    started = time.perf_counter()
    report = experiments.run_experiment(cfg, jobs=args.jobs)
    out_path = args.output or report.default_filename()
    n_rows = report.write_csv(out_path)
    elapsed = time.perf_counter() - started
    print(f"{out_path}: {n_rows} rows in {elapsed:.1f}s")
    return 0


def cmd_dump_sdp(args) -> int:
    p = _load_problem(args)
    sol = sdp.solve_relaxation(p)
    target = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for row in sol.matrix:
            target.write(",".join(f"{v:.17g}" for v in row) + "\n")
    finally:
        if args.output:
            target.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specseq",
        description="Design binary modulation sequences with shaped spectra.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, trials=True):
        sp.add_argument("config", help="path to a JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--alpha", type=float, default=None, help="override the tolerance")
        if trials:
            sp.add_argument("--trials", type=int, default=None, help="override the trial count")

    sp = sub.add_parser("design", help="run the randomized design")
    add_common(sp)
    sp.add_argument(
        "--score",
        default=ScoreKind.MESSAGE_POWER.value,
        help="selection score: MessagePower|RejectionRatio|ReciprocalDynamicRange "
        "(or power|rho|chi)",
    )
    sp.add_argument("--sequence-out", default=None, help="also write the winner as one text line")
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("oracle", help="exhaustive search at small n")
    add_common(sp, trials=False)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("shape", help="run the alternating-projection baseline")
    add_common(sp, trials=False)
    sp.add_argument("--variant", choices=("binary", "unimodular"), default="binary")
    sp.add_argument("--shape-max-iters", type=int, default=10000)
    sp.set_defaults(func=cmd_shape)

    sp = sub.add_parser("lpnn", help="run the neural-dynamics baseline")
    add_common(sp, trials=False)
    sp.add_argument("--variant", choices=("binary", "unimodular"), default="binary")
    sp.add_argument("--lpnn-max-iters", type=int, default=10000)
    sp.set_defaults(func=cmd_lpnn)

    sp = sub.add_parser("experiment", help="run an experiment harness, write CSV")
    add_common(sp)
    sp.add_argument("--paper-scale", action="store_true", help="full-scale configuration")
    sp.add_argument("--output", default=None, help="CSV path (default <kind>_<seed>.csv)")
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="worker process bound, at least 1 (default: available cores)")
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("dump-sdp", help="solve the relaxation and dump the matrix as CSV")
    add_common(sp, trials=False)
    sp.add_argument("--output", default=None, help="CSV path (default stdout)")
    sp.set_defaults(func=cmd_dump_sdp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecseqError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
