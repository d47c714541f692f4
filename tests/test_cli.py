import csv
import json
import math
import shutil
import subprocess
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from specseq.cli import main


@pytest.fixture()
def problem_config(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps(
            {
                "n": 16,
                "message": [2, 3],
                "interferer": [6, 7],
                "alpha": 2.0,
                "trials": 300,
                "seed": 5,
            }
        )
    )
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesign:
    def test_success_and_schema(self, problem_config, capsys):
        code, out, _ = run_cli(capsys, "design", problem_config)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "best", "n_feasible", "n_trials", "feasibility_rate",
            "gamma_min_feasible", "beta", "score_kind",
        }
        assert data["best"] is not None
        assert set(np.unique(data["best"]["sequence"])) <= {-1, 1}
        assert data["score_kind"] == "MessagePower"
        assert data["n_trials"] == 300

    def test_output_is_strict_json(self, tmp_path, capsys):
        # the README problem: the relaxation nulls the interferer band, so
        # beta is infinite and is written as the string "inf"
        path = tmp_path / "readme.json"
        path.write_text(
            json.dumps(
                {"n": 64, "message": [12, 13, 14, 20, 21, 22],
                 "interferer": [5, 6, 7, 25, 26, 27], "alpha": 5.0,
                 "trials": 10000, "seed": 0}
            )
        )

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code, out, _ = run_cli(capsys, "design", str(path))
        assert code == 0
        data = json.loads(out, parse_constant=reject)
        assert data["beta"] == "inf"

    def test_byte_identical_reruns(self, problem_config, capsys):
        _, out_a, _ = run_cli(capsys, "design", problem_config)
        _, out_b, _ = run_cli(capsys, "design", problem_config)
        assert out_a == out_b

    def test_score_override(self, problem_config, capsys):
        code, out, _ = run_cli(capsys, "design", problem_config, "--score", "rho")
        assert code == 0
        assert json.loads(out)["score_kind"] == "RejectionRatio"

    def test_trials_and_seed_overrides(self, problem_config, capsys):
        code, out, _ = run_cli(capsys, "design", problem_config, "--trials", "64", "--seed", "9")
        assert code == 0
        assert json.loads(out)["n_trials"] == 64

    def test_sequence_out(self, problem_config, capsys, tmp_path):
        seq_path = tmp_path / "seq.txt"
        code, out, _ = run_cli(capsys, "design", problem_config, "--sequence-out", str(seq_path))
        assert code == 0
        line = seq_path.read_text().strip()
        values = [int(v) for v in line.split()]
        assert values == json.loads(out)["best"]["sequence"]

    def test_infeasible_design_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"n": 8, "message": [5], "interferer": [0, 1, 2, 3, 4],
                 "alpha": 0.0, "trials": 10, "seed": 0}
            )
        )
        code, out, err = run_cli(capsys, "design", str(path))
        assert code == 2
        data = json.loads(out)
        assert data["best"] is None
        assert data["n_feasible"] == 0

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "design", str(path))
        assert code == 1
        assert err

    def test_overlapping_bands_exit_1(self, tmp_path, capsys):
        path = tmp_path / "overlap.json"
        path.write_text(
            json.dumps({"n": 8, "message": [1], "interferer": [1], "alpha": 1.0})
        )
        code, _, err = run_cli(capsys, "design", str(path))
        assert code == 1
        assert "overlap" in err.lower()

    @pytest.mark.parametrize("command", ["design", "shape"])
    def test_nan_alpha_flag_exits_1(self, problem_config, capsys, command):
        code, out, err = run_cli(capsys, command, problem_config, "--alpha", "nan")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "tolerance must be nonnegative, got nan" in err


class TestMalformedConfig:
    """A malformed config ends in one error line naming the field, and exit 1."""

    @staticmethod
    def assert_error(code, out, err, field):
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert field in err

    @pytest.mark.parametrize("message", [3, [1.5]], ids=["scalar-band", "float-bin"])
    def test_problem_band(self, tmp_path, capsys, message):
        path = tmp_path / "problem.json"
        path.write_text(
            json.dumps({"n": 16, "message": message, "interferer": [5], "alpha": 2.0})
        )
        self.assert_error(*run_cli(capsys, "design", str(path)), "'message'")

    @pytest.mark.parametrize(
        "field, value", [("n", [16]), ("alpha", None), ("n", True)],
        ids=["n-list", "alpha-null", "n-bool"],
    )
    def test_problem_scalar(self, tmp_path, capsys, field, value):
        config = {"n": 16, "message": [1, 2], "interferer": [5], "alpha": 2.0, field: value}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(config))
        self.assert_error(*run_cli(capsys, "design", str(path)), repr(field))

    @pytest.mark.parametrize(
        "config, field, flags",
        [
            ({"kind": "BetaDistribution", "repetitions": [5]}, "'repetitions'", ()),
            ({"kind": "OracleComparison", "problem": 5}, "problem", ()),
            ({"kind": "FeasibilityVsAlpha", "paper_scale": "false"}, "'paper_scale'", ()),
            ([{"kind": "BetaDistribution"}], "experiment config must be a JSON object", ()),
            # the flags override fields of a config that must first be an object
            ([{"kind": "BetaDistribution"}], "experiment config must be a JSON object",
             ("--seed", "3")),
            ([{"kind": "BetaDistribution"}], "experiment config must be a JSON object",
             ("--paper-scale",)),
        ],
        ids=["repetitions-list", "problem-not-an-object", "paper-scale-string",
             "config-not-an-object", "config-not-an-object-seed-flag",
             "config-not-an-object-paper-scale-flag"],
    )
    def test_experiment_scalar(self, tmp_path, capsys, config, field, flags):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", str(path), "--jobs", "1",
                                 "--output", str(tmp_path / "out.csv"), *flags)
        self.assert_error(code, out, err, field)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, sweep",
        [
            ("BetaDistribution", [8]),
            ("BetaDistribution", [[8, 12, 2]]),
            ("OracleComparison", [[64]]),
            ("FeasibilityVsAlpha", 5),
            # read as entries, these would run width 2, an empty band labelled
            # -1, width 0, and the first 14 of 64 trials labelled -50
            ("FeasibilityVsWidth", [2.5]),
            ("FeasibilityVsWidth", [-1]),
            ("BaselineComparison", [0.5]),
            ("OracleComparison", [-50, 64]),
            # a repeated entry would rerun its point and write its rows twice
            ("FeasibilityVsWidth", [2, 2]),
        ],
        ids=["beta-scalar-cell", "beta-k-above-n", "oracle-list-entry", "sweep-not-a-list",
             "width-fraction", "width-negative", "baseline-width-fraction",
             "oracle-negative-trials", "width-repeated"],
    )
    def test_experiment_sweep(self, tmp_path, capsys, kind, sweep):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"kind": kind, "sweep": sweep, "repetitions": 2}))
        code, out, err = run_cli(capsys, "experiment", str(path), "--jobs", "1",
                                 "--output", str(tmp_path / "out.csv"))
        self.assert_error(code, out, err, f"sweep of {kind}")


class TestOracle:
    def test_schema(self, problem_config, capsys):
        code, out, _ = run_cli(capsys, "oracle", problem_config)
        assert code == 0
        data = json.loads(out)
        assert data["n_enumerated"] == 2**15
        assert data["best_by_power"]["metrics"]["feasible"] is True

    def test_deterministic(self, problem_config, capsys):
        _, out_a, _ = run_cli(capsys, "oracle", problem_config)
        _, out_b, _ = run_cli(capsys, "oracle", problem_config)
        assert out_a == out_b


class TestBaselineCommands:
    def test_shape_binary(self, problem_config, capsys):
        code, out, _ = run_cli(capsys, "shape", problem_config, "--shape-max-iters", "100")
        assert code == 0
        data = json.loads(out)
        assert set(np.unique(data["sequence"])) <= {-1, 1}
        assert data["iterations"] >= 1

    def test_shape_unimodular(self, problem_config, capsys):
        code, out, _ = run_cli(
            capsys, "shape", problem_config, "--variant", "unimodular", "--shape-max-iters", "50"
        )
        assert code == 0
        data = json.loads(out)
        mags = np.hypot(np.array(data["sequence"]["re"]), np.array(data["sequence"]["im"]))
        assert np.allclose(mags, 1.0)

    def test_lpnn_binary(self, problem_config, capsys):
        code, out, _ = run_cli(capsys, "lpnn", problem_config, "--lpnn-max-iters", "100")
        assert code == 0
        data = json.loads(out)
        assert set(np.unique(data["sequence"])) <= {-1, 1}

    @pytest.mark.parametrize(
        "command, flag", [("shape", "--shape-max-iters"), ("lpnn", "--lpnn-max-iters")]
    )
    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_negative_budget_exits_1(self, problem_config, capsys, command, flag, variant):
        code, out, err = run_cli(capsys, command, problem_config, "--variant", variant, flag, "-1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "max_iters must be at least 0, got -1" in err


class TestExperimentCommand:
    def test_writes_named_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "BetaDistribution",
                    "seed": 12,
                    "sweep": [[16, 2, 2]],
                    "repetitions": 50,
                }
            )
        )
        code, out, _ = run_cli(capsys, "experiment", str(cfg), "--jobs", "1")
        assert code == 0
        target = tmp_path / "BetaDistribution_12.csv"
        assert target.exists()
        assert "rows" in out

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"kind": "BetaDistribution", "sweep": [[16, 2, 2]],
                                   "repetitions": 10}))
        out_path = tmp_path / "beta.csv"
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--jobs", jobs,
                                 "--output", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"jobs must be at least 1, got {jobs}" in err

    def test_output_flag_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "BetaDistribution",
                    "seed": 13,
                    "sweep": [[16, 2, 2]],
                    "repetitions": 50,
                }
            )
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "experiment", str(cfg), "--output", str(a), "--jobs", "1")[0] == 0
        assert run_cli(capsys, "experiment", str(cfg), "--output", str(b), "--jobs", "1")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bands_that_cannot_fit_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "BaselineComparison",
                    "sweep": [7],
                    "repetitions": 1,
                    "problem": {"n": 16, "message": list(range(10)), "interferer": [12],
                                "alpha": 3.0, "trials": 50},
                }
            )
        )
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--jobs", "1")
        assert code == 1
        assert "interferer width 7" in err and "n=16" in err


class TestDumpSdp:
    def test_matrix_dump(self, problem_config, capsys, tmp_path):
        out_path = tmp_path / "matrix.csv"
        code, _, _ = run_cli(capsys, "dump-sdp", problem_config, "--output", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()]
        matrix = np.array([[float(v) for v in row] for row in rows])
        assert matrix.shape == (16, 16)
        assert np.abs(np.diag(matrix) - 1.0).max() < 1e-8
        assert np.abs(matrix - matrix.T).max() < 1e-12

    def test_17_digit_round_trip(self, problem_config, capsys, tmp_path):
        out_path = tmp_path / "matrix.csv"
        run_cli(capsys, "dump-sdp", problem_config, "--output", str(out_path))
        from specseq import DesignProblem, solve_relaxation
        from specseq.sdp import circulant

        p = DesignProblem.from_json_dict(json.loads(open(problem_config).read()))
        sol = solve_relaxation(p)
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()]
        matrix = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(matrix, circulant(sol.spectrum))


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


# One table of CLI contracts. Each case writes its input files into an empty
# working directory, runs its invocations there, checks each exit code, and
# then checks what the runs printed and wrote. Every case runs through
# cli.main in process and through the installed specseq console script.


class Case(NamedTuple):
    id: str
    files: dict  # name -> text
    runs: list  # (argv, exit code) per invocation, argv split on spaces
    check: Callable[..., bool]  # takes one CompletedProcess per invocation


PROBLEM = {
    "problem.json": '{"n": 16, "message": [1, 2], "interferer": [5, 6], "alpha": 2.0, '
    '"trials": 200}'
}
# the interferer bins 0-4 and their mirrors cover all 8 bins, so at alpha 0
# neither the relaxation nor any binary sequence is feasible
INFEASIBLE = {
    "infeasible.json": '{"n": 8, "message": [5], "interferer": [0, 1, 2, 3, 4], "alpha": 0.0}'
}
# two cells, so --jobs 2 runs them on a process pool
BETA = {
    "beta.json": '{"kind": "BetaDistribution", "seed": 5, "sweep": [[16, 2, 2], [32, 4, 4]], '
    '"repetitions": 60}'
}


def error(text):
    """What a run that exits 1 prints: nothing on stdout, one `error:` line holding `text`."""
    return lambda r: (r.stdout == "" and r.stderr.startswith("error:")
                      and r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
                      and text in r.stderr)


def baseline(variant, below=math.inf):
    """A baseline's JSON: 1 <= iterations < `below`, a 16-entry sequence, ±1 if binary."""
    def check(r):
        result = json.loads(r.stdout)
        seq = result["sequence"]
        parts = [seq] if variant == "binary" else [seq["re"], seq["im"]]
        return (1 <= result["iterations"] < below and all(len(part) == 16 for part in parts)
                and (variant != "binary" or set(seq) <= {-1, 1}))
    return check


def same_bytes(a, b):
    return lambda *runs: Path(a).read_bytes() == Path(b).read_bytes()


def feasible_rates(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return [(row["value"], row["std_error"]) for row in csv.DictReader(handle)
                if row["statistic"] == "rounded_feasible_rate"]


CASES = [
    Case("design", PROBLEM, [("design problem.json", 0)],
         lambda r: json.loads(r.stdout)["best"] is not None),
    # distinct seeds are distinct runs
    Case("design-seeds", PROBLEM,
         [("design problem.json --seed 0", 0), ("design problem.json --seed 1", 0)],
         lambda a, b: a.stdout != b.stdout),
    # the README bands at alpha 1e-6: the relaxation is feasible but no trial
    # is, in any of the three blocks
    Case("design-no-feasible-trial",
         {"none.json": '{"n": 64, "message": [12, 13, 14, 20, 21, 22], '
          '"interferer": [5, 6, 7, 25, 26, 27], "alpha": 1e-6, "trials": 3000}'},
         [("design none.json", 2)],
         lambda r: '"best": null' in r.stdout and '"n_feasible": 0' in r.stdout),
    Case("design-scalar-band",
         {"malformed.json": '{"n": 16, "message": 3, "interferer": [5, 6], "alpha": 2.0}'},
         [("design malformed.json", 1)], error("'message'")),
    # Python's json reads the NaN literal; a NaN tolerance is an error, not a design
    Case("design-nan-alpha",
         {"nan.json": '{"n": 16, "message": [1, 2], "interferer": [5, 6], "alpha": NaN}'},
         [("design nan.json", 1)], error("tolerance must be nonnegative, got nan")),
    # the config describes the problem on its own; --trials does not rescue it
    Case("design-zero-trials",
         {"zero.json": '{"n": 16, "message": [2, 3], "interferer": [6, 7], "alpha": 2.0, '
          '"trials": 0}'},
         [("design zero.json --trials 5", 1)], error("trial count must be positive, got 0")),
    Case("design-score-bogus", PROBLEM, [("design problem.json --score bogus", 1)],
         error("unknown score kind 'bogus'")),
    Case("design-missing-config", {}, [("design missing.json", 1)],
         error("No such file or directory: 'missing.json'")),
    Case("oracle", PROBLEM, [("oracle problem.json", 0)],
         lambda r: len(json.loads(r.stdout)["best_by_power"]["sequence"]) == 16),
    # a length one past the oracle's limit is an error, not an enumeration
    Case("oracle-n25",
         {"n25.json": '{"n": 25, "message": [1, 2], "interferer": [5, 6], "alpha": 2.0}'},
         [("oracle n25.json", 1)],
         lambda r: (r.stdout == ""
                    and r.stderr == "error: n=25 exceeds exhaustive-search limit 24\n")),
    Case("oracle-infeasible", INFEASIBLE, [("oracle infeasible.json", 1)],
         error("no binary sequence has interferer power <= 0.0")),
    # the stdout path writes the same bytes as --output
    Case("dump-sdp", PROBLEM,
         [("dump-sdp problem.json --output matrix.csv", 0), ("dump-sdp problem.json", 0)],
         lambda _, r: (Path("matrix.csv").read_bytes().count(b"\n") == 16
                       and r.stdout.encode() == Path("matrix.csv").read_bytes())),
    Case("dump-sdp-infeasible", INFEASIBLE, [("dump-sdp infeasible.json", 1)],
         error("interferer trace floor 4 stays above alpha/2 = 0")),
    Case("shape-binary", PROBLEM, [("shape problem.json --variant binary", 0)],
         baseline("binary")),
    Case("shape-unimodular", PROBLEM, [("shape problem.json --variant unimodular", 0)],
         baseline("unimodular")),
    Case("lpnn-binary", PROBLEM,
         [("lpnn problem.json --variant binary --lpnn-max-iters 200", 0)], baseline("binary")),
    Case("lpnn-unimodular", PROBLEM,
         [("lpnn problem.json --variant unimodular --lpnn-max-iters 200", 0)],
         baseline("unimodular")),
    # at the default budget binary LPNN ends once its signs have held, long
    # before its 10 000 steps
    Case("lpnn-binary-default", PROBLEM, [("lpnn problem.json --variant binary", 0)],
         baseline("binary", below=10000)),
    Case("shape-budget-negative", PROBLEM, [("shape problem.json --shape-max-iters -1", 1)],
         error("max_iters must be at least 0, got -1")),
    Case("lpnn-budget-negative", PROBLEM, [("lpnn problem.json --lpnn-max-iters -1", 1)],
         error("max_iters must be at least 0, got -1")),
    # LPNN's interferer target would be infinite
    Case("lpnn-alpha-inf-binary", PROBLEM,
         [("lpnn problem.json --variant binary --alpha inf", 1)], error("alpha=inf")),
    Case("lpnn-alpha-inf-unimodular", PROBLEM,
         [("lpnn problem.json --variant unimodular --alpha inf", 1)], error("alpha=inf")),
    # the CSV does not depend on the worker count
    Case("experiment-beta-jobs", BETA,
         [("experiment beta.json --jobs 1 --output beta1.csv", 0),
          ("experiment beta.json --jobs 2 --output beta2.csv", 0)],
         same_bytes("beta1.csv", "beta2.csv")),
    # the same for a kind whose workers run the rounding and score uniform
    # sequences, each worker on one BLAS thread
    Case("experiment-alpha-jobs",
         {"alpha.json": '{"kind": "FeasibilityVsAlpha", "seed": 5, "sweep": [1.0, 2.0], '
          '"problem": {"n": 32, "message": [6, 7, 10], "interferer": [2, 3, 13], '
          '"alpha": 5.0, "trials": 3000}}'},
         [("experiment alpha.json --jobs 1 --output alpha1.csv", 0),
          ("experiment alpha.json --jobs 2 --output alpha2.csv", 0)],
         same_bytes("alpha1.csv", "alpha2.csv")),
    # and for the other kinds whose passes go through the blocked scorer:
    # uniform passes summarized (width) or retained (ratio), and the oracle
    Case("experiment-width-jobs",
         {"width.json": '{"kind": "FeasibilityVsWidth", "seed": 5, "sweep": [1, 3], '
          '"problem": {"n": 32, "message": [10, 11, 12], "interferer": [5], '
          '"alpha": 1.0, "trials": 3000}}'},
         [("experiment width.json --jobs 1 --output width1.csv", 0),
          ("experiment width.json --jobs 2 --output width2.csv", 0)],
         same_bytes("width1.csv", "width2.csv")),
    Case("experiment-ratio-jobs",
         {"ratio.json": '{"kind": "RatioHistogram", "seed": 5, "sweep": [3000], '
          '"problem": {"n": 32, "message": [6, 7, 10], "interferer": [2, 3, 13], '
          '"alpha": 5.0, "trials": 3000}}'},
         [("experiment ratio.json --jobs 1 --output ratio1.csv", 0),
          ("experiment ratio.json --jobs 2 --output ratio2.csv", 0)],
         same_bytes("ratio1.csv", "ratio2.csv")),
    Case("experiment-oracle-jobs",
         {"oracle.json": '{"kind": "OracleComparison", "seed": 5, "sweep": [64, 256], '
          '"repetitions": 3, "problem": {"n": 14, "message": [1, 2], "interferer": [3, 4], '
          '"alpha": 1.0}}'},
         [("experiment oracle.json --jobs 1 --output oracle1.csv", 0),
          ("experiment oracle.json --jobs 2 --output oracle2.csv", 0)],
         same_bytes("oracle1.csv", "oracle2.csv")),
    # the experiment seed keys the rounding draws, also of a config that names
    # its own problem
    Case("experiment-alpha-seeds",
         {"alpha.json": '{"kind": "FeasibilityVsAlpha", "sweep": [1.0], '
          '"problem": {"n": 32, "message": [6, 7, 10], "interferer": [2, 3, 13], '
          '"alpha": 5.0, "trials": 2000}}'},
         [("experiment alpha.json --seed 0 --jobs 1 --output alpha0.csv", 0),
          ("experiment alpha.json --seed 1 --jobs 1 --output alpha1.csv", 0)],
         lambda *runs: [] != feasible_rates("alpha0.csv") != feasible_rates("alpha1.csv")),
    # a worker bound below 1 is an error, and no CSV is written
    Case("experiment-jobs-below-1", BETA,
         [("experiment beta.json --jobs 0 --output beta.csv", 1),
          ("experiment beta.json --jobs -2 --output beta.csv", 1)],
         lambda a, b: (error("jobs must be at least 1, got 0")(a) and not Path("beta.csv").exists()
                       and error("jobs must be at least 1, got -2")(b))),
    # message bin 1's mirror 7 is the interferer bin, so at alpha 0 the
    # relaxation objective is 0 and gamma is undefined
    Case("experiment-ratio-zero-objective",
         {"ratio0.json": '{"kind": "RatioHistogram", "problem": {"n": 8, "message": [1], '
          '"interferer": [7], "alpha": 0.0, "trials": 100}}'},
         [("experiment ratio0.json --jobs 1 --output ratio0.csv", 1)],
         lambda r: error("gamma is undefined")(r) and not Path("ratio0.csv").exists()),
    Case("experiment-width-fraction",
         {"width.json": '{"kind": "FeasibilityVsWidth", "sweep": [2.5]}'},
         [("experiment width.json --jobs 1 --output bad.csv", 1)],
         error("sweep of FeasibilityVsWidth")),
    # the harness runs SHAPE and LPNN at their default budgets
    Case("experiment-config-budget",
         {"budget.json": '{"kind": "BaselineComparison", "lpnn_max_iters": 100}'},
         [("experiment budget.json --jobs 1 --output bad.csv", 1)],
         error("unknown experiment fields: ['lpnn_max_iters']")),
    Case("experiment-config-list-seed", {"list.json": '[{"kind": "BetaDistribution"}]'},
         [("experiment list.json --seed 1 --jobs 1 --output bad.csv", 1)],
         error("experiment config must be a JSON object")),
    Case("unknown-subcommand", {}, [("frobnicate", 2)],
         lambda r: r.stdout == "" and "invalid choice: 'frobnicate'" in r.stderr),
]


@pytest.fixture(params=["main", "script"])
def run(request, tmp_path, monkeypatch, capsys):
    """Run one specseq argv in an empty working directory."""
    monkeypatch.chdir(tmp_path)
    if request.param == "main":
        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's exits
                code = exc.code
            captured = capsys.readouterr()
            return subprocess.CompletedProcess(argv, code, captured.out, captured.err)
        return call
    script = shutil.which("specseq")
    if script is None:
        pytest.skip("no specseq console script on PATH")
    return lambda argv: subprocess.run([script, *argv], capture_output=True, text=True,
                                       timeout=300)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_contract(run, case):
    for name, text in case.files.items():
        Path(name).write_text(text, encoding="utf-8")
    results = []
    for argv, code in case.runs:
        results.append(run(argv.split()))
        assert results[-1].returncode == code, results[-1]
    assert case.check(*results), results
