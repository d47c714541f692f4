import json

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

    def test_config_is_checked_before_overrides(self, tmp_path, capsys):
        # the config describes the problem on its own; --trials does not rescue it
        path = tmp_path / "zero-trials.json"
        path.write_text(
            json.dumps({"n": 16, "message": [2, 3], "interferer": [6, 7], "alpha": 2.0,
                        "trials": 0})
        )
        code, out, err = run_cli(capsys, "design", str(path), "--trials", "5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "trial count must be positive, got 0" in err


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
        "config, field",
        [
            ({"kind": "BetaDistribution", "repetitions": [5]}, "'repetitions'"),
            ({"kind": "OracleComparison", "problem": 5}, "problem"),
            ({"kind": "FeasibilityVsAlpha", "paper_scale": "false"}, "'paper_scale'"),
            ([{"kind": "BetaDistribution"}], "experiment config"),
        ],
        ids=["repetitions-list", "problem-not-an-object", "paper-scale-string",
             "config-not-an-object"],
    )
    def test_experiment_scalar(self, tmp_path, capsys, config, field):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", str(path), "--jobs", "1",
                                 "--output", str(tmp_path / "out.csv"))
        self.assert_error(code, out, err, field)

    @pytest.mark.parametrize(
        "kind, sweep",
        [
            ("BetaDistribution", [8]),
            ("BetaDistribution", [[8, 12, 2]]),
            ("OracleComparison", [[64]]),
            ("FeasibilityVsAlpha", 5),
        ],
        ids=["beta-scalar-cell", "beta-k-above-n", "oracle-list-entry", "sweep-not-a-list"],
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

        p = DesignProblem.from_json_dict(json.loads(open(problem_config).read()))
        sol = solve_relaxation(p)
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()]
        matrix = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(matrix, np.asarray(sol.matrix))

    def test_stdout_default(self, problem_config, capsys):
        code, out, _ = run_cli(capsys, "dump-sdp", problem_config)
        assert code == 0
        assert len(out.strip().splitlines()) == 16


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
