import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import specseq.experiments as ex
from specseq import BandSpec, DesignProblem, SizeLimitError


def small_alpha_config(seed=3):
    cfg = ex.default_config(ex.ExperimentKind.FEASIBILITY_VS_ALPHA, seed=seed)
    problem = DesignProblem(
        n=32,
        message=ex.scale_runs(((25, 6), (40, 6)), 32),
        interferer=ex.scale_runs(((10, 6), (50, 6)), 32),
        alpha=5.0,
        trials=2000,
        seed=seed,
    )
    return replace(cfg, problem=problem, sweep=(1.0, 2.0, 3.0, 4.0))


def stats_by_sweep(report, statistic):
    out = {}
    for row in report.rows:
        if row["statistic"] == statistic:
            out[row["sweep"]] = (row["value"], row["std_error"])
    return out


class TestScaleRuns:
    def test_half_scale_of_reference_bands(self):
        band = ex.scale_runs(((25, 6), (40, 6)), 64)
        assert band.indices == (12, 13, 14, 20, 21, 22)

    def test_reference_scale_is_identity(self):
        band = ex.scale_runs(((25, 6), (40, 6)), 128)
        assert band.indices == tuple(range(25, 31)) + tuple(range(40, 46))

    def test_width_never_drops_to_zero(self):
        band = ex.scale_runs(((20, 1),), 32)
        assert len(band) == 1


class TestConfigParsing:
    def test_defaults_have_expected_scale(self):
        cfg = ex.default_config(ex.ExperimentKind.FEASIBILITY_VS_ALPHA)
        assert cfg.problem.n == 64 and cfg.problem.trials == 10000
        paper = ex.default_config(ex.ExperimentKind.FEASIBILITY_VS_ALPHA, paper_scale=True)
        assert paper.problem.n == 128 and paper.problem.trials == 100000

    def test_from_json_overrides(self):
        cfg = ex.config_from_json_dict(
            {"kind": "FeasibilityVsAlpha", "seed": 5, "sweep": [1.0, 2.0], "repetitions": 2}
        )
        assert cfg.seed == 5
        assert cfg.sweep == (1.0, 2.0)
        assert cfg.repetitions == 2

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ex.config_from_json_dict({"kind": "FeasibilityVsAlpha", "bogus": 1})

    @pytest.mark.parametrize("name", ["lpnn_step", "lpnn_c0"])
    def test_fixed_lpnn_constants_rejected(self, name):
        # LPNN's step and penalty weight are constants of the harness
        with pytest.raises(ValueError, match="unknown experiment fields"):
            ex.config_from_json_dict({"kind": "BaselineComparison", name: 1e-3})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ex.config_from_json_dict({"kind": "NotAThing"})

    def test_experiment_seed_is_the_problem_seed(self):
        problem = {"n": 32, "message": [6, 7, 10], "interferer": [2, 3, 13], "alpha": 1.0}
        cfg = ex.config_from_json_dict(
            {"kind": "FeasibilityVsAlpha", "seed": 4, "problem": {**problem, "seed": 9}}
        )
        assert cfg.problem.seed == 4
        assert replace(cfg, seed=5).problem.seed == 5

    @pytest.mark.parametrize("name", ["shape_max_iters", "lpnn_max_iters"])
    def test_negative_iteration_budget_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            ex.config_from_json_dict({"kind": "BaselineComparison", name: -1})
        cfg = ex.config_from_json_dict({"kind": "BaselineComparison", name: 0})
        assert getattr(cfg, name) == 0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ex.config_from_json_dict({"kind": "FeasibilityVsAlpha", "sweep": []})


class TestFeasibilityExperiments:
    def test_alpha_sweep_properties(self):
        report = ex.run_experiment(small_alpha_config())
        rounded = stats_by_sweep(report, "rounded_feasible_rate")
        uniform = stats_by_sweep(report, "uniform_feasible_rate")
        exceed = stats_by_sweep(report, "threshold_exceed_rate")
        bound = stats_by_sweep(report, "mcdiarmid_bound")
        alphas = sorted(rounded)
        assert alphas == [1.0, 2.0, 3.0, 4.0]
        for a in alphas:
            assert rounded[a][0] >= uniform[a][0]
            assert bound[a][0] >= exceed[a][0]
        rates = [rounded[a][0] for a in alphas]
        ses = [rounded[a][1] for a in alphas]
        for i in range(len(rates) - 1):
            assert rates[i + 1] >= rates[i] - 2 * (ses[i] + ses[i + 1])

    def test_width_sweep_properties(self):
        cfg = ex.default_config(ex.ExperimentKind.FEASIBILITY_VS_WIDTH, seed=4)
        problem = DesignProblem(
            n=32,
            message=ex.scale_runs(((1, 10), (50, 11)), 32),
            interferer=BandSpec((5,)),
            alpha=3.0,
            trials=2000,
            seed=4,
        )
        cfg = replace(cfg, problem=problem, sweep=(1, 2, 3))
        report = ex.run_experiment(cfg)
        rounded = stats_by_sweep(report, "rounded_feasible_rate")
        uniform = stats_by_sweep(report, "uniform_feasible_rate")
        widths = sorted(rounded)
        rates = [rounded[w][0] for w in widths]
        ses = [rounded[w][1] for w in widths]
        for w in widths:
            assert rounded[w][0] >= uniform[w][0]
        for i in range(len(rates) - 1):
            assert rates[i + 1] <= rates[i] + 2 * (ses[i] + ses[i + 1])

    def test_csv_round_trip_and_determinism(self, tmp_path):
        cfg = small_alpha_config(seed=6)
        cfg = replace(cfg, sweep=(2.0, 3.0))
        report = ex.run_experiment(cfg)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        n_rows = report.write_csv(path_a)
        assert n_rows == len(report.rows)
        ex.run_experiment(cfg).write_csv(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        with open(path_a, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == n_rows
        assert rows[0]["kind"] == "FeasibilityVsAlpha"
        assert rows[0]["version"]
        assert float(rows[0]["value"]) >= 0.0

    def test_failed_point_emits_sentinel_row(self):
        cfg = ex.default_config(ex.ExperimentKind.FEASIBILITY_VS_ALPHA, seed=2)
        problem = DesignProblem(
            n=8, message=BandSpec((5,)), interferer=BandSpec((0, 1, 2, 3, 4)),
            alpha=0.0, trials=100, seed=2,
        )
        cfg = replace(cfg, problem=problem, sweep=(0.0,))
        report = ex.run_experiment(cfg)
        assert [r["statistic"] for r in report.rows] == ["FAILED"]
        assert report.rows[0]["value"] == "InfeasibleRelaxationError"

    def test_default_filename_pattern(self):
        cfg = small_alpha_config(seed=9)
        report = ex.run_experiment(replace(cfg, sweep=(2.0,)))
        assert report.default_filename() == "FeasibilityVsAlpha_9.csv"

    def test_experiment_seed_reaches_the_rounding_draws(self):
        # the problem names no seed of its own, so only the experiment seed
        # can tell the two runs' rounding draws apart
        problem = {"n": 32, "message": [6, 7, 10], "interferer": [2, 3, 13], "alpha": 1.0,
                   "trials": 2000}
        rates = [
            stats_by_sweep(
                ex.run_experiment(ex.config_from_json_dict(
                    {"kind": "FeasibilityVsAlpha", "seed": seed, "problem": problem,
                     "sweep": [1.0]}
                )),
                "rounded_feasible_rate",
            )[1.0]
            for seed in (1, 2)
        ]
        assert rates[0] != rates[1]


class TestRatioHistogram:
    def test_histogram_counts_and_scalars(self):
        cfg = ex.default_config(ex.ExperimentKind.RATIO_HISTOGRAM, seed=7)
        problem = DesignProblem(
            n=32,
            message=ex.scale_runs(((25, 6), (40, 6)), 32),
            interferer=ex.scale_runs(((10, 6), (50, 6)), 32),
            alpha=5.0,
            trials=3000,
            seed=7,
        )
        cfg = replace(cfg, problem=problem, sweep=(3000,))
        report = ex.run_experiment(cfg)
        rounded = [r for r in report.rows if r["statistic"] == "rounded_gamma_count"]
        uniform = [r for r in report.rows if r["statistic"] == "uniform_gamma_count"]
        assert len(rounded) == 30 and len(uniform) == 30
        scalars = {r["statistic"]: r["value"] for r in report.rows if r["sweep"] is None}
        n_feas = scalars["n_feasible"]
        assert sum(r["value"] for r in rounded) == n_feas
        assert scalars["min_feasible_gamma"] > 0.0
        assert scalars["eigenvector_gamma"] is not None
        # rounded candidates average a higher ratio than uniform sequences
        assert scalars["mean_feasible_gamma"] > scalars["uniform_mean_gamma"]


class TestBetaDistribution:
    def test_cells_report_fraction_below_threshold(self):
        cfg = ex.default_config(ex.ExperimentKind.BETA_DISTRIBUTION, seed=8)
        cfg = replace(cfg, sweep=((32, 4, 4),), repetitions=300)
        report = ex.run_experiment(cfg)
        frac = stats_by_sweep(report, "fraction_below_pi_minus_1")
        assert frac["n32_K4_R4"][0] >= 0.98
        quantile = stats_by_sweep(report, "beta_q50")
        assert 1.0 <= quantile["n32_K4_R4"][0] <= math.pi - 1.0


class TestOracleComparison:
    def test_band_choice_count(self):
        assert len(ex.oracle_band_choices(16)) == 420

    def test_ratios_bounded_and_improving(self):
        cfg = ex.default_config(ex.ExperimentKind.ORACLE_COMPARISON, seed=10)
        cfg = replace(cfg, repetitions=6, sweep=(64, 1024))
        report = ex.run_experiment(cfg)
        power = stats_by_sweep(report, "power_ratio_mean")
        assert set(power) == {64, 1024}
        for length, (value, _) in power.items():
            assert value <= 1.0 + 1e-9
        assert power[1024][0] >= power[64][0] - 1e-9
        exact = stats_by_sweep(report, "power_exact_match_rate")
        assert exact[1024][0] >= exact[64][0] - 1e-9
        for stat in ("rho_ratio_mean", "chi_ratio_mean"):
            for value, _ in stats_by_sweep(report, stat).values():
                assert value <= 1.0 + 1e-9

    def test_layouts_use_the_config_length(self):
        cfg = ex.default_config(ex.ExperimentKind.ORACLE_COMPARISON, seed=13)
        problem = DesignProblem(
            n=12, message=BandSpec((1, 2)), interferer=BandSpec((3, 4)), alpha=4.0, trials=16
        )
        report = ex.run_experiment(replace(cfg, problem=problem, repetitions=420, sweep=(16,)))
        assert report.metadata["n"] == 12
        assert len(ex.oracle_band_choices(12)) == 90
        assert stats_by_sweep(report, "n_configs")[None][0] == 90

    def test_length_above_the_oracle_limit_is_rejected(self):
        cfg = ex.default_config(ex.ExperimentKind.ORACLE_COMPARISON, seed=13)
        problem = replace(cfg.problem, n=ex.oracle.DEFAULT_LIMIT + 2)
        with pytest.raises(SizeLimitError):
            ex.run_experiment(replace(cfg, problem=problem))

    def test_length_without_a_layout_is_rejected(self):
        cfg = ex.default_config(ex.ExperimentKind.ORACLE_COMPARISON, seed=13)
        problem = DesignProblem(n=6, message=BandSpec((1,)), interferer=BandSpec((2,)), alpha=4.0)
        with pytest.raises(ValueError, match="n=6 has fewer than the 4 independent bins"):
            ex.run_experiment(replace(cfg, problem=problem))


class TestBaselineComparison:
    def test_schema_and_values(self):
        cfg = ex.default_config(ex.ExperimentKind.BASELINE_COMPARISON, seed=11)
        problem = replace(
            cfg.problem, n=32, trials=1500, message=BandSpec(tuple(range(10, 15))),
            interferer=BandSpec((20, 21)),
        )
        cfg = replace(
            cfg, problem=problem, sweep=(2,), repetitions=2,
            shape_max_iters=300, lpnn_max_iters=300,
        )
        report = ex.run_experiment(cfg)
        methods = {r["method"] for r in report.rows}
        assert methods == set(ex._BASELINE_METHODS)
        for row in report.rows:
            assert row["width"] == 2
            if row["n_runs"]:
                assert row["mean_rho"] >= 0.0
                assert row["mean_seconds"] >= 0.0
        assert report.columns == (
            "width", "method", "mean_rho", "se_rho", "mean_seconds",
            "n_runs", "n_perfect", "finite_mean_rho", "n_monotone",
        )

    def test_bands_that_cannot_fit_are_rejected_before_any_job(self):
        cfg = ex.default_config(ex.ExperimentKind.BASELINE_COMPARISON, seed=12)
        problem = DesignProblem(
            n=16, message=BandSpec(tuple(range(10))), interferer=BandSpec((12,)),
            alpha=3.0, trials=50, seed=12,
        )
        cfg = replace(
            cfg, problem=problem, sweep=(7,), repetitions=1,
            shape_max_iters=50, lpnn_max_iters=50,
        )
        with pytest.raises(ValueError, match="interferer width 7 .* n=16"):
            ex.run_experiment(cfg)
        report = ex.run_experiment(replace(cfg, sweep=(6,)))
        assert {r["width"] for r in report.rows} == {6}


class TestWorkerParallelism:
    @pytest.mark.parametrize("kind", ["alpha", "beta"])
    def test_pool_matches_serial_run(self, kind):
        if kind == "alpha":
            cfg = ex.default_config(ex.ExperimentKind.FEASIBILITY_VS_ALPHA, seed=3)
            problem = DesignProblem(
                n=16, message=BandSpec((2, 3)), interferer=BandSpec((6, 7)),
                alpha=3.0, trials=400, seed=3,
            )
            cfg = replace(cfg, problem=problem, sweep=(0.0, 1.0, 2.0))
        else:
            cfg = ex.default_config(ex.ExperimentKind.BETA_DISTRIBUTION, seed=5)
            cfg = replace(cfg, sweep=((16, 2, 2), (32, 4, 4)), repetitions=60)
        # the process pool only starts for at least two jobs
        assert len(cfg.sweep) >= 2
        assert ex.run_experiment(cfg, jobs=2).rows == ex.run_experiment(cfg, jobs=1).rows

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        cfg = ex.default_config(ex.ExperimentKind.BETA_DISTRIBUTION, seed=5)
        cfg = replace(cfg, sweep=((16, 2, 2),), repetitions=10)
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            ex.run_experiment(cfg, jobs=jobs)

    def test_pool_has_no_more_workers_than_jobs(self, monkeypatch):
        import concurrent.futures

        asked = []

        class SerialPool:
            """Records the worker count it is asked for and maps in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, args):
                return map(fn, args)

        cfg = ex.default_config(ex.ExperimentKind.BETA_DISTRIBUTION, seed=5)
        cfg = replace(cfg, sweep=((16, 2, 2), (32, 4, 4)), repetitions=60)
        serial = ex.run_experiment(cfg, jobs=1).rows
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert ex.run_experiment(cfg, jobs=8).rows == serial
        assert asked == [2]
