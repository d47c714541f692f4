import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from specseq import (
    BandMetrics,
    BandSpec,
    DesignProblem,
    EmptyInterfererError,
    MetricBundle,
    RankZeroError,
    ScoreKind,
    arcsin_trace_ratio,
    build_partial_dft,
    mcdiarmid_bound,
    metric_bundle,
    quantized_principal_eigenvector,
    run_design,
    solve_relaxation,
)
from specseq import rounding
from specseq.sdp import RANK_TOL, SdpSolution
from helpers import sample_candidate
from test_problem import assert_bitwise, plain_band_metrics


def make_problem(n, message, interferer, alpha=1.0, trials=100, seed=0):
    return DesignProblem(n, BandSpec(message), BandSpec(interferer), alpha, trials, seed)


def dense_gram(n, band):
    """Re(C C^H) over the band's partial DFT columns C, symmetrized."""
    c = build_partial_dft(n, band)
    g = np.real(c @ c.conj().T)
    return (g + g.T) / 2.0


def solution_from_matrix(matrix, p):
    """Wrap an arbitrary unit-diagonal PSD matrix as a relaxation solution."""
    matrix = np.asarray(matrix, dtype=float)
    w, v = np.linalg.eigh((matrix + matrix.T) / 2.0)
    w, v = w[::-1], v[:, ::-1]
    factor = v * np.sqrt(np.maximum(w, 0.0))[None, :]
    a_m = dense_gram(p.n, p.message)
    a_i = dense_gram(p.n, p.interferer)
    return SdpSolution(
        matrix=matrix,
        objective=float(np.sum(a_m * matrix)),
        interferer_trace=float(np.sum(a_i * matrix)),
        factor=factor,
        rank=int(np.count_nonzero(w > RANK_TOL * max(float(w[0]), 0.0))),
        kkt_residual=0.0,
        dual_multiplier=0.0,
    )


README_MESSAGE = tuple(range(12, 15)) + tuple(range(20, 23))
README_INTERFERER = tuple(range(5, 8)) + tuple(range(25, 28))


def assert_same_result(actual, expected):
    """Equal summaries, winners and trial tables, bitwise."""
    assert actual.to_json_dict() == expected.to_json_dict()
    for f in fields(expected.trial_table):
        name = f.name
        assert np.array_equal(getattr(actual.trial_table, name), getattr(expected.trial_table, name))


def random_correlation(rng, n, rank):
    g = rng.standard_normal((n, rank))
    s = g @ g.T
    d = np.sqrt(np.diag(s))
    s = s / np.outer(d, d)
    np.fill_diagonal(s, 1.0)
    return s


class TestSampleCandidate:
    def test_rank_one_returns_sign_pattern(self):
        s = np.array([1, -1, 1, 1, -1, -1], dtype=float)
        p = make_problem(6, (1,), ())
        sol = solution_from_matrix(np.outer(s, s), p)
        rng = np.random.default_rng(0)
        for _ in range(20):
            cand = sample_candidate(sol.factor, rng)
            assert np.array_equal(cand, s) or np.array_equal(cand, -s)

    def test_zero_factor_gives_all_ones(self):
        cand = sample_candidate(np.zeros((5, 5)), np.random.default_rng(1))
        assert np.array_equal(cand, np.ones(5))

    def test_pairwise_expectation_matches_arcsine_law(self):
        # Monte-Carlo check of E[s_i s_j] = (2/pi) arcsin(S_ij)
        rng_matrix = np.random.default_rng(7)
        n, trials = 8, 20000
        s_mat = random_correlation(rng_matrix, n, 3)
        p = make_problem(n, (1,), ())
        sol = solution_from_matrix(s_mat, p)
        acc = np.zeros((n, n))
        rng = np.random.default_rng(8)
        for _ in range(trials):
            c = sample_candidate(sol.factor, rng).astype(float)
            acc += np.outer(c, c)
        acc /= trials
        expected = (2.0 / math.pi) * np.arcsin(np.clip(s_mat, -1, 1))
        assert np.abs(acc - expected).max() <= 5.0 / math.sqrt(trials)

    def test_disagreement_probability_matches_arccos_law(self):
        rng_matrix = np.random.default_rng(9)
        n, trials = 6, 20000
        s_mat = random_correlation(rng_matrix, n, 2)
        p = make_problem(n, (1,), ())
        sol = solution_from_matrix(s_mat, p)
        disagree = np.zeros((n, n))
        rng = np.random.default_rng(10)
        for _ in range(trials):
            c = sample_candidate(sol.factor, rng).astype(float)
            disagree += np.not_equal.outer(c, c)
        disagree /= trials
        expected = np.arccos(np.clip(s_mat, -1, 1)) / math.pi
        assert np.abs(disagree - expected).max() <= 5.0 / math.sqrt(trials)


class TestRunDesign:
    def test_deterministic_and_reproducible(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, trials=500, seed=77)
        sol = solve_relaxation(p)
        a = run_design(p, sol, retain=True)
        b = run_design(p, sol, retain=True)
        assert np.array_equal(a.best.sequence, b.best.sequence)
        assert a.best.trial_index == b.best.trial_index
        assert a.n_feasible == b.n_feasible
        assert np.array_equal(a.trial_table.message_power, b.trial_table.message_power)

    def test_prefix_trials_consistent(self):
        # trial ell reads rows ell*r .. (ell+1)*r-1 of the seed's stream,
        # whatever the total count
        p_small = make_problem(12, (1, 2), (4, 5), alpha=3.0, trials=64, seed=123456789)
        p_large = make_problem(12, (1, 2), (4, 5), alpha=3.0, trials=256, seed=123456789)
        sol = solve_relaxation(p_small)
        small = run_design(p_small, sol, retain=True)
        large = run_design(p_large, sol, retain=True)
        assert np.allclose(
            small.trial_table.message_power, large.trial_table.message_power[:64],
            rtol=1e-12,
        )

    def test_matches_per_trial_sampling(self):
        # trial ell is sample_candidate on the live factor columns, drawn
        # in trial order from Generator(Philox(key=seed))
        p = make_problem(12, (1, 2), (4, 5), alpha=3.0, trials=50, seed=9001)
        sol = solve_relaxation(p)
        res = run_design(p, sol, retain=True)
        live = sol.factor[:, np.any(sol.factor != 0.0, axis=0)]
        assert live.shape[1] < p.n
        rng = np.random.Generator(np.random.Philox(key=p.seed))
        for ell in range(p.trials):
            cand = sample_candidate(live, rng)
            assert metric_bundle(p, cand).message_power == pytest.approx(
                res.trial_table.message_power[ell], rel=1e-12
            )

    def test_distinct_seeds_give_distinct_runs(self):
        # seeds are Philox keys, not offsets into one set of trials: no two
        # runs hold the same trials, in whatever order
        p = make_problem(64, README_MESSAGE, README_INTERFERER, alpha=5.0, trials=4096)
        sol = solve_relaxation(p)
        seeds = (0, 1, 2, 3, 1000, 2**64 - 1)
        tables = [
            np.sort(run_design(replace(p, seed=s), sol, retain=True).trial_table.message_power)
            for s in seeds
        ]
        for i in range(len(seeds)):
            for j in range(i):
                assert not np.array_equal(tables[i], tables[j]), (seeds[i], seeds[j])

    @pytest.mark.parametrize("n, message, interferer, alpha", [
        (64, README_MESSAGE, README_INTERFERER, 2.0),
        (16, (2, 3), (6, 7), 1.0),
    ])
    def test_matches_plain_replay_bitwise(self, monkeypatch, n, message, interferer, alpha):
        # Philox normals over the live columns, np.where signs and the plain
        # kernel, chunk by chunk; the last chunk holds a lone row
        monkeypatch.setattr(rounding, "_CHUNK", 512)
        p = make_problem(n, message, interferer, alpha=alpha, trials=3 * 512 + 1, seed=4242)
        sol = solve_relaxation(p)
        factor_t = np.ascontiguousarray(sol.factor[:, np.any(sol.factor != 0.0, axis=0)].T)
        rng = np.random.Generator(np.random.Philox(key=p.seed))
        signs, chunks = [], []
        for start in range(0, p.trials, 512):
            v = rng.standard_normal((min(512, p.trials - start), factor_t.shape[0]))
            signs.append(np.where(v @ factor_t >= 0.0, 1.0, -1.0))
            chunks.append(plain_band_metrics(p, signs[-1]))
        signs = np.concatenate(signs)
        plain = {
            f.name: np.concatenate([getattr(c, f.name) for c in chunks])
            for f in fields(BandMetrics)
        }
        assert 0 < plain["feasible"].sum() < p.trials
        for score in ScoreKind:
            res = run_design(p, sol, score=score, retain=True)
            for name, column in plain.items():
                assert_bitwise(getattr(res.trial_table, name), column)
            assert_bitwise(res.trial_table.gamma, plain["message_power"] / sol.objective)
            assert res.n_feasible == int(plain["feasible"].sum())
            i, _ = BandMetrics(**plain).best_feasible(score)
            assert res.best.trial_index == i
            for name, column in plain.items():
                assert_bitwise(getattr(res.best.metrics, name), column[i])
            assert_bitwise(res.best.sequence, signs[i].astype(np.int8))

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        p = make_problem(64, README_MESSAGE, README_INTERFERER, alpha=5.0, trials=300, seed=8)
        sol = solve_relaxation(p)
        default = run_design(p, sol, retain=True)
        monkeypatch.setattr(rounding, "_CHUNK", 7)
        chunked = run_design(p, sol, retain=True)
        assert_same_result(chunked, default)

    def test_zero_factor_columns_do_not_change_results(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, trials=300, seed=4)
        sol = solve_relaxation(p)
        live = sol.factor[:, np.any(sol.factor != 0.0, axis=0)]
        padded = np.zeros((p.n, 3 * live.shape[1]))
        padded[:, 1::3] = live
        bare = run_design(p, replace(sol, factor=live), retain=True)
        for factor in (sol.factor, padded):
            assert_same_result(run_design(p, replace(sol, factor=factor), retain=True), bare)

    def test_feasibility_filter_uses_full_alpha(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, trials=400, seed=5)
        sol = solve_relaxation(p)
        res = run_design(p, sol, retain=True)
        t = res.trial_table
        assert res.n_feasible == int(np.sum(t.interferer_power <= p.alpha))
        # candidates between alpha/2 and alpha exist and count as feasible
        between = (t.interferer_power > p.alpha / 2) & (t.interferer_power <= p.alpha)
        assert between.any()
        assert res.feasibility_rate == res.n_feasible / res.n_trials

    def test_empty_interferer_all_feasible(self):
        p = make_problem(8, (1, 2), (), alpha=0.0, trials=64, seed=3)
        sol = solve_relaxation(p)
        res = run_design(p, sol)
        assert res.n_feasible == 64
        assert res.beta == math.inf

    def test_tie_break_picks_first_trial(self):
        p = make_problem(6, (0,), (), alpha=1.0, trials=32, seed=0)
        # zero factor: every trial produces the all-ones sequence
        sol = solution_from_matrix(np.zeros((6, 6)), p)
        res = run_design(p, sol)
        assert res.best.trial_index == 0
        assert np.array_equal(res.best.sequence, np.ones(6))

    def test_stored_metrics_match_recomputation_exactly(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, trials=200, seed=21)
        sol = solve_relaxation(p)
        for score in ScoreKind:
            res = run_design(p, sol, score=score)
            again = metric_bundle(p, res.best.sequence)
            assert res.best.metrics == again
            assert res.score_kind is score

    @pytest.mark.parametrize("message, interferer", [
        (tuple(range(12, 15)) + tuple(range(20, 23)), tuple(range(5, 8)) + tuple(range(25, 28))),
        (tuple(range(39, 49)), tuple(range(1, 5))),
    ])
    def test_winner_metrics_are_its_table_row(self, message, interferer):
        # the winner carries, bitwise, the metrics it was selected by; on
        # the second layout a re-score of the lone winner can differ in the
        # last digits, since BLAS sums a block of rows in another order
        p = make_problem(64, message, interferer, alpha=5.0, trials=2000)
        sol = solve_relaxation(p)
        for seed in range(5):
            for score in ScoreKind:
                res = run_design(replace(p, seed=seed), sol, score=score, retain=True)
                t, i = res.trial_table, res.best.trial_index
                for f in fields(MetricBundle):
                    assert getattr(res.best.metrics, f.name) == getattr(t, f.name)[i]
                assert res.best.gamma == t.gamma[i]

    def test_best_is_max_over_feasible(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, trials=300, seed=2)
        sol = solve_relaxation(p)
        res = run_design(p, sol, score=ScoreKind.MESSAGE_POWER, retain=True)
        t = res.trial_table
        assert res.best.metrics.message_power == pytest.approx(
            t.message_power[t.feasible].max(), rel=1e-12
        )
        assert res.gamma_min_feasible == pytest.approx(
            t.message_power[t.feasible].min() / sol.objective, rel=1e-12
        )

    def test_single_flip_interferer_power_bound(self):
        # a one-entry flip moves the interferer power by at most 4K
        p = make_problem(16, (2, 3), (6, 7, 8), alpha=4.0, trials=20, seed=13)
        sol = solve_relaxation(p)
        k = len(p.interferer)
        rng = np.random.default_rng(0)
        for ell in range(p.trials):
            cand = sample_candidate(sol.factor, np.random.default_rng(p.seed ^ ell))
            g0 = metric_bundle(p, cand).interferer_power
            for i in range(p.n):
                flipped = cand.copy()
                flipped[i] = -flipped[i]
                assert abs(metric_bundle(p, flipped).interferer_power - g0) <= 4 * k + 1e-9


def bins(*runs):
    return tuple(k for start, width in runs for k in range(start, start + width))


def traced_peak(p, sol, retain):
    """Bytes a run_design call holds at its peak, beyond what was live before."""
    run_design(p, sol, retain=retain)  # first-call allocations are not the working set
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run_design(p, sol, retain=retain)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestWorkingMemory:
    @pytest.mark.parametrize("n, message, interferer, trials, retain, bound", [
        # one signs array, the mask and band_metrics' product and squares:
        # 1.72 arrays; a projection, a mask and a second signs array at
        # once took 1.99
        (256, bins((50, 12), (80, 12)), bins((20, 12), (100, 12)), 10000, False, 1.9),
        # full-length columns filled in place: 2.17 arrays; per-chunk
        # columns joined by a copy took 2.64
        (64, bins((12, 3), (20, 3)), bins((5, 3), (25, 3)), 100000, True, 2.4),
    ], ids=["n256", "n64-retain"])
    def test_peak_within_budget(self, n, message, interferer, trials, retain, bound):
        # in units of one chunk's signs, a (rows, n) float64 array
        p = make_problem(n, message, interferer, alpha=5.0, trials=trials)
        sol = solve_relaxation(p)
        unit = min(rounding._CHUNK, trials) * n * 8
        assert traced_peak(p, sol, retain) <= bound * unit

    def test_winner_is_its_replayed_trial(self, monkeypatch):
        # every chunk's signs are written into one array; the winner must be
        # a copy of its trial's signs, not a row the next chunk overwrites
        monkeypatch.setattr(rounding, "_CHUNK", 7)
        p = make_problem(64, README_MESSAGE, README_INTERFERER, alpha=5.0, trials=300)
        sol = solve_relaxation(p)
        factor_t = np.ascontiguousarray(sol.factor[:, np.any(sol.factor != 0.0, axis=0)].T)
        early = 0
        for seed in range(10):
            rng = np.random.Generator(np.random.Philox(key=seed))
            v = rng.standard_normal((p.trials, factor_t.shape[0]))
            for score in ScoreKind:
                res = run_design(replace(p, seed=seed), sol, score=score)
                i = res.best.trial_index
                start = i - i % 7
                # the winner's chunk, projected as one block like run_design does
                w = v[start : start + 7] @ factor_t
                replayed = np.where(w[i - start] >= 0.0, 1, -1).astype(np.int8)
                assert_bitwise(res.best.sequence, replayed)
                early += start + 7 < p.trials
        assert early > 0


class TestQuantizedEigenvector:
    def test_rank_one_recovers_sign_pattern(self):
        s = np.array([1, -1, -1, 1, 1, -1, 1, 1], dtype=float)
        p = make_problem(8, (1,), ())
        sol = solution_from_matrix(np.outer(s, s), p)
        cand = quantized_principal_eigenvector(p, sol)
        assert np.array_equal(cand.sequence, s) or np.array_equal(cand.sequence, -s)
        assert cand.gamma == pytest.approx(1.0, rel=1e-9)
        assert cand.trial_index == -1

    def test_identity_matrix_gives_all_ones(self):
        p = make_problem(6, (0,), ())
        sol = solution_from_matrix(np.eye(6), p)
        cand = quantized_principal_eigenvector(p, sol)
        assert np.array_equal(cand.sequence, np.ones(6))

    def test_zero_matrix_raises(self):
        p = make_problem(4, (1,), ())
        sol = solution_from_matrix(np.zeros((4, 4)), p)
        with pytest.raises(RankZeroError):
            quantized_principal_eigenvector(p, sol)

    def test_gamma_below_best_of_many_candidates(self):
        p = make_problem(
            64, tuple(range(12, 15)) + tuple(range(20, 23)),
            tuple(range(5, 8)) + tuple(range(25, 28)), 5.0, trials=2000, seed=0,
        )
        sol = solve_relaxation(p)
        eig = quantized_principal_eigenvector(p, sol)
        res = run_design(p, sol, retain=True)
        assert eig.gamma <= res.trial_table.gamma.max()


class TestTheoryQuantities:
    def test_arcsin_ratio_identity_matrix(self):
        ratio = arcsin_trace_ratio(np.eye(8), BandSpec((1, 2)))
        assert ratio == pytest.approx(math.pi / 2, rel=1e-12)

    def test_arcsin_ratio_rank_one_binary(self):
        s = np.array([1, -1, 1, 1, -1, 1, -1, -1], dtype=float)
        ratio = arcsin_trace_ratio(np.outer(s, s), BandSpec((2, 3)))
        assert ratio == pytest.approx(math.pi / 2, rel=1e-9)

    def test_arcsin_ratio_null_denominator(self):
        s = np.zeros((8, 8))
        assert arcsin_trace_ratio(s, BandSpec((1,))) == math.inf

    def test_arcsin_ratio_below_threshold_for_random_matrices(self):
        rng = np.random.default_rng(1234)
        n, k, rank = 32, 4, 4
        below = 0
        draws = 400
        for _ in range(draws):
            s = random_correlation(rng, n, rank)
            start = int(rng.integers(0, n - k + 1))
            if arcsin_trace_ratio(s, BandSpec(tuple(range(start, start + k)))) < math.pi - 1:
                below += 1
        assert below / draws >= 0.99

    def test_mcdiarmid_zero_alpha(self):
        p = make_problem(8, (1,), (2,), alpha=0.0)
        assert mcdiarmid_bound(p) == 1.0

    def test_mcdiarmid_paper_scale_value(self):
        p = DesignProblem(
            128, BandSpec(tuple(range(25, 31)) + tuple(range(40, 46))),
            BandSpec(tuple(range(10, 16)) + tuple(range(50, 56))), 5.0, 10, 0,
        )
        expected = math.exp(-25.0 / (8 * 128 * math.pi**2 * 144))
        assert mcdiarmid_bound(p) == pytest.approx(expected, rel=1e-12)
        assert mcdiarmid_bound(p) == pytest.approx(0.99998, abs=1e-5)

    def test_mcdiarmid_monotonic(self):
        values = [
            mcdiarmid_bound(make_problem(64, (1,), tuple(range(2, 2 + k)), alpha=3.0))
            for k in (1, 2, 4, 8)
        ]
        assert values == sorted(values)
        tighter = [
            mcdiarmid_bound(make_problem(64, (1,), (2, 3), alpha=a)) for a in (1.0, 2.0, 4.0)
        ]
        assert tighter == sorted(tighter, reverse=True)

    def test_mcdiarmid_requires_interferer(self):
        with pytest.raises(EmptyInterfererError):
            mcdiarmid_bound(make_problem(8, (1,), ()))

    def test_zero_objective_leaves_gamma_unset(self):
        # message bin 3 mirrors interferer bin 13, so at alpha=0 the
        # relaxation must null the message band too: no ratio to normalize by
        p = make_problem(16, (3,), (13,), alpha=0.0, trials=1000)
        sol = solve_relaxation(p)
        assert sol.objective == 0.0 and sol.kkt_residual == 0.0
        res = run_design(p, sol, retain=True)
        assert res.n_feasible > 0
        assert res.best.gamma is None
        assert res.gamma_min_feasible is None
        assert res.trial_table.gamma is None
        assert quantized_principal_eigenvector(p, sol).gamma is None
