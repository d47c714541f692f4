import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from specseq import (
    BandSpec,
    DesignProblem,
    NoFeasibleError,
    SizeLimitError,
    exhaustive_search,
    halved_constraint_optimum,
    metric_bundle,
    run_design,
    solve_relaxation,
)
from specseq import oracle, rounding
from specseq.sdp import SdpSolution


def make_problem(n, message, interferer, alpha=1.0, seed=0):
    return DesignProblem(n, BandSpec(message), BandSpec(interferer), alpha, 10, seed)


def brute_force(p):
    """Direct enumeration with full DFT evaluation; independent of the module."""
    n = p.n
    bits = np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)[None, :] & 1
    signs = np.hstack([np.ones((1 << (n - 1), 1)), bits * 2.0 - 1.0])
    cols_m = np.exp(-2j * np.pi * np.outer(np.arange(n), p.message.indices) / n) / math.sqrt(n)
    cols_i = np.exp(-2j * np.pi * np.outer(np.arange(n), p.interferer.indices) / n) / math.sqrt(n)
    mag_m = np.abs(signs @ cols_m.conj())
    mag_i = np.abs(signs @ cols_i.conj())
    f = (mag_m**2).sum(axis=1)
    g = (mag_i**2).sum(axis=1) if len(p.interferer) else np.zeros(len(signs))
    feasible = g <= p.alpha
    tol = 1e-12 * math.sqrt(n)
    min_m = mag_m.min(axis=1)
    perfect = np.where(min_m > tol, np.inf, 0.0)
    if len(p.interferer):
        max_i = mag_i.max(axis=1)
        rho = np.where(max_i <= tol, perfect, min_m / np.maximum(max_i, 1e-300))
    else:
        rho = perfect
    chi = min_m / np.maximum(mag_m.max(axis=1), 1e-300)
    return signs, f, g, rho, chi, feasible


class TestExhaustiveSearch:
    def test_dc_problem_best_is_all_ones(self):
        p = make_problem(4, (0,), ())
        out = exhaustive_search(p)
        seq, metrics = out.best_by_power
        assert np.array_equal(seq, np.ones(4))
        assert metrics.message_power == pytest.approx(4.0, abs=1e-12)
        assert out.n_enumerated == 8
        assert out.n_feasible == 8

    def test_matches_independent_brute_force_n10(self):
        p = make_problem(10, (1, 2), (4, 5), alpha=2.03, seed=0)
        out = exhaustive_search(p)
        signs, f, g, rho, chi, feasible = brute_force(p)
        assert out.n_feasible == int(feasible.sum())
        assert out.best_by_power[1].message_power == pytest.approx(f[feasible].max(), rel=1e-10)
        assert out.best_by_rho[1].rejection_ratio == pytest.approx(rho[feasible].max(), rel=1e-10)
        assert out.best_by_chi[1].reciprocal_dynamic_range == pytest.approx(
            chi[feasible].max(), rel=1e-10
        )

    def test_best_sequences_are_feasible_and_consistent(self):
        p = make_problem(12, (2, 3), (6, 7), alpha=2.5, seed=0)
        out = exhaustive_search(p)
        for seq, metrics in (out.best_by_power, out.best_by_rho, out.best_by_chi):
            again = metric_bundle(p, seq)
            assert again == metrics
            assert metrics.feasible
            assert seq[0] == 1  # leading entry fixed by negation invariance

    def test_counts(self):
        p = make_problem(8, (1,), (), alpha=1.0)
        out = exhaustive_search(p)
        assert out.n_enumerated == 2**7

    def test_no_feasible_raises(self):
        # interferer touching every conjugate pair has a positive power floor
        p = make_problem(8, (5,), (0, 1, 2, 3, 4), alpha=0.0)
        with pytest.raises(NoFeasibleError):
            exhaustive_search(p)

    def test_size_limit(self):
        p = make_problem(30, (1,), (), alpha=1.0)
        with pytest.raises(SizeLimitError):
            exhaustive_search(p)
        with pytest.raises(SizeLimitError):
            halved_constraint_optimum(p)


class TestHalvedConstraintOptimum:
    def test_empty_interferer_equals_best_power(self):
        p = make_problem(10, (1, 4), (), alpha=3.0)
        out = exhaustive_search(p)
        assert halved_constraint_optimum(p) == pytest.approx(
            out.best_by_power[1].message_power, rel=1e-12
        )

    def test_empty_feasible_set_is_minus_inf(self):
        p = make_problem(8, (5,), (0, 1, 2, 3, 4), alpha=0.0)
        assert halved_constraint_optimum(p) == -math.inf

    def test_value_matches_brute_force(self):
        p = make_problem(10, (1, 2), (4, 5), alpha=2.03)
        signs, f, g, _, _, _ = brute_force(p)
        mask = g <= p.alpha / 2
        assert halved_constraint_optimum(p) == pytest.approx(f[mask].max(), rel=1e-10)


def all_sequences(n):
    """All 2^(n-1) sign rows with s_0 = +1, in lexicographic order (-1 first)."""
    bits = np.arange(1 << (n - 1))[:, None] >> np.arange(n - 2, -1, -1)[None, :] & 1
    return np.hstack([np.ones((1 << (n - 1), 1)), bits * 2.0 - 1.0])


class TestFeasibilityOnTheBoundary:
    # 308 of the 2^15 sequences have interferer power exactly alpha; 30538
    # are feasible in exact arithmetic (checked at 40 digits)
    P = make_problem(16, (1, 8), (4, 6), alpha=4.0)

    def test_every_path_counts_the_exact_feasible_set(self, monkeypatch):
        p = replace(self.P, trials=1 << 15)
        rows = all_sequences(16)
        assert exhaustive_search(p).n_feasible == 30538
        assert sum(metric_bundle(p, s).feasible for s in rows) == 30538

        # run_design with an identity factor and its normals replaced by
        # the enumerated rows scores every sequence through its own path
        class EnumeratedRows:
            """A stand-in Generator whose normals are the enumerated rows, in order."""

            def __init__(self, bit_generator):
                self.drawn = 0

            def standard_normal(self, shape):
                start, self.drawn = self.drawn, self.drawn + shape[0]
                return rows[start : self.drawn]

        monkeypatch.setattr(rounding.np.random, "Generator", EnumeratedRows)
        eye = np.eye(16)
        sol = SdpSolution(np.ones(16), 1.0, 1.0, eye, 0.0, 0.0)
        assert run_design(p, sol).n_feasible == 30538

    def test_exact_nulls_are_feasible_at_alpha_zero(self):
        # 162 sequences null both interferer bins exactly (checked at 40
        # digits); their computed power is roundoff above 0, and the
        # halved bound alpha/2 = 0 takes the same slack
        p = replace(self.P, alpha=0.0)
        out = exhaustive_search(p)
        assert out.n_feasible == 162
        assert out.best_by_power[1].message_power == pytest.approx(16.0, rel=1e-12)
        assert halved_constraint_optimum(p) == pytest.approx(16.0, rel=1e-12)


class TestTieBreak:
    def test_ties_go_to_the_lex_smaller_sequence(self):
        # one message bin and no interferer: every sequence that does not
        # null bin 1 has chi == 1 exactly, and [1, -1, -1, -1] is the
        # lex-smallest of them
        out = exhaustive_search(make_problem(4, (1,), ()))
        assert out.best_by_chi[1].reciprocal_dynamic_range == 1.0
        assert out.best_by_chi[0].tolist() == [1, -1, -1, -1]


class TestOptimumMetrics:
    @pytest.mark.parametrize(
        "message, interferer, alpha",
        [
            ((1, 8), (4, 6), 4.0),  # oracle-16-b of the benchmark's compare workload
            ((2, 3), (6, 7), 2.0),  # the CLI tests' problem
            # basis width 10: with OpenBLAS 0.3.31 a lone re-score differs from the block row here
            ((1, 2, 3), (5, 6), 4.0),
        ],
    )
    def test_metrics_are_the_selecting_block_row(self, message, interferer, alpha):
        p = make_problem(16, message, interferer, alpha)
        out = exhaustive_search(p)
        for seq, bundle in (out.best_by_power, out.best_by_rho, out.best_by_chi):
            rows = [
                metrics.row(int(idx))
                for block, metrics in oracle._enumerate(p)
                for idx in np.flatnonzero((block == seq).all(axis=1))
            ]
            assert len(rows) == 1
            assert [float(v).hex() for v in astuple(bundle)] == [
                float(v).hex() for v in astuple(rows[0])
            ]


def single_bin_optimum(n, k):
    """Largest |X_k|^2 over binary sequences of length n, X the unitary DFT.

    sqrt(n) |X_k| is the largest sum_i s_i cos(2 pi ik/n - theta) over
    theta, and for a given theta the signs s_i = sign(cos(2 pi ik/n -
    theta)) maximize the sum. They change only where theta - 2 pi ik/n
    crosses +-pi/2, a multiple of pi/(2n), so the arc midpoints
    theta_j = pi (2j + 1) / (4n), j < 2n, give every pattern up to
    sign. There cos(2 pi ik/n - theta_j) = cos(pi x / (4n)) for the odd
    integer x = 8 (ik mod n) - 2j - 1, which is positive exactly when x
    lies within 2n of a multiple of 8n.
    """
    m = np.arange(n) * k % n
    phasor = np.exp(-2j * np.pi * m / n)
    best = 0.0
    for j in np.array_split(np.arange(2 * n), max(1, 2 * n // 256)):
        x = 8 * m[None, :] - 2 * j[:, None] - 1
        signs = np.where((x + 2 * n) % (8 * n) < 4 * n, 1.0, -1.0)
        best = max(best, float(np.max(np.abs(signs @ phasor) ** 2)) / n)
    return best


class TestSingleBinGroundTruth:
    """Exact optima past the exhaustive oracle's reach: one message bin, no interferer."""

    @pytest.mark.parametrize("n, k", [(8, 3), (12, 4), (15, 5), (16, 1), (16, 6)])
    def test_arc_midpoints_match_the_oracle(self, n, k):
        best = exhaustive_search(make_problem(n, (k,), ())).best_by_power[1].message_power
        assert single_bin_optimum(n, k) == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("n, k", [(64, 5), (256, 37), (1024, 101), (1023, 341), (4096, 411)])
    def test_design_reaches_the_optimum(self, n, k):
        # S has rank two, so every trial is sign(cos(2 pi ik/n - theta))
        # for a uniform theta, and 1e4 trials land on an optimal arc
        p = DesignProblem(n, BandSpec((k,)), BandSpec(()), 1.0, 10_000, 0)
        res = run_design(p, solve_relaxation(p))
        assert res.best.metrics.message_power == pytest.approx(
            single_bin_optimum(n, k), rel=1e-12
        )
