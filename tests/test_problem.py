import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from specseq import (
    BandMetrics,
    BandSpec,
    DesignProblem,
    EmptyMessageError,
    LengthMismatchError,
    MetricBundle,
    OverlapError,
    ScoreKind,
    band_metrics,
    build_partial_dft,
    metric_bundle,
    sequence_line,
)
from specseq.problem import _block_metrics, _scoring_basis, null_tolerance


def make_problem(n, message, interferer, alpha=1.0, trials=10, seed=0):
    return DesignProblem(n, BandSpec(message), BandSpec(interferer), alpha, trials, seed)


def naive_magnitude(s, k):
    n = len(s)
    total = sum(s[i] * np.exp(-2j * np.pi * k * i / n) for i in range(n))
    return abs(total) / math.sqrt(n)


class TestPartialDft:
    def test_dc_column(self):
        columns = build_partial_dft(4, BandSpec((0,)))
        assert np.allclose(columns[:, 0], 0.5 * np.ones(4))

    def test_nyquist_column(self):
        columns = build_partial_dft(4, BandSpec((2,)))
        assert np.allclose(columns[:, 0], 0.5 * np.array([1, -1, 1, -1]))

    def test_columns_unit_norm_and_orthogonal(self):
        columns = build_partial_dft(8, BandSpec((1, 3)))
        g = columns.conj().T @ columns
        assert abs(g[0, 0] - 1) < 1e-12 and abs(g[1, 1] - 1) < 1e-12
        assert abs(g[0, 1]) < 1e-12

    def test_out_of_range_band(self):
        with pytest.raises(IndexError):
            build_partial_dft(4, BandSpec((4,)))


class TestValidation:
    def test_paper_configuration_is_valid(self):
        make_problem(
            128,
            tuple(range(25, 31)) + tuple(range(40, 46)),
            tuple(range(10, 16)) + tuple(range(50, 56)),
            alpha=5.0,
        )

    def test_mirrored_message_bin_accepted(self):
        # bins 3 and 13 are mirrors at n=16, not an overlap
        make_problem(16, (3,), (13,))

    def test_overlapping_bands_rejected(self):
        with pytest.raises(OverlapError):
            make_problem(8, (1,), (1,))

    def test_out_of_range_bin_rejected(self):
        with pytest.raises(IndexError):
            make_problem(8, (9,), ())

    def test_empty_message_rejected(self):
        with pytest.raises(EmptyMessageError):
            make_problem(8, (), (1,))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            make_problem(8, (1,), (2,), alpha=-1.0)

    def test_nan_alpha_rejected(self):
        # NaN compares false with 0, so it must fail the check, not pass it
        with pytest.raises(ValueError, match="tolerance must be nonnegative, got nan"):
            make_problem(8, (1,), (2,), alpha=math.nan)

    def test_replace_is_checked_when_built(self):
        p = make_problem(8, (1,), (2,))
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            replace(p, alpha=-1.0)
        with pytest.raises(OverlapError):
            replace(p, interferer=BandSpec((1,)))

    def test_from_json_dict_is_checked_when_built(self):
        with pytest.raises(IndexError, match="out of range for n=8"):
            DesignProblem.from_json_dict({"n": 8, "message": [8], "interferer": [], "alpha": 1})

    def test_duplicate_bins_rejected(self):
        with pytest.raises(ValueError):
            BandSpec((3, 3))

    def test_band_sorts_indices(self):
        assert BandSpec((5, 1, 3)).indices == (1, 3, 5)

    @pytest.mark.parametrize(
        "k", [1.5, 2.0, True, np.float64(1)], ids=["float", "whole-float", "bool", "numpy-float"]
    )
    def test_non_integer_bin_rejected(self, k):
        with pytest.raises(ValueError, match="frequency bin must be an integer"):
            BandSpec((0, k))

    def test_numpy_integer_bin_accepted(self):
        band = BandSpec((np.int64(3), 1))
        assert band.indices == (1, 3) and all(type(k) is int for k in band.indices)

    @pytest.mark.parametrize("field, value", [
        ("n", 16.0), ("trials", 100.0), ("seed", 1.5), ("seed", True),
        ("n", np.float64(16)), ("trials", False),
    ], ids=["n-float", "trials-float", "seed-fraction", "seed-bool", "n-numpy-float",
            "trials-bool"])
    def test_non_integer_size_or_seed_rejected(self, field, value):
        # seed=1.5 and seed=True would draw exactly what seed=1 draws
        p = make_problem(16, (1, 2), (5, 6), alpha=2.0, trials=100)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            replace(p, **{field: value})

    def test_numpy_integer_sizes_and_seed_accepted(self):
        p = DesignProblem(np.int64(16), BandSpec((1, 2)), BandSpec((5, 6)), 2.0,
                          np.int32(100), np.uint64(2**64 - 1))
        assert (p.n, p.trials, p.seed) == (16, 100, 2**64 - 1)
        assert all(type(v) is int for v in (p.n, p.trials, p.seed))


class TestMessagePower:
    def test_dc_all_ones(self):
        p = make_problem(4, (0,), ())
        assert metric_bundle(p, np.ones(4)).message_power == pytest.approx(4.0, abs=1e-12)

    def test_dc_alternating_is_zero(self):
        p = make_problem(4, (0,), ())
        alternating = np.array([1, -1, 1, -1])
        assert metric_bundle(p, alternating).message_power == pytest.approx(0.0, abs=1e-12)

    def test_exhaustive_optimum_n8(self):
        # brute force over all 2^8 sequences, message band {1, 7}
        p = make_problem(8, (1, 7), ())
        best = -1.0
        best_s = None
        for bits in range(256):
            s = np.array([1 if bits >> i & 1 else -1 for i in range(8)])
            f = naive_magnitude(s, 1) ** 2 + naive_magnitude(s, 7) ** 2
            if f > best:
                best, best_s = f, s
        assert best == pytest.approx(6.828427124746192, rel=1e-12)
        assert metric_bundle(p, best_s).message_power == pytest.approx(best, rel=1e-10)

    def test_length_mismatch(self):
        p = make_problem(8, (1,), ())
        with pytest.raises(LengthMismatchError):
            metric_bundle(p, np.ones(7))


class TestInterfererPower:
    def test_empty_band_is_zero(self):
        p = make_problem(8, (1,), ())
        assert metric_bundle(p, np.ones(8)).interferer_power == 0.0

    def test_dc_case(self):
        p = make_problem(4, (1,), (0,))
        assert metric_bundle(p, np.ones(4)).interferer_power == pytest.approx(4.0, abs=1e-12)

    def test_against_naive_dft_n16(self):
        p = make_problem(16, (1,), (3, 5))
        s = np.ones(16)
        expected = naive_magnitude(s, 3) ** 2 + naive_magnitude(s, 5) ** 2
        assert metric_bundle(p, s).interferer_power == pytest.approx(expected, abs=1e-12)
        rng = np.random.default_rng(11)
        s = rng.integers(0, 2, 16) * 2 - 1
        expected = naive_magnitude(s, 3) ** 2 + naive_magnitude(s, 5) ** 2
        assert metric_bundle(p, s).interferer_power == pytest.approx(expected, rel=1e-10)


class TestRejectionRatio:
    def test_perfect_null_is_infinite(self):
        p = make_problem(4, (0,), (2,))
        assert metric_bundle(p, np.ones(4)).rejection_ratio == math.inf

    def test_nulled_message_is_worthless(self):
        # the constant sequence nulls every bin away from DC; with bands
        # that exclude DC it scores 0, never +inf
        p = make_problem(16, (2, 3), (6, 7))
        assert metric_bundle(p, np.ones(16)).rejection_ratio == 0.0
        assert metric_bundle(p, np.ones(16)).rejection_ratio == 0.0

    def test_negation_invariance(self):
        p = make_problem(16, (2, 3), (6, 7))
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.integers(0, 2, 16) * 2 - 1
            b, negated = metric_bundle(p, s), metric_bundle(p, -s)
            assert b.rejection_ratio == negated.rejection_ratio
            assert b.message_power == negated.message_power
            assert b.interferer_power == negated.interferer_power
            assert b.reciprocal_dynamic_range == negated.reciprocal_dynamic_range

    def test_exhaustive_maximum_n16(self):
        # brute force over 2^15 sequences with the leading entry fixed
        p = make_problem(16, (2, 3), (6, 7))
        cols = np.exp(-2j * np.pi * np.outer(np.arange(16), [2, 3, 6, 7]) / 16) / 4.0
        bits = np.arange(1 << 15)[:, None] >> np.arange(15)[None, :] & 1
        signs = np.hstack([np.ones((1 << 15, 1)), bits * 2.0 - 1.0])
        mags = np.abs(signs @ cols.conj())
        rho = np.where(
            mags[:, 2:].max(axis=1) == 0.0, np.inf, mags[:, :2].min(axis=1) / mags[:, 2:].max(axis=1)
        )
        best = rho.max()
        assert best == pytest.approx(5.828427124746226, rel=1e-9)
        best_s = signs[int(np.argmax(rho))]
        assert metric_bundle(p, best_s).rejection_ratio == pytest.approx(best, rel=1e-9)


class TestReciprocalDynamicRange:
    def test_single_bin_is_one(self):
        p = make_problem(8, (1,), ())
        s = np.ones(8)
        s[0] = -1
        assert metric_bundle(p, s).reciprocal_dynamic_range == pytest.approx(1.0)

    def test_null_bin_gives_zero(self):
        p = make_problem(4, (0, 2), ())
        chi = metric_bundle(p, np.ones(4)).reciprocal_dynamic_range
        assert chi == pytest.approx(0.0, abs=1e-12)

    def test_value_in_unit_interval(self):
        p = make_problem(16, (1, 2, 3), (6, 7))
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = rng.integers(0, 2, 16) * 2 - 1
            chi = metric_bundle(p, s).reciprocal_dynamic_range
            assert 0.0 <= chi <= 1.0


class TestBundleAndInvariants:
    def test_bundle_matches_individual_ops(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.integers(0, 2, 16) * 2 - 1
            b = metric_bundle(p, s)
            assert b.message_power == metric_bundle(p, s).message_power
            assert b.interferer_power == metric_bundle(p, s).interferer_power
            assert b.rejection_ratio == metric_bundle(p, s).rejection_ratio
            assert b.reciprocal_dynamic_range == metric_bundle(p, s).reciprocal_dynamic_range
            assert b.feasible == (b.interferer_power <= p.alpha)

    def test_parseval_bound(self):
        p = make_problem(16, (2, 3), (6, 7))
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = rng.integers(0, 2, 16) * 2 - 1
            b = metric_bundle(p, s)
            assert 0.0 <= b.message_power + b.interferer_power <= 16.0 + 1e-9

    def test_parseval_equality_for_full_partition(self):
        p = make_problem(8, (0, 1, 2, 3), (4, 5, 6, 7))
        rng = np.random.default_rng(8)
        s = rng.integers(0, 2, 8) * 2 - 1
        b = metric_bundle(p, s)
        assert b.message_power + b.interferer_power == pytest.approx(8.0, rel=1e-12)

    def test_conjugate_bin_symmetry(self):
        rng = np.random.default_rng(6)
        s = rng.integers(0, 2, 12) * 2 - 1
        for k in range(1, 12):
            pk = make_problem(12, (k,), ())
            pm = make_problem(12, ((12 - k) % 12,), ())
            mirror = metric_bundle(pm, s).message_power
            assert metric_bundle(pk, s).message_power == pytest.approx(mirror, rel=1e-12)


class TestSerialization:
    def test_json_round_trip_field_names(self):
        p = make_problem(128, (25, 26), (10, 11), alpha=5.0, trials=1000, seed=42)
        data = {
            "n": 128, "message": [25, 26], "interferer": [10, 11],
            "alpha": 5.0, "trials": 1000, "seed": 42,
        }
        assert DesignProblem.from_json_dict(data) == p

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            DesignProblem.from_json_dict({"n": 8, "message": [1], "interferer": [], "alpha": 1, "x": 2})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            DesignProblem.from_json_dict({"n": 8, "message": [1], "alpha": 1})

    def test_score_kind_aliases(self):
        assert ScoreKind.from_string("power") is ScoreKind.MESSAGE_POWER
        assert ScoreKind.from_string("rho") is ScoreKind.REJECTION_RATIO
        assert ScoreKind.from_string("RejectionRatio") is ScoreKind.REJECTION_RATIO
        with pytest.raises(ValueError):
            ScoreKind.from_string("bogus")

    def test_sequence_line(self):
        assert sequence_line(np.array([1, -1, 1])) == "1 -1 1"


def naive_metrics(p, s):
    """Metrics of one row by the naive DFT and the documented null rules."""
    tol = 1e-12 * math.sqrt(p.n)
    msg = np.array([naive_magnitude(s, k) for k in p.message])
    intf = np.array([naive_magnitude(s, k) for k in p.interferer])
    g = float(np.sum(intf**2))
    max_i = float(intf.max()) if intf.size else 0.0
    if max_i <= tol:
        rho = math.inf if msg.min() > tol else 0.0
    else:
        rho = msg.min() / max_i
    chi = 0.0 if msg.max() <= tol else msg.min() / msg.max()
    return float(np.sum(msg**2)), g, rho, chi


class TestBandMetrics:
    @pytest.mark.parametrize(
        "n, message, interferer",
        [(16, (2, 3), (6, 7)), (15, (1, 4, 7), (10, 11)), (64, tuple(range(10, 20)), (30, 31))],
    )
    def test_rows_match_metric_bundle(self, n, message, interferer):
        p = make_problem(n, message, interferer, alpha=2.0)
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 2, (40, n)) * 2.0 - 1.0
        unimodular = np.exp(2j * np.pi * rng.random((40, n)))
        for block in (rows, unimodular):
            metrics = band_metrics(p, block)
            for i, s in enumerate(block):
                b = metric_bundle(p, s)
                for name in ("message_power", "interferer_power", "rejection_ratio",
                             "reciprocal_dynamic_range"):
                    assert getattr(metrics, name)[i] == pytest.approx(
                        getattr(b, name), rel=1e-12, abs=1e-12
                    )
                assert metrics.feasible[i] == b.feasible

    @pytest.mark.parametrize(
        "n, message, interferer",
        [
            (8, (0,), (4,)),  # DC message, Nyquist interferer
            (8, (4,), (0, 1)),  # Nyquist message
            (8, (1, 3), ()),  # empty interferer band
            (9, (2, 4), (1,)),  # odd n
            (16, (2, 3), (6, 7)),  # the constant row nulls the message (0/0)
        ],
    )
    def test_edge_bins_match_naive_dft(self, n, message, interferer):
        p = make_problem(n, message, interferer)
        rng = np.random.default_rng(n)
        signs = np.vstack(
            [np.ones(n), np.resize([1.0, -1.0], n), rng.integers(0, 2, (20, n)) * 2.0 - 1.0]
        )
        unimodular = np.exp(2j * np.pi * rng.random((5, n)))
        for block in (signs, unimodular):
            metrics = band_metrics(p, block)
            for i, s in enumerate(block):
                # F_k^H s with F_k = exp(-2j pi k i / n) / sqrt(n) has the
                # magnitude of the naive transform of conj(s) at bin k
                f, g, rho, chi = naive_metrics(p, s.conj())
                assert metrics.message_power[i] == pytest.approx(f, abs=1e-12)
                assert metrics.interferer_power[i] == pytest.approx(g, abs=1e-12)
                assert metrics.rejection_ratio[i] == pytest.approx(rho, rel=1e-9, abs=1e-12)
                assert metrics.reciprocal_dynamic_range[i] == pytest.approx(
                    chi, rel=1e-9, abs=1e-12
                )

    def test_feasibility_slack(self):
        # the constant row has interferer power 8 at DC; the slack at
        # alpha near 8 is 8e-9, so it is feasible 4e-9 below and not 2e-8 below
        ones = np.ones((1, 8))
        assert band_metrics(make_problem(8, (1,), (0,), alpha=8.0 - 4e-9), ones).feasible[0]
        assert not band_metrics(make_problem(8, (1,), (0,), alpha=8.0 - 2e-8), ones).feasible[0]

    def test_shape_and_band_errors(self):
        p = make_problem(8, (1,), (2,))
        with pytest.raises(LengthMismatchError):
            band_metrics(p, np.ones((3, 7)))
        with pytest.raises(LengthMismatchError):
            band_metrics(p, np.ones(8))
        with pytest.raises(EmptyMessageError):
            band_metrics(make_problem(8, (), (2,)), np.ones((1, 8)))
        with pytest.raises(EmptyMessageError):
            metric_bundle(make_problem(8, (), (2,)), np.ones(8))


def add_bin_after_bin(sq):
    """The sum of each row of sq, its bins added one after another in band order."""
    total = np.zeros(len(sq))
    for column in sq.T:
        total = total + column
    return total


def plain_band_metrics(p, signs):
    """band_metrics by its plain expression: roots of every bin, row-wise extremes."""
    rows = np.asarray(signs)
    n_m = len(p.message)
    conj = build_partial_dft(p.n, p.message.indices + p.interferer.indices).conj()
    n_bins = conj.shape[1]
    basis = np.hstack([conj.real, conj.imag])
    if np.iscomplexobj(rows):
        y = np.vstack([rows.real, rows.imag]) @ basis
        y_re, y_im = y[: len(rows)], y[len(rows) :]
        re = y_re[:, :n_bins] - y_im[:, n_bins:]
        im = y_re[:, n_bins:] + y_im[:, :n_bins]
    else:
        y = (np.vstack([rows, rows]) if len(rows) == 1 else rows) @ basis
        re, im = y[: len(rows), :n_bins], y[: len(rows), n_bins:]
    sq = re**2 + im**2
    mags = np.sqrt(sq)
    mag_m, mag_i = mags[:, :n_m], mags[:, n_m:]
    tol = null_tolerance(p.n)
    min_m = mag_m.min(axis=1)
    max_m = mag_m.max(axis=1)
    max_i = mag_i.max(axis=1, initial=0.0)
    null_i = max_i <= tol
    null_m = max_m <= tol
    rho = np.where(
        null_i, np.where(min_m > tol, np.inf, 0.0), min_m / np.where(null_i, 1.0, max_i)
    )
    g = add_bin_after_bin(sq[:, n_m:])
    return BandMetrics(
        message_power=add_bin_after_bin(sq[:, :n_m]),
        interferer_power=g,
        rejection_ratio=rho,
        reciprocal_dynamic_range=np.where(null_m, 0.0, min_m / np.where(null_m, 1.0, max_m)),
        feasible=g <= p.alpha + 1e-9 * max(1.0, p.alpha),
    )


def assert_bitwise(actual, expected):
    """Equal dtype, shape and bytes, so -0.0 and NaN payloads count too."""
    a, b = np.asarray(actual), np.asarray(expected)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestBandMetricsLeavesInput:
    def test_input_bytes_unchanged(self):
        # band_metrics squares its own product in place, never its input
        p = make_problem(64, tuple(range(10, 20)), (30, 31), alpha=2.0)
        rng = np.random.default_rng(3)
        block = rng.integers(0, 2, (40, 64)) * 2.0 - 1.0
        unimodular = np.exp(2j * np.pi * rng.random((40, 64)))
        for rows in (block, block[:1].copy(), unimodular):
            before = rows.tobytes()
            band_metrics(p, rows)
            assert rows.tobytes() == before


class TestBandMetricsExactness:
    # bands wider than 8 bins: there a sum in another order changes bits
    @pytest.mark.parametrize(
        "n, message, interferer",
        [
            (16, (2, 3), (6, 7)),
            (16, tuple(range(1, 7)), tuple(range(8, 16))),
            (64, (12, 13, 14, 20, 21, 22), (5, 6, 7, 25, 26, 27)),  # the README problem
            (64, tuple(range(10, 28)), tuple(range(30, 60))),
            (256, tuple(range(20, 68)), tuple(range(100, 140))),
            (64, tuple(range(3, 40)), ()),
            # bands of 7, 8, 9, 16, 17, 129 and over 256 bins, where numpy's
            # pairwise sum of a contiguous row would change its order
            (64, tuple(range(1, 8)), tuple(range(20, 28))),
            (64, tuple(range(1, 10)), tuple(range(20, 36))),
            (320, tuple(range(1, 18)), tuple(range(30, 159))),
            (640, tuple(range(10, 280)), tuple(range(300, 561))),
        ],
    )
    def test_blocks_match_plain_kernel(self, n, message, interferer):
        p = make_problem(n, message, interferer, alpha=float(len(interferer)))
        rng = np.random.default_rng(n + len(message))
        alternating = np.resize([1.0, -1.0], n)
        signs = np.vstack([np.ones(n), alternating, rng.integers(0, 2, (300, n)) * 2.0 - 1.0])
        unimodular = np.exp(2j * np.pi * rng.random((40, n)))
        for block in (signs, unimodular, signs[2:3], unimodular[:1]):
            actual, expected = band_metrics(p, block), plain_band_metrics(p, block)
            for f in fields(BandMetrics):
                assert_bitwise(getattr(actual, f.name), getattr(expected, f.name))

    def test_power_sums_add_bin_after_bin(self):
        # every band width from 1 to 300, past 8, 128 and 256 bins, where
        # numpy's pairwise sum of a contiguous row changes its order: of
        # 301 bins, the message band takes the first w
        n, bins = 320, 301
        rng = np.random.default_rng(29)
        block = rng.integers(0, 2, (40, n)) * 2.0 - 1.0
        unimodular = np.exp(2j * np.pi * rng.random((1, n)))
        for w in range(1, bins):
            p = make_problem(n, tuple(range(1, 1 + w)), tuple(range(1 + w, 1 + bins)))
            # one basis for the kernel and the reference: building it per
            # call would take most of the time
            basis = _scoring_basis(p)
            # the products of plain_band_metrics, a lone row in two rows
            y = block @ basis
            y_lone = np.vstack([block[:1], block[:1]]) @ basis
            y_uni = np.vstack([unimodular.real, unimodular.imag]) @ basis
            cases = [
                (block, y[:, :bins] ** 2 + y[:, bins:] ** 2),
                (block[:1], y_lone[:1, :bins] ** 2 + y_lone[:1, bins:] ** 2),
                (unimodular, (y_uni[:1, :bins] - y_uni[1:, bins:]) ** 2
                 + (y_uni[:1, bins:] + y_uni[1:, :bins]) ** 2),
            ]
            for rows, sq in cases:
                actual = _block_metrics(p, basis, rows)
                assert_bitwise(actual.message_power, add_bin_after_bin(sq[:, :w]))
                assert_bitwise(actual.interferer_power, add_bin_after_bin(sq[:, w:]))

    @pytest.mark.parametrize(
        "n, message, interferer",
        [
            (16, (2, 3), (6, 7)),  # the all-ones row nulls both bands (0/0)
            (16, (8,), (1, 2, 3)),  # the alternating row is a perfect notch
            (16, tuple(range(1, 12)), ()),  # empty interferer band
            (64, tuple(range(10, 28)), tuple(range(30, 60))),
            (256, tuple(range(20, 68)), tuple(range(100, 140))),
        ],
    )
    def test_single_rows_match_plain_kernel(self, n, message, interferer):
        p = make_problem(n, message, interferer, alpha=2.0)
        rng = np.random.default_rng(n)
        rows = [np.ones(n), np.resize([1.0, -1.0], n), rng.integers(0, 2, n) * 2.0 - 1.0,
                np.exp(2j * np.pi * rng.random(n))]
        for s in rows:
            actual = metric_bundle(p, s)
            expected = plain_band_metrics(p, np.vstack([s])).row(0)
            for f in fields(MetricBundle):
                assert_bitwise(getattr(actual, f.name), getattr(expected, f.name))


def tracemalloc_peak(build):
    """Bytes build() holds at its peak, beyond what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestScoringBasis:
    @pytest.mark.parametrize(
        "n, message, interferer",
        [
            (16, (2, 3), (6, 7)),
            (64, tuple(range(0, 32)), tuple(range(32, 64))),  # one whole chunk of columns
            (200, tuple(range(1, 65)), tuple(range(70, 134))),  # two whole chunks
            (256, tuple(range(20, 68)), tuple(range(100, 148))),  # 96 bins: a part chunk
            (640, tuple(range(10, 280)), tuple(range(300, 561))),
            (9, (0, 4), ()),
        ],
    )
    def test_equals_unchunked_expression(self, n, message, interferer):
        p = make_problem(n, message, interferer)
        conj = build_partial_dft(n, message + interferer).conj()
        assert_bitwise(_scoring_basis(p), np.hstack([conj.real, conj.imag]))

    def test_peak_within_budget(self):
        # the paper layout scaled to n=4096: a 50.3 MB basis of 768 bins
        # peaks at 63.0 MB built a chunk of columns at a time, and at
        # 100.7 MB built from all columns at once
        p = make_problem(4096, tuple(range(800, 992)) + tuple(range(1280, 1472)),
                         tuple(range(320, 512)) + tuple(range(1600, 1792)), alpha=160.0)
        assert tracemalloc_peak(lambda: _scoring_basis(p)) <= 72e6
