import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specseq import (
    BandSpec,
    DesignProblem,
    InfeasibleRelaxationError,
    build_partial_dft,
    halved_constraint_optimum,
    metric_bundle,
    quantized_principal_eigenvector,
    solve_relaxation,
)
from specseq.sdp import _bin_weights, _certificate, circulant


def make_problem(n, message, interferer, alpha, seed=0):
    return DesignProblem(n, BandSpec(message), BandSpec(interferer), alpha, 10, seed)


def dense_gram(n, band):
    """Re(C C^H) over the band's partial DFT columns C, symmetrized."""
    c = build_partial_dft(n, band)
    g = np.real(c @ c.conj().T)
    return (g + g.T) / 2.0


def dense_kkt(matrix, a_m, a_i, lam, bound, alpha):
    """Dense reference certificate of a candidate S against Gram matrices A_M, A_I.

    Max of the diagonal violation, the bound violation, the most negative
    eigenvalue of S, dual stationarity (largest eigenvalue of
    A_M - lam*A_I - Diag(nu), nu recovered from S, over the norm of
    A_M - lam*A_I) and complementary slackness.
    """
    atil = a_m - lam * a_i
    nu = np.sum(atil * matrix, axis=1)  # (atil @ matrix) diagonal, matrix symmetric
    eig_dual = np.linalg.eigvalsh(atil - np.diag(nu))
    stationarity = max(0.0, float(eig_dual[-1])) / max(1.0, float(np.linalg.norm(atil)))
    eig_primal = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    min_eig_violation = max(0.0, -float(eig_primal[0]))
    diag_violation = float(np.max(np.abs(np.diag(matrix) - 1.0)))
    itrace = float(np.sum(a_i * matrix))
    ineq_violation = max(0.0, itrace - bound)
    slackness = lam * abs(itrace - bound) / max(1.0, alpha)
    return max(diag_violation, ineq_violation, min_eig_violation, stationarity, slackness)


def assert_dense_reference_agrees(p, sol):
    """The dense certificate of S and its dense traces against the O(n) values."""
    a_m, a_i = dense_gram(p.n, p.message), dense_gram(p.n, p.interferer)
    matrix = circulant(sol.spectrum)
    kkt = dense_kkt(matrix, a_m, a_i, sol.dual_multiplier, p.alpha / 2, p.alpha)
    assert kkt <= 1e-9
    for dense, stored in ((np.sum(a_m * matrix), sol.objective),
                          (np.sum(a_i * matrix), sol.interferer_trace)):
        assert abs(dense - stored) <= 1e-12 * max(1.0, abs(stored))


def random_config(rng, n=12, widths=(3, 3)):
    bins = rng.permutation(n)
    msg = tuple(int(b) for b in bins[: widths[0]])
    intf = tuple(int(b) for b in bins[widths[0] : widths[0] + widths[1]])
    s = rng.integers(0, 2, n) * 2 - 1
    probe = make_problem(n, msg, intf, 0.0)
    alpha = max(0.5, 2.0 * metric_bundle(probe, s).interferer_power)
    return make_problem(n, msg, intf, alpha)


class TestSolveRelaxation:
    def test_dc_unconstrained(self):
        p = make_problem(4, (0,), (), 1.0)
        sol = solve_relaxation(p)
        assert sol.objective == pytest.approx(4.0, abs=1e-6)
        assert np.abs(circulant(sol.spectrum) - 1.0).max() < 1e-5
        assert sol.dual_multiplier == 0.0
        assert sol.interferer_trace == 0.0

    def test_solution_invariants(self):
        p = make_problem(16, (2, 3, 4), (6, 7), 1.5)
        sol = solve_relaxation(p)
        matrix = circulant(sol.spectrum)
        assert np.abs(np.diag(matrix) - 1).max() <= 10 * 1e-6
        assert sol.interferer_trace <= p.alpha / 2 + 10 * 1e-6
        assert np.linalg.eigvalsh(matrix).min() >= -10 * 1e-6
        recon = np.linalg.norm(sol.factor @ sol.factor.T - matrix)
        assert recon <= 1e-6 * np.linalg.norm(matrix)
        assert np.abs(matrix).max() <= 1.0 + 1e-8
        assert sol.kkt_residual <= 1e-5
        gram_check = sol.factor.T @ sol.factor
        off = gram_check - np.diag(np.diag(gram_check))
        assert np.abs(off).max() <= 1e-8

    def test_relaxation_dominates_halved_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            p = random_config(rng)
            sol = solve_relaxation(p)
            halved = halved_constraint_optimum(p)
            assert halved <= sol.objective + 1e-4
            assert sol.kkt_residual <= 1e-5

    def test_degenerate_face_blend(self):
        # interferer span contains the message span: the interferer trace
        # jumps at the critical multiplier and the optimum needs a blend
        p = make_problem(12, (1, 2), (5, 10, 11), 3.0)
        sol = solve_relaxation(p)
        assert sol.objective == pytest.approx(1.5, abs=1e-4)
        assert sol.interferer_trace <= 1.5 + 1e-5
        assert sol.kkt_residual <= 1e-5
        assert halved_constraint_optimum(p) <= sol.objective + 1e-4

    def test_deterministic_bitwise(self):
        p = make_problem(12, (1, 2, 3), (6, 7), 1.0)
        a = solve_relaxation(p)
        b = solve_relaxation(p)
        assert np.array_equal(a.spectrum, b.spectrum)
        assert np.array_equal(a.factor, b.factor)
        assert a.objective == b.objective
        assert a.dual_multiplier == b.dual_multiplier

    def test_empty_interferer(self):
        p = make_problem(8, (1, 2), (), 1.0)
        sol = solve_relaxation(p)
        assert sol.interferer_trace == 0.0
        assert sol.dual_multiplier == 0.0
        assert sol.objective == pytest.approx(4.0, abs=1e-5)

    def test_message_bin_mirrored_in_interferer(self):
        # |X_1| == |X_7| for real x, so message bin 1 and interferer bin 7
        # carry the same power; the optimum puts mass 2 on bins {1, 7},
        # where both weights are 1/2, and the bound binds
        p = make_problem(8, (1,), (7,), 2.0)
        sol = solve_relaxation(p)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sol.dual_multiplier == 1.0
        for bits in itertools.product((-1, 1), repeat=8):
            m = metric_bundle(p, np.array(bits))
            assert m.message_power == pytest.approx(m.interferer_power, rel=1e-12, abs=1e-12)

    def test_matrix_circulant_with_unit_diagonal(self):
        p = make_problem(16, (2, 3, 4), (6, 7), 1.5)
        s = circulant(solve_relaxation(p).spectrum)
        assert np.array_equal(np.diag(s), np.ones(16))
        assert np.array_equal(s, s.T)
        assert np.array_equal(s, np.roll(s, (1, 1), axis=(0, 1)))

    @pytest.mark.parametrize("n", [7, 8])
    def test_factor_columns_in_canonical_order(self, n):
        # every bin but DC carries mass n/(n-1); columns go by descending
        # eigenvalue, then bin, then cos before sin, and DC, with no mass,
        # has no column; only even n has a Nyquist column
        p = make_problem(n, tuple(range(1, n)), (), 1.0)
        sol = solve_relaxation(p)
        j = np.arange(n)
        q = n / (n - 1)
        expected = []
        for k in range(1, n // 2 + 1):
            if 2 * k == n:
                expected.append(np.sqrt(q / n) * np.cos(np.pi * j))
            else:
                expected.append(np.sqrt(2 * q / n) * np.cos(2 * np.pi * k * j / n))
                expected.append(np.sqrt(2 * q / n) * np.sin(2 * np.pi * k * j / n))
        assert sol.factor.shape == (n, n - 1)
        assert np.abs(sol.factor - np.column_stack(expected)).max() <= 1e-12

    def test_quarter_period_zeros_quantize_to_plus_one(self):
        # the lead column is cos(pi j / 2): its zeros are exact, so the
        # documented rule maps them to +1
        p = make_problem(8, (2,), (), 1.0)
        sol = solve_relaxation(p)
        assert np.array_equal(sol.factor[:, 0], [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0])
        cand = quantized_principal_eigenvector(p, sol)
        assert np.array_equal(cand.sequence, [1, 1, -1, 1, 1, 1, -1, 1])

    @pytest.mark.parametrize("n, message, interferer, alpha", [
        (12, (1, 2), (5, 10, 11), 3.0),  # blend of two classes, bins 5 and 7 empty
        (8, (1,), (0, 4, 7), 2.0),  # DC and Nyquist with mass
        (15, (1, 2, 3), (5, 6), 40.0),  # odd n, lambda=0 branch
        (64, tuple(range(12, 15)) + tuple(range(20, 23)),
         tuple(range(5, 8)) + tuple(range(25, 28)), 5.0),
    ])
    def test_factor_holds_only_live_columns(self, n, message, interferer, alpha):
        sol = solve_relaxation(make_problem(n, message, interferer, alpha))
        assert np.all(np.any(sol.factor != 0.0, axis=0))
        # one column per bin with mass: q_k and q_(n-k) share a cos and a sin
        assert sol.factor.shape[1] == np.count_nonzero(sol.spectrum)
        assert np.abs(sol.factor @ sol.factor.T - circulant(sol.spectrum)).max() <= 1e-12

    def test_solve_never_forms_dense_s(self):
        # at n=4096 one n x n float array is 128 MiB; the factor of the
        # paper layout has 768 columns
        n, s = 4096, 4096 // 64
        p = make_problem(
            n, tuple(range(12 * s, 15 * s)) + tuple(range(20 * s, 23 * s)),
            tuple(range(5 * s, 8 * s)) + tuple(range(25 * s, 28 * s)), 160.0,
        )
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sol = solve_relaxation(p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert sol.factor.shape == (n, 768)
        assert peak < 128 * 2**20

    def test_rank_counts_bins_with_mass(self):
        # mass 3/4 on bins {1, 2, 10, 11}, 3/2 on the six bins outside
        # both bands and their mirrors, none on bins {5, 7}
        p = make_problem(12, (1, 2), (5, 10, 11), 3.0)
        assert solve_relaxation(p).factor.shape[1] == 10
        assert solve_relaxation(make_problem(4, (0,), (), 1.0)).factor.shape[1] == 1


class TestDualBisection:
    """The multiplier of the halved interferer bound and the infeasible case."""

    def test_huge_alpha_takes_zero_branch(self):
        p = make_problem(8, (1, 2), (3, 4), alpha=2.0 * 2 * 8)
        sol = solve_relaxation(p)
        assert sol.dual_multiplier == 0
        assert sol.interferer_trace <= p.alpha / 2

    def test_trace_monotone_in_multiplier(self):
        # raising alpha lowers the multiplier; the objective never falls,
        # and the interferer trace rises as the multiplier falls
        objectives, traces, multipliers = [], [], []
        for alpha in np.linspace(0.0, 10.0, 21):
            p = make_problem(8, (1, 2), (0, 3, 6, 7), alpha)
            sol = solve_relaxation(p)
            assert sol.interferer_trace <= alpha / 2 + 1e-12
            objectives.append(sol.objective)
            traces.append(sol.interferer_trace)
            multipliers.append(sol.dual_multiplier)
        assert np.all(np.diff(objectives) >= -1e-12)
        assert np.all(np.diff(traces) >= -1e-12)
        assert np.all(np.diff(multipliers) <= 0.0)
        assert multipliers[0] > 0.0 and multipliers[-1] == 0.0

    def test_infeasible_detected(self):
        # interferer covering every conjugate pair leaves no null space,
        # so the interferer trace has the floor n * min_k b_k = 8 * 1/2
        p = make_problem(8, (5,), (0, 1, 2, 3, 4), alpha=0.0)
        with pytest.raises(InfeasibleRelaxationError):
            solve_relaxation(p)
        sol = solve_relaxation(replace(p, alpha=8.0))
        assert sol.interferer_trace == pytest.approx(4.0, abs=1e-12)
        with pytest.raises(InfeasibleRelaxationError):
            solve_relaxation(replace(p, alpha=float(np.nextafter(8.0, 0.0))))


class TestKktResiduals:
    """The O(n) weak-duality certificate, and the dense reference it replaces."""

    def test_exact_rank_one_dc_solution(self):
        p = make_problem(4, (0,), (), 1.0)
        a, b = _bin_weights(4, p.message), _bin_weights(4, p.interferer)
        exact = np.array([4.0, 0.0, 0.0, 0.0])  # S = all ones
        assert _certificate(a, b, exact, 0.0, p.alpha / 2, p.alpha) <= 1e-10
        a_m, a_i = dense_gram(4, p.message), dense_gram(4, p.interferer)
        assert dense_kkt(np.ones((4, 4)), a_m, a_i, 0.0, p.alpha / 2, p.alpha) <= 1e-10

    def test_perturbed_diagonal_flagged(self):
        # optimum: mass 3 on bins {1, 5}, multiplier 0, objective 3
        p = make_problem(6, (1,), (2,), 1.0)
        sol = solve_relaxation(p)
        a, b = _bin_weights(6, p.message), _bin_weights(6, p.interferer)
        q, lam = sol.spectrum, sol.dual_multiplier
        bound = p.alpha / 2

        def certificate(q, lam):
            return _certificate(a, b, q, lam, bound, p.alpha)

        assert certificate(q, lam) <= 1e-12
        assert certificate(1.2 * q, lam) >= 0.1  # unit diagonal broken: S_ii = 1.2
        off = q.copy()
        off[1] -= 1.0
        off[0] += 1.0  # mass moved off the optimum onto a bin of weight 0
        assert certificate(off, lam) >= 0.1
        assert certificate(q, 1.0) >= 0.1  # wrong multiplier
        bad = circulant(sol.spectrum)
        bad[0, 0] = 1.1
        a_m, a_i = dense_gram(6, p.message), dense_gram(6, p.interferer)
        assert dense_kkt(bad, a_m, a_i, lam, bound, p.alpha) >= 0.1

    def test_recompute_matches_stored(self):
        p = make_problem(12, (1, 2), (5, 10, 11), 3.0)
        sol = solve_relaxation(p)
        a, b = _bin_weights(12, p.message), _bin_weights(12, p.interferer)
        again = _certificate(a, b, sol.spectrum, sol.dual_multiplier, p.alpha / 2, p.alpha)
        assert again == pytest.approx(sol.kkt_residual, rel=1e-9, abs=1e-12)

    def test_converged_n64(self):
        p = make_problem(
            64, tuple(range(12, 15)) + tuple(range(20, 23)),
            tuple(range(5, 8)) + tuple(range(25, 28)), 5.0,
        )
        sol = solve_relaxation(p)
        assert sol.kkt_residual <= 1e-5

    @pytest.mark.parametrize(
        "n, message, interferer", [(16, (1, 2), (5, 6)), (8, (1,), (7,))]
    )
    def test_infinite_alpha_certified(self, n, message, interferer):
        # the multiplier is 0, so its terms must not turn into 0 * inf = NaN
        sol = solve_relaxation(make_problem(n, message, interferer, float("inf")))
        assert sol.dual_multiplier == 0.0
        assert np.isfinite(sol.kkt_residual) and sol.kkt_residual <= 1e-5

    def test_dense_reference_on_paper_layout(self):
        p = make_problem(
            64, tuple(range(12, 15)) + tuple(range(20, 23)),
            tuple(range(5, 8)) + tuple(range(25, 28)), 5.0,
        )
        assert_dense_reference_agrees(p, solve_relaxation(p))


def _interferer_floor(p):
    """n * min_k b_k, b_k the half-count of bins k and n-k in the interferer band."""
    band = set(p.interferer)
    return p.n * min(((k in band) + ((p.n - k) % p.n in band)) / 2 for k in range(p.n))


@st.composite
def problems(draw):
    n = draw(st.integers(2, 12))
    labels = draw(st.lists(st.sampled_from("mi."), min_size=n, max_size=n).filter(
        lambda labels: "m" in labels))
    message = tuple(k for k, c in enumerate(labels) if c == "m")
    interferer = tuple(k for k, c in enumerate(labels) if c == "i")
    return make_problem(n, message, interferer, draw(st.floats(0.0, float(n))))


class TestClosedFormProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=problems())
    @example(p=make_problem(8, (0,), (4,), 1.0))  # DC message, Nyquist interferer
    @example(p=make_problem(6, (3,), (), 0.0))  # Nyquist message, no interferer, alpha 0
    @example(p=make_problem(7, (2, 3), (4, 5), 2.5))  # odd n, both bins mirrored
    @example(p=make_problem(8, (5,), (0, 1, 2, 3, 4), 8.0))  # alpha/2 at the floor
    def test_certified_and_dominates_oracle(self, p):
        if _interferer_floor(p) > p.alpha / 2:
            with pytest.raises(InfeasibleRelaxationError):
                solve_relaxation(p)
            return
        sol = solve_relaxation(p)
        assert sol.kkt_residual <= 1e-9
        assert sol.interferer_trace <= p.alpha / 2 + 1e-12
        assert sol.objective >= halved_constraint_optimum(p) - 1e-9
        assert_dense_reference_agrees(p, sol)
