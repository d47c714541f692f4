"""The band Gram matrices that the relaxation and its certificate reason about.

The package never forms a band's Gram matrix A = Re(C C^H), C the
band's partial DFT columns: the solver uses its eigenvalues in the DFT
basis (sdp._bin_weights) and arcsin_trace_ratio takes traces against it
through C. These tests build A densely and check the facts both rest on.
"""

import numpy as np
import pytest

from specseq import BandSpec, build_partial_dft
from specseq.sdp import _bin_weights


def dense_gram(n, band):
    """Re(C C^H), symmetrized so G[i, j] == G[j, i] exactly."""
    c = build_partial_dft(n, band)
    g = np.real(c @ c.conj().T)
    return (g + g.T) / 2.0


def unitary_dft(n):
    """F[i, k] = exp(-2j*pi*i*k/n)/sqrt(n), built from its definition."""
    i = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(i, i) / n) / np.sqrt(n)


class TestGram:
    def test_dc_gram_is_constant_quarter(self):
        g = dense_gram(4, BandSpec((0,)))
        assert np.allclose(g, 0.25 * np.ones((4, 4)))

    def test_empty_band_gives_zero_matrix(self):
        g = dense_gram(4, BandSpec(()))
        assert g.shape == (4, 4)
        assert np.all(g == 0.0)

    def test_quadratic_form_identity(self):
        columns = build_partial_dft(16, BandSpec((3, 5)))
        g = dense_gram(16, BandSpec((3, 5)))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(16)
            direct = np.sum(np.abs(columns.conj().T @ x) ** 2)
            assert x @ g @ x == pytest.approx(direct, rel=1e-10)

    def test_symmetry_exact(self):
        g = dense_gram(12, BandSpec((1, 4, 5)))
        assert np.array_equal(g, g.T)

    def test_partition_sums_to_identity(self):
        n = 12
        bands = (BandSpec((0, 1, 2, 3)), BandSpec((4, 5, 6, 7)), BandSpec((8, 9, 10, 11)))
        total = sum(dense_gram(n, b) for b in bands)
        assert np.allclose(total, np.eye(n), atol=1e-12)

    def test_psd_on_random_vectors(self):
        g = dense_gram(16, BandSpec((2, 7, 9)))
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(16)
            assert x @ g @ x >= -1e-10 * (x @ x)

    @pytest.mark.parametrize(
        "n, band",
        [
            (1, (0,)),  # the only bin is DC
            (1, ()),  # empty band
            (7, (0, 3)),  # DC, and bin 3 without its mirror 4 (odd n: no Nyquist)
            (7, (2, 5)),  # a mirrored pair
            (8, (0, 4)),  # DC and Nyquist
            (8, (1, 7, 2)),  # a mirrored pair and an unpaired bin
            (8, ()),  # empty band
            (9, (1, 4, 8)),  # mirrored pair (1, 8) and an unpaired bin
        ],
    )
    def test_fourier_diagonal_is_bin_weights(self, n, band):
        # the fact the relaxation's certificate rests on: A = F diag(w) F^H
        # with w_k = (1[k in band] + 1[n-k in band]) / 2, by construction
        f = unitary_dft(n)
        spectral = f @ np.diag(_bin_weights(n, BandSpec(band))) @ f.conj().T
        assert np.abs(dense_gram(n, BandSpec(band)) - spectral).max() <= 1e-12


class TestEigh:
    """Eigenstructure of band Gram matrices."""

    def test_gram_rank_bound(self):
        for band in ((1, 3), (2, 5, 7), (0, 4)):
            g = dense_gram(16, BandSpec(band))
            assert np.linalg.matrix_rank(g) <= min(16, 2 * len(band))
