import numpy as np
import pytest

from specseq import BandSpec, build_partial_dft, gram


class TestPartialDft:
    def test_dc_column(self):
        basis = build_partial_dft(4, BandSpec((0,)))
        assert np.allclose(basis.columns[:, 0], 0.5 * np.ones(4))

    def test_nyquist_column(self):
        basis = build_partial_dft(4, BandSpec((2,)))
        assert np.allclose(basis.columns[:, 0], 0.5 * np.array([1, -1, 1, -1]))

    def test_columns_unit_norm_and_orthogonal(self):
        basis = build_partial_dft(8, BandSpec((1, 3)))
        g = basis.columns.conj().T @ basis.columns
        assert abs(g[0, 0] - 1) < 1e-12 and abs(g[1, 1] - 1) < 1e-12
        assert abs(g[0, 1]) < 1e-12

    def test_out_of_range_band(self):
        with pytest.raises(IndexError):
            build_partial_dft(4, BandSpec((4,)))


class TestGram:
    def test_dc_gram_is_constant_quarter(self):
        g = gram(build_partial_dft(4, BandSpec((0,))))
        assert np.allclose(g.values, 0.25 * np.ones((4, 4)))

    def test_empty_band_gives_zero_matrix(self):
        g = gram(build_partial_dft(4, BandSpec(())))
        assert g.values.shape == (4, 4)
        assert np.all(g.values == 0.0)

    def test_quadratic_form_identity(self):
        basis = build_partial_dft(16, BandSpec((3, 5)))
        g = gram(basis).values
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(16)
            direct = np.sum(np.abs(basis.columns.conj().T @ x) ** 2)
            assert x @ g @ x == pytest.approx(direct, rel=1e-10)

    def test_symmetry_exact(self):
        g = gram(build_partial_dft(12, BandSpec((1, 4, 5)))).values
        assert np.array_equal(g, g.T)

    def test_partition_sums_to_identity(self):
        n = 12
        bands = (BandSpec((0, 1, 2, 3)), BandSpec((4, 5, 6, 7)), BandSpec((8, 9, 10, 11)))
        total = sum(gram(build_partial_dft(n, b)).values for b in bands)
        assert np.allclose(total, np.eye(n), atol=1e-12)

    def test_psd_on_random_vectors(self):
        g = gram(build_partial_dft(16, BandSpec((2, 7, 9)))).values
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(16)
            assert x @ g @ x >= -1e-10 * (x @ x)


class TestEigh:
    """Eigenstructure of band Gram matrices."""

    def test_gram_rank_bound(self):
        for band in ((1, 3), (2, 5, 7), (0, 4)):
            g = gram(build_partial_dft(16, BandSpec(band))).values
            assert np.linalg.matrix_rank(g) <= min(16, 2 * len(band))
