"""Partial DFT bases and real Gram matrices.

All downstream optimization works with the real symmetric Gram matrix
Re(F F^H) of a band: for real x, x^T Re(F F^H) x equals ||F^H x||^2
exactly, so the lifted program stays a real symmetric one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .problem import BandSpec


@dataclass(frozen=True)
class PartialDftBasis:
    """Unit-norm DFT columns for a band: entry (i, k) = exp(-2j*pi*k_band*i/n)/sqrt(n)."""

    n: int
    band: "BandSpec"
    columns: np.ndarray


@dataclass(frozen=True)
class GramMatrix:
    """Real symmetric PSD matrix Re(F F^H) realizing a band's quadratic form."""

    n: int
    values: np.ndarray


def build_partial_dft(n: int, band) -> PartialDftBasis:
    """Build the n x |band| matrix of unit-norm DFT columns for the band bins."""
    bins = np.asarray(tuple(band), dtype=np.intp)
    if bins.size and (bins.min() < 0 or bins.max() >= n):
        raise IndexError(f"band {tuple(band)} out of range for n={n}")
    i = np.arange(n)[:, None]
    columns = np.exp(-2j * np.pi * i * bins[None, :] / n) / np.sqrt(n)
    return PartialDftBasis(n=n, band=band, columns=columns)


def gram(basis: PartialDftBasis) -> GramMatrix:
    """Real part of F F^H, symmetrized so G[i, j] == G[j, i] exactly."""
    c = basis.columns
    g = np.real(c @ c.conj().T)
    g = (g + g.T) / 2.0
    return GramMatrix(n=basis.n, values=g)
