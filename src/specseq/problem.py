"""Design problems, binary sequences, and their quality metrics.

A design problem asks for a length-n sequence with entries in {-1, +1}
whose spectrum is large over a set of message bins and whose total power
over a disjoint set of interferer bins stays below a tolerance alpha.
All metrics are computed by one vectorized kernel, band_metrics, over a
block of sequences; metric_bundle reads its single-row case.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .errors import EmptyMessageError, LengthMismatchError, OverlapError


def json_int(data: dict, name: str, default=None) -> int:
    """data[name], or default when absent, if it is a JSON integer (true and false are not)."""
    value = data.get(name, default)
    if type(value) is not int:
        raise ValueError(f"field {name!r} must be an integer: {value!r}")
    return value


def json_number(data: dict, name: str) -> float:
    """data[name] as a float, if it is a JSON number (true and false are not)."""
    value = data[name]
    if type(value) not in (int, float):
        raise ValueError(f"field {name!r} must be a number: {value!r}")
    return float(value)


@dataclass(frozen=True)
class BandSpec:
    """An ordered set of 0-based frequency bins."""

    indices: tuple

    def __post_init__(self):
        for k in self.indices:
            if isinstance(k, (bool, np.bool_)) or not isinstance(k, numbers.Integral):
                raise ValueError(f"frequency bin must be an integer: {k!r}")
        idx = tuple(int(k) for k in self.indices)
        if any(k < 0 for k in idx):
            raise IndexError(f"negative frequency bin in {idx}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate frequency bins in {idx}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)


@dataclass(frozen=True)
class DesignProblem:
    """Problem data: length, bands, interferer tolerance, trial budget, seed.

    Checked when built, whether by the constructor, dataclasses.replace or
    from_json_dict, so no stage checks it again. Raises OverlapError if
    the bands intersect, IndexError if any bin falls outside [0, n),
    EmptyMessageError if the message band is empty, and ValueError for
    non-positive sizes or a negative or NaN tolerance. A message bin k
    whose mirror n-k is an interferer bin is accepted: a real sequence
    has |X_k| == |X_(n-k)|, so that pair puts equal power into both
    bands, and the relaxation prices it through the bound.
    """

    n: int
    message: BandSpec
    interferer: BandSpec
    alpha: float
    trials: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sequence length must be positive, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trial count must be positive, got {self.trials}")
        if not self.alpha >= 0:  # NaN fails this too
            raise ValueError(f"interferer tolerance must be nonnegative, got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if len(self.message) == 0:
            raise EmptyMessageError("message band is empty")
        for band in (self.message, self.interferer):
            for k in band:
                if k >= self.n:
                    raise IndexError(f"frequency bin {k} out of range for n={self.n}")
        common = set(self.message.indices) & set(self.interferer.indices)
        if common:
            raise OverlapError(f"bands overlap at bins {sorted(common)}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "DesignProblem":
        if not isinstance(data, dict):
            raise ValueError(f"problem must be a JSON object: {data!r}")
        known = {"n", "message", "interferer", "alpha", "trials", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown problem fields: {sorted(unknown)}")
        missing = {"n", "message", "interferer", "alpha"} - set(data)
        if missing:
            raise ValueError(f"missing problem fields: {sorted(missing)}")
        for name in ("message", "interferer"):
            # true and false are not integers
            if not isinstance(data[name], list) or any(type(v) is not int for v in data[name]):
                raise ValueError(f"problem field {name!r} must list integers: {data[name]!r}")
        return cls(
            n=json_int(data, "n"),
            message=BandSpec(tuple(data["message"])),
            interferer=BandSpec(tuple(data["interferer"])),
            alpha=json_number(data, "alpha"),
            trials=json_int(data, "trials", 10000),
            seed=json_int(data, "seed", 0),
        )


class ScoreKind(Enum):
    """Selection criterion used to pick the best candidate sequence."""

    MESSAGE_POWER = "MessagePower"
    REJECTION_RATIO = "RejectionRatio"
    RECIPROCAL_DYNAMIC_RANGE = "ReciprocalDynamicRange"

    @classmethod
    def from_string(cls, name: str) -> "ScoreKind":
        aliases = {
            "power": cls.MESSAGE_POWER,
            "rho": cls.REJECTION_RATIO,
            "chi": cls.RECIPROCAL_DYNAMIC_RANGE,
        }
        if name in aliases:
            return aliases[name]
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown score kind {name!r}")


#: the metric field each selection score reads
_SCORE_FIELDS = {
    ScoreKind.MESSAGE_POWER: "message_power",
    ScoreKind.REJECTION_RATIO: "rejection_ratio",
    ScoreKind.RECIPROCAL_DYNAMIC_RANGE: "reciprocal_dynamic_range",
}


@dataclass(frozen=True)
class MetricBundle:
    """All scalar quality metrics of one sequence against one problem."""

    message_power: float
    interferer_power: float
    rejection_ratio: float
    reciprocal_dynamic_range: float
    feasible: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def build_partial_dft(n: int, band) -> np.ndarray:
    """The n x |band| unit-norm DFT columns exp(-2j*pi*k*i/n)/sqrt(n) of the band bins k."""
    bins = np.asarray(tuple(band), dtype=np.intp)
    if bins.size and (bins.min() < 0 or bins.max() >= n):
        raise IndexError(f"band {tuple(band)} out of range for n={n}")
    i = np.arange(n)[:, None]
    return np.exp(-2j * np.pi * i * bins[None, :] / n) / np.sqrt(n)


def null_tolerance(n: int) -> float:
    """Magnitudes at or below this are exact spectral nulls up to roundoff.

    Nonzero sums of n unit phasors stay many orders of magnitude above
    this at practical lengths, so the threshold only catches true nulls.
    """
    return 1e-12 * math.sqrt(n)


@dataclass(frozen=True)
class BandMetrics:
    """Per-row metric arrays of a block of sequences, named like MetricBundle."""

    message_power: np.ndarray
    interferer_power: np.ndarray
    rejection_ratio: np.ndarray
    reciprocal_dynamic_range: np.ndarray
    feasible: np.ndarray

    def best_feasible(self, kind: ScoreKind) -> tuple:
        """(index, score) of the first feasible row with the highest score.

        The score is -inf when no row is feasible.
        """
        masked = np.where(self.feasible, getattr(self, _SCORE_FIELDS[kind]), -np.inf)
        idx = int(np.argmax(masked))
        return idx, float(masked[idx])

    def row(self, i: int) -> MetricBundle:
        """The metrics of row i, exactly as stored in the block."""
        # the fields of MetricBundle, not of self: a TrialTable also holds gamma
        return MetricBundle(
            **{f.name: getattr(self, f.name)[i].item() for f in fields(MetricBundle)}
        )


def band_metrics(p: DesignProblem, signs) -> BandMetrics:
    """All metrics of each row of a (B, n) block of sequences.

    Rows are real (+-1) or complex (unimodular baseline outputs); the
    band spectrum of a row s is F_k^H s for the unitary DFT. One real
    basis [Re C_M | Re C_I | Im C_M | Im C_I], with C the conjugated
    partial DFT columns, gives both bands in a single product. The
    squared magnitudes are laid out bins-major and every metric reduces
    over the bins; the power sums add in the order np.add.reduce adds a
    row, so each row's metrics are bitwise those of the plain row-wise
    expression on the same product.

    A row is feasible when its interferer power is at most
    alpha + 1e-9 * max(1, alpha): sequences whose exact power equals
    alpha land on either side of it by roundoff alone, so the slack
    decides them for the bound. The rejection ratio of a row whose
    interferer band is empty or nulled is +inf under a live message
    band (a perfect notch) and 0 when the message band is nulled too
    (0/0, worthless as a design); the reciprocal dynamic range of a
    nulled message band is 0.
    """
    rows = np.asarray(signs)
    if rows.ndim != 2 or rows.shape[1] != p.n:
        raise LengthMismatchError(f"expected rows of length {p.n}, got shape {rows.shape}")
    return _block_metrics(p, _scoring_basis(p), rows)


#: DFT columns that _scoring_basis builds at a time
_BASIS_COLUMNS = 64


def _scoring_basis(p: DesignProblem) -> np.ndarray:
    """The real (n, 2 * bins) basis of band_metrics, for callers that score many blocks.

    Its bits do not depend on the block, so a caller builds it once and
    passes it to _block_metrics with each block.
    """
    bins = p.message.indices + p.interferer.indices
    n_bins = len(bins)
    basis = np.empty((p.n, 2 * n_bins))
    # a few DFT columns at a time, so that the complex temporaries of
    # build_partial_dft stay small next to the basis; each entry is
    # computed alone, so the bits do not depend on the column count
    for start in range(0, n_bins, _BASIS_COLUMNS):
        stop = min(start + _BASIS_COLUMNS, n_bins)
        columns = build_partial_dft(p.n, bins[start:stop])
        basis[:, start:stop] = columns.real
        # the conjugate's imaginary part: conj() negates it exactly, as this does
        np.negative(columns.imag, out=basis[:, n_bins + start : n_bins + stop])
    return basis


def _interferer_basis(p: DesignProblem, basis: np.ndarray) -> np.ndarray:
    """The interferer columns [Re C_I | Im C_I] of _scoring_basis(p), for _may_be_feasible."""
    n_m, n_bins = len(p.message), basis.shape[1] // 2
    return np.hstack([basis[:, n_m:n_bins], basis[:, n_bins + n_m :]])


def _feasibility_bound(p: DesignProblem) -> float:
    """The largest interferer power a feasible row may have (see band_metrics)."""
    return p.alpha + 1e-9 * max(1.0, p.alpha)


def _may_be_feasible(p: DesignProblem, screen: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which rows of a real (B, n) block _block_metrics could find feasible.

    screen is _interferer_basis(p, _scoring_basis(p)). The rows' interferer
    power is taken from this narrower product, whose bits can differ from
    those of the full product in _block_metrics, so a row passes when its
    power is within the bound plus a margin that covers any summation
    order. Every basis entry is at most 1/sqrt(n) and every row entry is
    +-1, so each exact band product y has |y| <= sqrt(n), and a dot
    product of length n summed in any order is off by at most
    gamma_n * sqrt(n), gamma_n = n*u / (1 - n*u) with u = 2**-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1). Two
    computed products of one row and column differ by at most
    2 * gamma_n * sqrt(n), so their squares differ by at most about
    4 * n**2 * u, and the 2|I| real and imaginary parts of the band move g
    by at most 8 * |I| * n**2 * u. Rounding the squares and adding them,
    in any order, moves the kernel's g by at most about (|I| + 1) * u * g
    and this one's by at most about 2 * |I| * u * g, so
    |g_screen - g_kernel| <= 8 |I| n^2 u + 4 |I| u g to first order. The
    margin, 16 * |I| * n**2 * eps * max(1, bound) with eps = 2u, is at
    least four times that at g <= bound: no row the kernel finds feasible
    is turned away. Rows that pass can still be infeasible; the kernel
    decides them.
    """
    y = rows @ screen
    g = np.vecdot(y, y)
    bound = _feasibility_bound(p)
    margin = 16.0 * len(p.interferer) * float(p.n) ** 2 * np.finfo(float).eps * max(1.0, bound)
    return g <= bound + margin


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sums over axis 0 of a (k, B) array, each added as np.add.reduce adds a row of k.

    numpy sums a contiguous row pairwise: term after term below 8 terms,
    into eight interleaved accumulators combined as ((r0+r1) + (r2+r3)) +
    ((r4+r5) + (r6+r7)) and then the last k % 8 terms up to 128 terms, and
    above that the sums of the first n2 and the other k - n2 terms, n2
    being k // 2 rounded down to a multiple of 8. Here each step adds
    whole rows of B columns, so a column's sum has the bits of
    np.add.reduce over that column as one contiguous row. (numpy adds
    the result to +0.0, which changes only a sum of -0.0.)
    """
    k = len(a)
    if k < 8:
        # from +0.0, one row after another, whichever axis numpy loops over
        return np.add.reduce(a, axis=0)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _sum_rows(a[:half]) + _sum_rows(a[half:])
    full = k - k % 8
    acc = a[:8].copy()
    for i in range(8, full, 8):
        acc += a[i : i + 8]
    pairs = acc[0::2] + acc[1::2]
    total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for row in a[full:]:
        total += row
    return total


#: bytes of the squared product that _block_metrics turns bins-major in
#: one go: a slab of rows that stays in cache while it is read bin by bin
#: (the kernel's time at n=4096 with 768 bins, against one slab: -7%)
_SLAB_BYTES = 1 << 17


def _block_metrics(p: DesignProblem, basis: np.ndarray, rows: np.ndarray) -> BandMetrics:
    """band_metrics of a checked (B, n) block against _scoring_basis(p).

    The squared magnitudes go into one bins-major (bins, B) array, and
    every per-row quantity reduces over its axis 0, whose rows are long
    and contiguous. The band extremes take the root after reducing: a
    correctly rounded sqrt is monotone, so they equal the extremes of the
    roots bit for bit. The power sums add in np.add.reduce's order over a
    row (_sum_rows), so they equal the row-wise sums bit for bit.
    """
    n_m = len(p.message)
    n_bins = basis.shape[1] // 2
    if np.iscomplexobj(rows):
        y = np.vstack([rows.real, rows.imag]) @ basis
        y_re, y_im = y[: len(rows)], y[len(rows) :]
        re = y_re[:, :n_bins] - y_im[:, n_bins:]
        im = y_re[:, n_bins:] + y_im[:, :n_bins]
        np.square(re, out=re)
        np.square(im, out=im)
    else:
        # numpy hands a lone row to gemv, which sums in another order than
        # the gemm that multiplies a block; a lone row goes in as a block
        # of two so that metric_bundle scores like the blocks of run_design
        y = (np.vstack([rows, rows]) if len(rows) == 1 else rows) @ basis
        # the product is this call's own, so it is squared in place: x**2
        # is np.square, so the bits are those of re**2 + im**2
        np.square(y, out=y)
        re, im = y[: len(rows), :n_bins], y[: len(rows), n_bins:]
    # the sum is elementwise, so its bits do not depend on the layout; it
    # reads the row-major squares a slab of rows at a time, which stays in
    # cache while every bin of it is read
    by_bin = np.empty((n_bins, len(rows)))
    step = max(1, _SLAB_BYTES // (16 * n_bins))
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        np.add(re[part].T, im[part].T, out=by_bin[:, part])
    del y, re, im
    tol = null_tolerance(p.n)
    min_m = np.sqrt(np.minimum.reduce(by_bin[:n_m], axis=0))
    max_m = np.sqrt(np.maximum.reduce(by_bin[:n_m], axis=0))
    max_i = np.sqrt(np.maximum.reduce(by_bin[n_m:], axis=0, initial=0.0))
    null_i = max_i <= tol
    null_m = max_m <= tol
    rho = np.where(
        null_i, np.where(min_m > tol, np.inf, 0.0), min_m / np.where(null_i, 1.0, max_i)
    )
    g = _sum_rows(by_bin[n_m:])
    return BandMetrics(
        message_power=_sum_rows(by_bin[:n_m]),
        interferer_power=g,
        rejection_ratio=rho,
        reciprocal_dynamic_range=np.where(null_m, 0.0, min_m / np.where(null_m, 1.0, max_m)),
        feasible=g <= _feasibility_bound(p),
    )


def metric_bundle(p: DesignProblem, s) -> MetricBundle:
    """All metrics of one sequence: the single-row case of band_metrics."""
    arr = np.asarray(s)
    if arr.ndim != 1 or arr.shape[0] != p.n:
        raise LengthMismatchError(f"expected length {p.n}, got shape {arr.shape}")
    return band_metrics(p, arr[None, :]).row(0)


def sequence_line(s) -> str:
    """Render a binary sequence as one line of space-separated +-1 integers."""
    return " ".join(str(int(v)) for v in np.asarray(s))
