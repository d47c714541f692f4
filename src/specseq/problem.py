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


def _is_integer(value) -> bool:
    """Whether value is an integer, a numpy one included; true and false are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_))


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
            if not _is_integer(k):
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
    EmptyMessageError if the message band is empty, and ValueError for a
    length, trial count or seed that is not an integer (a numpy one is
    stored as int, a bool is rejected), non-positive sizes, a seed outside
    64 bits or a negative or NaN tolerance. A message bin k whose mirror
    n-k is an interferer bin is accepted: a real sequence has |X_k| ==
    |X_(n-k)|, so that pair puts equal power into both bands, and the
    relaxation prices it through the bound.
    """

    n: int
    message: BandSpec
    interferer: BandSpec
    alpha: float
    trials: int = 10000
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "trials", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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
    over the bins; the power sums add bin after bin in band order.

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


def _feasibility_bound(p: DesignProblem) -> float:
    """The largest interferer power a feasible row may have (see band_metrics)."""
    return p.alpha + 1e-9 * max(1.0, p.alpha)


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
    roots bit for bit. The power sums add bin after bin in band order.

    A lone row is scored as a block of two equal rows, its metrics sliced
    back to one row: numpy would hand a (1, n) product to gemv, not gemm,
    and reduce a (bins, 1) array pairwise, not bin after bin. This gives
    a lone row the product shape of the plain expression, not the bits
    of the same row inside a larger block (BLAS picks its kernels by
    shape), which is why a design's winner keeps its block row's metrics.
    """
    n_m = len(p.message)
    n_bins = basis.shape[1] // 2
    lone = len(rows) == 1
    if np.iscomplexobj(rows):
        y = np.vstack([rows.real, rows.imag]) @ basis
        y_re, y_im = (y[[0, 0]], y[[1, 1]]) if lone else (y[: len(rows)], y[len(rows) :])
        re = y_re[:, :n_bins] - y_im[:, n_bins:]
        im = y_re[:, n_bins:] + y_im[:, :n_bins]
        np.square(re, out=re)
        np.square(im, out=im)
    else:
        y = (np.vstack([rows, rows]) if lone else rows) @ basis
        # the product is this call's own, so it is squared in place: x**2
        # is np.square, so the bits are those of re**2 + im**2
        np.square(y, out=y)
        re, im = y[:, :n_bins], y[:, n_bins:]
    # the sum is elementwise, so its bits do not depend on the layout; it
    # reads the row-major squares a slab of rows at a time, which stays in
    # cache while every bin of it is read
    by_bin = np.empty((n_bins, len(re)))
    step = max(1, _SLAB_BYTES // (16 * n_bins))
    for start in range(0, len(re), step):
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
    # over two or more contiguous columns numpy adds the bins one after
    # another, each into every column at once
    g = np.add.reduce(by_bin[n_m:], axis=0)
    metrics = BandMetrics(
        message_power=np.add.reduce(by_bin[:n_m], axis=0),
        interferer_power=g,
        rejection_ratio=rho,
        reciprocal_dynamic_range=np.where(null_m, 0.0, min_m / np.where(null_m, 1.0, max_m)),
        feasible=g <= _feasibility_bound(p),
    )
    if lone:
        return BandMetrics(**{f.name: getattr(metrics, f.name)[:1] for f in fields(BandMetrics)})
    return metrics


def metric_bundle(p: DesignProblem, s) -> MetricBundle:
    """All metrics of one sequence: the single-row case of band_metrics."""
    arr = np.asarray(s)
    if arr.ndim != 1 or arr.shape[0] != p.n:
        raise LengthMismatchError(f"expected length {p.n}, got shape {arr.shape}")
    return band_metrics(p, arr[None, :]).row(0)


def sequence_line(s) -> str:
    """Render a binary sequence as one line of space-separated +-1 integers."""
    return " ".join(str(int(v)) for v in np.asarray(s))
