"""Design problems, binary sequences, and their quality metrics.

A design problem asks for a length-n sequence with entries in {-1, +1}
whose spectrum is large over a set of message bins and whose total power
over a disjoint set of interferer bins stays below a tolerance alpha.
All metrics are computed by one vectorized kernel, band_metrics, over a
block of sequences; metric_bundle reads its single-row case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .errors import EmptyMessageError, LengthMismatchError, OverlapError


def is_int_list(value) -> bool:
    """Whether a JSON value is a list of integers (true and false are not integers)."""
    return isinstance(value, list) and all(type(v) is int for v in value)


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

    Checked by validate_problem when built, whether by the constructor,
    dataclasses.replace or from_json_dict, so no stage checks it again.
    """

    n: int
    message: BandSpec
    interferer: BandSpec
    alpha: float
    trials: int = 10000
    seed: int = 0

    def __post_init__(self):
        validate_problem(self)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "message": list(self.message.indices),
            "interferer": list(self.interferer.indices),
            "alpha": float(self.alpha),
            "trials": self.trials,
            "seed": self.seed,
        }

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
            if not is_int_list(data[name]):
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

    def score(self, kind: ScoreKind) -> float:
        return getattr(self, _SCORE_FIELDS[kind])

    def to_json_dict(self) -> dict:
        return asdict(self)


def validate_problem(p: DesignProblem) -> DesignProblem:
    """Check all problem invariants and return the problem unchanged.

    DesignProblem calls this when it is built, so callers need not.

    Raises OverlapError if the bands intersect, IndexError if any bin
    falls outside [0, n), EmptyMessageError if the message band is empty,
    and ValueError for non-positive sizes or a negative tolerance. A
    message bin k whose mirror n-k is an interferer bin is accepted: a
    real sequence has |X_k| == |X_(n-k)|, so that pair puts equal power
    into both bands, and the relaxation prices it through the bound.
    """
    if p.n < 1:
        raise ValueError(f"sequence length must be positive, got {p.n}")
    if p.trials < 1:
        raise ValueError(f"trial count must be positive, got {p.trials}")
    if p.alpha < 0:
        raise ValueError(f"interferer tolerance must be nonnegative, got {p.alpha}")
    if not 0 <= p.seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {p.seed}")
    if len(p.message) == 0:
        raise EmptyMessageError("message band is empty")
    for band in (p.message, p.interferer):
        for k in band:
            if k >= p.n:
                raise IndexError(f"frequency bin {k} out of range for n={p.n}")
    common = set(p.message.indices) & set(p.interferer.indices)
    if common:
        raise OverlapError(f"bands overlap at bins {sorted(common)}")
    return p


def as_sequence(p: DesignProblem, s) -> np.ndarray:
    """Coerce to a length-n vector, raising LengthMismatchError otherwise."""
    arr = np.asarray(s)
    if arr.ndim != 1 or arr.shape[0] != p.n:
        raise LengthMismatchError(f"expected length {p.n}, got shape {arr.shape}")
    return arr


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
    partial DFT columns, gives both bands in a single product.

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
    n_m = len(p.message)
    conj = build_partial_dft(p.n, p.message.indices + p.interferer.indices).conj()
    n_bins = conj.shape[1]
    basis = np.hstack([conj.real, conj.imag])
    if np.iscomplexobj(rows):
        y = np.vstack([rows.real, rows.imag]) @ basis
        y_re, y_im = y[: len(rows)], y[len(rows) :]
        re = y_re[:, :n_bins] - y_im[:, n_bins:]
        im = y_re[:, n_bins:] + y_im[:, :n_bins]
        sq = re**2 + im**2
    else:
        # numpy hands a lone row to gemv, which sums in another order than
        # the gemm that multiplies a block; a lone row goes in as a block
        # of two so that metric_bundle scores like the blocks of run_design
        y = (np.vstack([rows, rows]) if len(rows) == 1 else rows) @ basis
        # the product is this call's own, so it is squared in place: x**2
        # is np.square, so the bits are those of re**2 + im**2 without
        # two more block-sized arrays
        np.square(y, out=y)
        sq = y[: len(rows), :n_bins] + y[: len(rows), n_bins:]
        del y
    # band extremes reduce over a bins-major copy, whose rows are long and
    # contiguous, and take the root after: a correctly rounded sqrt is
    # monotone, so this equals the extreme of the roots bit for bit. The
    # power sums stay on sq, since a bins-major sum adds in another order
    by_bin = np.ascontiguousarray(sq.T)
    tol = null_tolerance(p.n)
    min_m = np.sqrt(np.minimum.reduce(by_bin[:n_m], axis=0))
    max_m = np.sqrt(np.maximum.reduce(by_bin[:n_m], axis=0))
    max_i = np.sqrt(np.maximum.reduce(by_bin[n_m:], axis=0, initial=0.0))
    null_i = max_i <= tol
    null_m = max_m <= tol
    rho = np.where(
        null_i, np.where(min_m > tol, np.inf, 0.0), min_m / np.where(null_i, 1.0, max_i)
    )
    g = sq[:, n_m:].sum(axis=1)
    return BandMetrics(
        message_power=sq[:, :n_m].sum(axis=1),
        interferer_power=g,
        rejection_ratio=rho,
        reciprocal_dynamic_range=np.where(null_m, 0.0, min_m / np.where(null_m, 1.0, max_m)),
        feasible=g <= p.alpha + 1e-9 * max(1.0, p.alpha),
    )


def metric_bundle(p: DesignProblem, s) -> MetricBundle:
    """All metrics of one sequence: the single-row case of band_metrics."""
    return band_metrics(p, as_sequence(p, s)[None, :]).row(0)


def sequence_line(s) -> str:
    """Render a binary sequence as one line of space-separated +-1 integers."""
    return " ".join(str(int(v)) for v in np.asarray(s))
