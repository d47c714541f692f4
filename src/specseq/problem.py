"""Design problems, binary sequences, and the scalar quality metrics.

A design problem asks for a length-n sequence with entries in {-1, +1}
whose spectrum is large over a set of message bins and whose total power
over a disjoint set of interferer bins stays below a tolerance alpha.
All metrics here are deterministic functions of (problem, sequence).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyMessageError, LengthMismatchError, OverlapError


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
    """Problem data: length, bands, interferer tolerance, trial budget, seed."""

    n: int
    message: BandSpec
    interferer: BandSpec
    alpha: float
    trials: int = 10000
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "message": list(self.message.indices),
            "interferer": list(self.interferer.indices),
            "alpha": float(self.alpha),
            "trials": self.trials,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DesignProblem":
        known = {"n", "message", "interferer", "alpha", "trials", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown problem fields: {sorted(unknown)}")
        missing = {"n", "message", "interferer", "alpha"} - set(data)
        if missing:
            raise ValueError(f"missing problem fields: {sorted(missing)}")
        return cls(
            n=int(data["n"]),
            message=BandSpec(tuple(data["message"])),
            interferer=BandSpec(tuple(data["interferer"])),
            alpha=float(data["alpha"]),
            trials=int(data.get("trials", 10000)),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "DesignProblem":
        return cls.from_json_dict(json.loads(text))


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

    def score(self, kind: ScoreKind) -> float:
        if kind is ScoreKind.MESSAGE_POWER:
            return self.message_power
        if kind is ScoreKind.REJECTION_RATIO:
            return self.rejection_ratio
        return self.reciprocal_dynamic_range

    def to_json_dict(self) -> dict:
        return {
            "message_power": self.message_power,
            "interferer_power": self.interferer_power,
            "rejection_ratio": self.rejection_ratio,
            "reciprocal_dynamic_range": self.reciprocal_dynamic_range,
            "feasible": self.feasible,
        }


def validate_problem(p: DesignProblem) -> DesignProblem:
    """Check all problem invariants and return the problem unchanged.

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


def null_tolerance(n: int) -> float:
    """Magnitudes at or below this are exact spectral nulls up to roundoff.

    Nonzero sums of n unit phasors stay many orders of magnitude above
    this at practical lengths, so the threshold only catches true nulls.
    """
    return 1e-12 * math.sqrt(n)


def band_magnitudes(p: DesignProblem, s, band: BandSpec) -> np.ndarray:
    """Spectrum magnitudes |F_k^H s| over the given band (unitary DFT, 1/sqrt(n))."""
    arr = as_sequence(p, s)
    from .spectral import build_partial_dft

    basis = build_partial_dft(p.n, band)
    return np.abs(basis.columns.conj().T @ arr)


def message_power(p: DesignProblem, s) -> float:
    """Total spectral power of s over the message band."""
    mags = band_magnitudes(p, s, p.message)
    return float(np.sum(mags**2))


def interferer_power(p: DesignProblem, s) -> float:
    """Total spectral power of s over the interferer band; 0 for an empty band."""
    if len(p.interferer) == 0:
        as_sequence(p, s)
        return 0.0
    mags = band_magnitudes(p, s, p.interferer)
    return float(np.sum(mags**2))


def rejection_ratio(p: DesignProblem, s) -> float:
    """Smallest message-bin magnitude over largest interferer-bin magnitude.

    Returns +inf when the interferer band is empty or its spectrum is
    nulled (zero up to roundoff) while the message band stays alive: a
    perfect notch under a live message is the best possible case. A
    sequence that also nulls the message band (0/0, e.g. the constant
    sequence against bands away from DC) scores 0, never +inf; it is
    worthless as a design even though its interferer band is silent.
    """
    msg = band_magnitudes(p, s, p.message)
    tol = null_tolerance(p.n)
    if len(p.interferer) == 0:
        return math.inf if float(np.min(msg)) > tol else 0.0
    intf = band_magnitudes(p, s, p.interferer)
    denom = float(np.max(intf))
    if denom <= tol:
        return math.inf if float(np.min(msg)) > tol else 0.0
    return float(np.min(msg)) / denom


def reciprocal_dynamic_range(p: DesignProblem, s) -> float:
    """Smallest over largest message-bin magnitude, in [0, 1]; 0/0 maps to 0."""
    if len(p.message) == 0:
        raise EmptyMessageError("message band is empty")
    mags = band_magnitudes(p, s, p.message)
    top = float(np.max(mags))
    if top <= null_tolerance(p.n):
        return 0.0
    return float(np.min(mags)) / top


def metric_bundle(p: DesignProblem, s) -> MetricBundle:
    """Compute all metrics of s in one pass over the two band spectra."""
    arr = as_sequence(p, s)
    tol = null_tolerance(p.n)
    msg = band_magnitudes(p, arr, p.message)
    f_val = float(np.sum(msg**2))
    low = float(np.min(msg))
    if len(p.interferer) == 0:
        g_val = 0.0
        rho = math.inf if low > tol else 0.0
    else:
        intf = band_magnitudes(p, arr, p.interferer)
        g_val = float(np.sum(intf**2))
        denom = float(np.max(intf))
        if denom <= tol:
            rho = math.inf if low > tol else 0.0
        else:
            rho = low / denom
    top = float(np.max(msg))
    chi = 0.0 if top <= tol else low / top
    return MetricBundle(
        message_power=f_val,
        interferer_power=g_val,
        rejection_ratio=rho,
        reciprocal_dynamic_range=chi,
        feasible=bool(g_val <= p.alpha),
    )


def sequence_line(s) -> str:
    """Render a binary sequence as one line of space-separated +-1 integers."""
    return " ".join(str(int(v)) for v in np.asarray(s))
