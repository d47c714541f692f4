"""Randomized projection, binary quantization, filtering, and selection.

A run draws its Gaussians from one counter-based stream, Philox keyed by
the seed (Salmon et al., SC'11): trial ell takes the ell-th block of r
normals, r being the number of factor columns, projects it through the
factor and quantizes the signs. The draws do not depend on how trials
are batched, a shorter run is a prefix of a longer one, and distinct
seeds are distinct keys, hence independent runs. Candidates whose
interferer power stays within the full tolerance alpha are feasible
(problem.band_metrics scores them and holds that rule); the best
feasible candidate under the chosen score wins, with ties broken by the
lower trial index, and keeps the metrics of its row in the scored block,
the values it was selected by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyInterfererError
from .problem import (
    BandMetrics,
    DesignProblem,
    MetricBundle,
    ScoreKind,
    _block_metrics,
    _scoring_basis,
    build_partial_dft,
    metric_bundle,
)
from .sdp import SdpSolution

#: _score_blocks writes and scores its rows (rounded trials, uniform draws
#: or enumerated sequences) in blocks of this many rows, so that beyond
#: retained columns its working set is one (_CHUNK, n) block of signs and
#: its products (8 MiB a block at n=1024) whatever the row count. A
#: Generator's normals are the same however they are split into calls.
#: The row count sets the shapes of the projection and of band_metrics'
#: product, for which OpenBLAS picks its kernels: projected values and
#: metrics can move in their last bits with it (no sign moved on any
#: layout checked), though not with a row's place in the block. So it
#: stays fixed
_CHUNK = 1024

#: objective values at or below this are too degenerate to normalize by
_OBJECTIVE_FLOOR = 1e-12


#: the metric field each selection score reads
_SCORE_FIELDS = {
    ScoreKind.MESSAGE_POWER: "message_power",
    ScoreKind.REJECTION_RATIO: "rejection_ratio",
    ScoreKind.RECIPROCAL_DYNAMIC_RANGE: "reciprocal_dynamic_range",
}


def _gamma(power, sol: SdpSolution):
    """The approximation ratio of a power or array of powers; None at a degenerate objective."""
    return power / sol.objective if sol.objective > _OBJECTIVE_FLOOR else None


@dataclass(frozen=True)
class Candidate:
    """One rounded binary sequence with its metrics and approximation ratio."""

    sequence: np.ndarray
    metrics: MetricBundle
    trial_index: int
    gamma: float | None

    def to_json_dict(self) -> dict:
        return {
            "sequence": [int(v) for v in self.sequence],
            "metrics": self.metrics.to_json_dict(),
            "trial_index": self.trial_index,
            "gamma": self.gamma,
        }


@dataclass(frozen=True)
class TrialTable(BandMetrics):
    """Per-trial metric arrays retained for experiment harnesses."""

    gamma: np.ndarray | None


@dataclass(frozen=True)
class DesignResult:
    """Outcome of one full randomized design run."""

    best: Candidate | None
    n_feasible: int
    n_trials: int
    feasibility_rate: float
    gamma_min_feasible: float | None
    beta: float | None
    score_kind: ScoreKind
    trial_table: TrialTable | None = None

    def to_json_dict(self) -> dict:
        return {
            "best": None if self.best is None else self.best.to_json_dict(),
            "n_feasible": self.n_feasible,
            "n_trials": self.n_trials,
            "feasibility_rate": self.feasibility_rate,
            "gamma_min_feasible": self.gamma_min_feasible,
            "beta": self.beta,
            "score_kind": self.score_kind.value,
        }


class _Selection:
    """Feasible count, least feasible message power and winners of scored blocks.

    One pass over a block serves every kind in kinds: best[kind] holds
    (score, trial, sequence, metrics) of that kind's winner so far, and
    has no entry while nothing is feasible. Blocks may come in any order:
    of equal scores the lower trial wins, as it would in one pass in
    trial order.
    """

    def __init__(self, kinds):
        self.kinds = tuple(kinds)
        self.n_feasible = 0
        self.least_power = math.inf
        self.best = {}

    def add(self, scored: BandMetrics, rows: np.ndarray, trials: np.ndarray):
        """Take a block whose row i is trial trials[i].

        Rows past len(trials) pad the block and are not counted.
        """
        feasible = np.flatnonzero(scored.feasible[: len(trials)])
        if feasible.size == 0:
            return
        self.n_feasible += feasible.size
        self.least_power = min(self.least_power, float(scored.message_power[feasible].min()))
        for kind in self.kinds:
            column = getattr(scored, _SCORE_FIELDS[kind])[feasible]
            j = int(np.argmax(column))
            value, i = float(column[j]), int(feasible[j])
            trial = int(trials[i])
            held = self.best.get(kind)
            if held is None or value > held[0] or (value == held[0] and trial < held[1]):
                # a copy: the next block overwrites the rows
                self.best[kind] = (value, trial, rows[i].astype(np.int8), scored.row(i))


def _score_blocks(p: DesignProblem, fill, selection: _Selection, retain: bool = False):
    """Score p.trials rows of +-1, row i being trial i, into the selection.

    fill(block, start) writes rows start .. start+len(block)-1 into block,
    a view of one (_CHUNK, n) array made once, as is the scoring basis.
    Every block is scored whole by problem._block_metrics, which decides
    feasibility. With retain, each block's metrics are copied into
    full-length columns, returned by BandMetrics field name (else None);
    beyond them the working set does not grow with the trial count.
    """

    # the basis first: its build's temporaries are freed before the block is made
    basis = _scoring_basis(p)
    buffer = np.empty((min(_CHUNK, p.trials), p.n))
    columns = {f.name: np.empty(p.trials, bool if f.name == "feasible" else float)
               for f in fields(BandMetrics)} if retain else None
    for start in range(0, p.trials, _CHUNK):
        count = min(_CHUNK, p.trials - start)
        signs = buffer[:count]
        fill(signs, start)
        scored = _block_metrics(p, basis, signs)
        selection.add(scored, signs, np.arange(start, start + count))
        for name, column in (columns or {}).items():
            column[start : start + count] = getattr(scored, name)
    return columns


def run_design(
    p: DesignProblem,
    sol: SdpSolution,
    score: ScoreKind = ScoreKind.MESSAGE_POWER,
    retain: bool = False,
) -> DesignResult:
    """Run all p.trials rounding trials and select the best feasible candidate.

    Deterministic given (p, sol): trial ell reads normals ell*r ..
    (ell+1)*r-1 of Generator(Philox(key=p.seed)), r being the number of
    factor columns, and projects them through the factor. Set retain=True
    to keep per-trial metric arrays (used by the experiment harnesses); by
    default only the winner and summary statistics are kept. Each block
    of _score_blocks is projected into its signs and quantized there.
    """
    factor_t = np.ascontiguousarray(sol.factor.T)
    rng = np.random.Generator(np.random.Philox(key=p.seed))

    def fill(signs, start):
        np.matmul(rng.standard_normal((len(signs), factor_t.shape[0])), factor_t, out=signs)
        # exactly +-1, with -0.0 to +1 and NaN to -1 as the np.where of
        # quantized_principal_eigenvector maps them: the loops of
        # (w >= 0.0) * 2.0 - 1.0, written in place, the comparison's True
        # and False landing in the block as 1.0 and 0.0
        np.greater_equal(signs, 0.0, out=signs)
        np.multiply(signs, 2.0, out=signs)
        np.subtract(signs, 1.0, out=signs)

    selection = _Selection((score,))
    columns = _score_blocks(p, fill, selection, retain)

    best = table = None
    if score in selection.best:
        _, trial, seq, metrics = selection.best[score]
        best = Candidate(seq, metrics, trial, _gamma(metrics.message_power, sol))
    if retain:
        table = TrialTable(**columns, gamma=_gamma(columns["message_power"], sol))
    return DesignResult(
        best=best,
        n_feasible=selection.n_feasible,
        n_trials=p.trials,
        feasibility_rate=selection.n_feasible / p.trials,
        # division by a positive objective is monotone, so this is the
        # least feasible gamma bit for bit
        gamma_min_feasible=_gamma(selection.least_power, sol) if selection.n_feasible else None,
        beta=_beta(p, sol),
        score_kind=score,
        trial_table=table,
    )


def quantized_principal_eigenvector(p: DesignProblem, sol: SdpSolution) -> Candidate:
    """Sign-quantize the top eigenvector scaled by sqrt of its eigenvalue."""
    seq = np.where(sol.factor[:, 0] >= 0.0, 1, -1).astype(np.int8)
    metrics = metric_bundle(p, seq)
    return Candidate(sequence=seq, metrics=metrics, trial_index=-1,
                     gamma=_gamma(metrics.message_power, sol))


def _beta(p: DesignProblem, sol: SdpSolution) -> float:
    """arcsin_trace_ratio(circulant(sol.spectrum), p.interferer), without forming S.

    arcsin(S) is circulant: its eigenvalues are the DFT of its first row
    (Van Vleck & Middleton, "The spectrum of clipped noise", 1966). S's row,
    sum_k q_k cos(2 pi jk / n) / sum_k q_k, is exactly +-1 where it must be,
    at the arcsin's infinite slope; an inverse FFT of q can miss by an ulp.
    """
    if sol.interferer_trace <= 1e-12:
        return math.inf
    n, bins = sol.spectrum.size, np.flatnonzero(sol.spectrum)
    lags = np.minimum(np.arange(n), n - np.arange(n))
    row = np.cos(2.0 * np.pi / n * (np.outer(lags, bins) % n)) @ sol.spectrum[bins]
    lam = np.fft.fft(np.arcsin(np.clip(row / row[0], -1.0, 1.0))).real
    return float(lam[p.interferer.as_array()].sum()) / sol.interferer_trace


def arcsin_trace_ratio(matrix, band) -> float:
    """tr(A arcsin(S)) / tr(A S) for the Gram matrix A of a band, arcsin element-wise.

    S is a dense unit-diagonal PSD matrix, circulant or not. A is never
    formed: for real symmetric X, tr(A X) = Re vdot(C, X C) over the
    band's partial DFT columns C, since A = Re(C C^H). Entries are
    clamped to [-1, 1] before the arcsin. Returns +inf when the
    denominator is below 1e-12 (S already nulls the band).
    """
    matrix = np.asarray(matrix, dtype=float)
    columns = build_partial_dft(matrix.shape[0], band)

    def trace(x):
        return float(np.vdot(columns, x @ columns).real)

    denom = trace(matrix)
    if abs(denom) <= 1e-12:
        return math.inf
    return trace(np.arcsin(np.clip(matrix, -1.0, 1.0))) / denom


def mcdiarmid_bound(p: DesignProblem) -> float:
    """Concentration bound exp(-alpha^2 / (8 n pi^2 K^2)) on the tail of g.

    This is the bounded-differences bound for the interferer power of a
    quantized projection exceeding (beta + 1) * alpha / pi; a single
    entry flip moves the interferer power by at most 4K.
    """
    k = len(p.interferer)
    if k == 0:
        raise EmptyInterfererError("bound requires a nonempty interferer band")
    return math.exp(-(p.alpha**2) / (8.0 * p.n * math.pi**2 * k**2))
