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
    _interferer_basis,
    _may_be_feasible,
    _scoring_basis,
    build_partial_dft,
    metric_bundle,
)
from .sdp import SdpSolution

#: trials are drawn, projected, quantized and scored in blocks of this
#: many rows, so that beyond retained columns a run's working set is one
#: (_CHUNK, n) block of signs, one block of the rows that passed the
#: interferer screen, and their products (8 MiB a block at n=1024)
#: whatever the trial count. A Generator's normals are the same however
#: they are split into calls. The row count sets the shapes of the
#: projection and of band_metrics' product, for which OpenBLAS picks its
#: kernels: projected values and metrics can move in their last bits
#: with it (no sign moved on any layout checked), though not with a row's
#: place in the block. So it stays fixed, and rows that pass the screen
#: are scored in blocks of this many rows too
_CHUNK = 1024

#: objective values at or below this are too degenerate to normalize by
_OBJECTIVE_FLOOR = 1e-12


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
    """Feasible count, winner and least feasible message power of scored blocks.

    Blocks may come in any order: of equal scores the lower trial wins,
    as it would in one pass in trial order.
    """

    def __init__(self, kind: ScoreKind):
        self.kind = kind
        self.n_feasible = 0
        self.least_power = math.inf
        self.best_score = -math.inf
        self.best_trial = -1
        self.best_seq = None
        self.best_metrics = None

    def add(self, scored: BandMetrics, rows: np.ndarray, trials: np.ndarray) -> int:
        """Take a block whose row i is trial trials[i]; returns its feasible count."""
        feasible = scored.feasible
        count = int(np.count_nonzero(feasible))
        if count == 0:
            return 0
        self.n_feasible += count
        self.least_power = min(self.least_power, float(scored.message_power[feasible].min()))
        i, value = scored.best_feasible(self.kind)
        trial = int(trials[i])
        if value > self.best_score or (value == self.best_score and trial < self.best_trial):
            self.best_score, self.best_trial = value, trial
            # a copy: the next block overwrites the rows
            self.best_seq = rows[i].astype(np.int8)
            self.best_metrics = scored.row(i)
        return count


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
    default only the winner and summary statistics are kept.

    A run makes one block-sized signs array and the scoring basis once
    and reuses them: each block is projected into the signs array and
    quantized there, so the normals die at the projection, and with
    retain=True each block's metrics are copied into full-length columns.
    Beyond those columns the working set does not grow with the trial
    count.

    Without retain, a run of more than one block screens its full blocks
    by their interferer power alone (problem._may_be_feasible) while
    fewer than half of a block's rows pass: the rows that can be
    feasible are copied into a second block-sized array, made at the
    first such block, which is scored once it is full and at the end of
    the run; a block that passes half or more is scored whole. The
    screen only chooses the rows that reach the scoring kernel; the
    kernel decides feasibility and computes every reported metric, on a
    block of the same row count as without the screen, so the result is
    the same bit for bit.
    """
    factor_t = np.ascontiguousarray(sol.factor.T)
    rng = np.random.Generator(np.random.Philox(key=p.seed))
    objective = sol.objective
    selection = _Selection(score)
    columns = None
    # the basis first: its build's temporaries are freed before the blocks are made
    basis = _scoring_basis(p)
    rows = min(_CHUNK, p.trials)
    buffer = np.empty((rows, p.n))
    # a lone block gains nothing from the screen: its passed rows are
    # scored in a block of the same size
    screen = None
    if not retain and len(p.interferer) and p.trials > rows:
        screen = _interferer_basis(p, basis)
    screening = screen is not None
    pool = None
    pending = 0

    for start in range(0, p.trials, _CHUNK):
        count = min(_CHUNK, p.trials - start)
        signs = buffer[:count]
        np.matmul(rng.standard_normal((count, factor_t.shape[0])), factor_t, out=signs)
        # exactly +-1, with -0.0 to +1 and NaN to -1 as the np.where of
        # quantized_principal_eigenvector maps them: the loops of
        # (w >= 0.0) * 2.0 - 1.0, written in place, the comparison's True
        # and False landing in the block as 1.0 and 0.0
        np.greater_equal(signs, 0.0, out=signs)
        np.multiply(signs, 2.0, out=signs)
        np.subtract(signs, 1.0, out=signs)
        passed = None
        if screening and count == rows:
            passed = np.flatnonzero(_may_be_feasible(p, screen, signs))
        if passed is not None and 2 * passed.size < count:
            # the kernel's bits for a row depend on the block's row count
            # (BLAS picks its kernels by shape), not on the row's place in
            # it, so passed rows are scored in blocks of the full row count
            if pool is None:
                # ones: the rows past the last passed one are multiplied too
                pool = np.ones((rows, p.n))
                pool_trials = np.empty(rows, dtype=np.intp)
            kept = passed.size
            for part in (passed[: rows - pending], passed[rows - pending :]):
                # mode="clip" (the rows are in range) writes straight into
                # the pool, where the default buffers the gathered rows
                np.take(signs, part, axis=0, out=pool[pending : pending + part.size], mode="clip")
                pool_trials[pending : pending + part.size] = start + part
                pending += part.size
                if pending == rows:
                    selection.add(_block_metrics(p, basis, pool), pool, pool_trials)
                    pending = 0
        else:
            scored = _block_metrics(p, basis, signs)
            kept = selection.add(scored, signs, np.arange(start, start + count))
            if retain:
                if columns is None:
                    columns = {
                        f.name: np.empty(p.trials, getattr(scored, f.name).dtype)
                        for f in fields(BandMetrics)
                    }
                for name, column in columns.items():
                    column[start : start + count] = getattr(scored, name)
        # the screen pays while most rows fail it; an unscreened block's
        # feasible rows stand for those it would have passed
        screening = screen is not None and 2 * kept < count

    if pending:
        # the whole pool, so that the product has a full block's shape
        scored = _block_metrics(p, basis, pool)
        head = {f.name: getattr(scored, f.name)[:pending] for f in fields(BandMetrics)}
        selection.add(BandMetrics(**head), pool, pool_trials)

    best = None
    if selection.best_seq is not None:
        metrics = selection.best_metrics
        gamma = metrics.message_power / objective if objective > _OBJECTIVE_FLOOR else None
        best = Candidate(
            sequence=selection.best_seq,
            metrics=metrics,
            trial_index=selection.best_trial,
            gamma=gamma,
        )

    table = None
    if retain:
        f_all = columns["message_power"]
        gamma_all = f_all / objective if objective > _OBJECTIVE_FLOOR else None
        table = TrialTable(**columns, gamma=gamma_all)

    # division by a positive objective is monotone, so this is the least
    # feasible gamma bit for bit
    gamma_min = None
    if selection.n_feasible and objective > _OBJECTIVE_FLOOR:
        gamma_min = selection.least_power / objective

    return DesignResult(
        best=best,
        n_feasible=selection.n_feasible,
        n_trials=p.trials,
        feasibility_rate=selection.n_feasible / p.trials,
        gamma_min_feasible=gamma_min,
        beta=_beta(p, sol),
        score_kind=score,
        trial_table=table,
    )


def quantized_principal_eigenvector(p: DesignProblem, sol: SdpSolution) -> Candidate:
    """Sign-quantize the top eigenvector scaled by sqrt of its eigenvalue."""
    seq = np.where(sol.factor[:, 0] >= 0.0, 1, -1).astype(np.int8)
    metrics = metric_bundle(p, seq)
    gamma = metrics.message_power / sol.objective if sol.objective > _OBJECTIVE_FLOOR else None
    return Candidate(sequence=seq, metrics=metrics, trial_index=-1, gamma=gamma)


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
