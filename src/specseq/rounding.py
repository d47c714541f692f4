"""Randomized projection, binary quantization, filtering, and selection.

A run draws its Gaussians from one counter-based stream, Philox keyed by
the seed (Salmon et al., SC'11): trial ell takes the ell-th block of r
normals, r being the number of factor columns that are not all zero,
projects it through those columns and quantizes the signs. An all-zero
column adds exactly 0 to every projection, so leaving it out keeps the
law of each sign vector. The draws do not depend on how trials are
batched, a shorter run is a prefix of a longer one, and distinct seeds
are distinct keys, hence independent runs. Candidates whose interferer
power stays within the full tolerance alpha are feasible
(problem.band_metrics scores them and holds that rule); the best
feasible candidate under the chosen score wins, with ties broken by the
lower trial index, and keeps the metrics of its row in the scored block,
the values it was selected by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyInterfererError, RankZeroError
from .problem import (
    BandMetrics,
    DesignProblem,
    MetricBundle,
    ScoreKind,
    band_metrics,
    build_partial_dft,
    metric_bundle,
)
from .sdp import SdpSolution

#: trials are evaluated in fixed-size blocks; block boundaries never
#: affect results because a Generator's normals are the same however
#: they are split into calls
_CHUNK = 16384

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


def _trial_normals(rng: np.random.Generator, start: int, count: int, r: int) -> np.ndarray:
    """Normals of trials start .. start+count-1, one row of r per trial.

    The rows are the next count*r normals of the run's stream, so the
    caller asks for the trials in order; start only names the first one.
    """
    return rng.standard_normal((count, r))


def run_design(
    p: DesignProblem,
    sol: SdpSolution,
    score: ScoreKind = ScoreKind.MESSAGE_POWER,
    retain: bool = False,
) -> DesignResult:
    """Run all p.trials rounding trials and select the best feasible candidate.

    Deterministic given (p, sol): trial ell reads normals ell*r ..
    (ell+1)*r-1 of Generator(Philox(key=p.seed)), r being the number of
    factor columns that are not all zero, and projects them through those
    columns. Set retain=True to keep per-trial metric arrays (used by the
    experiment harnesses); by default only the winner and summary
    statistics are kept.
    """
    live = sol.factor[:, np.any(sol.factor != 0.0, axis=0)]
    factor_t = np.ascontiguousarray(live.T)
    rng = np.random.Generator(np.random.Philox(key=p.seed))
    objective = sol.objective

    best_score = -math.inf
    best_seq = None
    best_metrics = None
    best_trial = -1
    n_feasible = 0
    gamma_min = math.inf
    kept = []

    for start in range(0, p.trials, _CHUNK):
        count = min(_CHUNK, p.trials - start)
        v = _trial_normals(rng, start, count, factor_t.shape[0])
        # exactly +-1, with -0.0 to +1 and NaN to -1 as the np.where of
        # quantized_principal_eigenvector maps them, and several times
        # faster than np.where on the mask
        signs = (v @ factor_t >= 0.0) * 2.0 - 1.0
        scored = band_metrics(p, signs)
        feasible = scored.feasible
        n_feasible += int(feasible.sum())
        idx, chunk_best = scored.best_feasible(score)
        if chunk_best > best_score:
            best_score = chunk_best
            best_seq = signs[idx].astype(np.int8)
            best_metrics = scored.row(idx)
            best_trial = start + idx
        if feasible.any() and objective > _OBJECTIVE_FLOOR:
            gamma_min = min(gamma_min, float(scored.message_power[feasible].min()) / objective)
        if retain:
            kept.append(scored)

    best = None
    if best_seq is not None:
        gamma = best_metrics.message_power / objective if objective > _OBJECTIVE_FLOOR else None
        best = Candidate(
            sequence=best_seq, metrics=best_metrics, trial_index=best_trial, gamma=gamma
        )

    table = None
    if retain:
        columns = {
            f.name: np.concatenate([getattr(chunk, f.name) for chunk in kept])
            for f in fields(BandMetrics)
        }
        f_all = columns["message_power"]
        gamma_all = f_all / objective if objective > _OBJECTIVE_FLOOR else None
        table = TrialTable(**columns, gamma=gamma_all)

    return DesignResult(
        best=best,
        n_feasible=n_feasible,
        n_trials=p.trials,
        feasibility_rate=n_feasible / p.trials,
        gamma_min_feasible=None if math.isinf(gamma_min) else gamma_min,
        beta=arcsin_trace_ratio(sol.matrix, p.interferer),
        score_kind=score,
        trial_table=table,
    )


def quantized_principal_eigenvector(p: DesignProblem, sol: SdpSolution) -> Candidate:
    """Sign-quantize the top eigenvector scaled by sqrt of its eigenvalue."""
    lead = sol.factor[:, 0]
    if sol.rank < 1 or not np.any(lead):
        raise RankZeroError("solution matrix has no positive eigenvalue")
    seq = np.where(lead >= 0.0, 1, -1).astype(np.int8)
    metrics = metric_bundle(p, seq)
    gamma = metrics.message_power / sol.objective if sol.objective > _OBJECTIVE_FLOOR else None
    return Candidate(sequence=seq, metrics=metrics, trial_index=-1, gamma=gamma)


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
