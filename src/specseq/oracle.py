"""Exhaustive search over binary sequences for small lengths.

Negating a sequence changes no metric, so the first entry is fixed to +1
and only 2^(n-1) sequences are visited. They are enumerated in
lexicographic order (-1 before +1) in blocks of 2^12 rows, and each
block is scored by problem.band_metrics' kernel, so the oracle applies
the same metric, null and feasibility rules as the design it judges. Within a
block the first maximum wins and across blocks only a strictly larger
score replaces the best, so of scores that are equal as floats the
lexicographically smaller sequence wins. Scores that are equal in exact
arithmetic but apart by roundoff go to the larger float, whichever
sequence that is; an exact tie rule is left to the orbit oracle. Each
optimum is reported with the metrics of the block row that selected it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoFeasibleError, SizeLimitError
from .problem import DesignProblem, ScoreKind, _block_metrics, _scoring_basis

DEFAULT_LIMIT = 24

#: sequences enumerated per block are 2^_BLOCK_BITS
_BLOCK_BITS = 12


@dataclass(frozen=True)
class OracleResult:
    """Ground-truth optima for all three selection scores."""

    best_by_power: tuple
    best_by_rho: tuple
    best_by_chi: tuple
    n_feasible: int
    n_enumerated: int


def _signs(codes: np.ndarray, width: int) -> np.ndarray:
    """Rows of +-1 whose bits, most significant first, are the codes (0 -> -1)."""
    bits = codes[:, None] >> np.arange(width - 1, -1, -1) & 1
    return bits * 2.0 - 1.0


def check_size(n: int) -> None:
    """Raise SizeLimitError when n exceeds DEFAULT_LIMIT."""
    if n > DEFAULT_LIMIT:
        raise SizeLimitError(f"n={n} exceeds exhaustive-search limit {DEFAULT_LIMIT}")


def _enumerate(p: DesignProblem):
    """Yield (block, band_metrics of block) over all sequences with s_0 = +1.

    The block array is reused between steps; copy any row kept.
    """
    check_size(p.n)
    low = min(p.n - 1, _BLOCK_BITS)
    high = p.n - 1 - low
    block = np.ones((1 << low, p.n))
    block[:, p.n - low :] = _signs(np.arange(1 << low), low)
    basis = _scoring_basis(p)
    for code in range(1 << high):
        block[:, 1 : 1 + high] = _signs(np.array([code]), high)
        yield block, _block_metrics(p, basis, block)


def exhaustive_search(p: DesignProblem) -> OracleResult:
    """Enumerate every binary sequence and return the feasible optima.

    Raises SizeLimitError when p.n exceeds DEFAULT_LIMIT and
    NoFeasibleError when no sequence satisfies the interferer bound.
    """
    best = {kind: (-np.inf, None) for kind in ScoreKind}
    n_feasible = 0
    for block, metrics in _enumerate(p):
        n_feasible += int(metrics.feasible.sum())
        for kind in ScoreKind:
            idx, score = metrics.best_feasible(kind)
            if score > best[kind][0]:
                # keep the block row the optimum was selected by, not a re-score
                best[kind] = (score, (block[idx].astype(np.int8), metrics.row(idx)))

    if n_feasible == 0:
        raise NoFeasibleError(f"no binary sequence has interferer power <= {p.alpha}")

    return OracleResult(
        best_by_power=best[ScoreKind.MESSAGE_POWER][1],
        best_by_rho=best[ScoreKind.REJECTION_RATIO][1],
        best_by_chi=best[ScoreKind.RECIPROCAL_DYNAMIC_RANGE][1],
        n_feasible=n_feasible,
        n_enumerated=1 << (p.n - 1),
    )


def halved_constraint_optimum(p: DesignProblem) -> float:
    """Max message power over binary sequences with interferer power <= alpha/2.

    Returns -inf when that feasible set is empty. This is the ground
    truth the relaxation objective must dominate.
    """
    try:
        return exhaustive_search(replace(p, alpha=p.alpha / 2.0)).best_by_power[1].message_power
    except NoFeasibleError:
        return -np.inf
