"""Exhaustive search over binary sequences for small lengths.

Negating a sequence changes no metric, so the first entry is fixed to +1
and only 2^(n-1) sequences are visited. They are enumerated in
lexicographic order (-1 before +1) into the design's blocked scorer
(rounding._score_blocks), a sequence's rank in that order being its
trial index, and one selection picks the optima under all three scores
in one pass over each scored block. So the oracle applies the same
metric, null, feasibility and selection rules as the design it judges,
and of scores that are equal as floats the lexicographically smaller
sequence wins. Scores that are equal in exact arithmetic but apart by
roundoff go to the larger float, whichever sequence that is. Each
optimum is reported with the metrics of the block row that selected it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoFeasibleError, SizeLimitError
from .problem import DesignProblem, ScoreKind
from .rounding import _score_blocks, _Selection

DEFAULT_LIMIT = 24


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


def exhaustive_search(p: DesignProblem) -> OracleResult:
    """Enumerate every binary sequence and return the feasible optima.

    Raises SizeLimitError when p.n exceeds DEFAULT_LIMIT and
    NoFeasibleError when no sequence satisfies the interferer bound.
    """
    check_size(p.n)
    width = p.n - 1
    # template rows hold s_0 = +1 and the low 10 bits of ranks 0 .. 1023,
    # high the signs of every value of the bits above them
    low = min(width, 10)
    template = np.ones((1 << low, p.n))
    template[:, p.n - low :] = _signs(np.arange(1 << low), low)
    high = _signs(np.arange(1 << (width - low)), width - low)

    def fill(block, start):
        # ranks that share their high bits copy a run of template rows
        done = 0
        while done < len(block):
            rank = start + done
            offset = rank % len(template)
            part = block[done : done + len(template) - offset]
            part[:] = template[offset : offset + len(part)]
            part[:, 1 : p.n - low] = high[rank >> low]
            done += len(part)

    selection = _Selection(ScoreKind)
    _score_blocks(replace(p, trials=1 << width), fill, selection)
    if selection.n_feasible == 0:
        raise NoFeasibleError(f"no binary sequence has interferer power <= {p.alpha}")

    best = {kind: selection.best[kind][2:] for kind in ScoreKind}  # (sequence, metrics)
    return OracleResult(
        best_by_power=best[ScoreKind.MESSAGE_POWER],
        best_by_rho=best[ScoreKind.REJECTION_RATIO],
        best_by_chi=best[ScoreKind.RECIPROCAL_DYNAMIC_RANGE],
        n_feasible=selection.n_feasible,
        n_enumerated=1 << width,
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
