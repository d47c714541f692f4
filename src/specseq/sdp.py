"""Closed-form solver for the lifted relaxation of the binary design problem.

The relaxation maximizes tr(A_M S) over unit-diagonal PSD matrices S
subject to tr(A_I S) <= alpha/2, where A_M and A_I are the real Gram
matrices of the message and interferer bands. The halved bound mirrors
the feasibility analysis of the rounding step; the rounding filter
itself uses the full alpha.

Why a closed form is exact: A_M and A_I are circulant, and a cyclic
shift P maps the feasible set onto itself (P S P^T keeps the unit
diagonal, stays PSD and has the same traces against both Gram
matrices). The average of any optimum over all n shifts is therefore
feasible and optimal, and it is circulant: S = Re(F diag(q) F^H) for the
unitary DFT F (Gatermann & Parrilo 2004; de Klerk 2010, "Exploiting
special structure in semidefinite programming"). In that basis A_M and
A_I are diagonal with the bin weights a and b, the unit diagonal is
sum(q) = n and PSD is q >= 0, so the program is the linear program

    maximize a.q  subject to  b.q <= alpha/2,  sum(q) = n,  q >= 0.

Each weight is the half-count of bins k and n-k in a band, so it is 0,
1/2 or 1, and bins with equal (a, b) form at most six classes. The LP
optimum puts its mass on at most two classes; it is found by raising the
multiplier of the bound through the breakpoints of the upper concave
envelope of the class points (b, a), each step exact.

The certificate does not rest on the symmetry argument. A_M and A_I are
F diag(a) F^H and F diag(b) F^H by construction, so for every
unit-diagonal PSD S, circulant or not, and every multiplier lam >= 0,
weak duality with the dual matrix mu*I, mu = max_k(a_k - lam*b_k), gives

    tr(A_M S) <= n * max_k(a_k - lam*b_k) + lam * alpha/2.

The gap between that bound and a.q, with the primal and slackness
conditions of the LP, certifies the solution in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRelaxationError
from .problem import BandSpec, DesignProblem

#: cosine table entries below this are exact zeros of the cosine, so a
#: quarter-period zero quantizes to +1 by the sign rule, not by roundoff
_TABLE_ZERO = 1e-12


@dataclass(frozen=True)
class SdpSolution:
    """Solution S = Re(F diag(q) F^H) of the relaxation, held as q; circulant(q) forms S.

    spectrum          read-only q of length n, q_k = q_(n-k) >= 0 and
                      sum(q) = n, so S has unit diagonal
    objective         tr(A_M S) = a.q over the DFT bins
    interferer_trace  tr(A_I S) = b.q, at most alpha/2 up to roundoff
    factor            read-only n x r real Fourier columns of the bins with
                      q_k > 0, scaled by sqrt of their eigenvalue, ordered
                      by descending eigenvalue, then bin, then cos before
                      sin; factor @ factor.T reconstructs S and
                      w = factor @ v has covariance S for standard normal v
    kkt_residual      O(n) certificate, the max of: the gap from a.q up
                      to the weak-duality bound U = n*max_k(a_k - lam*b_k)
                      + lam*alpha/2, over max(1, |U|); the primal
                      violations (negative q, |sum(q) - n| / n, b.q above
                      alpha/2); a negative multiplier; and complementary
                      slackness lam*|b.q - alpha/2| / max(1, alpha)
    dual_multiplier   nonnegative multiplier of the trace inequality
    """

    spectrum: np.ndarray
    objective: float
    interferer_trace: float
    factor: np.ndarray
    kkt_residual: float
    dual_multiplier: float


def _bin_weights(n: int, band: BandSpec) -> np.ndarray:
    """Eigenvalues of a band's Gram matrix in the DFT basis: (1[k in band] + 1[n-k in band]) / 2."""
    member = np.zeros(n)
    member[band.as_array()] = 1.0
    return (member + member[-np.arange(n) % n]) / 2.0


def _spectrum(a: np.ndarray, b: np.ndarray, bound: float):
    """Optimal q of the reduced LP and the multiplier of its bound.

    Mass is split evenly within each class, so q is symmetric
    (q_k == q_(n-k)) and the same for every solve of the same problem.
    """
    n = a.size
    if n * b.min() > bound:
        raise InfeasibleRelaxationError(
            f"interferer trace floor {n * b.min():.6g} stays above alpha/2 = {bound:.6g}"
        )
    top = a == a.max()
    if n * b[top].sum() <= top.sum() * bound:
        return np.where(top, n / top.sum(), 0.0), 0.0

    # Walk the envelope leftwards from the least-interfering top class:
    # each step raises the multiplier to the slope of the next edge, until
    # the bound falls on the edge [lo, hi]. Ties in slope take the farther
    # point, so a pair always spans a whole edge.
    points = set(zip(b.tolist(), a.tolist()))
    lam, lo = 0.0, (float(b[top].min()), float(a.max()))
    hi = lo
    while n * lo[0] > bound:
        hi = lo
        lam, lo = min(
            ((hi[1] - pt[1]) / (hi[0] - pt[0]), pt) for pt in points if pt[0] < hi[0]
        )
    if lo == hi:
        mass = {lo: float(n)}
    else:
        width = hi[0] - lo[0]
        mass = {lo: (n * hi[0] - bound) / width, hi: (bound - n * lo[0]) / width}
    q = np.zeros(n)
    for (b_c, a_c), m in mass.items():
        members = (b == b_c) & (a == a_c)
        q[members] = m / members.sum()
    return q, lam


def _cos_table(n: int) -> np.ndarray:
    """cos(2 pi u / 4n) for u in [0, 4n), exactly even in u and with exact zeros."""
    u = np.arange(4 * n)
    table = np.cos(np.pi * np.minimum(u, 4 * n - u) / (2 * n))
    table[np.abs(table) < _TABLE_ZERO] = 0.0
    return table


def _fourier_factor(q: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Real Fourier columns of the bins with q_k > 0, scaled by sqrt(q).

    Bin 0 and the Nyquist bin give one cosine column each; every other
    bin k < n/2 gives a cosine and a sine column carrying q_k + q_(n-k).
    """
    n = q.size
    k = np.flatnonzero(q[: n // 2 + 1] > 0.0)
    paired = (k > 0) & (2 * k < n)
    bins = np.concatenate([k, k[paired]])  # cosine columns, then sine columns
    order = np.lexsort((np.arange(bins.size) >= k.size, bins, -q[bins]))
    bins, sine = bins[order], order >= k.size
    # cos(2 pi jk / n) is table[4 (jk mod n)], and sin(x) = cos(x - pi/2)
    # is n entries back (a negative index wraps around the period)
    factor = table[np.outer(np.arange(n), bins) % n * 4 - n * sine]
    factor *= np.sqrt(np.where((bins > 0) & (2 * bins < n), 2.0, 1.0) * q[bins] / n)
    return factor


def circulant(q: np.ndarray) -> np.ndarray:
    """Dense S = Re(F diag(q) F^H) of a symmetric q, exactly symmetric with unit diagonal."""
    n = q.size
    lags = np.arange(n // 2 + 1)
    first = _cos_table(n)[4 * (np.outer(lags, np.arange(n)) % n)] @ q / n
    first[0] = 1.0
    offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return first[np.minimum(offset, n - offset)]


def _certificate(a, b, q, lam, bound, alpha) -> float:
    """Largest violation of optimality of spectrum q with multiplier lam (see SdpSolution)."""
    n = q.size
    itrace = float(b @ q)
    # a zero multiplier's terms are 0, also at alpha = +inf, where 0 * inf is NaN
    dual_term = lam * bound if lam else 0.0
    slackness = lam * abs(itrace - bound) / max(1.0, alpha) if lam else 0.0
    upper = n * float(np.max(a - lam * b)) + dual_term
    return max(
        (upper - float(a @ q)) / max(1.0, abs(upper)),
        max(0.0, -float(q.min())),
        abs(float(q.sum()) - n) / n,
        max(0.0, itrace - bound),
        max(0.0, -lam),
        slackness,
    )


def solve_relaxation(p: DesignProblem) -> SdpSolution:
    """Solve the relaxation in closed form and certify it by LP weak duality.

    Raises InfeasibleRelaxationError exactly when n * min_k b_k > alpha/2,
    that is when no unit-diagonal PSD matrix meets the halved bound.
    """
    bound = p.alpha / 2.0
    a, b = _bin_weights(p.n, p.message), _bin_weights(p.n, p.interferer)
    q, lam = _spectrum(a, b, bound)
    factor = _fourier_factor(q, _cos_table(p.n))
    q.setflags(write=False)
    factor.setflags(write=False)
    return SdpSolution(
        spectrum=q,
        objective=float(a @ q),
        interferer_trace=float(b @ q),
        factor=factor,
        kkt_residual=_certificate(a, b, q, lam, bound, p.alpha),
        dual_multiplier=lam,
    )
