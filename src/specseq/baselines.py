"""Alternating-projection (SHAPE) and neural-dynamics (LPNN) baselines.

Both methods come from the unimodular sequence design literature and are
included for comparison, each in its original unimodular form and in a
binary-constrained form. SHAPE is block coordinate descent on
||F^H s - scale * x||^2 over the spectrum x, the complex scale, and the
sequence s; every step is an exact block minimizer, so the objective
never increases. LPNN runs Euler dynamics on an augmented Lagrangian
with per-entry modulus constraints; it stops once its increments vanish,
and the binary form also once its output signs have held for
_LPNN_PATIENCE steps.

Both work with the unitary DFT F[i, k] = exp(-2j*pi*i*k/n)/sqrt(n), whose
products are FFTs: F^H s is ``np.fft.ifft(s, norm="ortho")`` and F x is
``np.fft.fft(x, norm="ortho")``. SHAPE's block steps act on arrays, and the
analysis F^H s of each new sequence is computed once: 2 FFTs per cycle.
LPNN calls the pocketfft gufuncs behind those two functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .problem import DesignProblem, MetricBundle, metric_bundle

#: stands in for an unbounded upper magnitude; never binds since |F_i^H s| <= sqrt(n)
UNBOUNDED = 1e6

#: weight of the squared modulus penalty in LPNN's augmented Lagrangian
LPNN_AUGMENT = 10.0

#: SHAPE stops once the objective changes by at most this fraction of max(1, objective)
SHAPE_TOL = 1e-10

_SHAPE_STREAM = 101
_LPNN_STREAM = 202

#: LPNN steps run between checks; each block keeps the rows its checks read
_LPNN_BLOCK = 64

#: binary LPNN stops once the signs of its neurons have held for this many steps
_LPNN_PATIENCE = 1024


@dataclass(frozen=True)
class BaselineResult:
    sequence: np.ndarray
    metrics: MetricBundle
    iterations: int
    trace: np.ndarray
    #: True when the run stopped by its own rule, False when max_iters cut it:
    #: SHAPE's objective or scale rule; LPNN's increment rule, or for binary
    #: LPNN also its output signs holding for _LPNN_PATIENCE steps
    converged: bool


def _shape_bounds(p: DesignProblem) -> tuple:
    """Per-bin magnitude bounds (lower, upper) on SHAPE's spectrum.

    Interferer bins get an upper bound sqrt(alpha / |interferer|) so the
    band power cannot exceed alpha; message bins get a lower bound of 1;
    all other bins are unconstrained. The bands are disjoint and alpha is
    nonnegative, so lower <= upper at every bin.
    """
    upper = np.full(p.n, UNBOUNDED)
    lower = np.zeros(p.n)
    if len(p.interferer) > 0:
        upper[p.interferer.as_array()] = np.sqrt(p.alpha / len(p.interferer))
    lower[p.message.as_array()] = 1.0
    return lower, upper


def _objective(analysis: np.ndarray, spectrum, scale) -> float:
    resid = analysis - scale * spectrum
    return float(np.sum(resid.real**2 + resid.imag**2))


def _phase(z: np.ndarray) -> np.ndarray:
    """z / |z| per entry, and 1 where z is 0."""
    mag = np.abs(z)
    return np.where(mag == 0.0, 1.0 + 0.0j, z / np.where(mag == 0.0, 1.0, mag))


def _spectrum_step(
    analysis: np.ndarray, scale: complex, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Exact minimizer over the spectrum: radially clip analysis / scale per bin."""
    z = analysis / scale
    return _phase(z) * np.clip(np.abs(z), lower, upper)


def _scale_step(analysis: np.ndarray, spectrum: np.ndarray) -> complex:
    """Exact least-squares scale: x^H (F^H s) / ||x||^2 for spectrum x.

    ||x||^2 is never 0: every message bin has |x_k| >= 1.
    """
    norm_sq = float(np.sum(spectrum.real**2 + spectrum.imag**2))
    return complex(np.vdot(spectrum, analysis) / norm_sq)


def _sequence_step(spectrum: np.ndarray, scale: complex, variant: str) -> np.ndarray:
    """Exact minimizer over the sequence under the variant's constraint.

    The full DFT basis is unitary, so the objective separates per entry
    of s: the unimodular minimizer is the phase of (scale * F x)_i, and
    the binary minimizer is the sign of its real part (sign(0) -> +1).
    Any variant but "unimodular" is binary: run_shape checks the name.
    """
    target = scale * np.fft.fft(spectrum, norm="ortho")
    if variant == "unimodular":
        return _phase(target)
    return np.where(target.real >= 0.0, 1.0, -1.0)


def run_shape(
    p: DesignProblem,
    variant: str = "binary",
    max_iters: int = 10000,
) -> BaselineResult:
    """Cycle spectrum, scale, and sequence steps from a seeded random start.

    Stops when the relative objective change drops below SHAPE_TOL or the
    complex scale reaches 0 (converged), or after max_iters cycles (not
    converged); max_iters must be at least 0. The objective trace is
    monotone non-increasing because every step is an exact block
    minimizer. The objective and the next cycle's spectrum and scale steps
    share one F^H s per sequence.
    """
    lower, upper = _shape_bounds(p)
    rng = np.random.default_rng([p.seed, _SHAPE_STREAM])
    if variant == "binary":
        seq = rng.integers(0, 2, size=p.n) * 2.0 - 1.0
    elif variant == "unimodular":
        seq = np.exp(2j * np.pi * rng.random(p.n))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters!r}")

    analysis = np.fft.ifft(seq, norm="ortho")
    scale = 1.0 + 0.0j
    objective = np.inf
    trace = []
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        previous = objective
        spectrum = _spectrum_step(analysis, scale, lower, upper)
        scale = _scale_step(analysis, spectrum)
        if scale == 0:
            converged = True  # model term is dead; objective can no longer improve
            break
        seq = _sequence_step(spectrum, scale, variant)
        analysis = np.fft.ifft(seq, norm="ortho")
        objective = _objective(analysis, spectrum, scale)
        trace.append(objective)
        if np.isfinite(previous) and abs(previous - objective) <= SHAPE_TOL * max(1.0, previous):
            converged = True
            break

    if variant == "binary":
        seq = seq.real.astype(np.int8)
    return BaselineResult(
        sequence=seq,
        metrics=metric_bundle(p, seq),
        iterations=iterations,
        trace=np.asarray(trace),
        converged=converged,
    )


def lpnn_target_spectrum(p: DesignProblem) -> np.ndarray:
    """Per-bin power targets: interferer bins half their cap sqrt(alpha / |I|), else 1."""
    target = np.ones(p.n)
    if len(p.interferer) > 0:
        target[p.interferer.as_array()] = np.sqrt(p.alpha / len(p.interferer)) / 2.0
    return target


def _to_complex(t: np.ndarray) -> np.ndarray:
    """Complex neurons Re + j Im from real-stacked t = [Re; Im]."""
    half = t.shape[0] // 2
    c = np.empty(half, dtype=complex)
    c.real = t[:half]
    c.imag = t[half:]
    return c


def _lpnn_kernel(target: np.ndarray, unimodular: bool):
    """LPNN's increments for one problem, evaluated in buffers made once.

    Neurons are a real n-vector (binary variant) or a complex n-vector
    (unimodular): the real-stacked neurons t = [Re s; Im s] of the
    unimodular formulation, whose rank-two real blocks reduce to complex
    products with the DFT basis. ``increments(neurons, scale, multipliers,
    residual, grad)`` writes the Lagrangian gradient into ``grad`` (the
    neuron increment is its negative; complex for unimodular neurons) and
    the modulus residuals into ``residual``, and returns the scale
    increment. Every ufunc writes into a buffer but takes its operands in
    the order of the plain expression ``4.0 * F ((|F^H c|^2 - scale *
    target) * F^H c) + (4 * LPNN_AUGMENT * (|c|^2 - 1) + 2 * multipliers) *
    c`` (the real part of its first term for binary neurons), so the
    results are bitwise those of evaluating it with temporaries.

    At n=64 a step's time is its ufunc dispatches, not their arithmetic,
    and a dispatch costs about twice as much when it must convert a Python
    scalar or cast an operand. So no ufunc here does either, save the
    inverse FFT of binary neurons, whose float-to-complex cast costs what a
    copy into a complex buffer would. The levers, none of which changes a
    bit:

    - Constants, the FFT factor and the scale are 0-d arrays made once; the
      scale is written into its box each step. A 0-d float64 holds the
      double the Python float converts to, and unimodular neurons' 4 is the
      complex ``4+0j`` the float converts to beside a complex operand.
    - The real factors of complex products, r = |F^H c|^2 - scale * target
      in ``r * y`` and the unimodular penalty in ``penalty * c``, are the
      ``.real`` views of complex buffers whose imaginary part is +0.0 and
      is never written: the operand numpy's float-to-complex cast builds.
    - Each squared modulus |z|^2 is one ``np.square`` over the complex
      array's float view, then one ``np.add`` of its even (real) and odd
      (imaginary) halves: per entry the same two squares and one add as
      ``z.real**2 + z.imag**2``.

    The ufuncs, buffers and views are bound once, in the closure, and every
    ufunc takes its output positionally, which skips keyword parsing. The
    scale increment's sum is ``np.add.reduce``: the pairwise sum that
    ``ndarray.sum`` makes through it, without that Python wrapper.

    The transforms call numpy's private ``numpy.fft._pocketfft_umath``
    gufuncs with the factor 1/sqrt(n) that ``np.fft`` computes for
    ``norm="ortho"``, which skips the wrappers' argument handling per call.
    ``TestLpnnExactness`` replays every step through plain ``np.fft`` calls,
    so it fails if a numpy release changes that module or that factor.
    """
    # numpy.fft loads on first use; importing it here keeps `import specseq` from loading it
    from numpy.fft import _pocketfft_umath

    n = target.shape[0]
    ifft, fft = _pocketfft_umath.ifft, _pocketfft_umath.fft
    square, add, subtract, multiply = np.square, np.add, np.subtract, np.multiply
    add_reduce = np.add.reduce
    dtype = complex if unimodular else float
    fct = np.array(np.reciprocal(np.sqrt(n, dtype=np.float64)))
    four = np.array(4.0, dtype=dtype)
    one, two, gain = np.array(1.0), np.array(2.0), np.array(4.0 * LPNN_AUGMENT)
    box = np.array(0.0)
    y = np.empty(n, dtype=complex)
    y_flat, y_real = y.view(float), y.real
    ry = np.empty(n, dtype=complex)
    squares = np.empty(2 * n)
    squares_real, squares_imag = squares[0::2], squares[1::2]
    r_c = np.zeros(n, dtype=complex)
    r = r_c.real
    penalty_c = np.zeros(n, dtype=dtype)
    penalty = penalty_c.real
    tmp = np.empty(n)
    work = np.empty(n, dtype=dtype)

    def increments(neurons, scale, multipliers, residual, grad) -> float:
        box[()] = scale
        ifft(neurons, fct, y)
        square(y_flat, squares)
        add(squares_real, squares_imag, r)
        multiply(box, target, tmp)
        subtract(r, tmp, r)
        multiply(r_c, y, ry)
        fft(ry, fct, y)
        if unimodular:
            multiply(four, y, grad)
            square(neurons.view(float), squares)
            add(squares_real, squares_imag, residual)
        else:
            multiply(four, y_real, grad)
            square(neurons, residual)
        subtract(residual, one, residual)
        multiply(gain, residual, penalty)
        multiply(two, multipliers, tmp)
        add(penalty, tmp, penalty)
        multiply(penalty_c, neurons, work)
        add(grad, work, grad)
        multiply(r, target, tmp)
        return 2.0 * float(add_reduce(tmp))

    return increments


def run_lpnn(
    p: DesignProblem,
    variant: str = "binary",
    max_iters: int = 10000,
    step: float = 1e-3,
) -> BaselineResult:
    """Euler dynamics on the augmented Lagrangian from a seeded random start.

    The modulus penalty weight is LPNN_AUGMENT, ``step`` must be finite
    and positive, ``max_iters`` at least 0, and alpha finite when the
    interferer band is nonempty (ValueError otherwise). Stops when the
    largest increment falls below 1e-8 (converged), for the binary variant
    also at the first step t whose output signs ``neurons >= 0.0`` have not
    changed since step t - _LPNN_PATIENCE, the start counting as step 0
    (converged), or else after max_iters steps (not converged); raises
    DivergenceError if any neuron passes 1e6 in magnitude. Binary outputs
    are the signs alone, and they settle long before the increments
    vanish; a budget below _LPNN_PATIENCE never reaches the sign rule. The
    trace records the worst modulus-constraint residual per step.

    Each step runs through _lpnn_kernel's increments and one Euler update
    of neurons and multipliers together. A state row holds [neurons as
    floats | multipliers] (unimodular neurons through their float view,
    which is the real-stacked update component by component), and an
    increment row holds [gradient as floats | residuals]. The update is one
    multiply of the increment row by ``coef = [-step..., +step...]``, made
    once, and one add into the next state row: bit for bit ``step * -grad``
    and ``step * residual``, since a product does not depend on the order
    of its factors. Steps run in blocks of _LPNN_BLOCK that keep every row
    they make: step j reads state row j, writes increment row j and adds
    into state row j + 1. After a block, the stop, sign and divergence
    rules are whole-block comparisons over those rows, and the first step
    where any holds ends the run, divergence first, as in a plain
    step-by-step loop. The sign rule flags each state row whose signs
    differ from the row before and carries the step of the last change
    across blocks as a running maximum. NaN fails the increment and
    divergence comparisons, so a step whose values are NaN neither stops
    nor diverges the run by them; its signs read NaN as -1, as the output
    does. The block's last state row, multipliers included, becomes the
    next block's first.
    """
    if variant not in ("binary", "unimodular"):
        raise ValueError(f"unknown variant {variant!r}")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters!r}")
    target = lpnn_target_spectrum(p)
    if not np.isfinite(target).all():  # the neurons would turn NaN on step 2
        raise ValueError(f"LPNN needs a finite interferer target, got alpha={p.alpha}")
    rng = np.random.default_rng([p.seed, _LPNN_STREAM])
    unimodular = variant == "unimodular"
    start = rng.standard_normal(2 * p.n if unimodular else p.n)
    scale = float(rng.standard_normal())
    increments = _lpnn_kernel(target, unimodular)

    # m neuron floats, then n multipliers (state) or n residuals (increments)
    m = 2 * p.n if unimodular else p.n
    state_block = np.empty((_LPNN_BLOCK + 1, m + p.n))
    inc_block = np.empty((_LPNN_BLOCK, m + p.n))
    state_rows, inc_rows = list(state_block), list(inc_block)
    dtype = complex if unimodular else float
    neuron_rows, multiplier_rows = list(state_block[:, :m].view(dtype)), list(state_block[:, m:])
    grad_rows, residual_rows = list(inc_block[:, :m].view(dtype)), list(inc_block[:, m:])
    neuron_rows[0][:] = _to_complex(start) if unimodular else start
    multiplier_rows[0][:] = rng.standard_normal(p.n)
    coef = np.concatenate([np.full(m, -step), np.full(p.n, step)])
    d_scales = [0.0] * _LPNN_BLOCK
    move = np.empty(m + p.n)
    add, multiply = np.add, np.multiply

    trace = np.empty(max_iters)
    iterations = 0
    last_change = 0
    converged = False
    while iterations < max_iters and not converged:
        steps = min(_LPNN_BLOCK, max_iters - iterations)
        # the checks below find the first step that overflows; the warnings would say no more
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(steps):
                d_scale = increments(
                    neuron_rows[j], scale, multiplier_rows[j], residual_rows[j], grad_rows[j]
                )
                d_scales[j] = d_scale
                multiply(inc_rows[j], coef, move)
                add(state_rows[j], move, state_rows[j + 1])
                scale = scale + step * d_scale
        worst = np.abs(inc_block[:steps, m:]).max(axis=1)
        diverged = np.abs(state_block[1:steps + 1, :m]).max(axis=1) > 1e6
        # the stop needs all three terms below 1e-8, so the other two are read only then
        stopped = worst < 1e-8
        if stopped.any():
            stopped &= np.abs(d_scales[:steps]) < 1e-8
            stopped &= np.abs(inc_block[:steps, :m]).max(axis=1) < 1e-8
        ended = diverged | stopped
        if not unimodular:
            signs = state_block[:steps + 1, :m] >= 0.0
            at = np.arange(iterations + 1, iterations + steps + 1)
            changes = np.where((signs[1:] != signs[:-1]).any(axis=1), at, last_change)
            np.maximum.accumulate(changes, out=changes)
            ended |= at - changes >= _LPNN_PATIENCE
            last_change = int(changes[-1])
        if ended.any():
            steps = int(ended.argmax()) + 1
            if diverged[steps - 1]:
                raise DivergenceError("neuron magnitude exceeded 1e6; reduce the step size")
            converged = True
        trace[iterations:iterations + steps] = worst[:steps]
        iterations += steps
        np.copyto(state_rows[0], state_rows[steps])

    neurons = neuron_rows[0]
    if variant == "binary":
        seq = np.where(neurons >= 0.0, 1, -1).astype(np.int8)
    else:
        seq = _phase(neurons)
    return BaselineResult(
        sequence=seq,
        metrics=metric_bundle(p, seq),
        iterations=iterations,
        trace=trace[:iterations].copy(),
        converged=converged,
    )
