"""Alternating-projection (SHAPE) and neural-dynamics (LPNN) baselines.

Both methods come from the unimodular sequence design literature and are
included for comparison, each in its original unimodular form and in a
binary-constrained form. SHAPE is block coordinate descent on
||F^H s - scale * x||^2 over the spectrum x, the complex scale, and the
sequence s; every step is an exact block minimizer, so the objective
never increases. LPNN runs Euler dynamics on an augmented Lagrangian
with per-entry modulus constraints.

Both work with the unitary DFT F[i, k] = exp(-2j*pi*i*k/n)/sqrt(n), whose
products are FFTs: F^H s is ``np.fft.ifft(s, norm="ortho")`` and F x is
``np.fft.fft(x, norm="ortho")``. SHAPE's block steps act on arrays, and the
analysis F^H s of each new sequence is computed once: 2 FFTs per cycle.
LPNN calls the pocketfft gufuncs behind those two functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ZeroScaleError, ZeroSpectrumError
from .problem import DesignProblem, MetricBundle, metric_bundle, validate_problem

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


@dataclass(frozen=True)
class ShapeBounds:
    """Per-bin magnitude bounds: lower[i] <= |x_i| <= upper[i]."""

    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        if np.any(self.lower > self.upper):
            raise ValueError("lower bounds exceed upper bounds")


@dataclass(frozen=True)
class BaselineResult:
    sequence: np.ndarray
    metrics: MetricBundle
    iterations: int
    trace: np.ndarray
    #: True when the run stopped by its own rule, False when max_iters cut it
    converged: bool


def shape_bounds_from_problem(p: DesignProblem) -> ShapeBounds:
    """Map a design problem to spectrum magnitude bounds.

    Interferer bins get an upper bound sqrt(alpha / |interferer|) so the
    band power cannot exceed alpha; message bins get a lower bound of 1;
    all other bins are unconstrained.
    """
    validate_problem(p)
    upper = np.full(p.n, UNBOUNDED)
    lower = np.zeros(p.n)
    if len(p.interferer) > 0:
        upper[p.interferer.as_array()] = np.sqrt(p.alpha / len(p.interferer))
    lower[p.message.as_array()] = 1.0
    return ShapeBounds(upper=upper, lower=lower)


def _analysis(s: np.ndarray) -> np.ndarray:
    """F^H s."""
    return np.fft.ifft(s, norm="ortho")


def _synthesis(x: np.ndarray) -> np.ndarray:
    """F x."""
    return np.fft.fft(x, norm="ortho")


def _objective(analysis: np.ndarray, spectrum, scale) -> float:
    resid = analysis - scale * spectrum
    return float(np.sum(resid.real**2 + resid.imag**2))


def _phase(z: np.ndarray) -> np.ndarray:
    """z / |z| per entry, and 1 where z is 0."""
    mag = np.abs(z)
    return np.where(mag == 0.0, 1.0 + 0.0j, z / np.where(mag == 0.0, 1.0, mag))


def shape_spectrum_step(analysis: np.ndarray, scale: complex, bounds: ShapeBounds) -> np.ndarray:
    """Exact minimizer over the spectrum: radially clip analysis / scale per bin."""
    if scale == 0:
        raise ZeroScaleError("scale factor is zero")
    z = analysis / scale
    return _phase(z) * np.clip(np.abs(z), bounds.lower, bounds.upper)


def shape_scale_step(analysis: np.ndarray, spectrum: np.ndarray) -> complex:
    """Exact least-squares scale: x^H (F^H s) / ||x||^2 for spectrum x."""
    norm_sq = float(np.sum(spectrum.real**2 + spectrum.imag**2))
    if norm_sq == 0.0:
        raise ZeroSpectrumError("auxiliary spectrum is identically zero")
    return complex(np.vdot(spectrum, analysis) / norm_sq)


def shape_sequence_step(spectrum: np.ndarray, scale: complex, variant: str) -> np.ndarray:
    """Exact minimizer over the sequence under the variant's constraint.

    The full DFT basis is unitary, so the objective separates per entry
    of s: the unimodular minimizer is the phase of (scale * F x)_i, and
    the binary minimizer is the sign of its real part (sign(0) -> +1).
    """
    target = scale * _synthesis(spectrum)
    if variant == "unimodular":
        return _phase(target)
    if variant == "binary":
        return np.where(target.real >= 0.0, 1.0, -1.0)
    raise ValueError(f"unknown variant {variant!r}")


def run_shape(
    p: DesignProblem,
    variant: str = "binary",
    max_iters: int = 10000,
) -> BaselineResult:
    """Cycle spectrum, scale, and sequence steps from a seeded random start.

    Stops when the relative objective change drops below SHAPE_TOL or the
    complex scale reaches 0 (converged), or after max_iters cycles (not
    converged). The objective trace is monotone non-increasing
    because every step is an exact block minimizer. The objective and the
    next cycle's spectrum and scale steps share one F^H s per sequence.
    """
    validate_problem(p)
    bounds = shape_bounds_from_problem(p)
    rng = np.random.default_rng([p.seed, _SHAPE_STREAM])
    if variant == "binary":
        seq = rng.integers(0, 2, size=p.n) * 2.0 - 1.0
    elif variant == "unimodular":
        seq = np.exp(2j * np.pi * rng.random(p.n))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    analysis = _analysis(seq)
    scale = 1.0 + 0.0j
    objective = np.inf
    trace = []
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        previous = objective
        spectrum = shape_spectrum_step(analysis, scale, bounds)
        scale = shape_scale_step(analysis, spectrum)
        if scale == 0:
            converged = True  # model term is dead; objective can no longer improve
            break
        seq = shape_sequence_step(spectrum, scale, variant)
        analysis = _analysis(seq)
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


def lpnn_target_spectrum(p: DesignProblem, bounds: ShapeBounds) -> np.ndarray:
    """Per-bin power targets: message bins 1, interferer bins half their cap, else 1."""
    target = np.ones(p.n)
    if len(p.interferer) > 0:
        idx = p.interferer.as_array()
        target[idx] = bounds.upper[idx] / 2.0
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

    At n=64 a step's time is its ufunc dispatches, not their arithmetic.
    Three things cut them without changing a bit:

    - Each squared modulus |z|^2 (|F^H c|^2, and |c|^2 for unimodular
      neurons) is one ``np.square`` over the complex array's float view,
      then one ``np.add`` of the view's even (real) and odd (imaginary)
      halves: per entry the same two squares and one add as
      ``z.real**2 + z.imag**2``, in one call fewer.
    - The ufuncs, buffers and views are bound once, in the closure, and
      every ufunc takes its output positionally, which skips keyword
      parsing and leaves the arithmetic as it is.
    - The scale increment's sum is ``np.add.reduce``: the pairwise sum that
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
    fct = np.reciprocal(np.sqrt(n, dtype=np.float64))
    gain = 4.0 * LPNN_AUGMENT
    y = np.empty(n, dtype=complex)
    y_flat, y_real = y.view(float), y.real
    ry = np.empty(n, dtype=complex)
    squares = np.empty(2 * n)
    squares_real, squares_imag = squares[0::2], squares[1::2]
    r = np.empty(n)
    penalty = np.empty(n)
    tmp = np.empty(n)
    work = np.empty(n, dtype=complex if unimodular else float)

    def increments(neurons, scale, multipliers, residual, grad) -> float:
        ifft(neurons, fct, y)
        square(y_flat, squares)
        add(squares_real, squares_imag, r)
        multiply(scale, target, tmp)
        subtract(r, tmp, r)
        multiply(r, y, ry)
        fft(ry, fct, y)
        if unimodular:
            multiply(4.0, y, grad)
            square(neurons.view(float), squares)
            add(squares_real, squares_imag, residual)
        else:
            multiply(4.0, y_real, grad)
            square(neurons, residual)
        subtract(residual, 1.0, residual)
        multiply(gain, residual, penalty)
        multiply(2.0, multipliers, tmp)
        add(penalty, tmp, penalty)
        multiply(penalty, neurons, work)
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

    The modulus penalty weight is LPNN_AUGMENT and ``step`` must be finite
    and positive. Stops when the largest increment falls below 1e-8
    (converged) or after max_iters steps (not converged); raises
    DivergenceError if any neuron passes 1e6 in magnitude. The trace
    records the worst modulus-constraint residual per step.

    Each step runs through _lpnn_kernel's increments and an Euler add;
    unimodular neurons are updated through their real view, which is the
    real-stacked update component by component. Steps run in blocks of
    _LPNN_BLOCK that keep every value they make: step j reads neuron row j
    and writes its Euler add into row j + 1, and the kernel writes its
    residuals and gradient into row j of their blocks. After a block, the
    stop and divergence rules are whole-block comparisons over those rows,
    and the first step where either holds ends the run, divergence first,
    as in a plain step-by-step loop. NaN fails both comparisons, so a step
    whose values are NaN neither stops nor diverges the run.
    """
    validate_problem(p)
    if variant not in ("binary", "unimodular"):
        raise ValueError(f"unknown variant {variant!r}")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    bounds = shape_bounds_from_problem(p)
    target = lpnn_target_spectrum(p, bounds)
    rng = np.random.default_rng([p.seed, _LPNN_STREAM])
    unimodular = variant == "unimodular"
    start = rng.standard_normal(2 * p.n if unimodular else p.n)
    scale = float(rng.standard_normal())
    multipliers = rng.standard_normal(p.n)
    increments = _lpnn_kernel(target, unimodular)

    dtype = complex if unimodular else float
    neuron_block = np.empty((_LPNN_BLOCK + 1, p.n), dtype=dtype)
    flat_block = neuron_block.view(float)
    neuron_block[0] = _to_complex(start) if unimodular else start
    neuron_rows = list(neuron_block)
    flat_rows = list(flat_block)
    residual_block = np.empty((_LPNN_BLOCK, p.n))
    residual_rows = list(residual_block)
    grad_block = np.empty((_LPNN_BLOCK, p.n), dtype=dtype)
    grad_rows = list(grad_block)
    flat_grad_block = grad_block.view(float)
    flat_grad_rows = list(flat_grad_block)
    d_scales = [0.0] * _LPNN_BLOCK
    move = np.empty(flat_block.shape[1])
    drift = np.empty(p.n)
    add, multiply = np.add, np.multiply
    neg_step = -step

    trace = np.empty(max(max_iters, 0))
    iterations = 0
    converged = False
    while iterations < max_iters and not converged:
        steps = min(_LPNN_BLOCK, max_iters - iterations)
        # the checks below find the first step that overflows; the warnings would say no more
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(steps):
                residual = residual_rows[j]
                d_scale = increments(neuron_rows[j], scale, multipliers, residual, grad_rows[j])
                d_scales[j] = d_scale
                multiply(flat_grad_rows[j], neg_step, move)  # bit for bit step * -grad
                add(flat_rows[j], move, flat_rows[j + 1])
                scale = scale + step * d_scale
                multiply(step, residual, drift)
                add(multipliers, drift, multipliers)
        worst = np.abs(residual_block[:steps]).max(axis=1)
        diverged = np.abs(flat_block[1:steps + 1]).max(axis=1) > 1e6
        # the stop needs all three terms below 1e-8, so the other two are read only then
        stopped = worst < 1e-8
        if stopped.any():
            stopped &= np.abs(d_scales[:steps]) < 1e-8
            stopped &= np.abs(flat_grad_block[:steps]).max(axis=1) < 1e-8
        ended = diverged | stopped
        if ended.any():
            steps = int(ended.argmax()) + 1
            if diverged[steps - 1]:
                raise DivergenceError("neuron magnitude exceeded 1e6; reduce the step size")
            converged = True
        trace[iterations:iterations + steps] = worst[:steps]
        iterations += steps
        np.copyto(flat_rows[0], flat_rows[steps])

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
