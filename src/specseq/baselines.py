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

#: LPNN steps run between checks; a block the checks may fire in is replayed step by step
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


class _LpnnKernel:
    """LPNN's increments for one problem, evaluated in buffers made once.

    Neurons are a real n-vector (binary variant) or a complex n-vector
    (unimodular): the real-stacked neurons t = [Re s; Im s] of the
    unimodular formulation, whose rank-two real blocks reduce to complex
    products with the DFT basis. A call leaves the Lagrangian gradient in
    ``grad`` (the neuron increment is its negative) and the modulus
    residuals in ``residual``, and returns the scale increment. Every ufunc
    writes through ``out=`` but takes its operands in the order of the plain
    expression ``4.0 * F ((|F^H c|^2 - scale * target) * F^H c) +
    (4 * LPNN_AUGMENT * (|c|^2 - 1) + 2 * multipliers) * c`` (the real part
    of its first term for binary neurons), so the results are bitwise those
    of evaluating it with temporaries.

    The transforms call numpy's private ``numpy.fft._pocketfft_umath``
    gufuncs with the factor 1/sqrt(n) that ``np.fft`` computes for
    ``norm="ortho"``, which skips the wrappers' argument handling per call.
    ``TestLpnnExactness`` replays every step through plain ``np.fft`` calls,
    so it fails if a numpy release changes that module or that factor.
    """

    def __init__(self, target: np.ndarray, unimodular: bool):
        # numpy.fft loads on first use; importing it here keeps `import specseq` from loading it
        from numpy.fft import _pocketfft_umath

        n = target.shape[0]
        dtype = complex if unimodular else float
        self.target = target
        self.gain = 4.0 * LPNN_AUGMENT
        self.unimodular = unimodular
        self._ifft = _pocketfft_umath.ifft
        self._fft = _pocketfft_umath.fft
        self._fct = np.reciprocal(np.sqrt(n, dtype=np.float64))
        self.grad = np.empty(n, dtype=dtype)
        self.residual = np.empty(n)
        self._y = np.empty(n, dtype=complex)
        self._ry = np.empty(n, dtype=complex)
        self._r = np.empty(n)
        self._penalty = np.empty(n)
        self._tmp = np.empty(n)
        self._work = np.empty(n, dtype=dtype)

    def __call__(self, neurons: np.ndarray, scale: float, multipliers: np.ndarray) -> float:
        y, r, tmp, penalty, residual, grad = (
            self._y, self._r, self._tmp, self._penalty, self.residual, self.grad,
        )
        self._ifft(neurons, self._fct, out=y)
        np.square(y.real, out=r)
        np.square(y.imag, out=tmp)
        np.add(r, tmp, out=r)
        np.multiply(scale, self.target, out=tmp)
        np.subtract(r, tmp, out=r)
        np.multiply(r, y, out=self._ry)
        self._fft(self._ry, self._fct, out=y)
        if self.unimodular:
            np.multiply(4.0, y, out=grad)
            np.square(neurons.real, out=residual)
            np.square(neurons.imag, out=tmp)
            np.add(residual, tmp, out=residual)
        else:
            np.multiply(4.0, y.real, out=grad)
            np.square(neurons, out=residual)
        np.subtract(residual, 1.0, out=residual)
        np.multiply(self.gain, residual, out=penalty)
        np.multiply(2.0, multipliers, out=tmp)
        np.add(penalty, tmp, out=penalty)
        np.multiply(penalty, neurons, out=self._work)
        np.add(grad, self._work, out=grad)
        np.multiply(r, self.target, out=tmp)
        return 2.0 * float(tmp.sum())


def _max_abs(x: np.ndarray) -> float:
    return max(x.max(), -x.min())


def run_lpnn(
    p: DesignProblem,
    variant: str = "binary",
    max_iters: int = 10000,
    step: float = 1e-3,
) -> BaselineResult:
    """Euler dynamics on the augmented Lagrangian from a seeded random start.

    The modulus penalty weight is LPNN_AUGMENT. Stops when the largest
    increment falls below 1e-8 (converged) or after max_iters steps (not
    converged); raises DivergenceError if any neuron passes 1e6 in
    magnitude. The trace records the worst modulus-constraint residual
    per step.

    Each step runs in place through _LpnnKernel; unimodular neurons are
    updated through their real view, which is the real-stacked update
    component by component. Steps run in blocks of _LPNN_BLOCK with the
    checks made once per block: a block whose every residual row reaches
    1e-8 and whose every neuron stays within 1e6 can neither stop nor
    diverge, and its row maxima are the trace. Any other block is rerun from
    its start with the per-step checks, so the stop rule and DivergenceError
    fire at the same step as in a plain step-by-step loop.
    """
    validate_problem(p)
    if variant not in ("binary", "unimodular"):
        raise ValueError(f"unknown variant {variant!r}")
    bounds = shape_bounds_from_problem(p)
    target = lpnn_target_spectrum(p, bounds)
    rng = np.random.default_rng([p.seed, _LPNN_STREAM])
    unimodular = variant == "unimodular"
    neurons = rng.standard_normal(2 * p.n if unimodular else p.n)
    if unimodular:
        neurons = _to_complex(neurons)
    scale = float(rng.standard_normal())
    multipliers = rng.standard_normal(p.n)
    kernel = _LpnnKernel(target, unimodular)

    flat = neurons.view(float)
    grad = kernel.grad.view(float)
    residual = kernel.residual
    move = np.empty_like(flat)
    drift = np.empty(p.n)

    def euler_step() -> float:
        """Advance neurons, scale and multipliers by one step; return d_scale."""
        nonlocal scale
        d_scale = kernel(neurons, scale, multipliers)
        np.multiply(grad, -step, out=move)  # bit for bit step * -grad
        np.add(flat, move, out=flat)
        scale = scale + step * d_scale
        np.multiply(step, residual, out=drift)
        np.add(multipliers, drift, out=multipliers)
        return d_scale

    residual_rows = np.empty((_LPNN_BLOCK, p.n))
    neuron_rows = np.empty((_LPNN_BLOCK, flat.shape[0]))
    saved_neurons = np.empty_like(flat)
    saved_multipliers = np.empty_like(multipliers)
    trace = np.empty(max(max_iters, 0))
    iterations = 0
    converged = False
    while iterations < max_iters and not converged:
        steps = min(_LPNN_BLOCK, max_iters - iterations)
        np.copyto(saved_neurons, flat)
        np.copyto(saved_multipliers, multipliers)
        saved_scale = scale
        # a block that overflows is rerun below, so its warnings would be spurious
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(steps):
                euler_step()
                residual_rows[j] = residual
                neuron_rows[j] = flat
        worst = np.abs(residual_rows[:steps]).max(axis=1)
        # NaN fails both comparisons, so a block with a NaN is rerun too
        if np.all(worst >= 1e-8) and np.all(np.abs(neuron_rows[:steps]) <= 1e6):
            trace[iterations:iterations + steps] = worst
            iterations += steps
            continue
        np.copyto(flat, saved_neurons)
        np.copyto(multipliers, saved_multipliers)
        scale = saved_scale
        for _ in range(steps):
            iterations += 1
            d_scale = euler_step()
            worst_residual = _max_abs(residual)
            trace[iterations - 1] = worst_residual
            if _max_abs(flat) > 1e6:
                raise DivergenceError("neuron magnitude exceeded 1e6; reduce the step size")
            # the stop needs all three terms below 1e-8, so the gradient is read only then
            if worst_residual < 1e-8 and max(_max_abs(grad), abs(d_scale), worst_residual) < 1e-8:
                converged = True
                break

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
