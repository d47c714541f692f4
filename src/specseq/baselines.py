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
``np.fft.fft(x, norm="ortho")``.
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

_SHAPE_STREAM = 101
_LPNN_STREAM = 202


@dataclass(frozen=True)
class ShapeBounds:
    """Per-bin magnitude bounds: lower[i] <= |x_i| <= upper[i]."""

    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        if np.any(self.lower > self.upper):
            raise ValueError("lower bounds exceed upper bounds")


@dataclass
class ShapeState:
    """Current iterate: sequence, auxiliary spectrum, complex scale, objective."""

    sequence: np.ndarray
    spectrum: np.ndarray
    scale: complex
    objective: float


@dataclass
class LpnnState:
    """Neurons (real-stacked for the unimodular variant), scale, multipliers."""

    neurons: np.ndarray
    scale: float
    multipliers: np.ndarray
    weights: np.ndarray
    augment: float
    step: float


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


def shape_spectrum_step(state: ShapeState, bounds: ShapeBounds) -> ShapeState:
    """Exact minimizer over the spectrum: radially clip F^H s / scale per bin."""
    if state.scale == 0:
        raise ZeroScaleError("scale factor is zero")
    analysis = _analysis(state.sequence)
    z = analysis / state.scale
    mag = np.abs(z)
    phase = np.where(mag == 0.0, 1.0 + 0.0j, z / np.where(mag == 0.0, 1.0, mag))
    clipped = np.clip(mag, bounds.lower, bounds.upper)
    x = phase * clipped
    return ShapeState(
        sequence=state.sequence,
        spectrum=x,
        scale=state.scale,
        objective=_objective(analysis, x, state.scale),
    )


def shape_scale_step(state: ShapeState) -> ShapeState:
    """Exact least-squares scale: x^H (F^H s) / ||x||^2."""
    norm_sq = float(np.sum(state.spectrum.real**2 + state.spectrum.imag**2))
    if norm_sq == 0.0:
        raise ZeroSpectrumError("auxiliary spectrum is identically zero")
    analysis = _analysis(state.sequence)
    scale = complex(np.vdot(state.spectrum, analysis) / norm_sq)
    return ShapeState(
        sequence=state.sequence,
        spectrum=state.spectrum,
        scale=scale,
        objective=_objective(analysis, state.spectrum, scale),
    )


def shape_sequence_step(state: ShapeState, variant: str) -> ShapeState:
    """Exact minimizer over the sequence under the variant's constraint.

    The full DFT basis is unitary, so the objective separates per entry
    of s: the unimodular minimizer is the phase of (scale * F x)_i, and
    the binary minimizer is the sign of its real part (sign(0) -> +1).
    """
    target = state.scale * _synthesis(state.spectrum)
    if variant == "unimodular":
        mag = np.abs(target)
        seq = np.where(mag == 0.0, 1.0 + 0.0j, target / np.where(mag == 0.0, 1.0, mag))
    elif variant == "binary":
        seq = np.where(target.real >= 0.0, 1.0, -1.0)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ShapeState(
        sequence=seq,
        spectrum=state.spectrum,
        scale=state.scale,
        objective=_objective(_analysis(seq), state.spectrum, state.scale),
    )


def run_shape(
    p: DesignProblem,
    variant: str = "binary",
    max_iters: int = 10000,
    tol: float = 1e-10,
) -> BaselineResult:
    """Cycle spectrum, scale, and sequence steps from a seeded random start.

    Stops when the relative objective change drops below tol or the
    complex scale reaches 0 (converged), or after max_iters cycles (not
    converged). The objective trace is monotone non-increasing
    because every step is an exact block minimizer.
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

    state = ShapeState(sequence=seq, spectrum=np.zeros(p.n), scale=1.0 + 0.0j, objective=np.inf)
    trace = []
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        previous = state.objective
        state = shape_spectrum_step(state, bounds)
        state = shape_scale_step(state)
        if state.scale == 0:
            converged = True  # model term is dead; objective can no longer improve
            break
        state = shape_sequence_step(state, variant)
        trace.append(state.objective)
        if np.isfinite(previous) and abs(previous - state.objective) <= tol * max(1.0, previous):
            converged = True
            break

    seq_out = state.sequence
    if variant == "binary":
        seq_out = seq_out.real.astype(np.int8)
    return BaselineResult(
        sequence=seq_out,
        metrics=metric_bundle(p, seq_out),
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


def _split(t: np.ndarray) -> np.ndarray:
    half = t.shape[0] // 2
    return t[:half] + 1j * t[half:]


def lpnn_increments(state: LpnnState, p: DesignProblem, target_spectrum: np.ndarray):
    """Negative Lagrangian gradients for neurons and scale, constraint residuals for multipliers.

    The unimodular variant works on real-stacked neurons t = [Re s; Im s];
    the rank-two real blocks of the stacked formulation reduce to complex
    products with the DFT basis, which is what is computed here.
    """
    n = p.n
    if state.neurons.shape[0] == 2 * n:
        c = _split(state.neurons)
        y = _analysis(c)
        power = y.real**2 + y.imag**2
        r = state.weights * (power - state.scale * target_spectrum)
        grad_c = 4.0 * _synthesis(r * y)
        modulus = c.real**2 + c.imag**2
        grad_c += (4.0 * state.augment * (modulus - 1.0) + 2.0 * state.multipliers) * c
        d_neurons = -np.concatenate([grad_c.real, grad_c.imag])
        residual = modulus - 1.0
    elif state.neurons.shape[0] == n:
        s = state.neurons
        y = _analysis(s)
        power = y.real**2 + y.imag**2
        r = state.weights * (power - state.scale * target_spectrum)
        grad = 4.0 * _synthesis(r * y).real
        grad += (4.0 * state.augment * (s**2 - 1.0) + 2.0 * state.multipliers) * s
        d_neurons = -grad
        residual = s**2 - 1.0
    else:
        raise ValueError(f"neuron vector length {state.neurons.shape[0]} does not match n={n}")
    d_scale = 2.0 * float(np.sum(r * target_spectrum))
    return d_neurons, d_scale, residual


def run_lpnn(
    p: DesignProblem,
    variant: str = "binary",
    max_iters: int = 10000,
    step: float = 1e-3,
) -> BaselineResult:
    """Euler dynamics on the augmented Lagrangian from a seeded random start.

    Every bin carries weight 1 and the modulus penalty weight is
    LPNN_AUGMENT. Stops when the largest increment falls below 1e-8
    (converged) or after max_iters steps (not converged); raises
    DivergenceError if any neuron passes 1e6 in magnitude. The trace
    records the worst modulus-constraint residual per step.
    """
    validate_problem(p)
    if variant not in ("binary", "unimodular"):
        raise ValueError(f"unknown variant {variant!r}")
    bounds = shape_bounds_from_problem(p)
    target = lpnn_target_spectrum(p, bounds)
    rng = np.random.default_rng([p.seed, _LPNN_STREAM])
    dim = p.n if variant == "binary" else 2 * p.n
    state = LpnnState(
        neurons=rng.standard_normal(dim),
        scale=float(rng.standard_normal()),
        multipliers=rng.standard_normal(p.n),
        weights=np.ones(p.n),
        augment=LPNN_AUGMENT,
        step=step,
    )

    trace = []
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        d_neurons, d_scale, residual = lpnn_increments(state, p, target)
        state.neurons = state.neurons + step * d_neurons
        state.scale = state.scale + step * d_scale
        state.multipliers = state.multipliers + step * residual
        worst_residual = float(np.max(np.abs(residual)))
        trace.append(worst_residual)
        if np.max(np.abs(state.neurons)) > 1e6:
            raise DivergenceError("neuron magnitude exceeded 1e6; reduce the step size")
        if max(float(np.max(np.abs(d_neurons))), abs(d_scale), worst_residual) < 1e-8:
            converged = True
            break

    if variant == "binary":
        seq = np.where(state.neurons >= 0.0, 1, -1).astype(np.int8)
    else:
        c = _split(state.neurons)
        mag = np.abs(c)
        seq = np.where(mag == 0.0, 1.0 + 0.0j, c / np.where(mag == 0.0, 1.0, mag))
    return BaselineResult(
        sequence=seq,
        metrics=metric_bundle(p, seq),
        iterations=iterations,
        trace=np.asarray(trace),
        converged=converged,
    )
