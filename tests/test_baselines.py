import warnings

import numpy as np
import pytest

from specseq import (
    BandSpec,
    DesignProblem,
    DivergenceError,
    ZeroScaleError,
    ZeroSpectrumError,
    metric_bundle,
    run_lpnn,
    run_shape,
    shape_bounds_from_problem,
    shape_scale_step,
    shape_sequence_step,
    shape_spectrum_step,
)
from specseq.baselines import (
    _LPNN_BLOCK,
    _LPNN_STREAM,
    _SHAPE_STREAM,
    LPNN_AUGMENT,
    SHAPE_TOL,
    UNBOUNDED,
    _lpnn_kernel,
    _to_complex,
    lpnn_target_spectrum,
)


def make_problem(n, message, interferer, alpha=1.0, seed=0):
    return DesignProblem(n, BandSpec(message), BandSpec(interferer), alpha, 10, seed)


def dense_dft(n):
    """The unitary DFT from its definition: F[i, k] = exp(-2j*pi*i*k/n)/sqrt(n)."""
    i = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(i, i) / n) / np.sqrt(n)


def analysis_of(sequence):
    """F^H s by the dense DFT."""
    return dense_dft(sequence.shape[0]).conj().T @ sequence


def objective_of(sequence, spectrum, scale):
    """SHAPE's objective ||F^H s - scale * x||^2 by the dense DFT."""
    return float(np.sum(np.abs(analysis_of(sequence) - scale * spectrum) ** 2))


def random_state(n, seed, binary=False):
    """A random (sequence, spectrum, scale) iterate."""
    rng = np.random.default_rng(seed)
    if binary:
        seq = rng.integers(0, 2, n) * 2.0 - 1.0
    else:
        seq = np.exp(2j * np.pi * rng.random(n))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scale = complex(rng.standard_normal() + 1j * rng.standard_normal())
    return seq, x, scale


def shape_start(p, variant):
    """run_shape's seeded starting sequence."""
    rng = np.random.default_rng([p.seed, _SHAPE_STREAM])
    if variant == "binary":
        return rng.integers(0, 2, size=p.n) * 2.0 - 1.0
    return np.exp(2j * np.pi * rng.random(p.n))


class TestShapeBounds:
    def test_problem_mapping(self):
        p = make_problem(16, (2, 3), (6, 7, 8), alpha=5.0)
        bounds = shape_bounds_from_problem(p)
        assert np.allclose(bounds.upper[[6, 7, 8]], np.sqrt(5.0 / 3.0))
        assert np.all(bounds.lower[[2, 3]] == 1.0)
        assert np.all(bounds.upper[[2, 3]] == UNBOUNDED)
        free = [i for i in range(16) if i not in (2, 3, 6, 7, 8)]
        assert np.all(bounds.lower[free] == 0.0)
        assert np.all(bounds.upper[free] == UNBOUNDED)
        assert np.all(bounds.lower <= bounds.upper)

    def test_empty_interferer(self):
        p = make_problem(8, (1,), (), alpha=2.0)
        bounds = shape_bounds_from_problem(p)
        assert np.all(bounds.upper == UNBOUNDED)

    def test_paper_scale_value(self):
        p = DesignProblem(
            128, BandSpec(tuple(range(25, 31)) + tuple(range(40, 46))),
            BandSpec(tuple(range(10, 16)) + tuple(range(50, 56))), 5.0, 10, 0,
        )
        bounds = shape_bounds_from_problem(p)
        assert bounds.upper[10] == pytest.approx(np.sqrt(5.0 / 12.0), rel=1e-12)


class TestShapeSteps:
    def test_spectrum_step_keeps_interior_bins(self):
        p = make_problem(8, (1,), (3,), alpha=100.0)
        bounds = shape_bounds_from_problem(p)
        bounds.lower[:] = 0.0
        seq, _, _ = random_state(8, 1)
        z = analysis_of(seq)
        spectrum = shape_spectrum_step(z, 1.0 + 0.0j, bounds)
        free = [i for i in range(8) if i != 1]
        assert np.allclose(spectrum[free], z[free])

    def test_spectrum_step_forced_magnitude(self):
        from specseq.baselines import ShapeBounds

        bounds = ShapeBounds(upper=np.full(8, 0.7), lower=np.full(8, 0.7))
        seq, _, scale = random_state(8, 2)
        spectrum = shape_spectrum_step(analysis_of(seq), scale, bounds)
        assert np.allclose(np.abs(spectrum), 0.7)

    def test_spectrum_step_decreases_objective(self):
        p = make_problem(8, (1, 2), (4,), alpha=2.0)
        bounds = shape_bounds_from_problem(p)
        for seed in range(5):
            seq, x, scale = random_state(8, seed)
            spectrum = shape_spectrum_step(analysis_of(seq), scale, bounds)
            assert objective_of(seq, spectrum, scale) <= objective_of(seq, x, scale) + 1e-9

    def test_scale_step_exact_fit(self):
        seq, _, _ = random_state(8, 3)
        spectrum = analysis_of(seq)
        scale = shape_scale_step(analysis_of(seq), spectrum)
        assert scale == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert objective_of(seq, spectrum, scale) == pytest.approx(0.0, abs=1e-12)

    def test_scale_step_homogeneity(self):
        seq, x, _ = random_state(8, 4)
        once = shape_scale_step(analysis_of(seq), x)
        twice = shape_scale_step(analysis_of(seq), 2.0 * x)
        assert twice == pytest.approx(once / 2.0, rel=1e-12)

    def test_scale_step_stationarity(self):
        seq, x, _ = random_state(8, 5)
        scale = shape_scale_step(analysis_of(seq), x)
        eps = 1e-7
        for direction in (1.0, 1j):
            plus = objective_of(seq, x, scale + eps * direction)
            minus = objective_of(seq, x, scale - eps * direction)
            derivative = (plus - minus) / (2 * eps)
            assert abs(derivative) < 1e-5

    def test_sequence_step_binary_values(self):
        _, x, scale = random_state(8, 6)
        seq = shape_sequence_step(x, scale, "binary")
        assert set(np.unique(seq.real)) <= {-1.0, 1.0}

    def test_sequence_step_unimodular_modulus(self):
        _, x, scale = random_state(8, 7)
        seq = shape_sequence_step(x, scale, "unimodular")
        assert np.allclose(np.abs(seq), 1.0)

    def test_sequence_step_binary_is_per_coordinate_optimal(self):
        _, x, scale = random_state(16, 8, binary=True)
        seq = shape_sequence_step(x, scale, "binary")
        base = objective_of(seq, x, scale)
        for i in range(16):
            flipped = seq.copy()
            flipped[i] = -flipped[i]
            assert base <= objective_of(flipped, x, scale) + 1e-9

    def test_sequence_step_decreases_objective(self):
        for seed in range(5):
            seq, x, scale = random_state(8, 20 + seed)
            new = shape_sequence_step(x, scale, "unimodular")
            assert objective_of(new, x, scale) <= objective_of(seq, x, scale) + 1e-9

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda z, x, bounds: shape_spectrum_step(z, 0.0j, bounds), ZeroScaleError),
            (lambda z, x, bounds: shape_scale_step(z, np.zeros_like(x)), ZeroSpectrumError),
        ],
        ids=["spectrum-at-zero-scale", "scale-of-zero-spectrum"],
    )
    def test_degenerate_inputs_raise(self, call, error):
        p = make_problem(8, (1,), (3,), alpha=2.0)
        seq, x, _ = random_state(8, 9)
        with pytest.raises(error):
            call(analysis_of(seq), x, shape_bounds_from_problem(p))


def assert_matches(actual, expected):
    """Agreement to 1e-12 relative to the larger of 1 and the largest expected entry."""
    expected = np.asarray(expected)
    assert np.max(np.abs(np.asarray(actual) - expected)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(expected)))
    )


def kernel_increments(neurons, scale, multipliers, p, target_spectrum):
    """(d_neurons, d_scale, residual) from run_lpnn's kernel, baselines._lpnn_kernel.

    Unimodular neurons are real-stacked [Re s; Im s], in and out. d_neurons
    and d_scale are the negative Lagrangian gradients; the modulus
    residuals are the multipliers' increments.
    """
    unimodular = neurons.shape[0] == 2 * p.n
    increments = _lpnn_kernel(target_spectrum, unimodular)
    residual = np.empty(p.n)
    grad = np.empty(p.n, dtype=complex if unimodular else float)
    d_scale = increments(_to_complex(neurons) if unimodular else neurons, scale, multipliers,
                         residual, grad)
    d_neurons = -np.concatenate([grad.real, grad.imag]) if unimodular else -grad
    return d_neurons, d_scale, residual


def dense_lpnn_increments(neurons, scale, multipliers, p, target_spectrum):
    """kernel_increments written with products by the dense DFT."""
    n = p.n
    f = dense_dft(n)
    if neurons.shape[0] == 2 * n:
        c = neurons[:n] + 1j * neurons[n:]
    else:
        c = neurons.astype(complex)
    y = f.conj().T @ c
    r = np.abs(y) ** 2 - scale * target_spectrum
    modulus = np.abs(c) ** 2
    penalty = 4.0 * LPNN_AUGMENT * (modulus - 1.0) + 2.0 * multipliers
    grad = 4.0 * (f @ (r * y)) + penalty * c
    if neurons.shape[0] == 2 * n:
        d_neurons = -np.concatenate([grad.real, grad.imag])
    else:
        d_neurons = -grad.real
    return d_neurons, 2.0 * float(np.sum(r * target_spectrum)), modulus - 1.0


class TestDenseDefinition:
    """The FFT-based steps against the dense DFT definition, at odd n and at n=1."""

    @staticmethod
    def problem(n):
        return make_problem(9, (1, 2), (4, 6)) if n == 9 else make_problem(1, (0,), ())

    @pytest.mark.parametrize("n", [9, 1])
    @pytest.mark.parametrize("binary", [False, True])
    def test_shape_steps(self, n, binary):
        bounds = shape_bounds_from_problem(self.problem(n))
        f = dense_dft(n)
        seq, _, scale = random_state(n, 40 + n, binary=binary)
        analysis = np.fft.ifft(seq, norm="ortho")
        assert_matches(analysis, f.conj().T @ seq)

        spectrum = shape_spectrum_step(analysis, scale, bounds)
        z = (f.conj().T @ seq) / scale
        clipped = np.clip(np.abs(z), bounds.lower, bounds.upper)
        assert_matches(spectrum, z / np.abs(z) * clipped)

        scale = shape_scale_step(analysis, spectrum)
        assert_matches(
            scale, np.vdot(spectrum, f.conj().T @ seq) / np.vdot(spectrum, spectrum).real
        )

        variant = "binary" if binary else "unimodular"
        seq = shape_sequence_step(spectrum, scale, variant)
        target = scale * (f @ spectrum)
        if binary:
            assert np.array_equal(seq, np.where(target.real >= 0.0, 1.0, -1.0))
        else:
            assert_matches(seq, target / np.abs(target))

    @pytest.mark.parametrize("n", [9, 1])
    @pytest.mark.parametrize("binary", [False, True])
    def test_shape_trace(self, n, binary):
        """run_shape's trace holds the dense objective of each cycle's iterate."""
        p = self.problem(n)
        variant = "binary" if binary else "unimodular"
        out = run_shape(p, variant, max_iters=3)
        bounds = shape_bounds_from_problem(p)
        seq, scale = shape_start(p, variant), 1.0 + 0.0j
        for objective in out.trace:
            spectrum = shape_spectrum_step(np.fft.ifft(seq, norm="ortho"), scale, bounds)
            scale = shape_scale_step(np.fft.ifft(seq, norm="ortho"), spectrum)
            seq = shape_sequence_step(spectrum, scale, variant)
            assert_matches(objective, objective_of(seq, spectrum, scale))
        assert len(out.trace) >= 1

    @pytest.mark.parametrize("n", [9, 1])
    @pytest.mark.parametrize("binary", [False, True])
    def test_lpnn_increments(self, n, binary):
        p = self.problem(n)
        target = lpnn_target_spectrum(p, shape_bounds_from_problem(p))
        rng = np.random.default_rng(50 + n)
        neurons = rng.standard_normal(n if binary else 2 * n)
        scale = float(rng.standard_normal())
        multipliers = rng.standard_normal(n)
        args = (neurons, scale, multipliers, p, target)
        for actual, expected in zip(kernel_increments(*args), dense_lpnn_increments(*args)):
            assert_matches(actual, expected)


class TestRunShape:
    def test_objective_trace_monotone(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=11)
        for variant in ("binary", "unimodular"):
            out = run_shape(p, variant, max_iters=300)
            assert np.all(np.diff(out.trace) <= 1e-9 * np.maximum(1.0, out.trace[:-1]))

    def test_binary_output_values(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=12)
        out = run_shape(p, "binary", max_iters=200)
        assert set(np.unique(out.sequence)) <= {-1, 1}
        assert out.metrics.message_power >= 0.0

    def test_converged_flag(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=11)
        for variant in ("binary", "unimodular"):
            out = run_shape(p, variant)
            assert out.converged and out.iterations < 10000
            # the first cycle has no previous objective, so one cycle cannot converge
            assert not run_shape(p, variant, max_iters=1).converged

    def test_flat_spectrum_target_decreases(self):
        from specseq.baselines import ShapeBounds

        rng = np.random.default_rng(13)
        n = 16
        bounds = ShapeBounds(upper=np.ones(n), lower=np.ones(n))
        seq, scale = np.exp(2j * np.pi * rng.random(n)), 1.0 + 0.0j
        values = []
        for _ in range(30):
            spectrum = shape_spectrum_step(analysis_of(seq), scale, bounds)
            scale = shape_scale_step(analysis_of(seq), spectrum)
            seq = shape_sequence_step(spectrum, scale, "unimodular")
            values.append(objective_of(seq, spectrum, scale))
        assert values[-1] <= values[0]

    def test_deterministic(self):
        p = make_problem(12, (1, 2), (5,), alpha=2.0, seed=9)
        a = run_shape(p, "binary", max_iters=100)
        b = run_shape(p, "binary", max_iters=100)
        assert np.array_equal(a.sequence, b.sequence)
        assert a.iterations == b.iterations


class TestLpnnIncrements:
    def lagrangian(self, p, neurons, scale, multipliers, target, c0=LPNN_AUGMENT):
        f = dense_dft(p.n)
        if neurons.shape[0] == 2 * p.n:
            c = neurons[: p.n] + 1j * neurons[p.n :]
            modulus = np.abs(c) ** 2
        else:
            c = neurons
            modulus = neurons**2
        power = np.abs(f.conj().T @ c) ** 2
        return (
            float(np.sum((power - scale * target) ** 2))
            + c0 * float(np.sum((modulus - 1.0) ** 2))
            + float(np.sum(multipliers * (modulus - 1.0)))
        )

    @pytest.mark.parametrize("variant_dim", [8, 16])
    def test_increments_match_finite_differences(self, variant_dim):
        p = make_problem(8, (1, 2), (4,), alpha=2.0)
        target = lpnn_target_spectrum(p, shape_bounds_from_problem(p))
        rng = np.random.default_rng(31)
        neurons = rng.standard_normal(variant_dim)
        scale = float(rng.standard_normal())
        multipliers = rng.standard_normal(8)
        d_neurons, d_scale, residual = kernel_increments(neurons, scale, multipliers, p, target)
        eps = 1e-6
        for i in range(variant_dim):
            bump = np.zeros(variant_dim)
            bump[i] = eps
            plus = self.lagrangian(p, neurons + bump, scale, multipliers, target)
            minus = self.lagrangian(p, neurons - bump, scale, multipliers, target)
            fd = -(plus - minus) / (2 * eps)
            assert fd == pytest.approx(d_neurons[i], rel=1e-5, abs=1e-6)
        plus = self.lagrangian(p, neurons, scale + eps, multipliers, target)
        minus = self.lagrangian(p, neurons, scale - eps, multipliers, target)
        assert -(plus - minus) / (2 * eps) == pytest.approx(d_scale, rel=1e-5, abs=1e-6)
        # multiplier increments ascend the Lagrangian: they are the residuals
        if variant_dim == 8:
            assert np.allclose(residual, neurons**2 - 1.0)
        else:
            c = neurons[:8] + 1j * neurons[8:]
            assert np.allclose(residual, np.abs(c) ** 2 - 1.0)

    def test_stationary_point_gives_zero_increments(self):
        p = make_problem(8, (1,), (3,), alpha=2.0)
        target = lpnn_target_spectrum(p, shape_bounds_from_problem(p))
        # c = 1 puts all power n in bin 0 and meets every modulus constraint;
        # this scale zeroes the scale gradient and these multipliers the neuron gradient
        scale = p.n * target[0] / float(np.sum(target**2))
        multipliers = np.full(8, -2.0 * (p.n - scale * target[0]))
        d_neurons, d_scale, residual = kernel_increments(np.ones(8), scale, multipliers, p, target)
        assert np.abs(d_neurons).max() <= 1e-8
        assert abs(d_scale) <= 1e-8
        assert np.abs(residual).max() <= 1e-8


class TestRunLpnn:
    def test_binary_output_values(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=14)
        out = run_lpnn(p, "binary", max_iters=800)
        assert set(np.unique(out.sequence)) <= {-1, 1}

    def test_unimodular_output_modulus(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=15)
        out = run_lpnn(p, "unimodular", max_iters=800)
        assert np.allclose(np.abs(out.sequence), 1.0)

    def test_constraint_residual_decreases(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=16)
        out = run_lpnn(p, "binary", max_iters=2000)
        first = np.mean(out.trace[:50])
        last = np.mean(out.trace[-50:])
        assert last < first

    def test_budget_cut_not_converged(self):
        # the baseline-64-w1 layout of the benchmark's compare workload
        p = make_problem(64, tuple(range(43, 53)), (31,), alpha=5.0)
        for variant in ("binary", "unimodular"):
            out = run_lpnn(p, variant, max_iters=50)
            assert out.iterations == 50 and not out.converged

    def test_divergence_detected(self):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=17)
        with pytest.raises(DivergenceError):
            run_lpnn(p, "binary", max_iters=2000, step=10.0)

    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_divergence_raises_without_warnings(self, variant):
        # the steps that overflow before the check fires must not leak RuntimeWarnings
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=17)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError):
                run_lpnn(p, variant, max_iters=2000, step=10.0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -1e-3])
    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_step_must_be_finite_and_positive(self, step, variant):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=17)
        with pytest.raises(ValueError, match="step"):
            run_lpnn(p, variant, max_iters=100, step=step)

    def test_deterministic(self):
        p = make_problem(12, (1, 2), (5,), alpha=2.0, seed=18)
        a = run_lpnn(p, "binary", max_iters=200)
        b = run_lpnn(p, "binary", max_iters=200)
        assert np.array_equal(a.sequence, b.sequence)


def plain_lpnn_increments(neurons, scale, multipliers, p, target_spectrum):
    """kernel_increments with temporaries, in the order of operations run_lpnn must keep."""
    n = p.n
    if neurons.shape[0] == 2 * n:
        c = neurons[:n] + 1j * neurons[n:]
        y = np.fft.ifft(c, norm="ortho")
        r = y.real**2 + y.imag**2 - scale * target_spectrum
        grad_c = 4.0 * np.fft.fft(r * y, norm="ortho")
        modulus = c.real**2 + c.imag**2
        grad_c += (4.0 * LPNN_AUGMENT * (modulus - 1.0) + 2.0 * multipliers) * c
        d_neurons = -np.concatenate([grad_c.real, grad_c.imag])
    else:
        s = neurons
        y = np.fft.ifft(s, norm="ortho")
        r = y.real**2 + y.imag**2 - scale * target_spectrum
        grad = 4.0 * np.fft.fft(r * y, norm="ortho").real
        modulus = s**2
        grad += (4.0 * LPNN_AUGMENT * (modulus - 1.0) + 2.0 * multipliers) * s
        d_neurons = -grad
    return d_neurons, 2.0 * float(np.sum(r * target_spectrum)), modulus - 1.0


def replay_lpnn(p, variant, max_iters, step=1e-3):
    """run_lpnn as a plain Euler loop over kernel_increments, checking each step bitwise.

    Returns (sequence, trace, iterations, converged), or the iteration
    at which a neuron passed 1e6 in magnitude.
    """
    target = lpnn_target_spectrum(p, shape_bounds_from_problem(p))
    rng = np.random.default_rng([p.seed, _LPNN_STREAM])
    neurons = rng.standard_normal(p.n if variant == "binary" else 2 * p.n)
    scale = float(rng.standard_normal())
    multipliers = rng.standard_normal(p.n)
    trace = []
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        args = (neurons, scale, multipliers, p, target)
        d_neurons, d_scale, residual = kernel_increments(*args)
        plain = plain_lpnn_increments(*args)
        assert d_neurons.tobytes() == plain[0].tobytes()
        assert d_scale.hex() == plain[1].hex()
        assert residual.tobytes() == plain[2].tobytes()
        neurons = neurons + step * d_neurons
        scale = scale + step * d_scale
        multipliers = multipliers + step * residual
        worst_residual = float(np.max(np.abs(residual)))
        trace.append(worst_residual)
        if np.max(np.abs(neurons)) > 1e6:
            return iterations
        if max(float(np.max(np.abs(d_neurons))), abs(d_scale), worst_residual) < 1e-8:
            converged = True
            break
    if variant == "binary":
        seq = np.where(neurons >= 0.0, 1, -1).astype(np.int8)
    else:
        c = neurons[: p.n] + 1j * neurons[p.n :]
        seq = c / np.abs(c)
    return seq, np.asarray(trace), iterations, converged


class TestLpnnExactness:
    """run_lpnn's in-place steps are bitwise the plain Euler loop over its kernel."""

    @pytest.mark.parametrize(
        "p, max_iters, step",
        [
            # odd n, interferer band asymmetric about DC
            (make_problem(9, (1, 2), (4, 6), alpha=1.0, seed=3), 2000, 1e-3),
            # the baseline-64-w1 layout of the benchmark's compare workload
            (make_problem(64, tuple(range(43, 53)), (31,), alpha=5.0), 300, 1e-3),
            # n=1 reaches the stop rule: every term of it is evaluated
            (make_problem(1, (0,), (), alpha=1.0, seed=2), 20000, 2e-2),
            # the other two baseline layouts of the compare workload
            (make_problem(64, tuple(range(39, 49)), tuple(range(1, 5)), alpha=5.0), 300, 1e-3),
            (make_problem(64, tuple(range(22, 32)), tuple(range(51, 61)), alpha=5.0), 300, 1e-3),
        ],
        ids=["n9", "baseline-64-w1", "n1-converges", "baseline-64-w4", "baseline-64-w10"],
    )
    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_matches_plain_loop(self, p, max_iters, step, variant):
        out = run_lpnn(p, variant, max_iters=max_iters, step=step)
        seq, trace, iterations, converged = replay_lpnn(p, variant, max_iters, step)
        assert out.trace.tobytes() == trace.tobytes()
        assert out.iterations == iterations and out.converged == converged
        assert converged == (p.n == 1)
        if converged:
            # the stop fires inside a block, so the block's first-event index ends the run
            assert iterations % _LPNN_BLOCK != 0
        assert out.sequence.dtype == seq.dtype and out.sequence.tobytes() == seq.tobytes()
        assert out.metrics == metric_bundle(p, seq)

    @pytest.mark.parametrize(
        "max_iters", [0, 1, _LPNN_BLOCK - 1, _LPNN_BLOCK, _LPNN_BLOCK + 1, 2 * _LPNN_BLOCK + 3]
    )
    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_block_edges(self, max_iters, variant):
        """Budgets on and beside the block length cut the run where the plain loop does."""
        p = make_problem(9, (1, 2), (4, 6), alpha=1.0, seed=3)
        out = run_lpnn(p, variant, max_iters=max_iters)
        seq, trace, iterations, converged = replay_lpnn(p, variant, max_iters)
        assert out.trace.tobytes() == trace.tobytes()
        assert out.iterations == iterations == max_iters
        assert not out.converged and not converged
        assert out.sequence.dtype == seq.dtype and out.sequence.tobytes() == seq.tobytes()
        if max_iters == 0:
            assert out.iterations == 0 and out.trace.shape == (0,) and not out.converged

    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_rerun_to_the_budget(self, variant):
        """A residual below 1e-8 alone does not stop the run, which ends at the budget.

        The step puts the n=1 neuron on the unit circle after one step, so the
        second residual is about 0 while the gradient is not. The stop does
        not fire, the run diverges only after 5 steps, and the block's checks
        find no event before the budget.
        """
        p = make_problem(1, (0,), (), alpha=1.0, seed=2)
        target = lpnn_target_spectrum(p, shape_bounds_from_problem(p))
        rng = np.random.default_rng([p.seed, _LPNN_STREAM])
        neurons = rng.standard_normal(1 if variant == "binary" else 2)
        scale = float(rng.standard_normal())
        d_neurons = kernel_increments(neurons, scale, rng.standard_normal(1), p, target)[0]
        c, d = complex(*neurons), complex(*d_neurons)
        # the smallest positive root of |c + step * d|^2 = 1
        a, b, k = abs(d) ** 2, 2 * (c.conjugate() * d).real, abs(c) ** 2 - 1
        step = min(r for r in np.roots([a, b, k]).real if r > 0)
        out = run_lpnn(p, variant, max_iters=5, step=step)
        seq, trace, iterations, converged = replay_lpnn(p, variant, 5, step)
        assert trace[1] < 1e-8 and not converged
        assert out.trace.tobytes() == trace.tobytes()
        assert out.iterations == iterations == 5 and not out.converged
        assert out.sequence.dtype == seq.dtype and out.sequence.tobytes() == seq.tobytes()

    @pytest.mark.parametrize(
        "step, diverged_at",
        [(0.034897, _LPNN_BLOCK), (0.03486387959866221, _LPNN_BLOCK + 1)],
        ids=["last-row", "first-row"],
    )
    def test_divergence_on_a_block_edge(self, step, diverged_at):
        """The first diverging step is found on either side of a block boundary."""
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=17)
        assert replay_lpnn(p, "binary", 200, step) == diverged_at
        out = run_lpnn(p, "binary", max_iters=diverged_at - 1, step=step)
        seq, trace, iterations, converged = replay_lpnn(p, "binary", diverged_at - 1, step)
        assert out.trace.tobytes() == trace.tobytes()
        assert out.iterations == iterations and not out.converged
        assert out.sequence.tobytes() == seq.tobytes()
        with pytest.raises(DivergenceError):
            run_lpnn(p, "binary", max_iters=diverged_at, step=step)

    @pytest.mark.parametrize(
        "variant, step, stopped_at",
        [
            ("binary", 0.0201, 225 * _LPNN_BLOCK),
            ("unimodular", 0.0169, 259 * _LPNN_BLOCK),
            ("binary", 0.0161, 281 * _LPNN_BLOCK + 1),
        ],
        ids=["binary-last-row", "unimodular-last-row", "binary-first-row"],
    )
    def test_stop_on_a_block_edge(self, variant, step, stopped_at):
        """The stop fires at the plain loop's step when that step is a block's last or first."""
        p = make_problem(1, (0,), (), alpha=1.0, seed=2)
        out = run_lpnn(p, variant, max_iters=30000, step=step)
        seq, trace, iterations, converged = replay_lpnn(p, variant, 30000, step)
        assert iterations == stopped_at and converged
        assert out.trace.tobytes() == trace.tobytes()
        assert out.iterations == iterations and out.converged
        assert out.sequence.dtype == seq.dtype and out.sequence.tobytes() == seq.tobytes()

    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_divergence_at_the_same_step(self, variant):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=17)
        diverged_at = replay_lpnn(p, variant, 2000, step=10.0)
        assert isinstance(diverged_at, int)
        run_lpnn(p, variant, max_iters=diverged_at - 1, step=10.0)
        with pytest.raises(DivergenceError):
            run_lpnn(p, variant, max_iters=diverged_at, step=10.0)


def replay_shape(p, variant, max_iters):
    """run_shape as the plain loop whose every step transforms the sequence.

    Each step computes F^H s afresh with np.fft.ifft, so a cycle makes
    4 FFTs. Returns (sequence, trace, iterations, converged).
    """
    bounds = shape_bounds_from_problem(p)
    seq = shape_start(p, variant)
    scale = 1.0 + 0.0j
    objective = np.inf
    trace = []
    converged = False
    for iterations in range(1, max_iters + 1):
        previous = objective
        # spectrum step
        z = np.fft.ifft(seq, norm="ortho") / scale
        mag = np.abs(z)
        phase = np.where(mag == 0.0, 1.0 + 0.0j, z / np.where(mag == 0.0, 1.0, mag))
        x = phase * np.clip(mag, bounds.lower, bounds.upper)
        # scale step
        norm_sq = float(np.sum(x.real**2 + x.imag**2))
        scale = complex(np.vdot(x, np.fft.ifft(seq, norm="ortho")) / norm_sq)
        if scale == 0:
            converged = True
            break
        # sequence step
        target = scale * np.fft.fft(x, norm="ortho")
        if variant == "binary":
            seq = np.where(target.real >= 0.0, 1.0, -1.0)
        else:
            mag = np.abs(target)
            seq = np.where(mag == 0.0, 1.0 + 0.0j, target / np.where(mag == 0.0, 1.0, mag))
        resid = np.fft.ifft(seq, norm="ortho") - scale * x
        objective = float(np.sum(resid.real**2 + resid.imag**2))
        trace.append(objective)
        if np.isfinite(previous) and abs(previous - objective) <= SHAPE_TOL * max(1.0, previous):
            converged = True
            break
    if variant == "binary":
        seq = seq.real.astype(np.int8)
    return seq, np.asarray(trace), iterations, converged


#: the baseline layouts of the benchmark's compare workload
COMPARE_LAYOUTS = {
    "baseline-64-w1": (tuple(range(43, 53)), (31,)),
    "baseline-64-w4": (tuple(range(39, 49)), tuple(range(1, 5))),
    "baseline-64-w10": (tuple(range(22, 32)), tuple(range(51, 61))),
}


class TestShapeExactness:
    """run_shape, sharing one F^H s per cycle, is bitwise the plain 4-FFT loop."""

    @pytest.mark.parametrize(
        "p, max_iters",
        [
            *(
                pytest.param(make_problem(64, m, i, alpha=5.0, seed=seed), 10000,
                             id=f"{name}-seed{seed}")
                for name, (m, i) in COMPARE_LAYOUTS.items()
                for seed in range(3)
            ),
            # odd n, interferer band asymmetric about DC
            pytest.param(make_problem(9, (1, 2), (4, 6), alpha=1.0, seed=3), 10000, id="n9"),
            pytest.param(make_problem(1, (0,), (), alpha=1.0, seed=2), 10000, id="n1"),
            # a budget cut before the stop rule fires
            pytest.param(make_problem(64, *COMPARE_LAYOUTS["baseline-64-w1"], alpha=5.0), 5,
                         id="baseline-64-w1-cut5"),
        ],
    )
    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_matches_plain_loop(self, p, max_iters, variant):
        out = run_shape(p, variant, max_iters=max_iters)
        seq, trace, iterations, converged = replay_shape(p, variant, max_iters)
        assert out.trace.tobytes() == trace.tobytes()
        assert out.iterations == iterations and out.converged == converged
        assert converged == (max_iters > 5)
        assert out.sequence.dtype == seq.dtype and out.sequence.tobytes() == seq.tobytes()
        assert out.metrics == metric_bundle(p, seq)
