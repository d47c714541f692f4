import numpy as np
import pytest

from specseq import (
    BandSpec,
    DesignProblem,
    DivergenceError,
    LpnnState,
    ShapeState,
    lpnn_increments,
    metric_bundle,
    run_lpnn,
    run_shape,
    shape_bounds_from_problem,
    shape_scale_step,
    shape_sequence_step,
    shape_spectrum_step,
)
from specseq.baselines import _LPNN_STREAM, LPNN_AUGMENT, UNBOUNDED, lpnn_target_spectrum


def make_problem(n, message, interferer, alpha=1.0, seed=0):
    return DesignProblem(n, BandSpec(message), BandSpec(interferer), alpha, 10, seed)


def dense_dft(n):
    """The unitary DFT from its definition: F[i, k] = exp(-2j*pi*i*k/n)/sqrt(n)."""
    i = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(i, i) / n) / np.sqrt(n)


def objective_of(state):
    f = dense_dft(state.sequence.shape[0])
    return float(np.sum(np.abs(f.conj().T @ state.sequence - state.scale * state.spectrum) ** 2))


def random_state(n, seed, binary=False):
    rng = np.random.default_rng(seed)
    if binary:
        seq = rng.integers(0, 2, n) * 2.0 - 1.0
    else:
        seq = np.exp(2j * np.pi * rng.random(n))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scale = complex(rng.standard_normal() + 1j * rng.standard_normal())
    state = ShapeState(sequence=seq, spectrum=x, scale=scale, objective=0.0)
    state.objective = objective_of(state)
    return state


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
        state = random_state(8, 1)
        state.scale = 1.0 + 0.0j
        new = shape_spectrum_step(state, bounds)
        f = dense_dft(8)
        z = f.conj().T @ state.sequence
        free = [i for i in range(8) if i != 1]
        assert np.allclose(new.spectrum[free], z[free])

    def test_spectrum_step_forced_magnitude(self):
        from specseq.baselines import ShapeBounds

        bounds = ShapeBounds(upper=np.full(8, 0.7), lower=np.full(8, 0.7))
        state = random_state(8, 2)
        new = shape_spectrum_step(state, bounds)
        assert np.allclose(np.abs(new.spectrum), 0.7)

    def test_spectrum_step_decreases_objective(self):
        p = make_problem(8, (1, 2), (4,), alpha=2.0)
        bounds = shape_bounds_from_problem(p)
        for seed in range(5):
            state = random_state(8, seed)
            new = shape_spectrum_step(state, bounds)
            assert new.objective <= state.objective + 1e-9

    def test_scale_step_exact_fit(self):
        state = random_state(8, 3)
        f = dense_dft(8)
        state.spectrum = f.conj().T @ state.sequence
        new = shape_scale_step(state)
        assert new.scale == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert new.objective == pytest.approx(0.0, abs=1e-12)

    def test_scale_step_homogeneity(self):
        state = random_state(8, 4)
        once = shape_scale_step(state)
        state.spectrum = 2.0 * state.spectrum
        twice = shape_scale_step(state)
        assert twice.scale == pytest.approx(once.scale / 2.0, rel=1e-12)

    def test_scale_step_stationarity(self):
        state = random_state(8, 5)
        new = shape_scale_step(state)
        eps = 1e-7
        for direction in (1.0, 1j):
            state_plus = ShapeState(state.sequence, state.spectrum, new.scale + eps * direction, 0.0)
            state_minus = ShapeState(state.sequence, state.spectrum, new.scale - eps * direction, 0.0)
            derivative = (objective_of(state_plus) - objective_of(state_minus)) / (2 * eps)
            assert abs(derivative) < 1e-5

    def test_sequence_step_binary_values(self):
        state = random_state(8, 6)
        new = shape_sequence_step(state, "binary")
        assert set(np.unique(new.sequence.real)) <= {-1.0, 1.0}

    def test_sequence_step_unimodular_modulus(self):
        state = random_state(8, 7)
        new = shape_sequence_step(state, "unimodular")
        assert np.allclose(np.abs(new.sequence), 1.0)

    def test_sequence_step_binary_is_per_coordinate_optimal(self):
        state = random_state(16, 8, binary=True)
        new = shape_sequence_step(state, "binary")
        base = new.objective
        for i in range(16):
            flipped = new.sequence.copy()
            flipped[i] = -flipped[i]
            alt = ShapeState(flipped, state.spectrum, state.scale, 0.0)
            assert base <= objective_of(alt) + 1e-9

    def test_sequence_step_decreases_objective(self):
        for seed in range(5):
            state = random_state(8, 20 + seed)
            new = shape_sequence_step(state, "unimodular")
            assert new.objective <= state.objective + 1e-9


def assert_matches(actual, expected):
    """Agreement to 1e-12 relative to the larger of 1 and the largest expected entry."""
    expected = np.asarray(expected)
    assert np.max(np.abs(np.asarray(actual) - expected)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(expected)))
    )


def dense_lpnn_increments(state, p, target_spectrum):
    """lpnn_increments written with products by the dense DFT."""
    n = p.n
    f = dense_dft(n)
    if state.neurons.shape[0] == 2 * n:
        c = state.neurons[:n] + 1j * state.neurons[n:]
    else:
        c = state.neurons.astype(complex)
    y = f.conj().T @ c
    r = state.weights * (np.abs(y) ** 2 - state.scale * target_spectrum)
    modulus = np.abs(c) ** 2
    penalty = 4.0 * state.augment * (modulus - 1.0) + 2.0 * state.multipliers
    grad = 4.0 * (f @ (r * y)) + penalty * c
    if state.neurons.shape[0] == 2 * n:
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
        state = random_state(n, 40 + n, binary=binary)

        new = shape_spectrum_step(state, bounds)
        z = (f.conj().T @ state.sequence) / state.scale
        clipped = np.clip(np.abs(z), bounds.lower, bounds.upper)
        assert_matches(new.spectrum, z / np.abs(z) * clipped)
        assert_matches(new.objective, objective_of(new))

        state = new
        new = shape_scale_step(state)
        assert_matches(
            new.scale, np.vdot(state.spectrum, f.conj().T @ state.sequence)
            / np.vdot(state.spectrum, state.spectrum).real
        )
        assert_matches(new.objective, objective_of(new))

        state = new
        variant = "binary" if binary else "unimodular"
        new = shape_sequence_step(state, variant)
        target = state.scale * (f @ state.spectrum)
        if binary:
            assert np.array_equal(new.sequence, np.where(target.real >= 0.0, 1.0, -1.0))
        else:
            assert_matches(new.sequence, target / np.abs(target))
        assert_matches(new.objective, objective_of(new))

    @pytest.mark.parametrize("n", [9, 1])
    @pytest.mark.parametrize("binary", [False, True])
    def test_lpnn_increments(self, n, binary):
        p = self.problem(n)
        target = lpnn_target_spectrum(p, shape_bounds_from_problem(p))
        rng = np.random.default_rng(50 + n)
        state = LpnnState(
            neurons=rng.standard_normal(n if binary else 2 * n),
            scale=float(rng.standard_normal()),
            multipliers=rng.standard_normal(n),
            weights=np.ones(n),
            augment=LPNN_AUGMENT,
        )
        got = lpnn_increments(state, p, target)
        for actual, expected in zip(got, dense_lpnn_increments(state, p, target)):
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
        from specseq.baselines import ShapeBounds, shape_scale_step, shape_spectrum_step

        rng = np.random.default_rng(13)
        n = 16
        bounds = ShapeBounds(upper=np.ones(n), lower=np.ones(n))
        state = ShapeState(
            sequence=np.exp(2j * np.pi * rng.random(n)),
            spectrum=np.zeros(n), scale=1.0 + 0.0j, objective=np.inf,
        )
        values = []
        for _ in range(30):
            state = shape_spectrum_step(state, bounds)
            state = shape_scale_step(state)
            state = shape_sequence_step(state, "unimodular")
            values.append(state.objective)
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
        state = LpnnState(
            neurons=rng.standard_normal(variant_dim),
            scale=float(rng.standard_normal()),
            multipliers=rng.standard_normal(8),
            weights=np.ones(8),
            augment=10.0,
        )
        d_neurons, d_scale, residual = lpnn_increments(state, p, target)
        eps = 1e-6
        for i in range(variant_dim):
            bump = np.zeros(variant_dim)
            bump[i] = eps
            plus = self.lagrangian(p, state.neurons + bump, state.scale, state.multipliers, target)
            minus = self.lagrangian(p, state.neurons - bump, state.scale, state.multipliers, target)
            fd = -(plus - minus) / (2 * eps)
            assert fd == pytest.approx(d_neurons[i], rel=1e-5, abs=1e-6)
        plus = self.lagrangian(p, state.neurons, state.scale + eps, state.multipliers, target)
        minus = self.lagrangian(p, state.neurons, state.scale - eps, state.multipliers, target)
        assert -(plus - minus) / (2 * eps) == pytest.approx(d_scale, rel=1e-5, abs=1e-6)
        # multiplier increments ascend the Lagrangian: they are the residuals
        if variant_dim == 8:
            assert np.allclose(residual, state.neurons**2 - 1.0)
        else:
            c = state.neurons[:8] + 1j * state.neurons[8:]
            assert np.allclose(residual, np.abs(c) ** 2 - 1.0)

    def test_stationary_point_gives_zero_increments(self):
        p = make_problem(8, (1,), (3,), alpha=2.0)
        target = lpnn_target_spectrum(p, shape_bounds_from_problem(p))
        seq = np.ones(8)
        state = LpnnState(
            neurons=seq, scale=0.0, multipliers=np.zeros(8),
            weights=np.zeros(8), augment=10.0,
        )
        d_neurons, d_scale, residual = lpnn_increments(state, p, target)
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

    def test_deterministic(self):
        p = make_problem(12, (1, 2), (5,), alpha=2.0, seed=18)
        a = run_lpnn(p, "binary", max_iters=200)
        b = run_lpnn(p, "binary", max_iters=200)
        assert np.array_equal(a.sequence, b.sequence)


def plain_lpnn_increments(state, p, target_spectrum):
    """lpnn_increments written with temporaries, in the order of operations run_lpnn must keep."""
    n = p.n
    if state.neurons.shape[0] == 2 * n:
        c = state.neurons[:n] + 1j * state.neurons[n:]
        y = np.fft.ifft(c, norm="ortho")
        r = state.weights * (y.real**2 + y.imag**2 - state.scale * target_spectrum)
        grad_c = 4.0 * np.fft.fft(r * y, norm="ortho")
        modulus = c.real**2 + c.imag**2
        grad_c += (4.0 * state.augment * (modulus - 1.0) + 2.0 * state.multipliers) * c
        d_neurons = -np.concatenate([grad_c.real, grad_c.imag])
    else:
        s = state.neurons
        y = np.fft.ifft(s, norm="ortho")
        r = state.weights * (y.real**2 + y.imag**2 - state.scale * target_spectrum)
        grad = 4.0 * np.fft.fft(r * y, norm="ortho").real
        modulus = s**2
        grad += (4.0 * state.augment * (modulus - 1.0) + 2.0 * state.multipliers) * s
        d_neurons = -grad
    return d_neurons, 2.0 * float(np.sum(r * target_spectrum)), modulus - 1.0


def replay_lpnn(p, variant, max_iters, step=1e-3):
    """run_lpnn as a plain Euler loop over lpnn_increments, checking each step bitwise.

    Returns (sequence, trace, iterations, converged), or the iteration
    at which a neuron passed 1e6 in magnitude.
    """
    target = lpnn_target_spectrum(p, shape_bounds_from_problem(p))
    rng = np.random.default_rng([p.seed, _LPNN_STREAM])
    state = LpnnState(
        neurons=rng.standard_normal(p.n if variant == "binary" else 2 * p.n),
        scale=float(rng.standard_normal()),
        multipliers=rng.standard_normal(p.n),
        weights=np.ones(p.n),
        augment=LPNN_AUGMENT,
    )
    trace = []
    converged = False
    for iterations in range(1, max_iters + 1):
        d_neurons, d_scale, residual = lpnn_increments(state, p, target)
        plain = plain_lpnn_increments(state, p, target)
        assert d_neurons.tobytes() == plain[0].tobytes()
        assert d_scale.hex() == plain[1].hex()
        assert residual.tobytes() == plain[2].tobytes()
        state.neurons = state.neurons + step * d_neurons
        state.scale = state.scale + step * d_scale
        state.multipliers = state.multipliers + step * residual
        worst_residual = float(np.max(np.abs(residual)))
        trace.append(worst_residual)
        if np.max(np.abs(state.neurons)) > 1e6:
            return iterations
        if max(float(np.max(np.abs(d_neurons))), abs(d_scale), worst_residual) < 1e-8:
            converged = True
            break
    if variant == "binary":
        seq = np.where(state.neurons >= 0.0, 1, -1).astype(np.int8)
    else:
        c = state.neurons[: p.n] + 1j * state.neurons[p.n :]
        seq = c / np.abs(c)
    return seq, np.asarray(trace), iterations, converged


class TestLpnnExactness:
    """run_lpnn's in-place steps are bitwise the plain Euler loop over lpnn_increments."""

    @pytest.mark.parametrize(
        "p, max_iters, step",
        [
            # odd n, interferer band asymmetric about DC
            (make_problem(9, (1, 2), (4, 6), alpha=1.0, seed=3), 2000, 1e-3),
            # the baseline-64-w1 layout of the benchmark's compare workload
            (make_problem(64, tuple(range(43, 53)), (31,), alpha=5.0), 300, 1e-3),
            # n=1 reaches the stop rule: every term of it is evaluated
            (make_problem(1, (0,), (), alpha=1.0, seed=2), 20000, 2e-2),
        ],
        ids=["n9", "baseline-64-w1", "n1-converges"],
    )
    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_matches_plain_loop(self, p, max_iters, step, variant):
        out = run_lpnn(p, variant, max_iters=max_iters, step=step)
        seq, trace, iterations, converged = replay_lpnn(p, variant, max_iters, step)
        assert out.trace.tobytes() == trace.tobytes()
        assert out.iterations == iterations and out.converged == converged
        assert converged == (p.n == 1)
        assert out.sequence.dtype == seq.dtype and out.sequence.tobytes() == seq.tobytes()
        assert out.metrics == metric_bundle(p, seq)

    @pytest.mark.parametrize("variant", ["binary", "unimodular"])
    def test_divergence_at_the_same_step(self, variant):
        p = make_problem(16, (2, 3), (6, 7), alpha=2.0, seed=17)
        diverged_at = replay_lpnn(p, variant, 2000, step=10.0)
        assert isinstance(diverged_at, int)
        run_lpnn(p, variant, max_iters=diverged_at - 1, step=10.0)
        with pytest.raises(DivergenceError):
            run_lpnn(p, variant, max_iters=diverged_at, step=10.0)
