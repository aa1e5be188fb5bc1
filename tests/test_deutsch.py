"""Fixed-point engine: consistency map, solvers, scenarios, closed-form oracles."""

import ast
import math
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ctcsim.cli as cli
import ctcsim.deutsch as deutsch
import ctcsim.experiments as experiments
import ctcsim.qmath as qmath
import ctcsim.selftest as selftest
from ctcsim.circuits import (
    SWAP,
    CircuitKind,
    CircuitSpec,
    QubitChannel,
    _FAMILIES,
    _failure_kraus,
    _transfer_tensors,
    build_interaction,
)
from ctcsim.measures import bloch_measures
from ctcsim.deutsch import (
    EIGENVALUE_ONE_TOL,
    ConvergenceError,
    ImproperMixed,
    LocalPure,
    NonLocalEnsemble,
    _clip_to_density,
    _kraus_stack,
    _superoperators,
    consistency_map,
    damped_iteration,
    evolve_output,
    iterate_circuit,
    proper_mixture_output,
    resource_state_vector,
    run_batch,
    run_scenario,
    solve_fixed_point,
    solve_loops,
    superoperator,
    swap_cnot_closed_form,
)
from ctcsim.qmath import (
    ID2,
    LOOP_RAIL,
    OUTPUT_RAIL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    PureQubit,
    ValidationError,
    density_from_bloch,
    fidelity,
    trace_distance,
    trace_distances,
)
from test_acceptance import c10_rows
from test_circuits import scalar_cu_xz

H = PureQubit(0.0, 0.0)
HALF = DensityMatrix.maximally_mixed()
SWAP_CNOT = CircuitSpec(kind=CircuitKind.SWAP_CNOT)


def cu_circuit(theta, eps=0.0, p=0.0):
    return CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta,
                       gate_noise=eps, input_noise=p)


def random_qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def ensemble_mixture(ensemble):
    """The unconditioned mixture sum_i p_i |psi_i><psi_i| of a NonLocalEnsemble."""
    return DensityMatrix(sum(p * s.density().mat for p, s in zip(ensemble.probs, ensemble.states)))


def prepared_bloch(prep):
    """Bloch vector of the state a preparation's loop adapts to, before depolarization."""
    if isinstance(prep, NonLocalEnsemble):
        return sum(q * s.bloch() for q, s in zip(prep.probs, prep.states))
    return (prep.state if isinstance(prep, LocalPure) else prep.rho).bloch()


def seeded_scenarios(seed, n):
    """n seeded (spec, prep) pairs: both circuit kinds, eps and p each 0, 1 or
    drawn, and local, improper and non-local preparations in turn."""
    rng = np.random.default_rng(seed)
    specs, preps = [], []
    for i in range(n):
        kind = CircuitKind.SWAP_CNOT if i % 5 == 0 else CircuitKind.SWAP_THEN_CU
        eps, p = (rng.choice([0.0, 1.0, rng.uniform()]) for _ in range(2))
        specs.append(CircuitSpec(kind=kind, theta_xz=rng.uniform(-math.pi / 2, math.pi / 2),
                                 gate_noise=eps, input_noise=p))
        states = [PureQubit(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
                  for _ in range(1 + i % 3)]
        weights = rng.uniform(0.05, 1.0, len(states))
        preps.append([LocalPure(states[0]), ImproperMixed(random_qubit_state(rng)),
                      NonLocalEnsemble(tuple(states), tuple(weights / weights.sum()))][i % 3])
    return specs, preps


def diag_population_after_passes(a, n):
    """Independent oracle for the iterated loop: |H>-population recurrence."""
    for _ in range(n):
        a = a * a + (1 - a) * (1 - a)
    return a


class TestConsistencyMap:
    def test_h_is_fixed_for_any_gate_angle(self):
        for theta in np.linspace(-1.2, 1.2, 9):
            img = consistency_map(H.density(), build_interaction(cu_circuit(theta)),
                                  H.density())
            assert trace_distance(img, H.density()) <= 1e-14

    def test_pure_swap_returns_input_regardless_of_loop_state(self):
        rng = np.random.default_rng(71)
        swap_only = QubitChannel(((1.0, SWAP),))
        rho_in = random_qubit_state(rng)
        for _ in range(20):
            rho = random_qubit_state(rng)
            img = consistency_map(rho_in, swap_only, rho)
            assert trace_distance(img, rho_in) <= 1e-14

    def test_maximally_mixed_fixed_for_equator_input(self):
        psi = PureQubit(math.pi / 2, 0.0)
        img = consistency_map(psi.density(), build_interaction(SWAP_CNOT), HALF)
        assert trace_distance(img, HALF) <= 1e-14


class TestSuperoperator:
    def test_swap_only_is_rank_one_projector_onto_input(self):
        rng = np.random.default_rng(73)
        rho_in = random_qubit_state(rng)
        m = superoperator(rho_in, QubitChannel(((1.0, SWAP),)))
        expected = np.outer(rho_in.mat.reshape(-1), np.eye(2, dtype=complex).reshape(-1))
        np.testing.assert_allclose(m, expected, atol=1e-14)
        assert np.linalg.matrix_rank(m, tol=1e-10) == 1

    def test_matrix_reproduces_map_on_random_states(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            rho_in = random_qubit_state(rng)
            interaction = build_interaction(cu_circuit(rng.uniform(-1.5, 1.5),
                                                       eps=rng.uniform(0, 1)))
            m = superoperator(rho_in, interaction)
            rho = random_qubit_state(rng)
            direct = consistency_map(rho_in, interaction, rho)
            via_matrix = (m @ rho.mat.reshape(-1)).reshape(2, 2)
            assert np.abs(via_matrix - direct.mat).max() <= 1e-12

    def test_equator_input_has_two_dimensional_fixed_space(self):
        psi = PureQubit(math.pi / 2, 0.0)
        m = superoperator(psi.density(), build_interaction(SWAP_CNOT))
        sing = np.linalg.svd(m - np.eye(4), compute_uv=False)
        assert (sing < 1e-9).sum() == 2


def per_basis_superoperator(rho_in, interaction):
    """Reference sharing no code with the package's Kraus path: column k is vec
    of Tr_1 of the Kraus sum on rho_in (x) (k-th matrix unit), via np.kron and einsum."""
    cols = []
    for k in range(4):
        basis = np.zeros((2, 2), dtype=complex)
        basis.flat[k] = 1.0
        joint = np.kron(rho_in.mat, basis)
        image = sum(w * op @ joint @ op.conj().T for w, op in interaction.kraus)
        cols.append(np.einsum("ijil->jl", image.reshape(2, 2, 2, 2)).reshape(-1))
    return np.column_stack(cols)


def random_rows(rng, n):
    """n random (rho_in, channel) rows mixing one- and two-term channels."""
    rho_in, channels = [], []
    for i in range(n):
        eps = (0.0, 1.0, rng.uniform(0, 1))[i % 3]
        spec = SWAP_CNOT if i % 7 == 0 else cu_circuit(rng.uniform(-1.5, 1.5), eps=eps)
        rho_in.append(random_qubit_state(rng).mat)
        channels.append(build_interaction(spec))
    return np.array(rho_in), channels


class TestDampedBatch:
    """The batched Kraus-form oracle: superoperator stack and damped iteration."""

    def test_superoperator_stack_matches_per_basis_construction(self):
        rng = np.random.default_rng(137)
        rho_in, channels = random_rows(rng, 600)
        stack = _superoperators(_kraus_stack(channels), rho_in)
        for i, ch in enumerate(channels):
            ref = per_basis_superoperator(DensityMatrix(rho_in[i]), ch)
            assert np.abs(stack[i] - ref).max() <= 1e-15

    def test_rows_match_batches_of_one(self):
        rng = np.random.default_rng(139)
        rho_in, channels = random_rows(rng, 40)
        batch = damped_iteration(rho_in, _kraus_stack(channels))
        for i, ch in enumerate(channels):
            one = solve_fixed_point(DensityMatrix(rho_in[i]), ch, method="damped_iteration")
            assert batch.iterations[i] == one.iterations > 0
            assert batch.fixed_set_dimension[i] == one.fixed_set_dimension
            assert np.abs(batch.rho[i] - one.rho_ctc.mat).max() <= 1e-12
            assert batch.residual[i] <= 1e-10

    def test_permuting_rows_permutes_results(self):
        rng = np.random.default_rng(149)
        rho_in, channels = random_rows(rng, 30)
        perm = rng.permutation(len(channels))
        batch = damped_iteration(rho_in, _kraus_stack(channels))
        permuted = damped_iteration(rho_in[perm], _kraus_stack([channels[i] for i in perm]))
        np.testing.assert_array_equal(permuted.iterations, batch.iterations[perm])
        np.testing.assert_array_equal(permuted.fixed_set_dimension,
                                      batch.fixed_set_dimension[perm])
        np.testing.assert_allclose(permuted.rho, batch.rho[perm], rtol=0, atol=1e-15)

    def test_clip_rounds_only_rows_outside_the_state_set(self):
        inside = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
        outside = np.array([[1.0 + 1e-13, 1e-7], [1e-7, -1e-13]])  # eigenvalue -1e-13 - 1e-14
        clipped = _clip_to_density(np.array([inside, outside, inside]))
        np.testing.assert_array_equal(clipped[0], inside)
        np.testing.assert_array_equal(clipped[2], inside)
        lam, v = np.linalg.eigh(outside)
        ref = (v * np.clip(lam, 0.0, None)) @ v.conj().T
        np.testing.assert_allclose(clipped[1], ref / ref.trace().real, rtol=0, atol=1e-16)
        assert np.linalg.eigvalsh(clipped[1]).min() >= -1e-17
        assert clipped[1].trace().real == pytest.approx(1.0, abs=1e-15)

    def test_one_row_exhausting_the_budget_raises(self, monkeypatch):
        rng = np.random.default_rng(151)
        rho_in, channels = random_rows(rng, 12)
        kraus = _kraus_stack(channels)
        steps = damped_iteration(rho_in, kraus).iterations
        assert steps.min() < steps.max()
        with monkeypatch.context() as m:
            m.setattr(deutsch, "_MAX_STEPS", int(steps.max()))
            damped_iteration(rho_in, kraus)
            m.setattr(deutsch, "_MAX_STEPS", int(steps.max()) - 1)
            with pytest.raises(ConvergenceError, match="converge"):
                damped_iteration(rho_in, kraus)

    @staticmethod
    def eager_dimensions(rho_in, kraus):
        """Oracle: the singular values of each superoperator minus I below
        EIGENVALUE_ONE_TOL, counted when the batch is solved."""
        sing = np.linalg.svd(_superoperators(kraus, rho_in) - np.eye(4), compute_uv=False)
        return (sing < EIGENVALUE_ONE_TOL).sum(axis=1)

    def test_dimension_is_computed_when_read(self, monkeypatch):
        """damped_iteration runs no SVD; reading fixed_set_dimension gives the
        eager counts on seeded random rows and on degenerate ones: the
        CNOT-then-SWAP loop at the equator input (dimension 2), a SWAP_THEN_CU
        row at the fig5a reference point (2) and the identity interaction (4)."""
        rng = np.random.default_rng(163)
        rho_in, channels = random_rows(rng, 50)
        degenerate = [(PureQubit(math.pi / 2, 0.0).density(), build_interaction(SWAP_CNOT)),
                      (H.density(), build_interaction(cu_circuit(-math.pi / 2))),
                      (random_qubit_state(rng), QubitChannel(((1.0, np.eye(4)),)))]
        rho_in = np.concatenate([rho_in, [rho.mat for rho, _ in degenerate]])
        kraus = _kraus_stack(channels + [ch for _, ch in degenerate])

        def no_svd(*args, **kwargs):
            raise AssertionError("damped_iteration ran an SVD")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", no_svd)
            batch = damped_iteration(rho_in, kraus)
        want = self.eager_dimensions(rho_in, kraus)
        np.testing.assert_array_equal(batch.fixed_set_dimension, want)
        assert want[:50].tolist() == [1] * 50 and want[50:].tolist() == [2, 2, 4]

    def test_non_finite_input_raises_validation_error(self):
        rho_in = np.array([HALF.mat, HALF.mat])
        rho_in[1, 0, 1] = math.nan
        kraus = _kraus_stack([build_interaction(cu_circuit(t, eps=0.2)) for t in (0.3, -0.7)])
        with pytest.raises(ValidationError, match="non-finite"):
            damped_iteration(rho_in, kraus)


def eigvalsh_step_iteration(rho_in, kraus):
    """damped_iteration's loop with a LAPACK step, half the sum of
    |eigvalsh(next - current)|, in place of the closed-form trace distance:
    (clipped states, step counts)."""
    m = _superoperators(kraus, rho_in)
    cur = np.tile(np.eye(2, dtype=complex).reshape(4) / 2, (len(m), 1))
    iterations = np.zeros(len(m), dtype=int)
    active = np.arange(len(m))
    while active.size:
        c = cur[active]
        nxt = 0.5 * (m[active] @ c[:, :, None])[:, :, 0] + 0.5 * c
        step = np.abs(np.linalg.eigvalsh((nxt - c).reshape(-1, 2, 2))).sum(axis=1) / 2
        cur[active] = nxt
        iterations[active] += 1
        active = active[step > deutsch._STEP_TOL]
    return _clip_to_density(cur.reshape(-1, 2, 2)), iterations


class TestDampedStep:
    """The closed-form trace-distance step stops every row where the eigvalsh
    step does, so the iterates and counts are unchanged bit for bit."""

    @staticmethod
    def assert_same_as_eigvalsh_step(rho_in, kraus):
        batch = damped_iteration(rho_in, kraus)
        rho, iterations = eigvalsh_step_iteration(rho_in, kraus)
        np.testing.assert_array_equal(batch.iterations, iterations)
        np.testing.assert_array_equal(batch.rho, rho)

    def test_c10_candidates(self):
        theta, eps, bloch, _ = selftest._unique_candidates(random.Random(42), 200)
        kraus = _failure_kraus(_FAMILIES[CircuitKind.SWAP_THEN_CU], theta, eps)
        self.assert_same_as_eigvalsh_step(selftest._density_rows(bloch), kraus)

    def test_random_channels(self):
        rng = np.random.default_rng(157)
        rho_in, channels = random_rows(rng, 60)
        channels += [random_stinespring_channel(rng, k) for k in (1, 2, 3, 4) for _ in range(15)]
        rho_in = np.concatenate([rho_in, [random_qubit_state(rng).mat for _ in range(60)]])
        self.assert_same_as_eigvalsh_step(rho_in, _kraus_stack(channels))


class TestDampedCompaction:
    """damped_iteration compacts its active rows as they stop, so a row's
    iterate, step count and residual do not depend on its place in the batch or
    on the rows beside it."""

    def test_permuted_rows_permute_the_result(self):
        (weights, ops), rho_in, _ = c10_rows()
        batch = damped_iteration(rho_in, (weights, ops))
        order = np.random.default_rng(263).permutation(len(rho_in))
        permuted = damped_iteration(rho_in[order], (weights[order], ops[order]))
        np.testing.assert_array_equal(permuted.rho, batch.rho[order])
        np.testing.assert_array_equal(permuted.iterations, batch.iterations[order])
        np.testing.assert_array_equal(permuted.residual, batch.residual[order])

    def test_slowest_row_alone_is_its_batch_row(self):
        (weights, ops), rho_in, _ = c10_rows()
        batch = damped_iteration(rho_in, (weights, ops))
        k = int(np.argmax(batch.iterations))
        assert batch.iterations[k] == 265 > 6 * batch.iterations.mean()
        alone = damped_iteration(rho_in[k:k + 1], (weights[k:k + 1], ops[k:k + 1]))
        np.testing.assert_array_equal(alone.rho[0], batch.rho[k])
        assert alone.iterations[0] == batch.iterations[k]
        assert alone.residual[0] == batch.residual[k]

    def test_budget_message_names_the_largest_active_step(self, monkeypatch):
        """At a budget of 50 steps the error names the largest step among the
        rows still moving, as a lock-step loop over every row computes it."""
        kraus, rho_in, _ = c10_rows()
        m = _superoperators(kraus, rho_in)
        cur = np.tile(np.eye(2, dtype=complex).reshape(4) / 2, (len(m), 1))
        moving = np.ones(len(m), dtype=bool)
        for _ in range(50):
            nxt = 0.5 * (m @ cur[:, :, None])[:, :, 0] + 0.5 * cur
            step = trace_distances(nxt.reshape(-1, 2, 2), cur.reshape(-1, 2, 2))
            cur = np.where(moving[:, None], nxt, cur)
            moving &= step > deutsch._STEP_TOL
        assert 0 < moving.sum() < len(m)
        largest = step[moving].max()
        monkeypatch.setattr(deutsch, "_MAX_STEPS", 50)
        with pytest.raises(ConvergenceError) as err:
            damped_iteration(rho_in, kraus)
        assert str(err.value) == f"damped iteration did not converge in 50 steps (step = {largest:.3e})"


def consistency_affine(rho_in, interaction):
    """(A, b) with Bloch(consistency_map(rho)) = A r + b, read off the loop-rail tensor."""
    m = np.einsum("mkv,m->kv", interaction.transfer[LOOP_RAIL], np.r_[1.0, rho_in.bloch()])
    return m[1:, 1:], m[1:, 0]


def kraus_fixed_dimension(rho_in, interaction):
    """Oracle: singular values of the Kraus-form superoperator minus I that vanish."""
    sing = np.linalg.svd(superoperator(rho_in, interaction) - np.eye(4), compute_uv=False)
    return int((sing < EIGENVALUE_ONE_TOL).sum())


class TestAffineMap:
    """The Bloch-affine form r -> A r + b the engine solves, against the Kraus form."""

    def test_swap_only_maps_every_loop_state_to_the_input(self):
        rng = np.random.default_rng(73)
        rho_in = random_qubit_state(rng)
        a, b = consistency_affine(rho_in, QubitChannel(((1.0, SWAP),)))
        np.testing.assert_allclose(a, np.zeros((3, 3)), atol=1e-15)
        np.testing.assert_allclose(b, rho_in.bloch(), atol=1e-15)

    def test_affine_form_reproduces_map_on_random_states(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            rho_in = random_qubit_state(rng)
            interaction = build_interaction(cu_circuit(rng.uniform(-1.5, 1.5),
                                                       eps=rng.uniform(0, 1)))
            a, b = consistency_affine(rho_in, interaction)
            rho = random_qubit_state(rng)
            direct = consistency_map(rho_in, interaction, rho).bloch()
            assert np.abs(a @ rho.bloch() + b - direct).max() <= 1e-12

    def test_output_rail_reproduces_evolve_output(self):
        rng = np.random.default_rng(97)
        for _ in range(30):
            interaction = build_interaction(cu_circuit(rng.uniform(-1.5, 1.5),
                                                       eps=rng.uniform(0, 1)))
            rho_in, rho = random_qubit_state(rng), random_qubit_state(rng)
            a4 = np.r_[1.0, rho_in.bloch()]
            r4 = np.r_[1.0, rho.bloch()]
            via_tensor = np.einsum("vkm,m,v->k", interaction.transfer[OUTPUT_RAIL], a4, r4)
            direct = evolve_output(rho_in, rho, interaction).bloch()
            assert via_tensor[0] == pytest.approx(1.0, abs=1e-14)
            assert np.abs(via_tensor[1:] - direct).max() <= 1e-12

    def test_equator_input_has_nullity_one(self):
        psi = PureQubit(math.pi / 2, 0.0)
        a, _ = consistency_affine(psi.density(), build_interaction(SWAP_CNOT))
        sing = np.linalg.svd(np.eye(3) - a, compute_uv=False)
        assert (sing < 1e-9).sum() == 1

    def test_dimension_matches_kraus_superoperator_on_random_specs(self):
        rng = np.random.default_rng(131)
        n = 3000
        theta = rng.uniform(-math.pi / 2, math.pi / 2, n)
        eps, p = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        bloch = np.array([
            PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)).bloch()
            for _ in range(n)
        ])
        batch = run_batch(CircuitKind.SWAP_THEN_CU, theta, eps, p, bloch)
        for i in range(n):
            interaction = build_interaction(cu_circuit(theta[i], eps=eps[i]))
            rho_in = density_from_bloch((1 - p[i]) * bloch[i])
            assert batch.fixed_set_dimension[i] == kraus_fixed_dimension(rho_in, interaction)

    def test_dimension_and_min_norm_on_theta_eps_p_grid(self):
        """Every grid row matches the Kraus count; degenerate rows return the min-norm state."""
        rows = []
        for theta in np.linspace(-math.pi / 2, math.pi / 2, 8, endpoint=False):
            for eps in (0.0, 0.5, 1.0):
                for p in (0.0, 0.5, 1.0):
                    for phi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
                        rows.append((float(theta), eps, p, phi))
        theta, eps, p, phi = (np.array(c) for c in zip(*rows))
        bloch = np.array([PureQubit(f).bloch() for f in phi])
        batch = run_batch(CircuitKind.SWAP_THEN_CU, theta, eps, p, bloch)
        degenerate = 0
        for i in range(len(rows)):
            rho_in = density_from_bloch((1 - p[i]) * bloch[i])
            interaction = build_interaction(cu_circuit(theta[i], eps=eps[i]))
            dim = batch.fixed_set_dimension[i]
            assert dim == kraus_fixed_dimension(rho_in, interaction)
            if dim > 1:
                degenerate += 1
                # Min norm: the loop state has no component along the free directions.
                a, _ = consistency_affine(rho_in, interaction)
                _, sing, vt = np.linalg.svd(np.eye(3) - a)
                free = vt[sing < 1e-9]
                assert len(free) == dim - 1
                assert np.abs(free @ batch.loop[i]).max() <= 1e-12
        assert degenerate > 0

    def test_nan_row_raises(self):
        interaction = build_interaction(cu_circuit(0.3, eps=0.2))
        loop_in = np.array([[0.0, 0.0, 1.0], [math.nan, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises((ValidationError, ConvergenceError)):
            solve_loops([(1.0, interaction.transfer)], loop_in)
        with pytest.raises(ValidationError):
            run_batch(CircuitKind.SWAP_THEN_CU, [0.3, 0.3], [0.2, 0.2], [0.1, math.nan],
                      loop_in[::2])
        with pytest.raises(ValidationError):  # the angle SWAP_CNOT ignores is still checked
            run_batch(CircuitKind.SWAP_CNOT, [0.0, math.nan], [0.0, 0.0], [0.0, 0.0],
                      loop_in[::2])

    def test_state_outside_ball_rejected(self):
        with pytest.raises(ValidationError, match="Bloch"):
            solve_loops([(1.0, QubitChannel(((1.0, SWAP),)).transfer)],
                        np.array([[0.0, 0.0, 1.5]]))


def recorded_batches(monkeypatch, run):
    """The arguments of every run_batch call experiments makes while run() runs."""
    calls = []

    def record(*args):
        calls.append(args)
        return run_batch(*args)

    with monkeypatch.context() as m:
        m.setattr(experiments, "run_batch", record)
        run()
    return calls


def random_batch(rng, angles, n):
    """SWAP_THEN_CU run_batch arguments: angles drawn from `angles`, mixed
    eps in (0, 1) with some rows at 0 and some at 1, random pure inputs."""
    theta = rng.choice(angles, n)
    eps, p = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    eps[::5], eps[1::7] = 0.0, 1.0
    bloch = np.array([PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
                      .bloch() for _ in range(n)])
    return CircuitKind.SWAP_THEN_CU, theta, eps, p, bloch


def assert_rows_solve_alone(monkeypatch, args):
    """run_batch(*args) gives each row the bits it gets alone, and builds no channel."""
    def no_channel(self):
        raise AssertionError("run_batch built a channel")

    kind, theta, eps, p, loop_in = (args[0], *map(np.asarray, args[1:]))
    with monkeypatch.context() as m:
        m.setattr(QubitChannel, "__post_init__", no_channel)
        got = run_batch(*args)
        alone = [run_batch(kind, theta[i:i + 1], eps[i:i + 1], p[i:i + 1], loop_in[i:i + 1])
                 for i in range(len(theta))]
    for name in ("loop", "outputs", "fixed_set_dimension", "residual", "consistency_fidelity"):
        want = np.concatenate([getattr(b, name) for b in alone])
        a = getattr(got, name)
        assert a.dtype == want.dtype and a.shape == want.shape, name
        assert a.tobytes() == want.tobytes(), name


class TestStackedInteractionTerm:
    """run_batch's terms, mixed from the fixed transfer basis, give every row
    the bits it gets when solved alone, and no channel is built for them."""

    @pytest.mark.parametrize("mode", ["local", "nonlocal"])
    @pytest.mark.parametrize("variant", ["optimal-gate", "fixed-state"])
    def test_sweep_grids(self, monkeypatch, mode, variant):
        calls = recorded_batches(monkeypatch,
                                 lambda: experiments.discrimination_sweep(mode, variant))
        assert calls
        for args in calls:
            assert len(set(np.asarray(args[1]).tolist())) > 1
            assert_rows_solve_alone(monkeypatch, args)

    def test_mixed_eps_with_repeated_angles(self, monkeypatch):
        rng = np.random.default_rng(163)
        args = random_batch(rng, [-1.2, -0.3, 0.0, 0.4, 1.1], 60)
        assert len(set(args[1].tolist())) == 5
        assert_rows_solve_alone(monkeypatch, args)

    def test_single_angle_batch(self, monkeypatch):
        rng = np.random.default_rng(167)
        assert_rows_solve_alone(monkeypatch, random_batch(rng, [0.4], 30))

    def test_batch_of_one(self, monkeypatch):
        rng = np.random.default_rng(173)
        assert_rows_solve_alone(monkeypatch, random_batch(rng, [-0.8], 1))

    def test_random_rows(self, monkeypatch):
        """500 seeded rows, each with its own angle in the sweep range."""
        rng = np.random.default_rng(20261020)
        kind, _, eps, p, loop_in = random_batch(rng, [0.0], 500)
        theta = rng.uniform(-math.pi / 2, math.pi / 2, 500)
        assert len(set(theta.tolist())) == 500
        assert_rows_solve_alone(monkeypatch, (kind, theta, eps, p, loop_in))

    def test_swap_cnot_batch(self, monkeypatch):
        rng = np.random.default_rng(179)
        _, _, eps, p, loop_in = random_batch(rng, [0.0], 40)
        assert_rows_solve_alone(
            monkeypatch, (CircuitKind.SWAP_CNOT, rng.uniform(-3, 3, 40), eps, p, loop_in))

    @pytest.mark.parametrize("kind", list(CircuitKind))
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, kind, angle):
        with pytest.raises(ValidationError, match="theta_xz = .* is not finite"):
            run_batch(kind, [0.1, angle], [0.0, 0.0], [0.0, 0.0], np.zeros((2, 3)))

    @pytest.mark.parametrize("angle", [-math.pi / 2 - 1e-12, math.pi / 2, 2.0])
    def test_angle_outside_sweep_range_rejected(self, angle):
        with pytest.raises(ValidationError, match="outside the sweep range"):
            run_batch(CircuitKind.SWAP_THEN_CU, [0.1, angle], [0.0, 0.0], [0.0, 0.0],
                      np.zeros((2, 3)))


def mix_reference(terms, rail, x):
    """_mix written out elementwise: per term, w times the sum over the rail's
    leading index in its order from +0.0, each product and each sum rounded."""
    out = np.zeros(x.shape[:1] + (4, 4))
    for w, t in terms:
        t = np.broadcast_to(t, x.shape[:1] + t.shape[-4:])[:, rail]
        acc = np.zeros_like(out)
        for j in range(4):
            acc = acc + t[:, j] * x[:, j, None, None]
        out = out + np.asarray(w).reshape(-1, 1, 1) * acc
    return out


class TestContractionLayout:
    """The transfer tensors are stored contraction-major, and _mix contracts them
    to the bits of an elementwise sum in the contracted index's order."""

    def test_engine_tensors_are_c_contiguous(self):
        channel = build_interaction(cu_circuit(0.3, eps=0.2))
        for tensors in [f.basis for f in _FAMILIES.values()] + [channel.transfer]:
            assert tensors.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 7, 700])
    def test_mix_matches_elementwise_reference(self, n):
        rng = np.random.default_rng(20261022 + n)

        def draw(shape):
            signs = rng.integers(0, 4, size=shape)
            return np.where(signs == 0, 0.0, np.where(signs == 1, -0.0, rng.normal(size=shape)))

        x = draw((n, 4))
        x[:, 0] = 1.0
        terms = [(rng.uniform(0, 1, n), draw((2, 4, 4, 4))),
                 (1.0 - rng.uniform(0, 1, n), draw((n, 2, 4, 4, 4))),
                 (0.5, draw((2, 4, 4, 4)))]
        for rail, subscripts in ((LOOP_RAIL, "...mkv,...m->...kv"),
                                 (OUTPUT_RAIL, "...vkm,...v->...km")):
            got = deutsch._mix(terms, rail, subscripts, x)
            assert got.tobytes() == mix_reference(terms, rail, x).tobytes()


class TestSolveBlocks:
    """Batches above _SOLVE_BLOCK rows are solved a block at a time: every row
    keeps its bits, and a failing row in a later block raises what the
    unblocked solve raises."""

    B = deutsch._SOLVE_BLOCK

    @pytest.mark.parametrize("angles", ["shared", "per-row"])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_rows_solve_alone(self, monkeypatch, n, angles):
        rng = np.random.default_rng(20261023 + n)
        kind, theta, eps, p, loop_in = random_batch(rng, [0.4], n)
        if angles == "per-row":
            theta = rng.uniform(-math.pi / 2, math.pi / 2, n)
        eps[self.B:2 * self.B] = 0.0  # a whole block with no gate failure
        if n == 0:
            batch = run_batch(kind, theta, eps, p, np.zeros((0, 3)))
            assert batch.loop.shape == batch.outputs.shape == (0, 3)
            return
        assert_rows_solve_alone(monkeypatch, (kind, theta, eps, p, loop_in))

    @staticmethod
    def failing_batch(faults):
        """16 solvable swap-cu rows, with the faults (row, fault, value) made."""
        rng = np.random.default_rng(41)
        theta, eps, p = np.full(16, 0.3), np.full(16, 0.2), np.full(16, 0.1)
        loop_in = random_batch(rng, [0.0], 16)[4]
        for row, fault, value in faults:
            if fault == "non-finite":
                loop_in[row] = math.nan
            elif fault == "loop ball":  # the SWAP-only map keeps the input
                eps[row], p[row], loop_in[row] = 1.0, 0.0, [0.0, 0.0, value]
            elif fault == "residual":  # the near-degenerate band
                theta[row], eps[row], p[row], loop_in[row] = -math.pi / 2 + value, 0.0, 0.0, [0, 0, 1]
            elif fault == "no fixed state":
                theta[row], eps[row], p[row] = 0.25, 1.0, 1.0
            else:
                theta[row] = 0.35
        return CircuitKind.SWAP_THEN_CU, theta, eps, p, loop_in

    @staticmethod
    def injected_terms(real):
        """_gate_terms plus, at angle 0.25, a loop-rail part that makes the
        SWAP-only map at zero input diag(0, 1, 1, 1) (no unit-trace fixed
        state), and at angle 0.35 an output-rail part adding 2 to output x."""
        no_trace, output_x = np.zeros((2, 4, 4, 4)), np.zeros((2, 4, 4, 4))
        no_trace[LOOP_RAIL, 0] = np.diag([-1.0, 1.0, 1.0, 1.0])
        output_x[OUTPUT_RAIL, 0, 1, 0] = 2.0

        def gate_terms(family, theta, eps):
            return real(family, theta, eps) + [((theta == 0.25) * 1.0, no_trace),
                                               ((theta == 0.35) * 1.0, output_x)]
        return gate_terms

    @pytest.mark.parametrize("faults, error, message", [
        ([(5, "residual", 2e-5), (13, "loop ball", 1.3)], ValidationError,
         "loop state Bloch norm 1.3 exceeds"),
        ([(1, "loop ball", 1.3), (14, "non-finite", None)], ValidationError, "non-finite loop input"),
        ([(2, "loop ball", 1.3), (9, "no fixed state", None)], ValidationError,
         "consistency map has no unit-trace fixed state"),
        ([(6, "loop ball", 1.3), (10, "loop ball", 1.5)], ValidationError,
         "loop state Bloch norm 1.3 exceeds"),
        # The message names the batch's largest residual, row 12's.
        ([(3, "output ball", None), (8, "residual", 2e-5), (12, "residual", 2.5e-5)],
         ConvergenceError, "fixed-point residual 3.1"),
        ([(0, "output ball", None), (11, "output ball", None)], ValidationError,
         "output Bloch norm"),
    ])
    def test_failing_rows_in_later_blocks(self, monkeypatch, faults, error, message):
        monkeypatch.setattr(deutsch, "_gate_terms", self.injected_terms(deutsch._gate_terms))
        args = self.failing_batch(faults)
        raised = []
        for block in (10 ** 6, 4):
            monkeypatch.setattr(deutsch, "_SOLVE_BLOCK", block)
            with pytest.raises(error, match=message) as exc:
                deutsch._solve_batch(*args)
            raised.append(str(exc.value))
        assert raised[0] == raised[1]


def test_run_batch_of_no_rows():
    batch = run_batch(CircuitKind.SWAP_THEN_CU, [], [], [], np.zeros((0, 3)))
    assert batch.loop.shape == batch.outputs.shape == (0, 3)
    for name in ("fixed_set_dimension", "residual", "consistency_fidelity"):
        assert getattr(batch, name).shape == (0,), name


class TestRunBatchBoundary:
    """run_batch refuses raw arrays it would otherwise broadcast or solve
    silently: every argument has one entry per (N, 3) input row, in the ball."""

    ARGS = ([0.1, 0.1], [0.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [[0.1], [[0.1], [0.1]], 0.1, [0.1, 0.1, 0.1]])
    @pytest.mark.parametrize("which", range(3))
    def test_per_row_argument_of_wrong_shape_rejected(self, which, bad):
        args = list(self.ARGS)
        args[which] = bad
        with pytest.raises(ValidationError, match=r"shape .* is not \(2,\)"):
            run_batch(CircuitKind.SWAP_THEN_CU, *args, np.zeros((2, 3)))

    @pytest.mark.parametrize("loop_in", [np.zeros(3), np.zeros((2, 2)), np.zeros((2, 3, 1)),
                                         np.zeros((2, 4))])
    def test_loop_input_not_n_by_3_rejected(self, loop_in):
        with pytest.raises(ValidationError, match=r"is not \(N, 3\)"):
            run_batch(CircuitKind.SWAP_THEN_CU, *self.ARGS, loop_in)

    @pytest.mark.parametrize("kind", list(CircuitKind))
    @pytest.mark.parametrize("row", [[2.0, 0.0, 0.0], [0.0, 0.0, -1.0 - 1e-9], [math.nan, 0.0, 0.0]])
    def test_loop_input_outside_ball_rejected(self, kind, row):
        """The input is checked before the 1 - p shrink, which would bring it inside."""
        with pytest.raises(ValidationError, match="loop input Bloch norm"):
            run_batch(kind, [0.1, 0.1], [0.0, 0.0], [0.0, 0.9], np.array([[0.0, 0.0, 1.0], row]))

    @pytest.mark.parametrize("rows, message", [
        ([[math.nan, 0.0, 0.0]], "loop input Bloch norm nan is not a number"),
        ([[0.0, 0.0, 1.0], [0.0, math.nan, 0.0], [2.0, 0.0, 0.0]],
         "loop input Bloch norm nan is not a number"),
        ([[0.0, 0.0, 0.5], [0.0, 0.0, 1.5], [0.0, 0.0, 2.0], [math.nan, 0.0, 0.0]],
         "loop input Bloch norm 1.5 exceeds 1 + 2 PSD_TOL"),
        ([[0.0, 0.0, 1.0], [0.0, math.inf, 0.0]], "loop input Bloch norm inf exceeds 1 + 2 PSD_TOL"),
    ])
    def test_first_row_outside_ball_is_named(self, rows, message):
        n = len(rows)
        with pytest.raises(ValidationError) as exc:
            run_batch(CircuitKind.SWAP_THEN_CU, [0.1] * n, [0.0] * n, [0.0] * n, rows)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", ["swap-cu", "swap-cnot", None, 0])
    def test_kind_not_a_circuit_kind_rejected(self, kind):
        with pytest.raises(ValidationError) as exc:
            run_batch(kind, [0.1], [0.0], [0.0], [[0.0, 0.0, 1.0]])
        assert str(exc.value) == f"circuit kind {kind!r} is not a CircuitKind"


class TestSolveFixedPoint:
    def test_diagonal_closed_form_over_polar_grid(self):
        """Loop state is diag(cos^2(phi/2), sin^2(phi/2)) for the nonlinear circuit."""
        interaction = build_interaction(SWAP_CNOT)
        for phi in np.linspace(0.1, math.pi - 0.1, 15):
            for phase in (0.0, 1.1, 4.4):
                fp = solve_fixed_point(PureQubit(phi, phase).density(), interaction)
                expected = np.diag([math.cos(phi / 2) ** 2, math.sin(phi / 2) ** 2])
                assert np.abs(fp.rho_ctc.mat - expected).max() <= 1e-12
                assert fp.residual <= 1e-10

    def test_h_input_pins_loop_state_for_partial_rotations(self):
        for theta in np.linspace(-1.4, 1.4, 11):  # sin^2(theta) < 1 throughout
            fp = solve_fixed_point(H.density(), build_interaction(cu_circuit(theta)))
            assert trace_distance(fp.rho_ctc, H.density()) <= 1e-12
            assert fp.fixed_set_dimension == 1

    def test_optimal_gate_rotates_companion_to_v(self):
        """Guess-and-verify: |V><V| satisfies the map at theta = (phi - pi)/2."""
        v = PureQubit(math.pi, 0.0).density()
        for phi in np.linspace(0.2, 2 * math.pi - 0.2, 17):
            interaction = build_interaction(cu_circuit((phi - math.pi) / 2))
            psi1 = PureQubit(phi, 0.0).density()
            assert trace_distance(consistency_map(psi1, interaction, v), v) <= 1e-12
            fp = solve_fixed_point(psi1, interaction)
            assert trace_distance(fp.rho_ctc, v) <= 1e-10
            assert fp.residual <= 1e-10

    def test_degenerate_equator_case(self):
        fp = solve_fixed_point(PureQubit(math.pi / 2, 0.0).density(),
                               build_interaction(SWAP_CNOT))
        assert fp.fixed_set_dimension == 2
        assert trace_distance(fp.rho_ctc, HALF) <= 1e-12
        assert fp.entropy == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_cnot_on_h_input(self):
        """Full-flip gate on |H>: every diagonal state is consistent; I/2 wins."""
        interaction = build_interaction(
            CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=-math.pi / 2)
        )
        fp = solve_fixed_point(H.density(), interaction)
        assert fp.fixed_set_dimension == 2
        assert trace_distance(fp.rho_ctc, HALF) <= 1e-12

    def test_methods_agree_on_unique_fixed_points(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            rho_in = random_qubit_state(rng)
            interaction = build_interaction(
                cu_circuit(rng.uniform(-1.5, 1.5), eps=rng.uniform(0, 1))
            )
            a = solve_fixed_point(rho_in, interaction)
            if a.fixed_set_dimension != 1:
                continue
            b = solve_fixed_point(rho_in, interaction, method="damped_iteration")
            assert trace_distance(a.rho_ctc, b.rho_ctc) <= 1e-9
            assert b.iterations > 0

    def test_damped_iteration_lands_in_degenerate_fixed_set(self):
        fp = solve_fixed_point(PureQubit(math.pi / 2, 0.0).density(),
                               build_interaction(SWAP_CNOT), method="damped_iteration")
        assert fp.residual <= 1e-10

    def test_degenerate_result_is_local_entropy_maximum(self):
        """Perturbing within the fixed-point set can only lower the entropy."""
        from ctcsim.qmath import von_neumann_entropy

        rho_in = PureQubit(math.pi / 2, 0.0).density()
        interaction = build_interaction(SWAP_CNOT)
        fp = solve_fixed_point(rho_in, interaction)
        assert fp.fixed_set_dimension == 2
        for t in (-0.2, -0.01, 0.01, 0.2):
            perturbed = DensityMatrix(
                fp.rho_ctc.mat + t * np.array([[0, 0.5], [0.5, 0]], dtype=complex)
            )
            # Still inside the fixed-point set...
            assert trace_distance(
                consistency_map(rho_in, interaction, perturbed), perturbed
            ) <= 1e-12
            # ...but strictly below the returned entropy.
            assert von_neumann_entropy(perturbed) < fp.entropy - 1e-6

    def test_iteration_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(deutsch, "_MAX_STEPS", 2)
        with pytest.raises(ConvergenceError, match="converge"):
            damped_iteration(PureQubit(1.0, 0.0).density().mat[None],
                             _kraus_stack([build_interaction(SWAP_CNOT)]))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            solve_fixed_point(H.density(), build_interaction(SWAP_CNOT), method="newton")


def random_stinespring_channel(rng, k):
    """Random CPTP map with k Kraus terms: the blocks V_j of an isometry V (4k x 4),
    the Q of a complex Gaussian, as terms (1/k, sqrt(k) V_j)."""
    g = rng.normal(size=(4 * k, 4)) + 1j * rng.normal(size=(4 * k, 4))
    v, _ = np.linalg.qr(g)
    return QubitChannel(tuple((1.0 / k, math.sqrt(k) * v[4 * j:4 * j + 4]) for j in range(k)))


def loop_maps(terms, loop_in):
    """Each row's M = [[1, 0], [b, A]], (N, 4, 4), built as solve_loops builds it."""
    return deutsch._mix(terms, LOOP_RAIL, "...mkv,...m->...kv", deutsch._homogeneous(loop_in))


def gap_singular_values(terms, loop_in):
    """Second-smallest singular value of M - I per row, with M built as solve_loops
    builds it. The smallest is 0 up to roundoff on every row (M's trace row is
    (1, 0, 0, 0)), so this one decides between fixed-set dimensions 1 and 2."""
    return np.linalg.svd(loop_maps(terms, loop_in) - np.eye(4), compute_uv=False)[:, 2]


class TestNearDegenerateBand:
    """The swap-cu gate at theta = -pi/2 + delta with input |H>: the fixed point is
    unique for every delta > 0, but the gap sigma ~ sqrt(2) delta^2 falls below
    EIGENVALUE_ONE_TOL for small delta, and the engine then reports dimension 2
    and the max-entropy state. These tests pin where the tolerance puts rows."""

    PAIR = np.array([[0.0, 0.0, 1.0], PureQubit(3 * math.pi / 2, 0.0).bloch()])

    @pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
    def test_gap_is_sqrt2_delta_squared(self, delta):
        interaction = build_interaction(cu_circuit(-math.pi / 2 + delta))
        sigma = gap_singular_values([(1.0, interaction.transfer)], self.PAIR[:1])[0]
        assert sigma == pytest.approx(math.sqrt(2) * delta ** 2, rel=1e-2)

    @pytest.mark.parametrize("delta, dimension, distance", [
        (1e-7, 2, 0.5), (1e-5, 2, 0.5), (3e-5, 1, 0.707096164), (1e-4, 1, 0.707071425),
    ])
    def test_dimension_switch_and_trace_distance(self, delta, dimension, distance):
        batch = run_batch(CircuitKind.SWAP_THEN_CU, [-math.pi / 2 + delta] * 2, [0.0, 0.0],
                          [0.0, 0.0], self.PAIR)
        assert batch.fixed_set_dimension.tolist() == [dimension, 1]
        out = batch.outputs
        assert np.linalg.norm(out[0] - out[1]) / 2 == pytest.approx(distance, abs=1e-6)

    @pytest.mark.parametrize("target", cli.REPRODUCE_TARGETS)
    def test_reproduce_rows_stay_clear_of_the_band(self, monkeypatch, tmp_path, target):
        """Every row of a bundled table is clearly degenerate (sigma <= 1e-20; the
        largest such value is 4.1e-32) or clearly not (sigma >= 1e-3; the smallest
        is 3.4e-3, in fig5c, s1 and s2), so no tolerance decides a published row."""
        sigmas = []
        real = deutsch._loop_rows

        def spy(terms, loop_in):
            sigmas.append(gap_singular_values(terms, loop_in))
            return real(terms, loop_in)

        monkeypatch.setattr(deutsch, "_loop_rows", spy)
        assert cli.main(["reproduce", target, "--out", str(tmp_path / "out")]) == 0
        sigma = np.concatenate(sigmas)
        assert sigma.size
        assert sigma[(sigma > 1e-20) & (sigma < 1e-3)].tolist() == []


def svd_min_norm(terms, loop_in):
    """Oracle: the null-space min-norm solve, on every row, as solve_loops ran it
    before the uniqueness screen. Returns the loop states (N, 3) and the fixed-set
    dimensions (N,)."""
    _, sing, vt = np.linalg.svd(loop_maps(terms, loop_in) - np.eye(4))
    null = sing < EIGENVALUE_ONE_TOL
    lead = np.where(null, vt[:, :, 0], 0.0)
    norm0 = np.einsum("...i,...i->...", lead, vt[:, :, 0])
    r = np.einsum("nj,nji->ni", lead, vt[:, :, 1:]) / norm0[:, None]
    norm = np.sqrt(np.einsum("...i,...i->...", r, r))
    return r / np.maximum(norm, 1.0)[:, None], null.sum(axis=1)


def screen_determinants(terms, loop_in):
    """|det(I - A)| per row, the quantity solve_loops screens on."""
    return np.abs(np.linalg.det(np.eye(3) - loop_maps(terms, loop_in)[:, 1:, 1:]))


def exact_solve(a, b):
    """The solution of a x = b for a 3x3 float matrix, by Cramer's rule in exact
    rational arithmetic, rounded once to floats."""
    a = [[Fraction(x) for x in row] for row in a.tolist()]
    b = [Fraction(x) for x in b.tolist()]

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(a)
    return [float(det([[b[i] if j == c else a[i][j] for j in range(3)] for i in range(3)]) / d)
            for c in range(3)]


def random_stinespring_stack(rng, n, k):
    """Pauli-transfer tensors (n, 2, 4, 4, 4) of n random_stinespring_channel draws."""
    g = rng.normal(size=(n, 4 * k, 4)) + 1j * rng.normal(size=(n, 4 * k, 4))
    v = np.linalg.qr(g)[0]
    return _transfer_tensors(np.full((n, k), 1.0 / k), math.sqrt(k) * v.reshape(n, k, 4, 4))


class TestScreenedSolve:
    """solve_loops solves rows with |det(I - A)| above the screen by one 3x3 solve
    and sends the rest through the SVD: both must give the SVD oracle's states and
    dimensions."""

    @pytest.mark.parametrize("target", cli.REPRODUCE_TARGETS)
    def test_reproduce_rows_match_the_svd_oracle(self, monkeypatch, tmp_path, target):
        seen = []
        real = deutsch._loop_rows

        def spy(terms, loop_in):
            rows = real(terms, loop_in)
            seen.append((rows[0], *svd_min_norm(terms, loop_in)))
            return rows

        monkeypatch.setattr(deutsch, "_loop_rows", spy)
        assert cli.main(["reproduce", target, "--out", str(tmp_path / "out")]) == 0
        assert seen
        for batch, loop, dims in seen:
            assert np.abs(batch.loop - loop).max() <= 1e-15
            assert batch.fixed_set_dimension.tolist() == dims.tolist()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_stinespring_rows_match_the_exact_solution(self, k):
        """Every row passes the screen and has the oracle's dimension. Against
        (I - A)^-1 b in exact rational arithmetic, the 3x3 solve's error is within
        cond(I - A) * eps, the LU forward-error bound, and the SVD oracle's within
        4 cond(I - A) * eps: on two k = 1 rows the SVD oracle is 1.0e-15 from the
        exact solution, where the 3x3 solve is 1.1e-16 from it, so the two differ by
        more than 1e-15 there."""
        rng = np.random.default_rng(5200 + k)
        n = 1000
        terms = [(1.0, random_stinespring_stack(rng, n, k))]
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        loop_in = direction * np.where(np.arange(n) % 4 == 0, 1.0, rng.uniform(0, 1, n))[:, None]
        batch = solve_loops(terms, loop_in)
        loop, dims = svd_min_norm(terms, loop_in)
        assert (screen_determinants(terms, loop_in) > deutsch._UNIQUE_DET).all()
        assert batch.fixed_set_dimension.tolist() == dims.tolist()
        m = loop_maps(terms, loop_in)
        exact = np.array([exact_solve(np.eye(3) - a, b) for a, b in zip(m[:, 1:, 1:], m[:, 1:, 0])])
        bound = np.linalg.cond(np.eye(3) - m[:, 1:, 1:]) * np.finfo(float).eps
        assert (np.abs(batch.loop - exact).max(axis=1) <= bound).all()
        assert (np.abs(loop - exact).max(axis=1) <= 4 * bound).all()

    @pytest.mark.parametrize("delta", [1e-7, 1e-5, 2e-5, 3e-5])
    def test_near_degenerate_rows_take_the_svd_path(self, delta):
        """The |H> row of the swap-cu family fails the screen (|det(I - A)| ~
        delta^2) and gets exactly the oracle's state and dimension; at delta =
        2e-5 the oracle's state misses RESIDUAL_TOL and the solve still raises.
        The psi(3pi/2) row passes the screen."""
        terms = [(1.0, build_interaction(cu_circuit(-math.pi / 2 + delta)).transfer)]
        pair = TestNearDegenerateBand.PAIR
        dets = screen_determinants(terms, pair)
        assert dets[0] <= deutsch._UNIQUE_DET < dets[1]
        if delta == 2e-5:
            with pytest.raises(ConvergenceError, match="residual"):
                solve_loops(terms, pair)
            return
        batch = solve_loops(terms, pair)
        loop, dims = svd_min_norm(terms, pair)
        assert batch.loop[0].tolist() == loop[0].tolist()
        assert batch.fixed_set_dimension.tolist() == dims.tolist() == [2 if delta < 2e-5 else 1, 1]
        assert np.abs(batch.loop[1] - loop[1]).max() <= 1e-15

    @pytest.mark.parametrize("delta", [1.0005e-3, 1.001e-3, 1.002e-3])
    def test_rows_just_past_the_screen_have_dimension_one(self, delta):
        """|det(I - A)| just above the screen: sigma_min(I - A) > 2.5e-7, so the SVD
        also counts one null direction of M - I. The solve's forward error is at
        most about cond(I - A) * 1e-16 <= 8e6 * 1e-16, within 1e-9."""
        terms = [(1.0, build_interaction(cu_circuit(-math.pi / 2 + delta)).transfer)]
        loop_in = TestNearDegenerateBand.PAIR[:1]
        det = screen_determinants(terms, loop_in)[0]
        assert deutsch._UNIQUE_DET < det < 1.01 * deutsch._UNIQUE_DET
        loop, dims = svd_min_norm(terms, loop_in)
        batch = solve_loops(terms, loop_in)
        assert dims.tolist() == batch.fixed_set_dimension.tolist() == [1]
        assert np.abs(batch.loop - loop).max() <= 1e-9


class TestRandomChannels:
    """Arbitrary two-qubit interaction channels: the engine and the Kraus-form
    oracles agree on seeded random CPTP maps, not just the paper's circuits."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fixed_points_and_outputs(self, k):
        rng = np.random.default_rng(173 + k)
        for _ in range(30):
            interaction = random_stinespring_channel(rng, k)
            rho_in = random_qubit_state(rng)
            engine = solve_fixed_point(rho_in, interaction)
            damped = solve_fixed_point(rho_in, interaction, method="damped_iteration")
            for fp in (engine, damped):
                assert fp.residual <= 1e-10
                image = consistency_map(rho_in, interaction, fp.rho_ctc)
                assert fidelity(fp.rho_ctc, image) == pytest.approx(1.0, abs=1e-12)
            if engine.fixed_set_dimension == 1:
                assert trace_distance(engine.rho_ctc, damped.rho_ctc) <= 1e-9

            batch = solve_loops([(1.0, interaction.transfer)], rho_in.bloch()[None])
            assert np.linalg.norm(batch.loop[0]) <= 1 + 2e-10
            assert batch.consistency_fidelity[0] == pytest.approx(1.0, abs=1e-12)
            direct = evolve_output(rho_in, engine.rho_ctc, interaction)
            assert np.abs(direct.bloch() - batch.outputs[0]).max() <= 1e-12


def haar_unitary(rng, d):
    """Haar-random d x d unitary: the Q of a complex Gaussian, with R's diagonal phases."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def bloch_rotation(u):
    """R with Bloch(u rho u^dag) = R Bloch(rho): R_ij = Re Tr[s_i u s_j u^dag] / 2."""
    paulis = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
    return np.einsum("iab,bc,jcd,ad->ij", paulis, u, paulis, u.conj()).real / 2.0


def conjugated(u, rho):
    return DensityMatrix(u @ rho.mat @ u.conj().T)


class TestLocalUnitaryCovariance:
    """Metamorphic relation: with U' = (V (x) W) U (V (x) W)^dag, V on the output
    rail and W on the loop rail, the input V rho V^dag gives the loop state
    W sigma W^dag, the output V rho_out V^dag and the same fixed-set dimension.
    The relation is exact and the maximum-entropy choice is unitarily
    invariant, so degenerate rows compare their min-norm states too."""

    @pytest.fixture(scope="class")
    def rows(self):
        """(channel, rho_in, V, W) rows: random Stinespring channels, a non-unital
        amplitude-damped gate, and degenerate rows (fixed sets of dimension 2 and 4)."""
        rng = np.random.default_rng(20261018)
        gamma = 0.35
        gate = scalar_cu_xz(0.7) @ SWAP
        damping = [np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
                   np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])]
        damped_gate = QubitChannel(tuple((1.0, np.kron(ID2, k) @ gate) for k in damping))
        pairs = [(random_stinespring_channel(rng, 1 + i % 4), random_qubit_state(rng))
                 for i in range(24)]
        pairs += [(damped_gate, random_qubit_state(rng)) for _ in range(4)]
        pairs.append((build_interaction(SWAP_CNOT), PureQubit(math.pi / 2, 0.0).density()))
        pairs.append((QubitChannel(((1.0, np.eye(4)),)), random_qubit_state(rng)))
        return [(ch, rho, haar_unitary(rng, 2), haar_unitary(rng, 2)) for ch, rho in pairs]

    @staticmethod
    def moved(channel, v, w):
        vw = np.kron(v, w)
        return QubitChannel(tuple((wt, vw @ op @ vw.conj().T) for wt, op in channel.kraus))

    def kraus_stacks(self, rows):
        """Kraus stacks of the rows' channels U and of their U'."""
        return (_kraus_stack([ch for ch, _, _, _ in rows]),
                _kraus_stack([self.moved(ch, v, w) for ch, _, v, w in rows]))

    def test_engine_solves_covariantly(self, rows):
        kraus, moved_kraus = self.kraus_stacks(rows)
        rot_v, rot_w = (np.array([bloch_rotation(r[i]) for r in rows]) for i in (2, 3))
        bloch_in = np.array([rho.bloch() for _, rho, _, _ in rows])
        base = solve_loops([(1.0, _transfer_tensors(*kraus))], bloch_in)
        moved = solve_loops([(1.0, _transfer_tensors(*moved_kraus))],
                            np.einsum("nij,nj->ni", rot_v, bloch_in))
        assert {2, 4} <= set(base.fixed_set_dimension.tolist())
        np.testing.assert_array_equal(moved.fixed_set_dimension, base.fixed_set_dimension)
        assert np.abs(moved.loop - np.einsum("nij,nj->ni", rot_w, base.loop)).max() <= 1e-12
        assert np.abs(moved.outputs - np.einsum("nij,nj->ni", rot_v, base.outputs)).max() <= 1e-12

    def test_kraus_maps_are_covariant(self, rows):
        rng = np.random.default_rng(20261019)
        for channel, rho_in, v, w in rows:
            moved_channel, moved_in = self.moved(channel, v, w), conjugated(v, rho_in)
            sigma = random_qubit_state(rng)
            image = consistency_map(moved_in, moved_channel, conjugated(w, sigma))
            assert trace_distance(image, conjugated(w, consistency_map(rho_in, channel, sigma))) \
                <= 1e-12
            out = evolve_output(moved_in, conjugated(w, sigma), moved_channel)
            assert trace_distance(out, conjugated(v, evolve_output(rho_in, sigma, channel))) \
                <= 1e-12

    def test_damped_iteration_is_covariant(self, rows):
        """The iteration starts at I/2, which every W leaves fixed, so it tracks
        the conjugated iterates on degenerate rows as well."""
        kraus, moved_kraus = self.kraus_stacks(rows)
        rho_in = np.array([rho.mat for _, rho, _, _ in rows])
        v, w = (np.array([r[i] for r in rows]) for i in (2, 3))
        base = damped_iteration(rho_in, kraus)
        moved = damped_iteration(v @ rho_in @ v.conj().swapaxes(-1, -2), moved_kraus)
        np.testing.assert_array_equal(moved.fixed_set_dimension, base.fixed_set_dimension)
        assert trace_distances(moved.rho, w @ base.rho @ w.conj().swapaxes(-1, -2)).max() <= 1e-12


def weyl_gate(c1, c2, c3):
    """exp(i(c1 XX + c2 YY + c3 ZZ)): the three factors commute, and each
    exp(i c PP) is cos c I + i sin c PP."""
    out = np.eye(4, dtype=complex)
    for c, pauli in ((c1, SIGMA_X), (c2, SIGMA_Y), (c3, SIGMA_Z)):
        out = out @ (math.cos(c) * np.eye(4) + 1j * math.sin(c) * np.kron(pauli, pauli))
    return out


class TestLocalUnitaryReduction:
    """For U = (A (x) B) K (C (x) D), A and B after the core K, C on the input and
    D on the loop rail before it, the outputs are A f(K, C rho C^dag, DB) A^dag.
    So D and L_optimal of an output pair do not depend on A, and depend on B and
    D only through the product DB."""

    TRIALS = 40

    @pytest.fixture(scope="class")
    def measured(self):
        """(D, L_optimal, fixed-set dimensions) per trial for the pair {|H>,
        psi(phi, phase)} under U, under U with A -> A' and (B, D) -> (B', D B B'^dag),
        and under U with D alone replaced; K alternates between the paper's gate
        and a Weyl-chamber gate."""
        rng = np.random.default_rng(20261020)
        channels, loop_in = [], []
        for i in range(self.TRIALS):
            if i % 2:
                core = scalar_cu_xz(rng.uniform(-math.pi / 2, math.pi / 2)) @ SWAP
            else:
                c1 = rng.uniform(0.0, math.pi / 4)
                c2 = rng.uniform(0.0, c1)
                core = weyl_gate(c1, c2, rng.uniform(-c2, c2))
            a, b, c, d, a2, b2, d2 = (haar_unitary(rng, 2) for _ in range(7))
            psi = PureQubit(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)).bloch()
            for u in (np.kron(a, b) @ core @ np.kron(c, d),
                      np.kron(a2, b2) @ core @ np.kron(c, d @ b @ b2.conj().T),
                      np.kron(a, b) @ core @ np.kron(c, d2)):
                channels += [QubitChannel(((1.0, u),))] * 2
                loop_in += [[0.0, 0.0, 1.0], psi]
        batch = solve_loops([(1.0, _transfer_tensors(*_kraus_stack(channels)))],
                            np.array(loop_in))
        out = batch.outputs.reshape(self.TRIALS, 3, 2, 3)
        _, l_opt, dist, _ = bloch_measures(out[:, :, 0], out[:, :, 1])
        return dist, l_opt, batch.fixed_set_dimension.reshape(self.TRIALS, 3, 2)

    def test_outputs_depend_on_the_frames_only_through_db(self, measured):
        dist, l_opt, dims = measured
        assert np.abs(dist[:, 1] - dist[:, 0]).max() <= 1e-12
        assert np.abs(l_opt[:, 1] - l_opt[:, 0]).max() <= 1e-12
        np.testing.assert_array_equal(dims[:, 1], dims[:, 0])

    def test_changing_db_moves_them(self, measured):
        dist, l_opt, _ = measured
        assert np.abs(dist[:, 2] - dist[:, 0]).max() > 1e-2
        assert np.abs(l_opt[:, 2] - l_opt[:, 0]).max() > 1e-2


class TestEvolveOutput:
    def test_nonlinear_closed_form_on_population_grid(self):
        interaction = build_interaction(SWAP_CNOT)
        for a in np.linspace(0.0, 1.0, 33):
            phi = 2 * math.acos(math.sqrt(a))
            psi = PureQubit(phi, 0.0).density()
            expected_out, expected_ctc = swap_cnot_closed_form(float(a))
            out = evolve_output(psi, expected_ctc, interaction)
            assert trace_distance(out, expected_out) <= 1e-12

    def test_equator_maps_to_maximally_mixed(self):
        interaction = build_interaction(SWAP_CNOT)
        psi = PureQubit(math.pi / 2, 0.0).density()
        out = evolve_output(psi, HALF, interaction)
        assert trace_distance(out, HALF) <= 1e-14

    def test_discrimination_pair_reaches_orthogonal_outputs(self):
        phi = 3 * math.pi / 2
        interaction = build_interaction(cu_circuit((phi - math.pi) / 2))
        v = PureQubit(math.pi, 0.0).density()
        assert trace_distance(evolve_output(H.density(), H.density(), interaction),
                              H.density()) <= 1e-14
        assert trace_distance(
            evolve_output(PureQubit(phi, 0.0).density(), v, interaction), v
        ) <= 1e-14


class TestRunScenario:
    def test_local_pair_perfectly_distinguishable(self):
        phi = 3 * math.pi / 2
        spec = cu_circuit(math.pi / 4)
        out0 = run_scenario(spec, LocalPure(H)).rho_out_per_input[0]
        out1 = run_scenario(spec, LocalPure(PureQubit(phi, 0.0))).rho_out_per_input[0]
        assert trace_distance(out0, out1) == pytest.approx(1.0, abs=1e-12)

    def test_nonlocal_pair_lands_on_maximally_mixed(self):
        phi = 3 * math.pi / 2
        res = run_scenario(
            cu_circuit(math.pi / 4),
            NonLocalEnsemble((H, PureQubit(phi, 0.0)), (0.5, 0.5)),
        )
        for out in res.rho_out_per_input:
            assert trace_distance(out, HALF) <= 1e-12

    def test_nonlocal_outputs_match_resource_state_reduction(self):
        """The mixture the loop sees equals the traced-out resource state."""
        psi1 = PureQubit(3 * math.pi / 2, 0.0)
        ensemble = NonLocalEnsemble((H, psi1), (0.5, 0.5))
        # Trace the ancilla (the first factor, the rows of `amps`) out.
        amps = resource_state_vector(H, psi1).reshape(2, 2)
        reduced = DensityMatrix(amps.T @ amps.conj())
        assert trace_distance(ensemble_mixture(ensemble), reduced) <= 1e-14

    def test_consistency_fidelity_is_one(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            spec = cu_circuit(rng.uniform(-1.5, 1.5), eps=rng.uniform(0, 1),
                              p=rng.uniform(0, 1))
            psi = PureQubit(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            res = run_scenario(spec, LocalPure(psi))
            assert res.consistency_fidelity >= 1 - 1e-9

    def test_depolarized_input_is_what_the_loop_sees(self):
        spec = cu_circuit(math.pi / 4, p=0.5)
        res = run_scenario(spec, LocalPure(H))
        direct = solve_fixed_point(
            DensityMatrix(np.diag([0.75, 0.25]).astype(complex)),
            build_interaction(spec),
        )
        assert trace_distance(res.fixed_point.rho_ctc, direct.rho_ctc) <= 1e-12

    @pytest.mark.parametrize("method", ["eigen_max_entropy", "damped_iteration"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_every_member_leaves_as_the_evolved_mixture(self, method, k):
        """Metamorphic: a k-state ensemble gives k outputs, each the one output
        of its mixture prepared as an improper mixture, at the same fixed point."""
        rng = np.random.default_rng(1009 + k)
        for i in range(12):
            states = tuple(PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
                           for _ in range(k))
            weights = rng.uniform(0.05, 1.0, k)
            ensemble = NonLocalEnsemble(states, tuple(weights / weights.sum()))
            spec = (SWAP_CNOT if i % 4 == 0 else
                    cu_circuit(rng.uniform(-1.5, 1.5), eps=rng.uniform(0, 1), p=rng.uniform(0, 1)))
            got = run_scenario(spec, ensemble, method=method)
            want = run_scenario(spec, ImproperMixed(ensemble_mixture(ensemble)), method=method)
            assert len(got.rho_out_per_input) == k and len(want.rho_out_per_input) == 1
            for out in got.rho_out_per_input:
                assert trace_distance(out, want.rho_out_per_input[0]) <= 1e-12
            assert trace_distance(got.fixed_point.rho_ctc, want.fixed_point.rho_ctc) <= 1e-12
            assert got.fixed_point.fixed_set_dimension == want.fixed_point.fixed_set_dimension

    @pytest.mark.parametrize("method", ["eigen_max_entropy", "damped_iteration"])
    @pytest.mark.parametrize("kind", list(CircuitKind))
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected_by_both_methods(self, method, kind, angle):
        with pytest.raises(ValidationError, match="theta_xz = .* is not finite"):
            run_scenario(CircuitSpec(kind=kind, theta_xz=angle), LocalPure(PureQubit(1.0)),
                         method=method)

    def test_matches_its_run_batch_row_bit_for_bit(self):
        """run_scenario skips the checks its CircuitSpec has made, and solves as
        run_batch does: the same bits as the scenario's row of one batch of
        them all, and as a batch of one."""
        specs, preps = seeded_scenarios(1301, 60)
        def as_bytes(batch, n):
            return (density_from_bloch(batch.loop[n]).mat.tobytes(),
                    density_from_bloch(batch.outputs[n]).bloch().tobytes(),
                    float(batch.residual[n]), int(batch.fixed_set_dimension[n]),
                    float(batch.consistency_fidelity[n]))

        batches = {}
        for kind in CircuitKind:
            rows = [n for n, s in enumerate(specs) if s.kind is kind]
            batch = run_batch(kind, [specs[n].theta_xz for n in rows],
                              [specs[n].gate_noise for n in rows],
                              [specs[n].input_noise for n in rows],
                              np.array([prepared_bloch(preps[n]) for n in rows]))
            batches.update((n, as_bytes(batch, j)) for j, n in enumerate(rows))
        for n, (spec, prep) in enumerate(zip(specs, preps)):
            res = run_scenario(spec, prep)
            fp = res.fixed_point
            got = (fp.rho_ctc.mat.tobytes(), res.rho_out_per_input[0].bloch().tobytes(),
                   fp.residual, fp.fixed_set_dimension, res.consistency_fidelity)
            one = run_batch(spec.kind, [spec.theta_xz], [spec.gate_noise], [spec.input_noise],
                            prepared_bloch(prep)[None])
            assert got == batches[n] == as_bytes(one, 0), (spec, prep)
            count = len(prep.states) if isinstance(prep, NonLocalEnsemble) else 1
            assert res.rho_out_per_input == (res.rho_out_per_input[0],) * count

    def test_damped_method_is_the_oracle_chain_bit_for_bit(self):
        """The damped branch solves, evolves and closes the loop on one Kraus
        stack: the bits of solve_fixed_point, evolve_output and consistency_map."""
        specs, preps = seeded_scenarios(1307, 45)
        for spec, prep in zip(specs, preps):
            rho_in = density_from_bloch((1.0 - spec.input_noise) * prepared_bloch(prep))
            interaction = build_interaction(spec)
            fp = solve_fixed_point(rho_in, interaction, method="damped_iteration")
            out = evolve_output(rho_in, fp.rho_ctc, interaction)
            cf = fidelity(fp.rho_ctc, consistency_map(rho_in, interaction, fp.rho_ctc))
            res = run_scenario(spec, prep, "damped_iteration")
            got = res.fixed_point
            assert got.rho_ctc.mat.tobytes() == fp.rho_ctc.mat.tobytes(), (spec, prep)
            assert ((got.residual, got.iterations, got.fixed_set_dimension)
                    == (fp.residual, fp.iterations, fp.fixed_set_dimension))
            count = len(prep.states) if isinstance(prep, NonLocalEnsemble) else 1
            assert len(res.rho_out_per_input) == count
            assert all(o.mat.tobytes() == out.mat.tobytes() for o in res.rho_out_per_input)
            assert res.consistency_fidelity.hex() == cf.hex()

    @pytest.mark.parametrize("prep", [LocalPure(H), NonLocalEnsemble((H, PureQubit(1.0)), (0.5, 0.5))])
    @pytest.mark.parametrize("method", ["bogus", "eigen", None, "DAMPED_ITERATION"])
    def test_unknown_method_rejected_before_a_channel_is_built(self, monkeypatch, prep, method):
        monkeypatch.setattr(deutsch, "build_interaction", lambda spec: pytest.fail("built"))
        with pytest.raises(ValidationError) as exc:
            run_scenario(cu_circuit(0.3, eps=0.2), prep, method=method)
        assert str(exc.value) == f"unknown solver method {method!r}"

    def test_one_method_dispatch_and_no_solve_fixed_point(self):
        """No code in deutsch calls the single-scenario shims, and run_scenario
        tests method in one if/elif chain."""
        tree = ast.parse(Path(deutsch.__file__).read_text(encoding="utf-8"))
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not called & {"consistency_map", "evolve_output", "solve_fixed_point"}
        scenario = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "run_scenario")
        tests = [ast.unparse(node) for node in ast.walk(scenario) if isinstance(node, ast.Compare)
                 and isinstance(node.left, ast.Name) and node.left.id == "method"]
        assert tests == ["method == 'eigen_max_entropy'", "method == 'damped_iteration'"]

    @pytest.mark.parametrize("kwargs, message", [
        ({"theta_xz": math.pi / 2}, "theta_xz = 1.5707963267948966 outside the sweep range [-pi/2, pi/2)"),
        ({"theta_xz": -1.6}, "theta_xz = -1.6 outside the sweep range [-pi/2, pi/2)"),
        ({"theta_xz": math.nan}, "theta_xz = nan is not finite"),
        ({"gate_noise": 1.5}, "gate_noise (epsilon) = 1.5 outside [0, 1]"),
        ({"gate_noise": math.nan}, "gate_noise (epsilon) = nan outside [0, 1]"),
        ({"input_noise": -0.1}, "input_noise (p) = -0.1 outside [0, 1]"),
        ({"input_noise": math.inf}, "input_noise (p) = inf outside [0, 1]"),
        ({"theta_xz": "0.5"}, "theta_xz must be a real number, got str"),
        ({"theta_xz": None}, "theta_xz must be a real number, got NoneType"),
        ({"theta_xz": [0.5]}, "theta_xz must be a real number, got list"),
        ({"theta_xz": True}, "theta_xz must be a real number, got bool"),
        ({"gate_noise": "0.5"}, "gate_noise must be a real number, got str"),
        ({"gate_noise": np.False_}, "gate_noise must be a real number, got bool"),
        ({"input_noise": np.array(0.5)}, "input_noise must be a real number, got ndarray"),
        ({"input_noise": 0.5j}, "input_noise must be a real number, got complex"),
    ])
    def test_spec_refuses_what_run_scenario_no_longer_checks(self, kwargs, message):
        with pytest.raises(ValidationError) as exc:
            CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, **kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: LocalPure(H.density()), "local preparation state must be a PureQubit, got DensityMatrix"),
        (lambda: LocalPure(np.array([1.0, 0.0])), "local preparation state must be a PureQubit, got ndarray"),
        (lambda: ImproperMixed(np.eye(2) / 2), "improper mixture must be a DensityMatrix, got ndarray"),
        (lambda: ImproperMixed(H), "improper mixture must be a DensityMatrix, got PureQubit"),
        (lambda: NonLocalEnsemble((H, HALF), (0.5, 0.5)),
         "ensemble state must be a PureQubit, got DensityMatrix"),
        (lambda: proper_mixture_output(SWAP_CNOT, [np.eye(2) / 2], [1.0]),
         "ensemble state must be a PureQubit, got ndarray"),
    ])
    def test_preparation_types_checked_on_construction(self, build, message):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: iterate_circuit(np.array([0, 0, 1.0]), 1), "input state must be a PureQubit, got ndarray"),
        (lambda: iterate_circuit(H.density(), 2), "input state must be a PureQubit, got DensityMatrix"),
        (lambda: run_scenario("swap-cnot", LocalPure(H)), "circuit spec must be a CircuitSpec, got str"),
        (lambda: run_scenario(CircuitKind.SWAP_CNOT, LocalPure(H), method="damped_iteration"),
         "circuit spec must be a CircuitSpec, got CircuitKind"),
        (lambda: proper_mixture_output("x", [H], [1.0]), "circuit spec must be a CircuitSpec, got str"),
        (lambda: solve_fixed_point(np.eye(2) / 2, None), "loop input must be a DensityMatrix, got ndarray"),
        (lambda: solve_fixed_point(HALF, None), "interaction must be a QubitChannel, got NoneType"),
        (lambda: solve_fixed_point(HALF, np.eye(4), method="damped_iteration"),
         "interaction must be a QubitChannel, got ndarray"),
    ])
    def test_argument_types_checked_at_the_api(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message

    def test_engine_states_are_not_checked_again(self, monkeypatch):
        """run_scenario stores its loop and output rows, which solve_loops has
        checked to lie in the ball, as density_from_bloch stores them, without
        running the state checks again."""
        specs, preps = seeded_scenarios(97, 12)
        want = []
        for spec, prep in zip(specs, preps):
            batch = run_batch(spec.kind, [spec.theta_xz], [spec.gate_noise], [spec.input_noise],
                              prepared_bloch(prep)[None])
            want.append([density_from_bloch(v[0]).mat.tobytes() for v in (batch.loop, batch.outputs)])
        monkeypatch.setattr(DensityMatrix, "_check", lambda *entries: pytest.fail("checked again"))
        for spec, prep, (loop, out) in zip(specs, preps, want):
            res = run_scenario(spec, prep)
            assert res.fixed_point.rho_ctc.mat.tobytes() == loop
            assert res.rho_out_per_input[0].mat.tobytes() == out

    def test_ensemble_probabilities_validated(self):
        with pytest.raises(ValidationError):
            NonLocalEnsemble((H,), (0.7,))
        with pytest.raises(ValidationError):
            NonLocalEnsemble((H, H), (1.5, -0.5))
        with pytest.raises(ValidationError):
            NonLocalEnsemble((H, H), (math.nan, 0.5))


class TestProperVsImproper:
    @pytest.mark.parametrize("states, probs", [
        ([H, PureQubit(math.pi / 2, 0.0)], [1.0]),
        ([H], [0.5, 0.5]),
        ([], []),
        ([H, H], [1.5, -0.5]),
        ([H, H], [math.nan, 0.5]),
        ([H], [math.inf]),
    ])
    def test_ensemble_weights_validated(self, states, probs):
        with pytest.raises(ValidationError, match="ensemble"):
            proper_mixture_output(SWAP_CNOT, states, probs)

    def test_proper_and_improper_mixtures_differ_under_nonlinearity(self):
        """Same reduced state, different outputs: the loop sees the difference."""
        states = [H, PureQubit(math.pi / 2, 0.0)]
        probs = [0.5, 0.5]
        proper = proper_mixture_output(SWAP_CNOT, states, probs)
        reduced = DensityMatrix(
            0.5 * states[0].density().mat + 0.5 * states[1].density().mat
        )
        improper = run_scenario(SWAP_CNOT, ImproperMixed(reduced)).rho_out_per_input[0]
        # proper: average of diag(1,0) and diag(1/2,1/2) = diag(3/4, 1/4)
        np.testing.assert_allclose(proper.mat, np.diag([0.75, 0.25]), atol=1e-12)
        # improper: population recurrence once from a = 3/4
        np.testing.assert_allclose(improper.mat, np.diag([0.625, 0.375]), atol=1e-12)
        assert trace_distance(proper, improper) > 0.1


class TestIterateCircuit:
    def test_matches_population_recurrence(self):
        a0 = math.cos(math.pi / 8) ** 2
        for n in (1, 2, 3, 4):
            out = iterate_circuit(PureQubit(math.pi / 4, 0.0), n)
            expected = diag_population_after_passes(a0, n)
            np.testing.assert_allclose(
                out.mat, np.diag([expected, 1 - expected]), atol=1e-12
            )

    def test_frozen_inset_values(self):
        two = iterate_circuit(PureQubit(math.pi / 4, 0.0), 2)
        three = iterate_circuit(PureQubit(math.pi / 4, 0.0), 3)
        np.testing.assert_allclose(two.mat, np.diag([0.625, 0.375]), atol=1e-12)
        np.testing.assert_allclose(three.mat, np.diag([0.53125, 0.46875]), atol=1e-12)

    def test_reference_state_is_a_fixed_ray(self):
        out = iterate_circuit(H, 5)
        assert trace_distance(out, H.density()) <= 1e-12

    def test_requires_at_least_one_pass(self):
        with pytest.raises(ValidationError):
            iterate_circuit(H, 0)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None, True, False])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(ValidationError, match="is not an integer"):
            iterate_circuit(H, n)

    def test_numpy_integer_count_accepted(self):
        for n in (np.int64(3), np.int32(3), np.uint8(3)):
            np.testing.assert_array_equal(iterate_circuit(PureQubit(0.7, 0.2), n).mat,
                                          iterate_circuit(PureQubit(0.7, 0.2), 3).mat)

    def test_matches_batched_passes_bit_for_bit(self):
        """Each pass feeds its Bloch output to the next, as nonlinearity_sweep's
        batched passes (fig3's iterated rows) do, so every row agrees to the last bit."""
        rng = np.random.default_rng(12)
        phi, phase = rng.uniform(0, math.pi, 120), rng.uniform(0, 2 * math.pi, 120)
        state = experiments._pure_bloch(phi, phase)
        zeros = np.zeros(len(phi))
        for n in range(1, 6):
            state = run_batch(CircuitKind.SWAP_CNOT, zeros, zeros, zeros, state).outputs
            for k in range(len(phi)):
                np.testing.assert_array_equal(iterate_circuit(PureQubit(phi[k], phase[k]), n).mat,
                                              density_from_bloch(state[k]).mat)


class TestPhaseIndependence:
    @pytest.mark.parametrize("phi", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    def test_outputs_identical_across_phases(self, phi):
        outs = [
            run_scenario(SWAP_CNOT, LocalPure(PureQubit(phi, 2 * math.pi * k / 16)))
            .rho_out_per_input[0]
            for k in range(16)
        ]
        for o in outs[1:]:
            assert trace_distance(outs[0], o) <= 1e-10


class TestClosedForm:
    def test_pole_state(self):
        out, ctc = swap_cnot_closed_form(1.0)
        np.testing.assert_allclose(out.mat, np.diag([1.0, 0.0]), atol=0)
        np.testing.assert_allclose(ctc.mat, np.diag([1.0, 0.0]), atol=0)

    def test_balanced_state(self):
        out, ctc = swap_cnot_closed_form(0.5)
        np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=0)
        np.testing.assert_allclose(ctc.mat, np.eye(2) / 2, atol=0)

    def test_cos_squared_pi_eighth(self):
        a = math.cos(math.pi / 8) ** 2
        out, ctc = swap_cnot_closed_form(a)
        np.testing.assert_allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-15)
        np.testing.assert_allclose(ctc.mat, np.diag([a, 1 - a]), atol=1e-15)


def swap_cu_closed_form(theta, eps, p, loop_in):
    """Oracle for SWAP then CU_xz(theta) with gate failure eps: loop states
    (N, 3), outputs (N, 3) and the margin 1 + c of each row, from the input
    Bloch vectors loop_in (N, 3) before the 1 - p shrink.

    With r the shrunk input, n = (sin theta, 0, cos theta) the reflection axis
    and d = 2(n.r)n - 2r, the loop map depends on the loop state only through
    its z, so loop = r + (1 - eps)(1 - z)/2 d with z = (r_z + c)/(1 + c) and
    c = (1 - eps) d_z / 2. The output is (f loop_x, f loop_y, loop_z) with
    f = (1 - eps)(n.r) + eps. The fixed point is unique iff 1 + c != 0; rows
    with 1 + c = 0 get NaN states.
    """
    theta, eps, p = (np.asarray(x, dtype=float) for x in (theta, eps, p))
    r = loop_in * (1.0 - p)[:, None]
    n = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
    nr = (n * r).sum(axis=1)
    d = 2.0 * nr[:, None] * n - 2.0 * r
    c = (1.0 - eps) * d[:, 2] / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (r[:, 2] + c) / (1.0 + c)
    loop = r + ((1.0 - eps) * (1.0 - z) / 2.0)[:, None] * d
    f = (1.0 - eps) * nr + eps
    return loop, loop * np.stack([f, f, np.ones_like(f)], axis=1), 1.0 + c


class TestSwapCuClosedForm:
    """run_batch on the swap-cu circuit against swap_cu_closed_form."""

    def deviations(self, args):
        """Each row's margin, and its largest deviation from the closed form
        over loop and output (NaN where the margin is 0), after checking that
        the rows of dimension 2 are exactly those of margin 0."""
        batch = run_batch(*args)
        loop, out, margin = swap_cu_closed_form(*args[1:])
        np.testing.assert_array_equal(batch.fixed_set_dimension, np.where(margin == 0.0, 2, 1))
        return margin, np.maximum(np.abs(batch.loop - loop), np.abs(batch.outputs - out)).max(axis=1)

    def test_random_mixed_rows(self):
        rng = np.random.default_rng(20261019)
        n = 20000
        theta = rng.uniform(-math.pi / 2, math.pi / 2, n)
        eps, p = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        eps[::5], eps[1::7], p[2::9] = 0.0, 1.0, 0.0
        direction = rng.normal(size=(n, 3))
        loop_in = (direction / np.linalg.norm(direction, axis=1)[:, None]
                   * rng.uniform(0, 1, (n, 1)) ** (1 / 3))
        margin, dev = self.deviations((CircuitKind.SWAP_THEN_CU, theta, eps, p, loop_in))
        assert margin.min() > 0.05
        assert dev.max() <= 1e-14

    def test_every_bundled_swap_cu_row(self, monkeypatch):
        """Every swap-cu row that reproduce and the thresholds bisection solve;
        dimension 2 exactly where the margin 1 + c vanishes (phi = 0 at the
        optimal gate). The solve's rounding error grows as 1/margin: the rows
        next to the degenerate one, margin 0.0096, deviate by up to 1.2e-14."""
        calls = recorded_batches(monkeypatch, lambda: (
            [experiments.reproduce(t) for t in ("fig5a", "fig5b", "fig5c", "s1", "s2", "fig6")],
            experiments.find_thresholds(("p", "epsilon"))))
        calls = [args for args in calls if args[0] is CircuitKind.SWAP_THEN_CU]
        margin, dev = map(np.concatenate, zip(*(self.deviations(args) for args in calls)))
        unique = margin != 0.0
        assert len(calls) == 10 and (~unique).sum() == 12 and margin[unique].min() > 1e-3
        assert (dev[unique] * margin[unique]).max() <= 4e-15


class TestSwapCnotClosedForm:
    """run_batch on the swap-cnot circuit against its closed form on any input:
    with s = (1 - p) r the depolarized input, the loop state is (0, 0, s_z)
    and the output (0, 0, s_z^2), swap_cnot_closed_form's diag(a, b) and
    diag(a^2 + b^2, 2ab) with s_z = a - b; the loop keeps no coherence."""

    def test_random_mixed_rows(self):
        rng = np.random.default_rng(20261019)
        n = 20000
        direction = rng.normal(size=(n, 3))
        r = (direction / np.linalg.norm(direction, axis=1)[:, None]
             * rng.uniform(0, 1, (n, 1)) ** (1 / 3))
        p, zero = rng.uniform(0, 1, n), np.zeros(n)
        assert np.linalg.norm(r[:, :2], axis=1).min() > 1e-3  # no diagonal input
        batch = run_batch(CircuitKind.SWAP_CNOT, zero, zero, p, r)
        s_z = (1.0 - p) * r[:, 2]
        loop = np.column_stack([zero, zero, s_z])
        out = np.column_stack([zero, zero, s_z * s_z])
        np.testing.assert_allclose(batch.loop, loop, rtol=0, atol=1e-15)
        np.testing.assert_allclose(batch.outputs, out, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(batch.fixed_set_dimension, np.ones(n, dtype=int))

    def test_equator(self):
        """The fixed set is a segment only at r = (1, 0, 0), C3's input; at
        (-1, 0, 0) and elsewhere on the equator the fixed point is unique.
        Every one of them has loop state and output I/2."""
        phi = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
        r = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
        r = np.concatenate([r, [[-1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.3, -0.2, 0.0]]])
        zero = np.zeros(len(r))
        batch = run_batch(CircuitKind.SWAP_CNOT, zero, zero, zero, r)
        np.testing.assert_array_equal(batch.fixed_set_dimension, [2] + [1] * (len(r) - 1))
        np.testing.assert_allclose(batch.loop, 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(batch.outputs, 0.0, rtol=0, atol=1e-15)


# Every einsum subscript string in src/ctcsim, with the shapes its letters
# take there: n, j, x and "..." are batch or basis axes, the rest 2 or 4.
EINSUM_SUBSCRIPTS = ("...i,...i->...", "...mkv,...m->...kv", "...vkm,...v->...km",
                     "nj,nji->ni", "nij,nj->ni", "nkm,nm->nk", "nj,jx->nx",
                     "aij,bkl->abikjl", "nj,jab->nab")


# Every gufunc src/ctcsim calls with a signature= keyword, and that signature.
GUFUNC_SIGNATURES = {"_umath_linalg.det": "d->d", "_umath_linalg.solve": "dd->d"}


def einsum_calls_and_subscripts():
    """The functions src/ctcsim calls whose names contain "einsum", every
    string constant in it shaped like einsum subscripts, and the (function,
    signature) pairs of its calls with a signature= keyword. A signature
    such as "dd->d" is shaped like subscripts too, and is counted only as a
    signature."""
    calls, subscripts, signatures, signature_nodes = set(), set(), set(), set()
    for path in sorted(Path(deutsch.__file__).parent.glob("*.py")):
        # ast.walk visits a call before its arguments.
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            if "einsum" in getattr(func, "id", getattr(func, "attr", "")):
                calls.add(ast.unparse(func))
            for kw in getattr(node, "keywords", []) if func else []:
                if kw.arg == "signature":
                    signatures.add((ast.unparse(func), ast.literal_eval(kw.value)))
                    signature_nodes.add(kw.value)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node not in signature_nodes
                    and re.fullmatch(r"[a-z.]+(,[a-z.]+)*->[a-z.]*", node.value)):
                subscripts.add(node.value)
    return calls, subscripts, signatures


def einsum_operands(rng, subscripts, dtypes, batch, layout):
    """Seeded operands for subscripts, a quarter of their entries +0.0 and a
    quarter -0.0. "..." is one axis and n one of `batch` rows; layout
    "strided" makes every operand a non-contiguous view, "shared" gives the
    first operand no "..." axis or a stride-0 n axis, as _mix's shared tensor."""
    sizes = {c: 2 + 2 * (i % 2) for i, c in enumerate("abijklmvx")}
    sizes.update(n=batch, **{".": batch})
    ops = []
    for k, (term, dtype) in enumerate(zip(subscripts.split("->")[0].split(","), dtypes)):
        term = term.replace("...", ".")
        if layout == "shared" and k == 0:
            term = term.replace(".", "")
        shape = [1 if layout == "shared" and k == 0 and c == "n" else sizes[c] for c in term]
        full = shape[:-1] + [2 * shape[-1]] if layout == "strided" else shape
        x = np.empty(full, dtype=dtype)
        for part in (x.real, x.imag) if dtype is complex else (x,):
            signs = rng.integers(0, 4, size=full)
            part[...] = np.where(signs == 0, 0.0, np.where(signs == 1, -0.0, rng.normal(size=full)))
        if layout == "strided":
            x = x[..., ::2]
        if layout == "shared" and k == 0 and "n" in term:
            x = np.broadcast_to(x, tuple(sizes[c] for c in term))
        ops.append(x)
    return ops


class TestEinsumKernel:
    """Every contraction goes through qmath.c_einsum, numpy's einsum kernel,
    which gives np.einsum's bits without its Python dispatch."""

    def test_alias_is_the_kernel_np_einsum_delegates_to(self, monkeypatch):
        from numpy._core import einsumfunc

        assert qmath.c_einsum is einsumfunc.c_einsum
        calls = []

        def recorded(*operands, **kwargs):
            calls.append(operands[0])
            return qmath.c_einsum(*operands, **kwargs)

        monkeypatch.setattr(einsumfunc, "c_einsum", recorded)
        np.einsum("i,i->", np.ones(3), np.ones(3))
        assert calls == ["i,i->"]

    def test_source_calls_only_the_kernel_on_the_listed_subscripts(self):
        calls, subscripts, signatures = einsum_calls_and_subscripts()
        assert calls == {"c_einsum"}
        assert subscripts == set(EINSUM_SUBSCRIPTS)
        assert signatures == set(GUFUNC_SIGNATURES.items())

    @pytest.mark.parametrize("subscripts", EINSUM_SUBSCRIPTS)
    def test_kernel_matches_np_einsum_bit_for_bit(self, subscripts):
        rng = np.random.default_rng(20261020)
        n_ops = subscripts.count(",") + 1
        for dtypes in ((float,) * n_ops, (complex,) * n_ops, (float, complex)[:n_ops]):
            for batch in (0, 1, 5):
                for layout in ("contiguous", "strided", "shared"):
                    ops = einsum_operands(rng, subscripts, dtypes, batch, layout)
                    got = np.asarray(qmath.c_einsum(subscripts, *ops))
                    want = np.asarray(np.einsum(subscripts, *ops))
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes(), (dtypes, batch, layout)

    def test_engine_never_calls_np_einsum(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", refuse)
        spec = cu_circuit(0.3, eps=0.2, p=0.1)
        psi0, psi1 = PureQubit(0.0, 0.0), PureQubit(1.1, 0.4)
        for prep in (LocalPure(psi1), ImproperMixed(psi1.density()),
                     NonLocalEnsemble((psi0, psi1), (0.5, 0.5))):
            for method in ("eigen_max_entropy", "damped_iteration"):
                run_scenario(spec, prep, method)
        loop_in = np.array([psi0.bloch(), psi1.bloch(), [0.2, -0.1, 0.3]])
        for kind in CircuitKind:
            for theta in ([0.3] * 3, [0.3, -0.5, 1.0]):
                for eps in ([0.0] * 3, [0.2, 0.0, 1.0]):
                    run_batch(kind, theta, eps, [0.1, 0.0, 0.5], loop_in)
        svd = run_batch(CircuitKind.SWAP_CNOT, [0.0], [0.0], [0.0], [[1.0, 0.0, 0.0]])
        assert svd.fixed_set_dimension[0] == 2
        interaction = build_interaction(spec)
        for method in ("eigen_max_entropy", "damped_iteration"):
            solve_fixed_point(psi1.density(), interaction, method)
        iterate_circuit(psi1, 3)
        for target in cli.REPRODUCE_TARGETS:
            grid = [] if target in ("fig3", "thresholds") else ["--grid", "3"]
            assert cli.main(["reproduce", target, *grid, "--out", str(tmp_path / target)]) == 0


def linalg_operands(rng, batch, layout, det_floor=None):
    """Seeded (a (batch, 3, 3), b (batch, 3, 1)) as solve_loops passes them;
    layout "strided" makes both non-contiguous views, as b = m[:, 1:, :1]
    is. Each a is 4 I plus normal entries, a quarter of them +0.0 and a
    quarter -0.0; with det_floor, it is instead a random rotation of
    diag(1, 1, d) with d from det_floor up to 1.001 det_floor, so |det a|
    is just above the screen."""
    if det_floor is None:
        full = (batch, 3, 6) if layout == "strided" else (batch, 3, 3)
        a = np.where(rng.integers(0, 4, size=full) < 2, rng.choice([0.0, -0.0], size=full),
                     rng.normal(size=full))
        a[:, [0, 1, 2], [0, 2, 4] if layout == "strided" else [0, 1, 2]] += 4.0
    else:
        q = np.linalg.qr(rng.normal(size=(batch, 3, 3)))[0]
        d = det_floor * rng.uniform(1.0, 1.001, batch)
        a = (q * np.stack([np.ones(batch), np.ones(batch), d], axis=1)[:, None, :]) @ q.swapaxes(1, 2)
        a = np.repeat(a, 2, axis=2) if layout == "strided" else a
    b = rng.normal(size=(batch, 3, 2 if layout == "strided" else 1))
    return (a[:, :, ::2], b[:, :, :1]) if layout == "strided" else (a, b)


class TestLinalgKernel:
    """solve_loops' determinant and solve call the LAPACK gufuncs behind
    np.linalg.det and np.linalg.solve, which give those functions' bits
    without their wrappers."""

    def test_np_linalg_calls_the_same_gufuncs_on_the_listed_signatures(self, monkeypatch):
        import numpy.linalg._linalg as linalg_impl

        assert deutsch._umath_linalg is linalg_impl._umath_linalg
        calls = []

        class Recorded:
            def __getattr__(self, name):
                def call(*args, signature):
                    calls.append((f"_umath_linalg.{name}", signature))
                    return getattr(deutsch._umath_linalg, name)(*args, signature=signature)
                return call

        monkeypatch.setattr(linalg_impl, "_umath_linalg", Recorded())
        a, b = linalg_operands(np.random.default_rng(1), 2, "contiguous")
        np.linalg.det(a)
        np.linalg.solve(a, b)
        assert calls == list(GUFUNC_SIGNATURES.items())

    @pytest.mark.parametrize("det_floor", [None, deutsch._UNIQUE_DET])
    def test_kernels_match_np_linalg_bit_for_bit(self, det_floor):
        rng = np.random.default_rng(20261021)
        for batch in (0, 1, 5):
            for layout in ("contiguous", "strided"):
                a, b = linalg_operands(rng, batch, layout, det_floor)
                if det_floor is not None:
                    assert (np.abs(np.linalg.det(a)) > det_floor).all()
                for got, want in ((deutsch._umath_linalg.det(a, signature="d->d"), np.linalg.det(a)),
                                  (deutsch._umath_linalg.solve(a, b, signature="dd->d"),
                                   np.linalg.solve(a, b))):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes(), (batch, layout)

    def test_batch_with_svd_rows_raises_no_warning(self):
        """Rows that fail the screen reach the solve as the identity, so no
        singular matrix (numpy's "invalid value" warning) is ever solved."""
        r = np.array([[1.0, 0.0, 0.0], [0.2, -0.1, 0.3], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        zero = np.zeros(len(r))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = run_batch(CircuitKind.SWAP_CNOT, zero, zero, zero, r)
        np.testing.assert_array_equal(batch.fixed_set_dimension, [2, 1, 1, 2])
