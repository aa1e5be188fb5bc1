"""Distinguishability measures: closed forms, optimality, brute-force oracles."""

import math

import numpy as np
import pytest

from ctcsim.circuits import depolarize
from ctcsim.measures import (
    SIGMA_Z_AXIS,
    DistinguishabilityReport,
    MeasurementDirection,
    grid_search_mismatch,
    helstrom_success_probability,
    mismatch_probability,
    bloch_measures,
    optimal_mismatch_probability,
    qm_baseline,
)
from ctcsim.qmath import (
    DensityMatrix,
    PureQubit,
    ValidationError,
    bloch_from_density,
    trace_distance,
)

H = PureQubit(0.0, 0.0).density()
V = PureQubit(math.pi, 0.0).density()
HALF = DensityMatrix.maximally_mixed()


def random_qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def random_pure(rng):
    return PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


def random_axis(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return MeasurementDirection(v)


class TestMismatchProbability:
    def test_orthogonal_aligned(self):
        assert mismatch_probability(H, V, SIGMA_Z_AXIS) == pytest.approx(1.0, abs=1e-15)

    def test_identical_pure_aligned(self):
        assert mismatch_probability(H, H, SIGMA_Z_AXIS) == pytest.approx(0.0, abs=1e-15)

    def test_against_reference_curve(self):
        """sigma_z mismatch between |H> and psi(phi) is sin^2(phi/2)."""
        for phi in np.linspace(0, 2 * math.pi, 17, endpoint=False):
            val = mismatch_probability(H, PureQubit(phi, 0.0).density(), SIGMA_Z_AXIS)
            assert val == pytest.approx(math.sin(phi / 2) ** 2, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            axis = random_axis(rng)
            assert abs(
                mismatch_probability(a, b, axis) - mismatch_probability(b, a, axis)
            ) <= 1e-14

    def test_bloch_closed_form_agreement(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            axis = random_axis(rng)
            n = axis.axis
            closed = (1 - (n @ bloch_from_density(a)) * (n @ bloch_from_density(b))) / 2
            assert mismatch_probability(a, b, axis) == pytest.approx(closed, abs=1e-12)

    def test_non_unit_axis_rejected(self):
        """Non-unit, NaN, infinite and wrong-length axes all fail the unit check."""
        for axis in ([0.5, 0.0, 0.5], [math.nan, 0.0, 1.0], [0.0, 0.0, math.nan],
                     [math.inf, 0.0, 0.0], [0.0, -math.inf, 0.0], [0.0, 1.0]):
            with pytest.raises(ValidationError, match="unit 3-vector"):
                MeasurementDirection(np.array(axis))

    def test_axis_is_a_read_only_copy(self):
        given = np.array([0.0, 1.0, 0.0])
        direction = MeasurementDirection(given)
        given[1] = 5.0
        assert tuple(direction.axis) == (0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            direction.axis[0] = 1.0


class TestOptimalMismatch:
    def test_dominates_every_fixed_axis(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            best, _ = optimal_mismatch_probability(a, b)
            assert best >= mismatch_probability(a, b, random_axis(rng)) - 1e-12

    def test_pure_pair_closed_form(self):
        """For pure pairs the optimum is 1 - |<psi0|psi1>|^2 / 2 = (1 + D^2)/2."""
        rng = np.random.default_rng(107)
        for _ in range(1000):
            s0, s1 = random_pure(rng), random_pure(rng)
            val, _ = optimal_mismatch_probability(s0.density(), s1.density())
            ov = abs(np.vdot(s0.vector(), s1.vector())) ** 2
            d = trace_distance(s0.density(), s1.density())
            assert val == pytest.approx(1 - ov / 2, abs=1e-10)
            assert val == pytest.approx(0.5 * (1 + d * d), abs=1e-10)

    def test_working_point_value(self):
        val, _ = optimal_mismatch_probability(
            H, PureQubit(3 * math.pi / 2, 0.0).density()
        )
        assert val == pytest.approx(0.75, abs=1e-14)

    def test_degenerate_pair_returns_z_axis(self):
        val, axis = optimal_mismatch_probability(HALF, HALF)
        assert val == 0.5
        assert tuple(axis.axis) == (0.0, 0.0, 1.0)

    def test_identical_mixed_states_cap_at_half(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            rho = random_qubit_state(rng)
            val, _ = optimal_mismatch_probability(rho, rho)
            assert val == pytest.approx(0.5, abs=1e-12)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(113)
        for _ in range(60):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            val, _ = optimal_mismatch_probability(a, b)
            assert abs(val - grid_search_mismatch(a, b)) <= 1e-6


class TestHelstrom:
    def test_orthogonal(self):
        assert helstrom_success_probability(H, V) == pytest.approx(1.0, abs=1e-14)

    def test_identical_is_coin_flip(self):
        assert helstrom_success_probability(H, H) == 0.5

    def test_working_point_value(self):
        val = helstrom_success_probability(H, PureQubit(3 * math.pi / 2, 0.0).density())
        assert val == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-14)
        assert val == pytest.approx(0.8535533905932737, abs=1e-14)

    def test_matches_explicit_measurement(self):
        """Constructed two-outcome measurement from the eigensystem of the difference."""
        rng = np.random.default_rng(127)
        for _ in range(1000):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            lam, v = np.linalg.eigh(a.mat - b.mat)
            pos = v[:, lam > 0]
            proj = pos @ pos.conj().T if pos.size else np.zeros((2, 2))
            explicit = 0.5 * float(
                np.trace(proj @ a.mat).real + np.trace((np.eye(2) - proj) @ b.mat).real
            )
            assert helstrom_success_probability(a, b) == pytest.approx(explicit, abs=1e-10)


class TestQmBaseline:
    def test_orthogonal_pair(self):
        rep = qm_baseline(math.pi, 0.0)
        assert rep.L_optimal == pytest.approx(1.0, abs=1e-14)
        assert rep.p_succ_optimal == pytest.approx(1.0, abs=1e-14)

    def test_working_point(self):
        rep = qm_baseline(3 * math.pi / 2, 0.0)
        assert rep.L_optimal == pytest.approx(0.75, abs=1e-14)
        assert rep.trace_dist == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_depolarized_working_point(self):
        """At p = sqrt(2)-1 the baseline drops to 2 - sqrt(2) = 0.58578..."""
        rep = qm_baseline(3 * math.pi / 2, math.sqrt(2) - 1)
        expected = 0.5 + (2 - math.sqrt(2)) ** 2 / 4
        assert rep.L_optimal == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5857864376269049, abs=1e-15)

    def test_isotropic_noise_keeps_the_optimal_axis(self):
        clean = qm_baseline(3 * math.pi / 2, 0.0)
        noisy = qm_baseline(3 * math.pi / 2, 0.3)
        n_clean = clean.optimal_axis.axis
        n_noisy = noisy.optimal_axis.axis
        assert abs(abs(n_clean @ n_noisy) - 1) <= 1e-10
        # Evaluating the noisy pair on the clean axis gives the same optimum.
        val = mismatch_probability(
            depolarize(H, 0.3),
            depolarize(PureQubit(3 * math.pi / 2, 0.0).density(), 0.3),
            clean.optimal_axis,
        )
        assert val == pytest.approx(noisy.L_optimal, abs=1e-12)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValidationError):
            DistinguishabilityReport(
                L_sigma_z=0.9, L_optimal=0.5, optimal_axis=SIGMA_Z_AXIS,
                trace_dist=0.5, p_succ_optimal=0.75,
            )


class TestBlochClosedForms:
    """The batched closed forms against the eigen-based functions they replace."""

    def test_match_eigen_measures_on_random_pairs(self):
        rng = np.random.default_rng(127)
        pairs = []
        for k in range(1000):
            # Mixed pairs, plus pure pairs and identical pairs for the edges.
            a = random_qubit_state(rng) if k % 3 else random_pure(rng).density()
            b = a if k % 50 == 0 else random_qubit_state(rng)
            pairs.append((a, b))
        r1 = np.array([bloch_from_density(a) for a, _ in pairs])
        r2 = np.array([bloch_from_density(b) for _, b in pairs])
        l_z, l_opt, d, p_succ = bloch_measures(r1, r2)
        for i, (a, b) in enumerate(pairs):
            assert abs(l_z[i] - mismatch_probability(a, b, SIGMA_Z_AXIS)) <= 1e-12
            assert abs(l_opt[i] - optimal_mismatch_probability(a, b)[0]) <= 1e-12
            assert abs(d[i] - trace_distance(a, b)) <= 1e-12
            assert abs(p_succ[i] - helstrom_success_probability(a, b)) <= 1e-12

    def test_qm_baseline_from_depolarized_bloch_pair(self):
        for phi in np.linspace(0, 2 * math.pi, 9):
            for p in (0.0, 0.3, 1.0):
                qm = qm_baseline(float(phi), p)
                r0 = (1 - p) * np.array([0.0, 0.0, 1.0])
                r1 = (1 - p) * PureQubit(float(phi), 0.0).bloch()
                l_z, l_opt, d, p_succ = bloch_measures(r0, r1)
                assert qm.L_sigma_z == pytest.approx(l_z, abs=1e-12)
                assert qm.L_optimal == pytest.approx(l_opt, abs=1e-12)
                assert qm.trace_dist == pytest.approx(d, abs=1e-12)
                assert qm.p_succ_optimal == pytest.approx(p_succ, abs=1e-12)
