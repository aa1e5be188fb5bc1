"""Gate constructors, noise channels, and the interaction builder."""

import math

import numpy as np
import pytest

from ctcsim.circuits import (
    CNOT,
    SWAP,
    CircuitKind,
    CircuitSpec,
    QubitChannel,
    build_interaction,
    depolarize,
    make_cu_xz,
)
from ctcsim.deutsch import consistency_map, evolve_output
from ctcsim.qmath import (
    DensityMatrix,
    PureQubit,
    ValidationError,
    bloch_from_density,
)

HH = np.array([1, 0, 0, 0], dtype=complex)
HV = np.array([0, 1, 0, 0], dtype=complex)
VH = np.array([0, 0, 1, 0], dtype=complex)
VV = np.array([0, 0, 0, 1], dtype=complex)


class TestGateConstructors:
    def test_swap_exchanges_rails(self):
        np.testing.assert_allclose(SWAP @ HV, VH, atol=0)
        np.testing.assert_allclose(SWAP @ VH, HV, atol=0)

    def test_cnot_control_is_first_qubit(self):
        np.testing.assert_allclose(CNOT @ VH, VV, atol=0)
        np.testing.assert_allclose(CNOT @ HV, HV, atol=0)

    def test_cz_sign_flip_on_vv(self):
        """CU_xz at angle 0 is exactly CZ."""
        cz = make_cu_xz(0.0)
        np.testing.assert_array_equal(cz, np.diag([1, 1, 1, -1]).astype(complex))
        np.testing.assert_allclose(cz @ VV, -VV, atol=0)
        for basis in (HH, HV, VH):
            np.testing.assert_allclose(cz @ basis, basis, atol=0)

    def test_cu_at_zero_is_cz_like(self):
        np.testing.assert_allclose(
            make_cu_xz(0.0)[2:, 2:], np.diag([1.0, -1.0]), atol=1e-15
        )

    def test_cu_at_half_pi_is_cnot(self):
        np.testing.assert_allclose(make_cu_xz(math.pi / 2), CNOT, atol=1e-15)

    def test_cu_at_quarter_pi_is_controlled_hadamard(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        np.testing.assert_allclose(make_cu_xz(math.pi / 4)[2:, 2:], hadamard, atol=1e-15)

    @pytest.mark.parametrize("theta", np.linspace(-math.pi / 2, math.pi / 2, 25))
    def test_cu_unitary_and_involutive(self, theta):
        u = make_cu_xz(theta)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(u @ u, np.eye(4), atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError, match="completeness"):
            QubitChannel(((1.0, np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex)),))

    def test_gate_constants_are_read_only(self):
        for gate in (SWAP, CNOT):
            with pytest.raises(ValueError):
                gate[0, 0] = 0.0


class TestDepolarize:
    def test_strength_zero_is_identity(self):
        rho = PureQubit(0.8, 0.3).density()
        np.testing.assert_allclose(depolarize(rho, 0.0).mat, rho.mat, atol=0)

    def test_full_strength_gives_maximally_mixed(self):
        h = PureQubit(0.0, 0.0).density()
        np.testing.assert_allclose(depolarize(h, 1.0).mat, np.eye(2) / 2, atol=1e-15)

    def test_half_strength_on_h(self):
        """Bloch z shrinks 1 -> 1/2, i.e. diag(3/4, 1/4); checked against the Kraus form."""
        h = PureQubit(0.0, 0.0).density()
        out = depolarize(h, 0.5)
        np.testing.assert_allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-15)
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1, -1])
        kraus_form = (1 - 3 * 0.5 / 4) * h.mat + (0.5 / 4) * (
            sx @ h.mat @ sx + sy @ h.mat @ sy + sz @ h.mat @ sz
        )
        np.testing.assert_allclose(out.mat, kraus_form, atol=1e-15)

    def test_bloch_vector_scaling(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = g @ g.conj().T
            rho = DensityMatrix(m / m.trace().real)
            p = rng.uniform(0, 1)
            before = bloch_from_density(rho)
            after = bloch_from_density(depolarize(rho, p))
            np.testing.assert_allclose(after, (1 - p) * before, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            depolarize(PureQubit(0.0, 0.0).density(), 1.2)


def cu_interaction(theta, eps):
    return build_interaction(CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=theta,
                                         gate_noise=eps))


def joint_image(ch, rho4):
    """sum_k w_k op_k rho op_k^dag, written out in the test."""
    return sum(w * op @ rho4 @ op.conj().T for w, op in ch.kraus)


class TestGateFailureChannel:
    """build_interaction's gate-failure channel: when CU_xz fails, the SWAP remains."""

    def test_completeness_across_strength_grid(self):
        for eps in np.linspace(0.0, 1.0, 101):
            ch = cu_interaction(math.pi / 4, float(eps))
            acc = sum(w * op.conj().T @ op for w, op in ch.kraus)
            assert np.abs(acc - np.eye(4)).max() <= 1e-10

    def test_zero_failure_is_pure_unitary(self):
        ch = cu_interaction(0.3, 0.0)
        assert len(ch.kraus) == 1 and ch.kraus[0][0] == 1.0
        np.testing.assert_allclose(ch.kraus[0][1], make_cu_xz(0.3) @ SWAP,
                                   atol=0)

    def test_certain_failure_is_pure_swap(self):
        ch = cu_interaction(0.3, 1.0)
        assert len(ch.kraus) == 1 and ch.kraus[0][0] == 1.0
        np.testing.assert_allclose(ch.kraus[0][1], SWAP, atol=0)

    def test_half_failure_two_term_expansion(self):
        """eps=1/2 on |H>|V>: the SWAP gives |V>|H>, then CU_xz rotates the target
        half of the time, so the result is an even mixture of |V>|H> and |V>|+>."""
        h = PureQubit(0.0).density().mat
        v = PureQubit(math.pi).density().mat
        plus_vec = make_cu_xz(math.pi / 4)[2:, 2:] @ np.array([1.0, 0.0])  # Hadamard |H>
        plus = np.outer(plus_vec, plus_vec.conj())
        out = joint_image(cu_interaction(math.pi / 4, 0.5), np.kron(h, v))
        expected = 0.5 * np.kron(v, h) + 0.5 * np.kron(v, plus)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_third_failure_direct_sum(self):
        """eps=1/3: two thirds of the full interaction, one third of the bare SWAP."""
        rng = np.random.default_rng(67)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        u = make_cu_xz(math.pi / 4) @ SWAP
        s = SWAP
        out = joint_image(cu_interaction(math.pi / 4, 1 / 3), rho)
        expected = (2 / 3) * u @ rho @ u.conj().T + (1 / 3) * s @ rho @ s.conj().T
        np.testing.assert_allclose(out, expected, atol=1e-14)


class TestApplyChannel:
    """Applying a channel through the Kraus path: consistency_map keeps the loop
    rail (Tr_1), evolve_output the output rail (Tr_2)."""

    def test_identity_channel(self):
        rng = np.random.default_rng(59)
        ch = QubitChannel(((1.0, np.eye(4, dtype=complex)),))
        for _ in range(20):
            a, b = PureQubit(*rng.uniform(0, 2 * math.pi, 2)), PureQubit(rng.uniform(0, 3))
            a, b = depolarize(a.density(), rng.uniform()), b.density()
            np.testing.assert_allclose(consistency_map(a, ch, b).mat, b.mat, atol=1e-15)
            np.testing.assert_allclose(evolve_output(a, b, ch).mat, a.mat, atol=1e-15)

    def test_pure_unitary_channel(self):
        """A CNOT on |a>|b>, reduced on each rail, against the written-out joint state."""
        ch = QubitChannel(((1.0, CNOT),))
        b = PureQubit(1.1, 0.2).density()
        for polar in np.linspace(0.0, math.pi, 7):
            a = PureQubit(polar, 0.4).density()
            joint = CNOT @ np.kron(a.mat, b.mat) @ CNOT.conj().T
            t = joint.reshape(2, 2, 2, 2)
            np.testing.assert_allclose(consistency_map(a, ch, b).mat,
                                       np.einsum("ijil->jl", t), atol=1e-15)
            np.testing.assert_allclose(evolve_output(a, b, ch).mat,
                                       np.einsum("ijkj->ik", t), atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(67)
        ch = cu_interaction(0.9, 0.37)
        for _ in range(50):
            a = depolarize(PureQubit(*rng.uniform(0, 2 * math.pi, 2)).density(), rng.uniform())
            b = depolarize(PureQubit(*rng.uniform(0, 2 * math.pi, 2)).density(), rng.uniform())
            assert abs(consistency_map(a, ch, b).mat.trace() - 1) <= 1e-12
            assert abs(evolve_output(a, b, ch).mat.trace() - 1) <= 1e-12

    def test_incomplete_channel_rejected(self):
        with pytest.raises(ValidationError, match="completeness"):
            QubitChannel(((0.5, np.eye(4, dtype=complex)),))


class TestBuildInteraction:
    def test_swap_cnot_is_single_kraus(self):
        ch = build_interaction(CircuitSpec(kind=CircuitKind.SWAP_CNOT))
        assert len(ch.kraus) == 1
        np.testing.assert_allclose(ch.kraus[0][1], SWAP @ CNOT)

    def test_swap_then_cu_gate_order(self):
        ch = build_interaction(
            CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=math.pi / 4)
        )
        assert len(ch.kraus) == 1
        np.testing.assert_allclose(
            ch.kraus[0][1], make_cu_xz(math.pi / 4) @ SWAP
        )

    def test_full_gate_noise_leaves_pure_swap(self):
        ch = build_interaction(
            CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=math.pi / 4, gate_noise=1.0)
        )
        assert len(ch.kraus) == 1
        np.testing.assert_allclose(ch.kraus[0][1], SWAP)

    def test_noisy_channel_weights(self):
        ch = build_interaction(
            CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=0.1, gate_noise=0.25)
        )
        assert [w for w, _ in ch.kraus] == [0.75, 0.25]

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            CircuitSpec(kind=CircuitKind.SWAP_THEN_CU, theta_xz=2.0)
        with pytest.raises(ValidationError):
            CircuitSpec(kind=CircuitKind.SWAP_CNOT, gate_noise=-0.1)
        with pytest.raises(ValidationError):
            CircuitSpec(kind=CircuitKind.SWAP_CNOT, input_noise=1.01)
