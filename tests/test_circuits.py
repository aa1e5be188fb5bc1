"""Gate constructors, noise channels, and the interaction builder."""

import math

import numpy as np
import pytest

import ctcsim.circuits as circuits
from ctcsim.circuits import (
    CNOT,
    SWAP,
    CircuitKind,
    CircuitSpec,
    QubitChannel,
    _FAMILIES,
    _cu_weights,
    _failure_kraus,
    _pair_maps,
    _transfer_tensors,
    build_interaction,
    depolarize,
    make_cu_xz,
)
from ctcsim.deutsch import _kraus_stack, consistency_map, evolve_output, run_batch
from ctcsim.qmath import (
    DensityMatrix,
    PureQubit,
    ValidationError,
    _wrapped,
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

    @pytest.mark.parametrize("theta", [-1e-20, -5e-324])
    def test_tiny_negative_angle_is_angle_zero(self, theta):
        """theta mod 2pi rounds a tiny negative angle up to exactly 2pi, which
        is folded to 0.0: the gate, its basis weights and the run_batch rows,
        in a batch of one angle and among other angles, are those of theta = 0
        bit for bit."""
        np.testing.assert_array_equal(make_cu_xz(theta), make_cu_xz(0.0))
        kind = CircuitKind.SWAP_THEN_CU
        tiny, zero = np.array([theta, 0.7, theta, -0.4]), np.array([0.0, 0.7, 0.0, -0.4])
        np.testing.assert_array_equal(_FAMILIES[kind].basis_weights(tiny),
                                      _FAMILIES[kind].basis_weights(zero))
        loop_in = np.array([[0.3, -0.2, 0.5], [0.0, 0.6, -0.7], [0.6, 0.0, 0.8], [-0.5, 0.4, 0.2]])
        eps, p = np.array([0.0, 0.3, 0.0, 1.0]), np.array([0.1, 0.0, 0.0, 0.5])
        for angles, want in ((tiny, zero), (np.full(4, theta), np.zeros(4))):
            got, ref = run_batch(kind, angles, eps, p, loop_in), run_batch(kind, want, eps, p, loop_in)
            for name in ("loop", "outputs", "fixed_set_dimension", "residual",
                         "consistency_fidelity"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(ValidationError, match="is not finite"):
            make_cu_xz(theta)

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
            before = rho.bloch()
            after = depolarize(rho, p).bloch()
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
    @pytest.mark.parametrize("kind", ["swap-cu", "swap-cnot", None, 1, [CircuitKind.SWAP_CNOT]])
    def test_kind_not_a_circuit_kind_rejected(self, kind):
        """A kind's value string is not coerced to its CircuitKind."""
        with pytest.raises(ValidationError) as exc:
            CircuitSpec(kind=kind)
        assert str(exc.value) == f"circuit kind {kind!r} is not a CircuitKind"

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


def scalar_cu_xz(theta):
    """Oracle: CU_xz written out from one wrapped angle, math.cos and math.sin."""
    t = _wrapped(theta)
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]], dtype=complex)
    return m


def scalar_interaction_terms(spec):
    """Oracle: the gate-failure channel's (weight, op) terms written out one at
    a time, the ideal term first, a zero-weight term left out."""
    ideal = SWAP @ CNOT if spec.kind is CircuitKind.SWAP_CNOT else scalar_cu_xz(spec.theta_xz) @ SWAP
    eps, terms = spec.gate_noise, []
    if eps < 1.0:
        terms.append((1.0 - eps, ideal))
    if eps > 0.0:
        terms.append((eps, SWAP))
    return terms


def same_bits(a, b):
    """Equal bit for bit, signed zeros included."""
    a, b = (np.ascontiguousarray(x, dtype=complex) for x in (a, b))
    return a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


EDGE_ANGLES = [-1e-20, -5e-324, -0.0, 0.0, -math.pi / 2, math.nextafter(math.pi / 2, 0.0)]


class TestOneFailureFactory:
    """make_cu_xz, build_interaction and _failure_kraus all come from one
    factory and one angle rule, and give the written-out gates bit for bit."""

    def test_make_cu_xz_matches_scalar_rule(self):
        rng = np.random.default_rng(2025)
        angles = rng.uniform(-math.pi / 2, math.pi / 2, 20000).tolist() + EDGE_ANGLES + [
            math.pi / 2, math.pi, 3.0, -2.5]
        bad = [t for t in angles if not same_bits(make_cu_xz(t), scalar_cu_xz(t))]
        assert bad == []

    @pytest.mark.parametrize("kind", list(CircuitKind))
    def test_build_interaction_matches_scalar_terms(self, kind):
        rng = np.random.default_rng(7)
        angles = rng.uniform(-math.pi / 2, math.pi / 2, 600).tolist() + EDGE_ANGLES
        for i, theta in enumerate(angles):
            eps = (0.0, 1.0, float(rng.uniform(0.0, 1.0)))[i % 3]
            spec = CircuitSpec(kind=kind, theta_xz=theta, gate_noise=eps)
            got, want = build_interaction(spec).kraus, scalar_interaction_terms(spec)
            assert len(got) == len(want) == (1 if eps in (0.0, 1.0) else 2)
            for (w, op), (want_w, want_op) in zip(got, want):
                assert w == want_w and same_bits(op, want_op), (theta, eps)

    @pytest.mark.parametrize("kind", list(CircuitKind))
    def test_failure_kraus_rows_are_build_interaction(self, kind):
        rng = np.random.default_rng(11)
        theta = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, 300), EDGE_ANGLES])
        eps = rng.uniform(0.0, 1.0, len(theta))
        weights, ops = _failure_kraus(_FAMILIES[kind], theta, eps)
        want_weights, want_ops = _kraus_stack(
            [build_interaction(CircuitSpec(kind=kind, theta_xz=t, gate_noise=e))
             for t, e in zip(theta.tolist(), eps.tolist())])
        assert (weights > 0).all()
        assert same_bits(weights, want_weights) and same_bits(ops, want_ops)


PAULI = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]


def transfer_reference(ch):
    """transfer[rail, k, mu, nu] = Tr[S_k E(P_mu (x) P_nu)]/4, written out with
    np.kron: S_k = I (x) P_k on the loop rail, P_k (x) I on the output rail."""
    out = np.zeros((2, 4, 4, 4))
    for mu in range(4):
        for nu in range(4):
            image = joint_image(ch, np.kron(PAULI[mu], PAULI[nu]))
            for k in range(4):
                out[0, k, mu, nu] = np.trace(np.kron(PAULI[0], PAULI[k]) @ image).real / 4
                out[1, k, mu, nu] = np.trace(np.kron(PAULI[k], PAULI[0]) @ image).real / 4
    return out


def stinespring_channel(rng, k):
    """Random CPTP map with k Kraus terms (1/k, sqrt(k) V_j), the V_j the 4x4
    blocks of the Q of a complex Gaussian (4k x 4)."""
    g = rng.normal(size=(4 * k, 4)) + 1j * rng.normal(size=(4 * k, 4))
    v, _ = np.linalg.qr(g)
    return QubitChannel(tuple((1.0 / k, math.sqrt(k) * v[4 * j:4 * j + 4]) for j in range(k)))


class TestTransferTensors:
    """The stacked transfer builder: each row is its channel's QubitChannel.transfer
    (a batch of one of the same function), bit for bit, padded rows included."""

    @staticmethod
    def assert_rows_match(channels):
        stacked = _transfer_tensors(*_kraus_stack(channels))
        assert stacked.shape == (len(channels), 2, 4, 4, 4)
        for row, ch in zip(stacked, channels):
            np.testing.assert_array_equal(row, ch.transfer)
        return stacked

    def test_paper_circuits(self):
        channels = [build_interaction(CircuitSpec(kind=CircuitKind.SWAP_CNOT)),
                    cu_interaction(math.pi / 4, 0.0), cu_interaction(-0.3, 0.4),
                    cu_interaction(0.0, 1.0)]
        stacked = self.assert_rows_match(channels)
        for row, ch in zip(stacked, channels):
            np.testing.assert_allclose(row, transfer_reference(ch), rtol=0, atol=1e-15)

    def test_seeded_swap_cu_draws(self):
        rng = np.random.default_rng(83)
        theta = rng.uniform(-math.pi / 2, math.pi / 2, 300)
        eps = rng.uniform(0, 1, 300)
        eps[::50] = 0.0  # one-term rows, padded with a zero-weight term
        self.assert_rows_match([cu_interaction(t, e) for t, e in zip(theta, eps)])

    def test_seeded_stinespring_channels(self):
        channels = []
        for k in (1, 2, 3, 4):
            rng = np.random.default_rng(173 + k)
            channels += [stinespring_channel(rng, k) for _ in range(30)]
        self.assert_rows_match(channels)
        for ch in channels[::10]:
            np.testing.assert_allclose(ch.transfer, transfer_reference(ch), rtol=0, atol=1e-14)

    def test_incomplete_row_rejected_as_a_channel(self):
        """_transfer_tensors does not check completeness; the channel of a
        perturbed row is refused when it is built."""
        weights, ops = _kraus_stack([cu_interaction(t, 0.3) for t in (-1.0, 0.2, 1.1)])
        QubitChannel(tuple(zip(weights[1], ops[1])))
        weights[1] *= 1.0 + 1e-9
        with pytest.raises(ValidationError, match="completeness"):
            QubitChannel(tuple(zip(weights[1], ops[1])))

    def test_channel_builds_no_tensors(self, monkeypatch):
        """A channel's transfer tensors are built on first read, once."""
        calls = []

        def spy(weights, ops):
            calls.append(len(weights))
            return _transfer_tensors(weights, ops)

        monkeypatch.setattr(circuits, "_transfer_tensors", spy)
        channels = [build_interaction(CircuitSpec(kind=CircuitKind.SWAP_CNOT)),
                    cu_interaction(-0.3, 0.4), QubitChannel(((1.0, SWAP),))]
        assert calls == []
        for ch in channels:
            assert ch.transfer is ch.transfer
        assert calls == [1, 1, 1]

    def test_transfer_is_read_only_and_read_once(self):
        rng = np.random.default_rng(211)
        channels = [cu_interaction(t, e) for t, e in zip(rng.uniform(-1.5, 1.5, 20),
                                                         rng.choice([0.0, 1.0, 0.3], 20))]
        channels += [stinespring_channel(rng, k) for k in (1, 2, 3, 4)]
        for ch in channels:
            tensors = ch.transfer
            assert tensors is ch.transfer and not tensors.flags.writeable
            with pytest.raises(ValueError):
                tensors[0, 0, 0, 0] = 1.0
            assert same_bits(tensors, _transfer_tensors(*_kraus_stack([ch]))[0])


class TestTransferBasis:
    """Each circuit family's fixed transfer basis against build_interaction,
    the channel factory it replaces in the engine."""

    def test_failure_and_swap_cnot_rows_are_the_built_channels(self):
        swap_only = build_interaction(CircuitSpec(kind=CircuitKind.SWAP_CNOT, gate_noise=1.0))
        for kind in CircuitKind:
            np.testing.assert_array_equal(_FAMILIES[kind].basis[0], swap_only.transfer)
            np.testing.assert_array_equal(
                _FAMILIES[kind].basis[0],
                build_interaction(CircuitSpec(kind=kind, theta_xz=0.3, gate_noise=1.0)).transfer)
        np.testing.assert_array_equal(
            _FAMILIES[CircuitKind.SWAP_CNOT].basis[1:],
            [build_interaction(CircuitSpec(kind=CircuitKind.SWAP_CNOT)).transfer])
        assert _FAMILIES[CircuitKind.SWAP_THEN_CU].basis.shape == (7, 2, 4, 4, 4)

    @pytest.mark.parametrize("kind", list(CircuitKind))
    def test_mixed_basis_matches_built_channels(self, kind):
        """2000 seeded (theta, eps), eps = 0 and 1 among them, mixed as
        (eps, (1 - eps) basis_weights) over the basis."""
        rng = np.random.default_rng(20261021)
        theta = rng.uniform(-math.pi / 2, math.pi / 2, 2000)
        eps = rng.uniform(0, 1, 2000)
        eps[::7], eps[1::11] = 0.0, 1.0
        coefficients = np.column_stack(
            [eps, (1.0 - eps)[:, None] * _FAMILIES[kind].basis_weights(theta)])
        mixed = np.einsum("nj,j...->n...", coefficients, _FAMILIES[kind].basis)
        built = [build_interaction(CircuitSpec(kind=kind, theta_xz=t, gate_noise=e)).transfer
                 for t, e in zip(theta.tolist(), eps.tolist())]
        np.testing.assert_allclose(mixed, built, rtol=0, atol=1e-15)

    def test_basis_is_read_only(self):
        for family in _FAMILIES.values():
            with pytest.raises(ValueError):
                family.basis[0, 0, 0, 0, 0] = 1.0


# Each family's generator pairs (a, b) in basis order, written out.
FAMILY_PAIRS = {CircuitKind.SWAP_CNOT: [(0, 0)],
                CircuitKind.SWAP_THEN_CU: [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]}


class TestGateFamilies:
    """What only the family record defines, bit for bit: the basis rows, their
    order and their weights, and one family per circuit kind."""

    def test_every_kind_has_a_family(self):
        assert list(_FAMILIES) == list(CircuitKind) == list(FAMILY_PAIRS)
        assert [k.value for k in CircuitKind] == ["swap-cnot", "swap-cu"]

    def test_circuit_choices_unchanged(self, capsys):
        import ctcsim.cli as cli

        assert cli.build_parser().parse_args(["fixed-point"]).circuit == "swap-cu"
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fixed-point", "--help"])
        assert "--circuit {swap-cnot,swap-cu}" in capsys.readouterr().out

    def test_records(self):
        """swap-cnot: G = (SWAP CNOT,), no angle. swap-cu: G_a = B_a SWAP with
        B = (|H><H| (x) I, |V><V| (x) Z, |V><V| (x) X), angles in [-pi/2, pi/2)."""
        cnot, cu = _FAMILIES[CircuitKind.SWAP_CNOT], _FAMILIES[CircuitKind.SWAP_THEN_CU]
        assert same_bits(cnot.generators, [SWAP @ CNOT]) and cnot.angle_range is None
        h, v = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        blocks = [np.kron(h, np.eye(2)), np.kron(v, np.diag([1.0, -1.0])),
                  np.kron(v, np.array([[0.0, 1.0], [1.0, 0.0]]))]
        assert same_bits(cu.generators, [b @ SWAP for b in blocks])
        assert cu.angle_range == (-math.pi / 2, math.pi / 2)

    @pytest.mark.parametrize("kind", list(CircuitKind))
    def test_basis_row_zero_is_swap_only(self, kind):
        swap_only = build_interaction(CircuitSpec(kind=kind, theta_xz=0.3, gate_noise=1.0))
        assert same_bits(_FAMILIES[kind].basis[0], swap_only.transfer)
        assert same_bits(_FAMILIES[kind].basis[0], _pair_maps(SWAP[None], SWAP[None])[0])

    @pytest.mark.parametrize("kind", list(CircuitKind))
    def test_basis_rows_are_the_ordered_pair_maps(self, kind):
        family = _FAMILIES[kind]
        g = family.generators
        want = [_pair_maps(g[a][None], g[b][None])[0] for a, b in FAMILY_PAIRS[kind]]
        assert same_bits(family.basis[1:], want)

    @pytest.mark.parametrize("kind", list(CircuitKind))
    def test_basis_weights_are_the_ordered_pair_products(self, kind):
        rng = np.random.default_rng(27)
        theta = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, 500), EDGE_ANGLES])
        family = _FAMILIES[kind]
        x = family.coefficients(theta)
        assert same_bits(x, _cu_weights(theta) if kind is CircuitKind.SWAP_THEN_CU
                         else np.ones((len(theta), 1)))
        want = np.column_stack([x[:, a] * x[:, b] for a, b in FAMILY_PAIRS[kind]])
        assert same_bits(family.basis_weights(theta), want)
