"""Linear-algebra layer: conventions, invariants, and frozen oracle values."""

import math

import numpy as np
import pytest

from ctcsim.qmath import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    BlochVector,
    DensityMatrix,
    PureQubit,
    Subsystem,
    ValidationError,
    bloch_from_density,
    density_from_bloch,
    fidelity,
    hermitian_eigensystem,
    partial_trace,
    tensor,
    trace_distance,
    trace_distances,
    von_neumann_entropy,
)

H = PureQubit(0.0, 0.0).density()
V = PureQubit(math.pi, 0.0).density()
HALF = DensityMatrix.maximally_mixed()


def random_qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


class TestTensor:
    def test_identity_product(self):
        np.testing.assert_allclose(tensor(ID2, ID2), np.eye(4), atol=0)

    def test_projector_product(self):
        np.testing.assert_allclose(
            tensor(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), np.diag([1, 0, 0, 0]), atol=0
        )

    def test_xx_flips_both_qubits(self):
        """sigma_x (x) sigma_x sends |HH> to |VV> (checked by enumeration)."""
        hh = np.array([1, 0, 0, 0], dtype=complex)
        vv = np.array([0, 0, 0, 1], dtype=complex)
        np.testing.assert_allclose(tensor(SIGMA_X, SIGMA_X) @ hh, vv, atol=0)

    def test_block_structure(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = tensor(a, b)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(t[2 * i:2 * i + 2, 2 * j:2 * j + 2], a[i, j] * b)

    def test_dimension_overflow_rejected(self):
        with pytest.raises(ValidationError):
            tensor(np.eye(4), np.eye(2))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            joint = DensityMatrix(tensor(a.mat, b.mat))
            np.testing.assert_allclose(
                partial_trace(joint, Subsystem.FIRST).mat, b.mat, atol=1e-12
            )
            np.testing.assert_allclose(
                partial_trace(joint, Subsystem.SECOND).mat, a.mat, atol=1e-12
            )

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = DensityMatrix.from_state_vector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        np.testing.assert_allclose(
            partial_trace(bell, Subsystem.SECOND).mat, HALF.mat, atol=1e-14
        )

    def test_resource_state_reduction(self):
        """Tracing the ancilla out of (|0>|H> + |1>|psi1>)/sqrt(2) gives the even mixture."""
        psi1 = PureQubit(3 * math.pi / 2, 0.0)
        vec = np.zeros(4, dtype=complex)
        vec[:2] = PureQubit(0.0, 0.0).vector() / math.sqrt(2)
        vec[2:] = psi1.vector() / math.sqrt(2)
        reduced = partial_trace(DensityMatrix.from_state_vector(vec), Subsystem.FIRST)
        # Independent construction of the mixture from outer products.
        expected = (H.mat + psi1.density().mat) / 2
        np.testing.assert_allclose(reduced.mat, expected, atol=1e-14)
        b = reduced.bloch()
        np.testing.assert_allclose([b.x, b.y, b.z], [-0.5, 0.0, 0.5], atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        joint = DensityMatrix(m / m.trace().real)
        for sub in Subsystem:
            assert abs(partial_trace(joint, sub).mat.trace() - 1) < 1e-12

    def test_invalid_input_names_invariant(self):
        with pytest.raises(ValidationError, match="trace"):
            partial_trace(np.eye(4, dtype=complex), Subsystem.FIRST)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert trace_distance(H, V) == pytest.approx(1.0, abs=1e-14)

    def test_identical_states(self):
        assert trace_distance(H, H) == 0.0

    def test_equator_state_value(self):
        """D(|H>, |psi(pi/2)>) = 1/sqrt(2): overlap computed independently."""
        psi = PureQubit(math.pi / 2, 0.0)
        overlap = abs(np.vdot(PureQubit(0.0, 0.0).vector(), psi.vector())) ** 2
        expected = math.sqrt(1 - overlap)
        assert trace_distance(H, psi.density()) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_metric_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a, b, c = (random_qubit_state(rng) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab == dba
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10

    def test_pure_pair_overlap_identity(self):
        """For pure states, D^2 + |<psi0|psi1>|^2 = 1."""
        rng = np.random.default_rng(29)
        for _ in range(200):
            s0 = PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            s1 = PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            d = trace_distance(s0.density(), s1.density())
            ov = abs(np.vdot(s0.vector(), s1.vector())) ** 2
            assert d * d + ov == pytest.approx(1.0, abs=1e-10)

    def test_stacked_form_equals_scalar_form_row_by_row(self):
        rng = np.random.default_rng(31)
        pairs = [(random_qubit_state(rng), random_qubit_state(rng)) for _ in range(200)]
        stacked = trace_distances(np.array([a.mat for a, _ in pairs]),
                                  np.array([b.mat for _, b in pairs]))
        scalar = np.array([trace_distance(a, b) for a, b in pairs])
        # Vectorised complex products may round differently (fused multiply-add).
        assert np.abs(stacked - scalar).max() <= 1e-15

    def test_dimension_mismatch(self):
        bell = DensityMatrix.from_state_vector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        with pytest.raises(ValidationError):
            trace_distance(H, bell)


class TestFidelity:
    def test_identical(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rho = random_qubit_state(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(H, V) == pytest.approx(0.0, abs=1e-14)

    def test_pure_vs_maximally_mixed(self):
        assert fidelity(H, HALF) == pytest.approx(0.5, abs=1e-14)

    def test_qubit_closed_form_matches_matrix_root(self):
        """The qubit shortcut must equal the general sqrt-based route."""
        rng = np.random.default_rng(37)
        for _ in range(100):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            sa_lam, sa_v = np.linalg.eigh(a.mat)
            sa = (sa_v * np.sqrt(np.clip(sa_lam, 0, None))) @ sa_v.conj().T
            lam = np.linalg.eigvalsh(sa @ b.mat @ sa)
            general = float(np.sqrt(np.clip(lam, 0, None)).sum() ** 2)
            assert fidelity(a, b) == pytest.approx(general, abs=1e-12)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(H) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(HALF) == pytest.approx(1.0, abs=1e-14)

    def test_three_quarters_mixture(self):
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.8112781244591328, abs=1e-15)


class TestHermitianEigensystem:
    def test_sigma_z_spectrum(self):
        lam, _ = hermitian_eigensystem(SIGMA_Z)
        np.testing.assert_allclose(lam, [-1.0, 1.0], atol=1e-15)

    def test_degenerate_identity_still_orthonormal(self):
        lam, v = hermitian_eigensystem(np.eye(4, dtype=complex))
        np.testing.assert_allclose(lam, np.ones(4), atol=1e-15)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_rank_two_symmetric_form(self):
        """(r1 r2^T + r2 r1^T)/2 for orthogonal unit vectors: spectrum (-1/2, 0, 1/2)."""
        r1 = np.array([1.0, 0.0, 0.0])
        r2 = np.array([0.0, 0.0, 1.0])
        form = (np.outer(r1, r2) + np.outer(r2, r1)) / 2
        lam, _ = hermitian_eigensystem(form)
        np.testing.assert_allclose(lam, [-0.5, 0.0, 0.5], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_reconstruction_on_random_matrices(self, dim):
        rng = np.random.default_rng(41 + dim)
        for _ in range(1000):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (g + g.conj().T) / 2
            lam, v = hermitian_eigensystem(m)
            assert np.abs(m - (v * lam) @ v.conj().T).max() <= 1e-10
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10
            assert all(np.diff(lam) >= -1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            hermitian_eigensystem(np.array([[bad, 0], [0, 1]], dtype=complex))
        form = np.zeros((3, 3))
        form[0, 2] = form[2, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            hermitian_eigensystem(form)


class TestBlochConversions:
    def test_basis_state_convention(self):
        b = bloch_from_density(H)
        assert (b.x, b.y, b.z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
        np.testing.assert_allclose(density_from_bloch(BlochVector(0, 0, 1)).mat, H.mat)

    def test_maximally_mixed_is_origin(self):
        b = bloch_from_density(HALF)
        assert (b.x, b.y, b.z) == (0.0, 0.0, 0.0)

    def test_equatorial_state(self):
        """polar 3pi/2 with zero phase sits at Bloch (-1, 0, 0)."""
        psi = PureQubit(3 * math.pi / 2, 0.0)
        # Independent route: outer product of the amplitude vector.
        v = np.array([math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4)])
        np.testing.assert_allclose(psi.density().mat, np.outer(v, v), atol=1e-15)
        b = psi.bloch()
        assert (b.x, b.y, b.z) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            rho = random_qubit_state(rng)
            back = density_from_bloch(bloch_from_density(rho))
            assert np.abs(back.mat - rho.mat).max() <= 1e-12

    def test_norm_above_one_rejected(self):
        with pytest.raises(ValidationError):
            BlochVector(1.0, 0.1, 0.0)


class TestDensityMatrixValidation:
    def test_non_hermitian_named(self):
        with pytest.raises(ValidationError, match="Hermiticity"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_bad_trace_named(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_negative_eigenvalue_named(self):
        with pytest.raises(ValidationError, match="positivity"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_wrong_dimension(self):
        with pytest.raises(ValidationError, match="dim"):
            DensityMatrix(np.eye(3, dtype=complex) / 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(np.full((2, 2), bad, dtype=complex))
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pure_qubit_angles_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            PureQubit(bad, 0.0)
        with pytest.raises(ValidationError, match="finite"):
            PureQubit(0.3, bad)

    def test_nan_bloch_vector_rejected(self):
        with pytest.raises(ValidationError):
            BlochVector(math.nan, 0.0, 0.0)

    def test_pure_qubit_normalization(self):
        for polar in (0.0, 0.7, math.pi, 4.0):
            assert abs(np.linalg.norm(PureQubit(polar, 1.3).vector()) - 1) < 1e-14
