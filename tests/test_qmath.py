"""Linear-algebra layer: conventions, invariants, and frozen oracle values."""

import itertools
import math

import numpy as np
import pytest

from ctcsim.qmath import (
    HERMITICITY_TOL,
    ID2,
    PSD_TOL,
    TRACE_TOL,
    SIGMA_X,
    LOOP_RAIL,
    OUTPUT_RAIL,
    DensityMatrix,
    PureQubit,
    ValidationError,
    _partial_trace_raw,
    density_from_bloch,
    fidelity,
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
    """Joint states are written (qubit 1) x (qubit 2): np.kron with qubit 1 outer."""

    def test_identity_product(self):
        np.testing.assert_allclose(np.kron(ID2, ID2), np.eye(4), atol=0)

    def test_projector_product(self):
        np.testing.assert_allclose(
            np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), np.diag([1, 0, 0, 0]), atol=0
        )

    def test_xx_flips_both_qubits(self):
        """sigma_x (x) sigma_x sends |HH> to |VV> (checked by enumeration)."""
        hh = np.array([1, 0, 0, 0], dtype=complex)
        vv = np.array([0, 0, 0, 1], dtype=complex)
        np.testing.assert_allclose(np.kron(SIGMA_X, SIGMA_X) @ hh, vv, atol=0)

    def test_block_structure(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = np.kron(a, b)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(t[2 * i:2 * i + 2, 2 * j:2 * j + 2], a[i, j] * b)


class TestPartialTrace:
    """_partial_trace_raw on joint 4x4 arrays built with np.kron / np.outer."""

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            joint = np.kron(a.mat, b.mat)
            np.testing.assert_allclose(
                _partial_trace_raw(joint, LOOP_RAIL), b.mat, atol=1e-12
            )
            np.testing.assert_allclose(
                _partial_trace_raw(joint, OUTPUT_RAIL), a.mat, atol=1e-12
            )

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        np.testing.assert_allclose(
            _partial_trace_raw(np.outer(bell, bell.conj()), OUTPUT_RAIL), HALF.mat,
            atol=1e-14,
        )

    def test_resource_state_reduction(self):
        """Tracing the ancilla out of (|0>|H> + |1>|psi1>)/sqrt(2) gives the even mixture."""
        psi1 = PureQubit(3 * math.pi / 2, 0.0)
        vec = np.zeros(4, dtype=complex)
        vec[:2] = PureQubit(0.0, 0.0).vector() / math.sqrt(2)
        vec[2:] = psi1.vector() / math.sqrt(2)
        reduced = DensityMatrix(_partial_trace_raw(np.outer(vec, vec.conj()), LOOP_RAIL))
        # Independent construction of the mixture from outer products.
        expected = (H.mat + psi1.density().mat) / 2
        np.testing.assert_allclose(reduced.mat, expected, atol=1e-14)
        np.testing.assert_allclose(reduced.bloch(), [-0.5, 0.0, 0.5], atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        joint = m / m.trace().real
        for keep in (LOOP_RAIL, OUTPUT_RAIL):
            assert abs(_partial_trace_raw(joint, keep).trace() - 1) < 1e-12

    def test_stacked_raw_trace_equals_row_by_row(self):
        """A seeded (N, 4, 4) stack (not states) traced at once equals each row traced alone."""
        rng = np.random.default_rng(89)
        stack = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
        for keep in (LOOP_RAIL, OUTPUT_RAIL):
            at_once = _partial_trace_raw(stack, keep)
            assert at_once.shape == (64, 2, 2)
            for n in range(len(stack)):
                np.testing.assert_array_equal(at_once[n], _partial_trace_raw(stack[n], keep))
        nested = _partial_trace_raw(stack.reshape(8, 8, 4, 4), OUTPUT_RAIL)
        np.testing.assert_array_equal(nested.reshape(64, 2, 2),
                                      _partial_trace_raw(stack, OUTPUT_RAIL))
        # Independent of the implementation: Tr_1 sums the qubit-1 diagonal blocks,
        # Tr_2 the entries with equal qubit-2 indices (|ij> is row 2i + j).
        np.testing.assert_allclose(_partial_trace_raw(stack, LOOP_RAIL),
                                   stack[:, :2, :2] + stack[:, 2:, 2:], rtol=0, atol=1e-15)
        np.testing.assert_allclose(_partial_trace_raw(stack, OUTPUT_RAIL),
                                   stack[:, ::2, ::2] + stack[:, 1::2, 1::2], rtol=0, atol=1e-15)


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


class TestBlochConversions:
    def test_basis_state_convention(self):
        b = H.bloch()
        assert b.shape == (3,)
        assert tuple(b) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
        np.testing.assert_allclose(density_from_bloch(np.array([0.0, 0.0, 1.0])).mat, H.mat)

    def test_maximally_mixed_is_origin(self):
        assert tuple(HALF.bloch()) == (0.0, 0.0, 0.0)

    def test_equatorial_state(self):
        """polar 3pi/2 with zero phase sits at Bloch (-1, 0, 0)."""
        psi = PureQubit(3 * math.pi / 2, 0.0)
        # Independent route: outer product of the amplitude vector.
        v = np.array([math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4)])
        np.testing.assert_allclose(psi.density().mat, np.outer(v, v), atol=1e-15)
        assert tuple(psi.bloch()) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            rho = random_qubit_state(rng)
            back = density_from_bloch(rho.bloch())
            assert np.abs(back.mat - rho.mat).max() <= 1e-12

    def test_norm_above_one_rejected(self):
        with pytest.raises(ValidationError, match="positivity"):
            density_from_bloch(np.array([1.0, 0.1, 0.0]))

    def test_boundary_state_keeps_its_bloch_vector(self):
        """A state whose min eigenvalue dips below 0 within PSD_TOL is valid, and so
        is its Bloch vector, although its norm exceeds 1 by 2e-11."""
        rho = DensityMatrix(np.diag([1 + 1e-11, -1e-11]))
        np.testing.assert_allclose(rho.bloch(), [0.0, 0.0, 1 + 2e-11], rtol=0, atol=1e-16)


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
        for dim in (3, 4):
            with pytest.raises(ValidationError, match="dim"):
                DensityMatrix(np.eye(dim, dtype=complex) / dim)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(np.full((2, 2), bad, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pure_qubit_angles_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            PureQubit(bad, 0.0)
        with pytest.raises(ValidationError, match="finite"):
            PureQubit(0.3, bad)

    def test_nan_bloch_vector_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            density_from_bloch(np.array([math.nan, 0.0, 0.0]))

    @pytest.mark.parametrize("angle", [-1e-20, -5e-324, -1e-16, -0.0, 2 * math.pi, -2 * math.pi])
    def test_pure_qubit_angles_wrap_into_range(self, angle):
        """A tiny negative angle is the state at angle 0: Python's % would round
        it up to exactly 2pi, outside [0, 2pi)."""
        q = PureQubit(angle, angle)
        for a in (q.polar, q.phase):
            assert 0.0 <= a < 2 * math.pi
        if abs(angle) < 1e-15:
            assert (q.polar, q.phase) == (0.0, 0.0)
            assert q.bloch().tobytes() == PureQubit(0.0, 0.0).bloch().tobytes()

    def test_pure_qubit_normalization(self):
        for polar in (0.0, 0.7, math.pi, 4.0):
            assert abs(np.linalg.norm(PureQubit(polar, 1.3).vector()) - 1) < 1e-14


def numpy_checked(mat) -> np.ndarray:
    """Oracle: DensityMatrix's checks as whole-array numpy operations, the form
    they had before the constructor checked the four entries as scalars.
    Returns the symmetrized matrix the constructor stores, or raises."""
    a = np.asarray(mat, dtype=complex)
    if a.shape != (2, 2):
        raise ValidationError(f"density matrix must be a qubit state (dim 2), got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("density matrix has non-finite entries")
    if np.abs(a - a.conj().T).max() > HERMITICITY_TOL:
        raise ValidationError("density matrix violates Hermiticity (|m - m^dag|_max > 1e-12)")
    if abs(a.trace() - 1.0) > TRACE_TOL:
        raise ValidationError(f"density matrix violates unit trace (trace = {a.trace():.6g})")
    t = (a[..., 0, 0] + a[..., 1, 1]).real
    det = (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]).real
    lo = (t - np.sqrt(np.maximum(t * t - 4.0 * det, 0.0))) / 2.0
    if lo < -PSD_TOL:
        raise ValidationError(f"density matrix violates positivity (min eigenvalue = {lo:.3e})")
    return (a + a.conj().T) / 2.0


def verdict(check, mat):
    """("ok", stored bytes) or (exception type, message)."""
    try:
        out = check(mat)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    return "ok", out.tobytes()


class TestScalarChecksMatchNumpyOracle:
    """The scalar checks accept, reject and word each boundary case as the
    whole-array numpy checks do, and store the same bytes.

    Near the positivity bound the two can differ in the last ulp of the
    determinant (numpy's complex multiply may fuse multiply-adds); cases
    sit 1e-3 (relative) away from each bound, far outside that."""

    @staticmethod
    def assert_same(mat):
        want = verdict(numpy_checked, mat)
        got = verdict(lambda m: DensityMatrix(m).mat, mat)
        assert got == want, mat.tolist()
        return want[0]

    @staticmethod
    def interior_state(rng):
        """A random state with eigenvalues in [0.2, 0.8], far from every bound."""
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        lam = rng.uniform(0.2, 0.8)
        return u @ np.diag([lam, 1.0 - lam]) @ u.conj().T

    def test_hermiticity_bound(self):
        rng = np.random.default_rng(3101)
        seen = set()
        for _ in range(100):
            for scale in (1.0 - 1e-3, 1.0 + 1e-3):
                gap = HERMITICITY_TOL * scale
                off = self.interior_state(rng)
                off[0, 1] += gap * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
                diag = self.interior_state(rng)
                k = rng.integers(2)
                diag[k, k] += 0.5j * gap
                for m in (off, diag):
                    seen.add(self.assert_same(m))
        assert seen == {"ok", "ValidationError"}

    def test_trace_bound(self):
        rng = np.random.default_rng(3102)
        seen = set()
        for _ in range(100):
            for scale in (1.0 - 1e-3, 1.0 + 1e-3):
                m = self.interior_state(rng)
                k = rng.integers(2)
                m[k, k] += rng.choice([-1.0, 1.0]) * TRACE_TOL * scale
                seen.add(self.assert_same(m))
        assert seen == {"ok", "ValidationError"}
        # The message prints the trace, signed zeros included.
        for a, b in ((-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (complex(-0.0, 1e-13), -0.0)):
            assert self.assert_same(np.array([[a, 0.0], [0.0, b]], dtype=complex)) == "ValidationError"

    def test_positivity_bound(self):
        rng = np.random.default_rng(3103)
        seen = set()
        for _ in range(100):
            for scale in (1.0 - 1e-3, 1.0 + 1e-3):
                lam = PSD_TOL * scale
                u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                for m in (np.diag([1.0 + lam, -lam]).astype(complex),
                          u @ np.diag([1.0 + lam, -lam]) @ u.conj().T):
                    seen.add(self.assert_same(m))
        assert seen == {"ok", "ValidationError"}

    def test_finite_entries_beyond_float_range_differences(self):
        """|m01 - conj(m10)| overflows although both entries are finite."""
        for off in (complex(1.5e308, 1.5e308), complex(-1e308, 1e308), complex(1e200, 0.0)):
            m = np.array([[0.5, off], [0.0, 0.5]])
            with np.errstate(over="ignore"):
                assert self.assert_same(m) == "ValidationError"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parts(self, bad):
        for k in range(4):
            for shift in (complex(bad, 0.0), complex(0.0, bad)):
                m = (ID2 / 2).reshape(4).copy()
                m[k] += shift
                assert self.assert_same(m.reshape(2, 2)) == "ValidationError"

    def test_stored_matrix_is_read_only_and_bit_identical(self):
        rng = np.random.default_rng(3104)
        for _ in range(200):
            m = self.interior_state(rng)
            m[0, 1] += 1e-13 * (rng.normal() + 1j * rng.normal())
            stored = DensityMatrix(m).mat
            assert stored.tobytes() == numpy_checked(m).tobytes()
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0, 0] = 1.0


def matrix_formula(v) -> DensityMatrix:
    """Oracle: density_from_bloch as it built the state before, through the
    matrix (I + v . sigma)/2 and the DensityMatrix constructor."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    with np.errstate(all="ignore"):
        return DensityMatrix(np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2.0)


def state_verdict(build, v):
    """("ok", mat bytes, bloch bytes) or (exception type, message)."""
    try:
        rho = build(v)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    return "ok", rho.mat.tobytes(), rho.bloch().tobytes()


class TestBlochEntriesMatchMatrixFormula:
    """density_from_bloch checks its four entries without building a matrix;
    it accepts, rejects and words each case as the matrix route does, and
    stores the same bytes."""

    @staticmethod
    def assert_same(v):
        want = state_verdict(matrix_formula, v)
        assert state_verdict(density_from_bloch, v) == want, list(v)
        return want[0]

    def test_random_vectors(self):
        rng = np.random.default_rng(3111)
        for _ in range(500):
            u = rng.normal(size=3)
            assert self.assert_same(u / np.linalg.norm(u) * rng.uniform(0.0, 1.0)) == "ok"

    def test_positivity_bound(self):
        """Norms 1e-3 (relative) either side of 1 + 2 PSD_TOL, in the excess."""
        rng = np.random.default_rng(3112)
        seen = set()
        for _ in range(200):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            for scale in (1.0 - 1e-3, 1.0 + 1e-3):
                seen.add(self.assert_same(u * (1.0 + 2.0 * PSD_TOL * scale)))
        assert seen == {"ok", "ValidationError"}

    def test_signed_zeros(self):
        values = (0.0, -0.0, 0.5, -0.5)
        for v in itertools.product(values, repeat=3):
            assert self.assert_same(np.array(v)) == "ok"
        for v in itertools.product((0.0, -0.0), (0.0, -0.0), (1.0, -1.0)):
            assert self.assert_same(np.array(v)) == "ok"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_components(self, bad):
        for k in range(3):
            v = np.array([0.1, -0.2, 0.3])
            v[k] = bad
            assert self.assert_same(v) == "ValidationError"

    def test_bloch_and_matrix_are_read_only(self):
        rho = density_from_bloch(np.array([0.1, -0.2, 0.3]))
        for a in (rho.bloch(), rho.mat, HALF.bloch(), H.mat):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
