"""Qubit states and the conventions every module uses.

|H> = (1, 0) sits at Bloch +z; two-qubit basis order is (HH, HV, VH, VV);
qubit 1 is the chronology-respecting (output) rail, qubit 2 the loop rail. A
rail is named by its index, LOOP_RAIL = 0 or OUTPUT_RAIL = 1: its slot in
QubitChannel.transfer and the qubit a partial trace keeps. A state with a
non-finite entry is rejected, so a NaN cannot pass a check by failing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# np.einsum(..., optimize=False) is this kernel behind Python dispatch: the
# same bits, without the microseconds of dispatch that dominate 4x4 algebra.
from numpy._core.multiarray import c_einsum

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "ID2",
    "ID4",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "LOOP_RAIL",
    "OUTPUT_RAIL",
    "ValidationError",
    "PureQubit",
    "DensityMatrix",
    "trace_distance",
    "trace_distances",
    "fidelity",
    "von_neumann_entropy",
    "density_from_bloch",
]

# Validation tolerances: 1e-12 separates modeling errors from roundoff at
# these dimensions; PSD gets an extra decade because eigenvalues of nearly
# pure states legitimately dip a few ulp below zero.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

LOOP_RAIL, OUTPUT_RAIL = 0, 1

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class ValidationError(ValueError):
    """An input violated one of the stated invariants."""


def _eig_ranges_2x2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) eigenvalues of Hermitian 2x2 matrices (..., 2, 2), closed form."""
    t = (h[..., 0, 0] + h[..., 1, 1]).real
    det = (h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]).real
    r = np.sqrt(np.maximum(t * t - 4.0 * det, 0.0))
    return (t - r) / 2.0, (t + r) / 2.0


def _wrapped(angle: float) -> float:
    """angle mod 2pi in [0, 2pi): Python's % rounds a tiny negative angle up to
    exactly 2pi, which is folded to 0.0."""
    a = float(angle) % (2 * math.pi)
    return 0.0 if a == 2 * math.pi else a


@dataclass(frozen=True)
class PureQubit:
    """Pure qubit cos(polar/2)|H> + e^{i phase} sin(polar/2)|V>; both angles must be
    finite and are wrapped into [0, 2pi)."""

    polar: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.polar) and math.isfinite(self.phase)):
            raise ValidationError(
                f"pure qubit angles must be finite (polar = {self.polar}, phase = {self.phase})"
            )
        object.__setattr__(self, "polar", _wrapped(self.polar))
        object.__setattr__(self, "phase", _wrapped(self.phase))

    def vector(self) -> np.ndarray:
        return np.array(
            [math.cos(self.polar / 2), np.exp(1j * self.phase) * math.sin(self.polar / 2)],
            dtype=complex,
        )

    def density(self) -> "DensityMatrix":
        v = self.vector()
        return DensityMatrix(np.outer(v, v.conj()))

    def bloch(self) -> np.ndarray:
        return np.array([
            math.sin(self.polar) * math.cos(self.phase),
            math.sin(self.polar) * math.sin(self.phase),
            math.cos(self.polar),
        ])


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite 2x2 matrix: a qubit state, checked
    on construction (ValidationError). It keeps its Hermitian part (m + m^dag)/2 as
    Python numbers, with the bits numpy's (m + m^dag)/2.0 gives."""

    # Real diagonal entries _h00, _h11, complex _h01, _h10; _mat is unset until read.
    __slots__ = ("_h00", "_h01", "_h10", "_h11", "_mat")

    def __init__(self, mat: np.ndarray):
        a = np.asarray(mat, dtype=complex)
        if a.shape != (2, 2):
            raise ValidationError(
                f"density matrix must be a qubit state (dim 2), got shape {a.shape}"
            )
        (m00, m01), (m10, m11) = a.tolist()
        self._check(m00, m01, m10, m11)
        self._store(m00, m01, m10, m11)

    def _check(self, m00: complex, m01: complex, m10: complex, m11: complex) -> None:
        """ValidationError unless the entries of m are those of a qubit state."""
        parts = (m00.real, m00.imag, m01.real, m01.imag, m10.real, m10.imag, m11.real, m11.imag)
        if not all(map(math.isfinite, parts)):
            raise ValidationError("density matrix has non-finite entries")
        try:
            skew = abs(m01 - m10.conjugate())
        except OverflowError:  # both parts finite, their modulus beyond the float range
            skew = math.inf
        # On the diagonal, m - m^dag is 2i Im m.
        if max(2.0 * abs(m00.imag), 2.0 * abs(m11.imag), skew) > HERMITICITY_TOL:
            raise ValidationError(
                "density matrix violates Hermiticity (|m - m^dag|_max > 1e-12)"
            )
        trace = 0j + m00 + m11  # summed from +0, as numpy's trace is: same sign of zero
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"density matrix violates unit trace (trace = {trace:.6g})"
            )
        t = trace.real
        det = (m00 * m11 - m01 * m10).real
        lo = (t - math.sqrt(max(t * t - 4.0 * det, 0.0))) / 2.0
        if lo < -PSD_TOL:
            raise ValidationError(
                f"density matrix violates positivity (min eigenvalue = {lo:.3e})"
            )

    def _store(self, m00: complex, m01: complex, m10: complex, m11: complex) -> None:
        """Keep the entries of m's Hermitian part."""
        # m + m^dag has diagonal (2 Re m_kk, +0), so halving leaves the real parts.
        self._h00 = _halved(m00.real + m00.real, 0.0).real
        self._h11 = _halved(m11.real + m11.real, 0.0).real
        h01, h10 = m01 + m10.conjugate(), m10 + m01.conjugate()
        self._h01 = _halved(h01.real, h01.imag)
        self._h10 = _halved(h10.real, h10.imag)

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix":
        return cls(ID2 / 2)

    @property
    def mat(self) -> np.ndarray:
        """The Hermitian part as a read-only (2, 2) complex array."""
        try:
            return self._mat
        except AttributeError:
            a = np.array([[self._h00, self._h01], [self._h10, self._h11]], dtype=complex)
            a.setflags(write=False)
            self._mat = a
            return a

    def _xyz(self) -> tuple[float, float, float]:
        """The Bloch vector's components as Python floats."""
        h01 = self._h01
        return 2.0 * h01.real, -2.0 * h01.imag, self._h00 - self._h11

    def bloch(self) -> np.ndarray:
        """Bloch vector (x, y, z) with rho = (I + v . sigma)/2, as a read-only (3,) array."""
        v = np.array(self._xyz())
        v.setflags(write=False)
        return v

    def __repr__(self) -> str:
        return f"DensityMatrix({self.mat.tolist()})"


def _halved(re: float, im: float) -> complex:
    """(re + i im) / 2.0 with numpy's arithmetic: Smith's division by 2 + 0i,
    ((re + im * 0) * 0.5, (im - re * 0) * 0.5), whose zero products fix the
    signs of zeros."""
    return complex((re + im * 0.0) * 0.5, (im - re * 0.0) * 0.5)


def _partial_trace_raw(mat4: np.ndarray, keep: int) -> np.ndarray:
    """The `keep` rail's reduced state of a 4x4 matrix or a stack (..., 4, 4), unvalidated."""
    # Index layout after reshape: [..., i, j, k, l] = <ij|rho|kl>.
    t = mat4.reshape(mat4.shape[:-2] + (2, 2, 2, 2))
    return np.trace(t, axis1=-4 + keep, axis2=-2 + keep)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return c_einsum("...i,...i->...", u, v)


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of real vectors, same arithmetic, without its per-call overhead."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _qubit_fidelity(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-row Uhlmann fidelity of Bloch vectors: Tr(ab) + 2 sqrt(det a det b)."""
    dets = np.maximum(1.0 - _dot(r, r), 0.0) * np.maximum(1.0 - _dot(s, s), 0.0) / 16.0
    return np.minimum(np.maximum((1.0 + _dot(r, s)) / 2.0 + 2.0 * np.sqrt(dets), 0.0), 1.0)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Trace distance, |r_a - r_b|/2 on the Bloch vectors: 0 iff equal, 1 iff orthogonal."""
    return _bloch_distance(a._xyz(), b._xyz())


def _bloch_distance(r: tuple, s: tuple) -> float:
    """|r - s|/2 of float triples, with the bits of _norms(r - s) / 2.0."""
    dx, dy, dz = r[0] - s[0], r[1] - s[1], r[2] - s[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz) / 2.0


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace distance row by row of raw qubit matrices (..., 2, 2), from the eigenvalues
    of a - b: the oracles' form, free of Bloch vectors."""
    lo, hi = _eig_ranges_2x2(a - b)
    return (np.abs(lo) + np.abs(hi)) / 2.0


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Squared Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2 in [0, 1], as the engine's
    consistency fidelity takes it."""
    return float(_qubit_fidelity(a.bloch(), b.bloch()))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda_i log2 lambda_i with 0 log 0 := 0."""
    lam = np.array(_eig_ranges_2x2(rho.mat))
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum()) + 0.0


def density_from_bloch(v: np.ndarray) -> DensityMatrix:
    """Qubit state (I + v . sigma)/2; positivity requires |v| <= 1 + 2 PSD_TOL."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValidationError(f"Bloch vector must have shape (3,), got {a.shape}")
    return _ball_state(a, in_ball=False)


def _ball_state(v: np.ndarray, in_ball: bool = True) -> DensityMatrix:
    """density_from_bloch of a (3,) float row, checked unless known to lie in the ball."""
    x, y, z = v.tolist()
    m01, m10 = x - 1j * y, x + 1j * y
    # The entries of np.array([[1 + z, m01], [m10, 1 - z]]) / 2.0, with no array built.
    entries = (_halved(1 + z, 0.0), _halved(m01.real, m01.imag), _halved(m10.real, m10.imag),
               _halved(1 - z, 0.0))
    rho = DensityMatrix.__new__(DensityMatrix)
    if not in_ball:
        rho._check(*entries)
    rho._store(*entries)
    return rho
