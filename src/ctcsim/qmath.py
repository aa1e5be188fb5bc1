"""Dense complex linear algebra for qubit states.

States are qubit density matrices, Bloch vectors are (3,) float arrays,
operators are plain complex ndarrays, and the conventions are fixed once
and for all here:

* computational basis |H> = (1, 0), |V> = (0, 1); |H> sits at Bloch +z,
* two-qubit basis order (HH, HV, VH, VV),
* qubit 1 is the chronology-respecting (output) rail, qubit 2 the loop
  rail, and tensor products are written (qubit 1) x (qubit 2),
* a rail is named by its index, LOOP_RAIL = 0 or OUTPUT_RAIL = 1: the
  index of its Pauli-transfer tensors in QubitChannel.transfer, and the
  qubit a partial trace keeps.

Everything is a pure function of its inputs. Non-finite numbers are
rejected wherever a state is built, so a NaN cannot pass a validation by
failing every comparison in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class PureQubit:
    """Pure qubit cos(polar/2)|H> + e^{i phase} sin(polar/2)|V>.

    `polar` is the Bloch polar angle from +z (|H>); sweeping it over
    [0, 2pi) covers the full xz great circle when `phase` = 0. Angles are
    wrapped into [0, 2pi).
    """

    polar: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.polar) and math.isfinite(self.phase)):
            raise ValidationError(
                f"pure qubit angles must be finite (polar = {self.polar}, phase = {self.phase})"
            )
        object.__setattr__(self, "polar", float(self.polar) % (2 * math.pi))
        object.__setattr__(self, "phase", float(self.phase) % (2 * math.pi))

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
    """Hermitian, unit-trace, positive-semidefinite 2x2 matrix: a qubit state.

    All three invariants are checked on construction, so any value of this
    type that exists is valid; operations therefore validate their outputs
    simply by returning them through this constructor. The checks run on
    the four entries as Python complex numbers (one tolist(), no numpy call
    per check); `mat` is the read-only Hermitian part (m + m^dag)/2.
    """

    __slots__ = ("mat",)

    def __init__(self, mat: np.ndarray):
        a = np.asarray(mat, dtype=complex)
        if a.shape != (2, 2):
            raise ValidationError(
                f"density matrix must be a qubit state (dim 2), got shape {a.shape}"
            )
        (m00, m01), (m10, m11) = a.tolist()
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
        a = np.array([[m00 + m00.conjugate(), m01 + m10.conjugate()],
                      [m10 + m01.conjugate(), m11 + m11.conjugate()]]) / 2.0
        a.setflags(write=False)
        self.mat = a

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix":
        return cls(ID2 / 2)

    def bloch(self) -> np.ndarray:
        """Bloch vector (x, y, z) with rho = (I + v . sigma)/2, as a (3,) array."""
        m = self.mat
        return np.array([2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])

    def __repr__(self) -> str:
        return f"DensityMatrix({self.mat.tolist()})"


def _partial_trace_raw(mat4: np.ndarray, keep: int) -> np.ndarray:
    """The `keep` rail's reduced state (LOOP_RAIL: trace out qubit 1,
    OUTPUT_RAIL: trace out qubit 2) of a 4x4 matrix or a stack (..., 4, 4),
    unvalidated."""
    # Index layout after reshape: [..., i, j, k, l] = <ij|rho|kl>.
    t = mat4.reshape(mat4.shape[:-2] + (2, 2, 2, 2))
    return np.trace(t, axis1=-4 + keep, axis2=-2 + keep)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of |eigenvalues| of (a - b); 0 iff equal, 1 iff orthogonal."""
    return float(trace_distances(a.mat, b.mat))


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """trace_distance row by row for stacks of qubit matrices (..., 2, 2)."""
    lo, hi = _eig_ranges_2x2(a - b)
    return (np.abs(lo) + np.abs(hi)) / 2.0


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Squared Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, in [0, 1].

    For qubits this reduces to Tr(ab) + 2 sqrt(det a det b), used directly.
    """
    da = max((a.mat[0, 0] * a.mat[1, 1] - a.mat[0, 1] * a.mat[1, 0]).real, 0.0)
    db = max((b.mat[0, 0] * b.mat[1, 1] - b.mat[0, 1] * b.mat[1, 0]).real, 0.0)
    f = float(np.trace(a.mat @ b.mat).real + 2.0 * math.sqrt(da * db))
    return min(max(f, 0.0), 1.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda_i log2 lambda_i with 0 log 0 := 0."""
    lam = np.array(_eig_ranges_2x2(rho.mat))
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum()) + 0.0


def density_from_bloch(v: np.ndarray) -> DensityMatrix:
    """Qubit state (I + v . sigma)/2; positivity requires |v| <= 1 + 2 PSD_TOL."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return DensityMatrix(np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2.0)
