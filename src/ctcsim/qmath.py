"""Dense complex linear algebra for 2- and 4-dimensional quantum systems.

States are density matrices, operators are plain complex ndarrays, and the
conventions are fixed once and for all here:

* computational basis |H> = (1, 0), |V> = (0, 1); |H> sits at Bloch +z,
* two-qubit basis order (HH, HV, VH, VV),
* qubit 1 is the chronology-respecting rail, qubit 2 the loop rail, and
  tensor products are written (qubit 1) x (qubit 2).

Everything is a pure function of its inputs. Non-finite numbers are
rejected wherever a state is built, so a NaN cannot pass a validation by
failing every comparison in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
    "ValidationError",
    "Subsystem",
    "BlochVector",
    "PureQubit",
    "DensityMatrix",
    "tensor",
    "partial_trace",
    "trace_distance",
    "trace_distances",
    "fidelity",
    "von_neumann_entropy",
    "hermitian_eigensystem",
    "bloch_from_density",
    "bloch_array",
    "density_from_bloch",
]

# Validation tolerances: 1e-12 separates modeling errors from roundoff at
# these dimensions; PSD gets an extra decade because eigenvalues of nearly
# pure states legitimately dip a few ulp below zero.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class ValidationError(ValueError):
    """An input violated one of the stated invariants."""


class Subsystem(Enum):
    """Which qubit of a two-qubit state to trace out."""

    FIRST = 1
    SECOND = 2


def _as_square_array(m: np.ndarray | "DensityMatrix") -> np.ndarray:
    a = m.mat if isinstance(m, DensityMatrix) else np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def _eig_range_2x2(h: np.ndarray) -> tuple[float, float]:
    """(min, max) eigenvalue of a Hermitian 2x2 matrix, closed form."""
    t = (h[0, 0] + h[1, 1]).real
    det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
    r = math.sqrt(max(t * t - 4.0 * det, 0.0))
    return (t - r) / 2.0, (t + r) / 2.0


def _eig_ranges_2x2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_eig_range_2x2 row by row for a stack (..., 2, 2), to within an ulp."""
    t = (h[..., 0, 0] + h[..., 1, 1]).real
    det = (h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]).real
    r = np.sqrt(np.maximum(t * t - 4.0 * det, 0.0))
    return (t - r) / 2.0, (t + r) / 2.0


@dataclass(frozen=True)
class BlochVector:
    """Point in (or on) the Bloch ball; unit norm iff the state is pure."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not self.norm() <= 1 + 1e-12:
            raise ValidationError(
                f"Bloch vector norm {self.norm()} exceeds 1 (invariant: norm <= 1 + 1e-12)"
            )

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


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
        if abs(np.linalg.norm(self.vector()) - 1.0) > 1e-14:
            raise ValidationError("pure qubit amplitude vector is not normalized")

    def vector(self) -> np.ndarray:
        return np.array(
            [math.cos(self.polar / 2), np.exp(1j * self.phase) * math.sin(self.polar / 2)],
            dtype=complex,
        )

    def density(self) -> "DensityMatrix":
        v = self.vector()
        return DensityMatrix(np.outer(v, v.conj()))

    def bloch(self) -> BlochVector:
        return BlochVector(
            math.sin(self.polar) * math.cos(self.phase),
            math.sin(self.polar) * math.sin(self.phase),
            math.cos(self.polar),
        )


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of dim 2 or 4.

    All three invariants are checked on construction, so any value of this
    type that exists is valid; operations therefore validate their outputs
    simply by returning them through this constructor.
    """

    __slots__ = ("mat",)

    def __init__(self, mat: np.ndarray):
        a = np.asarray(mat, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {a.shape}")
        if a.shape[0] not in (2, 4):
            raise ValidationError(f"density matrix dim must be 2 or 4, got {a.shape[0]}")
        if not np.isfinite(a).all():
            raise ValidationError("density matrix has non-finite entries")
        if np.abs(a - a.conj().T).max() > HERMITICITY_TOL:
            raise ValidationError(
                "density matrix violates Hermiticity (|m - m^dag|_max > 1e-12)"
            )
        if abs(a.trace() - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"density matrix violates unit trace (trace = {a.trace():.6g})"
            )
        if a.shape[0] == 2:
            lo = _eig_range_2x2(a)[0]
        else:
            lo = float(np.linalg.eigvalsh(a).min())
        if lo < -PSD_TOL:
            raise ValidationError(
                f"density matrix violates positivity (min eigenvalue = {lo:.3e})"
            )
        a = (a + a.conj().T) / 2.0
        a.setflags(write=False)
        self.mat = a

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_state_vector(cls, v: np.ndarray) -> "DensityMatrix":
        v = np.asarray(v, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValidationError("cannot build a density matrix from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int = 2) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def bloch(self) -> BlochVector:
        return bloch_from_density(self)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices, capped at dimension 4.

    Block (i, j) of the result equals a[i, j] * b. Products beyond dim 4
    are rejected: nothing in this artifact is larger than two qubits.
    """
    am, bm = _as_square_array(a), _as_square_array(b)
    if am.shape[0] * bm.shape[0] > 4:
        raise ValidationError(
            f"tensor product dim {am.shape[0] * bm.shape[0]} exceeds 4 (out of scope)"
        )
    return np.kron(am, bm)


def partial_trace(rho: DensityMatrix, subsystem: Subsystem) -> DensityMatrix:
    """Reduced state of the kept qubit after tracing out `subsystem`."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    if rho.dim != 4:
        raise ValidationError("partial_trace expects a two-qubit (dim 4) state")
    return DensityMatrix(_partial_trace_raw(rho.mat, subsystem))


def _partial_trace_raw(mat4: np.ndarray, subsystem: Subsystem) -> np.ndarray:
    # Index layout after reshape: [i, j, k, l] = <ij|rho|kl>.
    t = mat4.reshape(2, 2, 2, 2)
    if subsystem is Subsystem.FIRST:
        return np.trace(t, axis1=0, axis2=2)
    if subsystem is Subsystem.SECOND:
        return np.trace(t, axis1=1, axis2=3)
    raise ValidationError(f"unknown subsystem {subsystem!r}")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of |eigenvalues| of (a - b); 0 iff equal, 1 iff orthogonal."""
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    d = a.mat - b.mat
    if a.dim == 2:
        lo, hi = _eig_range_2x2(d)
        return (abs(lo) + abs(hi)) / 2.0
    lam = np.linalg.eigvalsh(d)
    return float(np.abs(lam).sum() / 2.0)


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """trace_distance row by row for stacks of qubit matrices (..., 2, 2)."""
    lo, hi = _eig_ranges_2x2(a - b)
    return (np.abs(lo) + np.abs(hi)) / 2.0


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Squared Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, in [0, 1].

    For qubits this reduces to Tr(ab) + 2 sqrt(det a det b), which is used
    directly; the general matrix-root route handles dim 4.
    """
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim == 2:
        da = max((a.mat[0, 0] * a.mat[1, 1] - a.mat[0, 1] * a.mat[1, 0]).real, 0.0)
        db = max((b.mat[0, 0] * b.mat[1, 1] - b.mat[0, 1] * b.mat[1, 0]).real, 0.0)
        f = float(np.trace(a.mat @ b.mat).real + 2.0 * math.sqrt(da * db))
    else:
        sa = _psd_sqrt(a.mat)
        lam = np.linalg.eigvalsh(sa @ b.mat @ sa)
        f = float(np.sqrt(np.clip(lam, 0.0, None)).sum() ** 2)
    return min(max(f, 0.0), 1.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda_i log2 lambda_i with 0 log 0 := 0."""
    if rho.dim == 2:
        lam = np.array(_eig_range_2x2(rho.mat))
    else:
        lam = np.linalg.eigvalsh(rho.mat)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum()) + 0.0


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    Accepts the small dimensions this artifact works with (2, 3, 4); the
    3x3 case covers the real symmetric Bloch forms used by measurement
    optimization. Contract: reconstruction and orthonormality residuals
    stay below 1e-10 even for degenerate spectra.
    """
    a = _as_square_array(m)
    if a.shape[0] not in (2, 3, 4):
        raise ValidationError(f"eigensystem dim must be 2, 3 or 4, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    if not np.abs(a - a.conj().T).max() <= 1e-10:
        raise ValidationError("matrix is not Hermitian (|m - m^dag|_max > 1e-10)")
    lam, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return lam, v


def bloch_from_density(rho: DensityMatrix) -> BlochVector:
    """Bloch vector (x, y, z) with rho = (I + v . sigma)/2."""
    if rho.dim != 2:
        raise ValidationError("Bloch coordinates are defined for single qubits only")
    return BlochVector(*bloch_array(rho).tolist())


def bloch_array(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector of a qubit state as a (3,) array, without the unit-norm check."""
    m = rho.mat
    return np.array([2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])


def density_from_bloch(v: BlochVector | np.ndarray) -> DensityMatrix:
    """Qubit state (I + v . sigma)/2; positivity requires |v| <= 1 + 2 PSD_TOL."""
    x, y, z = (v.x, v.y, v.z) if isinstance(v, BlochVector) else v
    return DensityMatrix(np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2.0)
