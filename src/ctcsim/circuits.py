"""Two-qubit gates, noise channels, and the loop interaction builder.

The interaction that drives the time-travel circuit is always "some gate,
then hand the rails over": either CNOT followed by SWAP (the nonlinear
amplifier circuit) or SWAP followed by a controlled pi-rotation CU_xz
(the state-discrimination circuit). Channels are stored as weighted Kraus
lists so that noise semantics stay explicit and trace preservation can be
checked locally; each also carries its real Pauli-transfer tensors, the
form the fixed-point engine works in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .qmath import (
    ID2,
    ID4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    ValidationError,
)

__all__ = [
    "UNITARITY_TOL",
    "COMPLETENESS_TOL",
    "TwoQubitGate",
    "QubitChannel",
    "CircuitKind",
    "CircuitSpec",
    "make_swap",
    "make_cnot",
    "make_cz",
    "make_cu_xz",
    "depolarize",
    "gate_failure_channel",
    "apply_channel",
    "build_interaction",
]

UNITARITY_TOL = 1e-12
COMPLETENESS_TOL = 1e-10

# Two-qubit Pauli products _PAIRS[4 mu + nu] = P_mu (x) P_nu, P = (I, X, Y, Z);
# Tr[O P_mu (x) P_nu] = O.flat @ _PAIRS_T[:, 4 mu + nu]. The rail readouts are
# I (x) P_k (loop rail, qubit 2) and P_k (x) I (output rail, qubit 1).
_PAULI = np.stack([ID2, SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAIRS = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)
_PAIRS_T = _PAIRS.transpose(0, 2, 1).reshape(16, 16).T
_READOUTS = np.concatenate([_PAIRS[:4], _PAIRS[::4]])


@dataclass(frozen=True)
class TwoQubitGate:
    """A 4x4 unitary in the (HH, HV, VH, VV) basis."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (4, 4):
            raise ValidationError(f"two-qubit gate must be 4x4, got {m.shape}")
        if not np.abs(m.conj().T @ m - ID4).max() <= UNITARITY_TOL:
            raise ValidationError("gate violates unitarity (|U^dag U - I|_max > 1e-12)")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __matmul__(self, other: "TwoQubitGate") -> "TwoQubitGate":
        return TwoQubitGate(self.mat @ other.mat)


@dataclass(frozen=True)
class QubitChannel:
    """Trace-preserving map as weighted Kraus terms sum_k w_k A_k rho A_k^dag.

    Each entry is (weight, op) with weight in (0, 1]; the Kraus operator
    proper is sqrt(weight) * op. Completeness sum_k w_k op_k^dag op_k = I
    is enforced on construction.

    transfer holds the real Pauli-transfer tensors of the loop rail [0]
    and the output rail [1]: they map Bloch 4-vectors a = (1, a_x, a_y,
    a_z) of the input and r of the loop qubit to transfer[rail, k, mu, nu]
    a_mu r_nu, entry Tr[S_k E(P_mu (x) P_nu)]/4 with S_k = I (x) P_k on
    the loop rail and P_k (x) I on the output rail.
    """

    kraus: tuple[tuple[float, np.ndarray], ...]
    transfer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = []
        acc = np.zeros((4, 4), dtype=complex)
        for w, op in self.kraus:
            w = float(w)
            if not 0.0 < w <= 1.0:
                raise ValidationError(f"Kraus weight {w} outside (0, 1]")
            op = np.asarray(op, dtype=complex)
            if op.shape != (4, 4):
                raise ValidationError(f"Kraus operator must be 4x4, got {op.shape}")
            op = op.copy()
            op.setflags(write=False)
            acc += w * (op.conj().T @ op)
            terms.append((w, op))
        if not np.abs(acc - ID4).max() <= COMPLETENESS_TOL:
            raise ValidationError(
                "channel violates completeness (sum w_k op_k^dag op_k != I to 1e-10)"
            )
        object.__setattr__(self, "kraus", tuple(terms))
        # Heisenberg picture: Tr[S E(P)] = Tr[E^dag(S) P] for every readout S.
        adjoint = sum(w * (op.conj().T @ _READOUTS @ op) for w, op in terms)
        tensors = (adjoint.reshape(8, 16) @ _PAIRS_T).real.reshape(2, 4, 4, 4) / 4.0
        tensors.setflags(write=False)
        object.__setattr__(self, "transfer", tensors)

    def apply_raw(self, mat4: np.ndarray) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for w, op in self.kraus:
            out += w * (op @ mat4 @ op.conj().T)
        return out


class CircuitKind(Enum):
    SWAP_CNOT = "swap-cnot"
    SWAP_THEN_CU = "swap-cu"


@dataclass(frozen=True)
class CircuitSpec:
    """One simulated interaction: gate choice plus both decoherence knobs.

    `gate_noise` is the probability epsilon that the controlled gate fails
    (acts as identity); `input_noise` is the depolarization strength p
    applied to the input qubit before it reaches the loop.
    """

    kind: CircuitKind
    theta_xz: float = 0.0
    gate_noise: float = 0.0
    input_noise: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is CircuitKind.SWAP_THEN_CU:
            if not -math.pi / 2 <= self.theta_xz < math.pi / 2:
                raise ValidationError(
                    f"theta_xz = {self.theta_xz} outside the sweep range [-pi/2, pi/2)"
                )
        for name, v in (("gate_noise", self.gate_noise), ("input_noise", self.input_noise)):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} = {v} outside [0, 1]")


def make_swap() -> TwoQubitGate:
    """SWAP: |xy> -> |yx>."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1
    m[1, 2] = m[2, 1] = 1
    return TwoQubitGate(m)


def make_cnot() -> TwoQubitGate:
    """CNOT with qubit 1 as control: flips the target when the control is |V>."""
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = SIGMA_X
    return TwoQubitGate(m)


def make_cz() -> TwoQubitGate:
    """Controlled-Z: |VV> -> -|VV>, all other basis states unchanged."""
    m = np.eye(4, dtype=complex)
    m[3, 3] = -1
    return TwoQubitGate(m)


def make_cu_xz(theta_xz: float) -> TwoQubitGate:
    """Controlled pi-rotation of the target about the Bloch xz-plane axis at theta_xz.

    Control is qubit 1: identity on the control-|H> block, and the
    reflection [[cos t, sin t], [sin t, -cos t]] on the control-|V> block.
    theta_xz = 0 gives a CZ-like gate, pi/2 gives CNOT, pi/4 a controlled
    Hadamard. The angle is taken mod 2pi.
    """
    t = float(theta_xz) % (2 * math.pi)
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = np.array(
        [[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]], dtype=complex
    )
    return TwoQubitGate(m)


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Single-qubit depolarizing channel of strength p.

    (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z), which is the same
    as shrinking the Bloch vector by (1 - p).
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarization strength p = {p} outside [0, 1]")
    if rho.dim != 2:
        raise ValidationError("depolarize acts on single qubits")
    m = rho.mat
    out = (1 - 0.75 * p) * m + 0.25 * p * (
        SIGMA_X @ m @ SIGMA_X + SIGMA_Y @ m @ SIGMA_Y + SIGMA_Z @ m @ SIGMA_Z
    )
    return DensityMatrix(out)


def gate_failure_channel(gate: TwoQubitGate, epsilon: float) -> QubitChannel:
    """Channel rho -> (1-eps) G rho G^dag + eps rho: the gate fails with probability eps."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"gate failure probability epsilon = {epsilon} outside [0, 1]")
    terms = []
    if epsilon < 1.0:
        terms.append((1.0 - epsilon, gate.mat))
    if epsilon > 0.0:
        terms.append((epsilon, ID4))
    return QubitChannel(tuple(terms))


def apply_channel(ch: QubitChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_k w_k op_k rho op_k^dag on a two-qubit state; trace is preserved."""
    if rho.dim != 4:
        raise ValidationError("apply_channel expects a two-qubit (dim 4) state")
    return DensityMatrix(ch.apply_raw(rho.mat))


def build_interaction(spec: CircuitSpec) -> QubitChannel:
    """Full loop interaction as a channel, including gate noise.

    SWAP_CNOT:    CNOT first, then SWAP (gate matrix SWAP @ CNOT).
    SWAP_THEN_CU: SWAP first, then the (possibly failing) CU_xz, i.e. the
                  failure mixture of CU_xz composed after the SWAP.

    Input depolarization (p) is *not* part of this channel: it acts on the
    input state before the loop and is applied by the fixed-point engine.
    """
    return _build_interaction_cached(spec.kind, spec.theta_xz, spec.gate_noise)


@lru_cache(maxsize=4096)
def _build_interaction_cached(kind: CircuitKind, theta_xz: float,
                              eps: float) -> QubitChannel:
    # Channels are immutable (read-only arrays), so sharing them is safe.
    swap = make_swap()
    if kind is CircuitKind.SWAP_CNOT:
        ideal = swap.mat @ make_cnot().mat
    else:
        ideal = make_cu_xz(theta_xz).mat @ swap.mat
    terms = []
    if eps < 1.0:
        terms.append((1.0 - eps, ideal))
    if eps > 0.0:
        # When the controlled gate fails only the SWAP remains.
        terms.append((eps, swap.mat))
    return QubitChannel(tuple(terms))
