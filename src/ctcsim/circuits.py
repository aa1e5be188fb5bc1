"""Two-qubit gates, noise channels, and the loop interaction builder.

Gates are plain 4x4 arrays (SWAP and CNOT read-only constants, CU_xz from
make_cu_xz). The interaction that drives the time-travel circuit is always
"some gate, then hand the rails over": either CNOT followed by SWAP (the
nonlinear amplifier circuit) or SWAP followed by a controlled pi-rotation
CU_xz (the state-discrimination circuit). build_interaction is the one
place a gate-failure channel is built: when the controlled gate fails
(probability epsilon) only the SWAP remains. QubitChannel is the one
validated interaction type: weighted Kraus lists whose completeness check
covers every gate in them, so noise semantics stay explicit and trace
preservation is checked locally; each also carries its real Pauli-transfer
tensors, the form the fixed-point engine works in.
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
    "COMPLETENESS_TOL",
    "SWAP",
    "CNOT",
    "QubitChannel",
    "CircuitKind",
    "CircuitSpec",
    "make_cu_xz",
    "depolarize",
    "build_interaction",
]

COMPLETENESS_TOL = 1e-10

# SWAP: |xy> -> |yx>. CNOT: qubit 1 controls, flipping the target when it is |V>.
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
SWAP.setflags(write=False)
CNOT.setflags(write=False)

# Two-qubit Pauli products _PAIRS[4 mu + nu] = P_mu (x) P_nu, P = (I, X, Y, Z);
# Tr[O P_mu (x) P_nu] = O.flat @ _PAIRS_T[:, 4 mu + nu]. The rail readouts are
# I (x) P_k (loop rail, qubit 2) and P_k (x) I (output rail, qubit 1).
_PAULI = np.stack([ID2, SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAIRS = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)
_PAIRS_T = _PAIRS.transpose(0, 2, 1).reshape(16, 16).T
_READOUTS = np.concatenate([_PAIRS[:4], _PAIRS[::4]])


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
        for w, op in self.kraus:
            w = float(w)
            if not 0.0 < w <= 1.0:
                raise ValidationError(f"Kraus weight {w} outside (0, 1]")
            op = np.asarray(op, dtype=complex)
            if op.shape != (4, 4):
                raise ValidationError(f"Kraus operator must be 4x4, got {op.shape}")
            op = op.copy()
            op.setflags(write=False)
            terms.append((w, op))
        object.__setattr__(self, "kraus", tuple(terms))
        weights = np.array([[w for w, _ in terms]])
        ops = np.array([op for _, op in terms]).reshape(1, -1, 4, 4)
        # A copy: a cached channel keeps one array, not a view and its base.
        tensors = _transfer_tensors(weights, ops)[0].copy()
        tensors.setflags(write=False)
        object.__setattr__(self, "transfer", tensors)


def _transfer_tensors(weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Pauli-transfer tensors (N, 2, 4, 4, 4) of N weighted Kraus rows, each
    checked for completeness: weights (N, K), ops (N, K, 4, 4).

    Rows with fewer than K terms may be padded with zero-weight terms (as
    deutsch._kraus_stack does), which add exact zeros. QubitChannel is a
    batch of one of this.
    """
    # Heisenberg picture: Tr[S E(P)] = Tr[E^dag(S) P] for every readout S.
    adj = ops.conj().swapaxes(-1, -2)[:, :, None]
    adjoint = (weights[:, :, None, None, None] * (adj @ _READOUTS @ ops[:, :, None])).sum(axis=1)
    # The first readout is I (x) I, so its image is sum_k w_k op_k^dag op_k.
    if not np.abs(adjoint[:, 0] - ID4).max() <= COMPLETENESS_TOL:
        raise ValidationError(
            "channel violates completeness (sum w_k op_k^dag op_k != I to 1e-10)"
        )
    return (adjoint.reshape(-1, 8, 16) @ _PAIRS_T).real.reshape(-1, 2, 4, 4, 4) / 4.0


class CircuitKind(Enum):
    SWAP_CNOT = "swap-cnot"
    SWAP_THEN_CU = "swap-cu"


@dataclass(frozen=True)
class CircuitSpec:
    """One simulated interaction: gate choice plus both decoherence knobs.

    `gate_noise` is the probability epsilon that the controlled gate fails,
    leaving only the SWAP; `input_noise` is the depolarization strength p
    applied to the input qubit before it reaches the loop.
    """

    kind: CircuitKind
    theta_xz: float = 0.0
    gate_noise: float = 0.0
    input_noise: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta_xz):  # also for SWAP_CNOT, which ignores the angle
            raise ValidationError(f"theta_xz = {self.theta_xz} is not finite")
        if self.kind is CircuitKind.SWAP_THEN_CU:
            if not -math.pi / 2 <= self.theta_xz < math.pi / 2:
                raise ValidationError(
                    f"theta_xz = {self.theta_xz} outside the sweep range [-pi/2, pi/2)"
                )
        for name, v in (("gate_noise (epsilon)", self.gate_noise),
                        ("input_noise (p)", self.input_noise)):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} = {v} outside [0, 1]")


def make_cu_xz(theta_xz: float) -> np.ndarray:
    """Controlled pi-rotation of the target about the Bloch xz-plane axis at theta_xz.

    Control is qubit 1: identity on the control-|H> block, and the
    reflection [[cos t, sin t], [sin t, -cos t]] on the control-|V> block.
    theta_xz = 0 gives CZ, pi/2 gives CNOT, pi/4 a controlled
    Hadamard. The angle is taken mod 2pi.
    """
    t = float(theta_xz) % (2 * math.pi)
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = np.array(
        [[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]], dtype=complex
    )
    return m


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Single-qubit depolarizing channel of strength p.

    (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z), which is the same
    as shrinking the Bloch vector by (1 - p).
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarization strength p = {p} outside [0, 1]")
    m = rho.mat
    return DensityMatrix((1 - 0.75 * p) * m + 0.25 * p * (
        SIGMA_X @ m @ SIGMA_X + SIGMA_Y @ m @ SIGMA_Y + SIGMA_Z @ m @ SIGMA_Z
    ))


# Channels are immutable (read-only arrays), so sharing them is safe. All 8
# reproduce targets and the selftest, in one process, build 66 distinct channels
# (fig6 alone 2); a probes pass reuses none, and a larger memo kept ~2000 (3.7 MB).
@lru_cache(maxsize=128)
def build_interaction(spec: CircuitSpec) -> QubitChannel:
    """Full loop interaction as a channel, including gate noise.

    SWAP_CNOT:    CNOT first, then SWAP (gate matrix SWAP @ CNOT).
    SWAP_THEN_CU: SWAP first, then the (possibly failing) CU_xz, i.e. the
                  failure mixture of CU_xz composed after the SWAP.

    Input depolarization (p) is *not* part of this channel: it acts on the
    input state before the loop and is applied by the fixed-point engine.
    """
    if spec.kind is CircuitKind.SWAP_CNOT:
        ideal = SWAP @ CNOT
    else:
        ideal = make_cu_xz(spec.theta_xz) @ SWAP
    eps, terms = spec.gate_noise, []
    if eps < 1.0:
        terms.append((1.0 - eps, ideal))
    if eps > 0.0:  # when the controlled gate fails only the SWAP remains
        terms.append((eps, SWAP))
    return QubitChannel(tuple(terms))
