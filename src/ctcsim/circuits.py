"""Two-qubit gates, noise channels, and the loop interaction builder.

Gates are plain 4x4 arrays (SWAP and CNOT read-only constants, CU_xz from
make_cu_xz). The interaction that drives the time-travel circuit is always
"some gate, then hand the rails over": either CNOT followed by SWAP (the
nonlinear amplifier circuit) or SWAP followed by a controlled pi-rotation
CU_xz (the state-discrimination circuit). When the controlled gate fails
(probability epsilon) only the SWAP remains. build_interaction is the one
factory of a gate-failure channel, a QubitChannel: the one validated
interaction type, weighted Kraus lists whose completeness check covers
every gate in them, so noise semantics stay explicit and trace
preservation is checked locally; each also carries its real Pauli-transfer
tensors, the form the fixed-point engine works in.

The engine builds no channel: each circuit kind has one fixed transfer
basis (_TRANSFER_BASIS), built once at import from the gates' generators,
whose rows the engine mixes with each row's eps and _gate_coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .qmath import (
    ID2,
    ID4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    ValidationError,
    _wrapped,
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
# The 8 readouts side by side, (4, 32): A @ _READOUT_ROW is every A @ S_k at once.
_READOUT_ROW = _READOUTS.transpose(1, 0, 2).reshape(4, 32)


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
        tensors = _transfer_tensors(weights, ops)[0]
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
    adjoint = (weights[:, :, None, None, None] * _readout_images(ops, ops)).sum(axis=1)
    # The first readout is I (x) I, so its image is sum_k w_k op_k^dag op_k.
    if not np.abs(adjoint[:, 0] - ID4).max() <= COMPLETENESS_TOL:
        raise ValidationError(
            "channel violates completeness (sum w_k op_k^dag op_k != I to 1e-10)"
        )
    return _pauli_transfer(adjoint)


def _readout_images(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left^dag S right for the 8 readouts S, (..., 4, 4) -> (..., 8, 4, 4): one
    (4, 32) product left^dag [S_0 ... S_7], then the blocks stacked (32, 4) @ right."""
    lead = left.shape[:-2]
    blocks = (left.conj().swapaxes(-1, -2) @ _READOUT_ROW).reshape(lead + (4, 8, 4))
    return (blocks.swapaxes(-3, -2).reshape(lead + (32, 4)) @ right).reshape(lead + (8, 4, 4))


def _pauli_transfer(images: np.ndarray) -> np.ndarray:
    """Real parts of Tr[image P_mu (x) P_nu]/4 of readout images (N, 8, 4, 4),
    as transfer tensors (N, 2, 4, 4, 4)."""
    return (images.reshape(-1, 8, 16) @ _PAIRS_T).real.reshape(-1, 2, 4, 4, 4) / 4.0


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
        _check_angles(self.kind, np.array([self.theta_xz], dtype=float))
        for name, v in (("gate_noise (epsilon)", self.gate_noise),
                        ("input_noise (p)", self.input_noise)):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} = {v} outside [0, 1]")


def _check_angles(kind: CircuitKind, theta: np.ndarray) -> None:
    """ValidationError unless every gate angle in theta (N,) is finite (also
    for SWAP_CNOT, which ignores it) and, for SWAP_THEN_CU, in [-pi/2, pi/2)."""
    if kind is CircuitKind.SWAP_THEN_CU:
        ok = (-math.pi / 2 <= theta) & (theta < math.pi / 2)
    else:
        ok = np.isfinite(theta)
    if not ok.all():
        t = float(theta[~ok][0])
        raise ValidationError(f"theta_xz = {t} is not finite" if not math.isfinite(t)
                              else f"theta_xz = {t} outside the sweep range [-pi/2, pi/2)")


def _cu_weights(theta: np.ndarray) -> np.ndarray:
    """Rows (1, c, s) (N, 3) of the angles theta (N,), c and s as make_cu_xz
    takes them: math.cos and math.sin of theta mod 2pi (np.mod is Python's %),
    with the exact 2pi of a tiny negative angle folded to 0.0 as in _wrapped."""
    t = np.mod(theta, 2 * math.pi)
    t[t == 2 * math.pi] = 0.0
    t = t.tolist()
    weights = np.ones((len(t), 3))
    weights[:, 1], weights[:, 2] = list(map(math.cos, t)), list(map(math.sin, t))
    return weights


def make_cu_xz(theta_xz: float) -> np.ndarray:
    """Controlled pi-rotation of the target about the Bloch xz-plane axis at theta_xz.

    Control is qubit 1: identity on the control-|H> block, and the
    reflection [[cos t, sin t], [sin t, -cos t]] on the control-|V> block.
    theta_xz = 0 gives CZ, pi/2 gives CNOT, pi/4 a controlled
    Hadamard. The angle is taken mod 2pi into [0, 2pi) by qmath._wrapped.
    """
    t = _wrapped(theta_xz)
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


def _pair_maps(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Transfer tensors (P, 2, 4, 4, 4) of rho -> L rho R^dag, plus R rho L^dag
    where L != R, for operator pairs (P, 4, 4): that sum's readout image is
    X + X^dag with X = L^dag S R, whose Pauli traces are twice X's real parts."""
    twice = np.where((left == right).all(axis=(1, 2)), 1.0, 2.0)
    return twice[:, None, None, None, None] * _pauli_transfer(_readout_images(left, right))


# CU_xz(theta) SWAP = G0 + c G1 + s G2 (make_cu_xz's block is c Z + s X), so
# its channel weighs the pair maps of (G_a, G_b) by x_a x_b, x = (1, c, s);
# the pairs (a, b) in basis order are 00, 11, 22, 01, 02, 12.
_H_PROJ, _V_PROJ = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_CU_GENERATORS = np.array(
    [np.kron(_H_PROJ, ID2), np.kron(_V_PROJ, SIGMA_Z), np.kron(_V_PROJ, SIGMA_X)]) @ SWAP
_PAIR_A, _PAIR_B = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_BASIS_MAPS = _pair_maps(np.array([SWAP, SWAP @ CNOT, *_CU_GENERATORS[_PAIR_A]]),
                         np.array([SWAP, SWAP @ CNOT, *_CU_GENERATORS[_PAIR_B]]))
_BASIS_MAPS.setflags(write=False)
# _TRANSFER_BASIS[kind] (J, 2, 4, 4, 4): row 0 is the channel of SWAP alone
# (the gate failed); rows 1:, weighted by _gate_coefficients, sum to the
# channel of the gate that did not fail (build_interaction's, to roundoff).
_TRANSFER_BASIS = {CircuitKind.SWAP_CNOT: _BASIS_MAPS[:2],
                   CircuitKind.SWAP_THEN_CU: _BASIS_MAPS[[0, 2, 3, 4, 5, 6, 7]]}
_TRANSFER_BASIS[CircuitKind.SWAP_THEN_CU].setflags(write=False)


def _gate_coefficients(kind: CircuitKind, theta: np.ndarray) -> np.ndarray:
    """Weights (N, J - 1) of _TRANSFER_BASIS[kind][1:] for the angles theta
    (N,): [1] for SWAP_CNOT, which has no angle, and the pair products
    [1, c^2, s^2, c, s, c s] of _cu_weights for SWAP_THEN_CU."""
    if kind is CircuitKind.SWAP_CNOT:
        return np.ones((len(theta), 1))
    weights = _cu_weights(theta)
    return weights[:, _PAIR_A] * weights[:, _PAIR_B]
