"""Two-qubit gates and the loop interaction.

The interaction is a gate, then the rails handed over: CNOT then SWAP
(swap-cnot, the nonlinear amplifier) or SWAP then the controlled pi-rotation
CU_xz (swap-cu, the discrimination circuit). With probability epsilon the gate
fails and only the SWAP remains. Each kind is one _FAMILIES record, the single
source of its angle check, gate-failure Kraus stacks and transfer basis.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .qmath import (ID2, ID4, LOOP_RAIL, OUTPUT_RAIL, SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix,
                    ValidationError, _require_type, c_einsum)

__all__ = [
    "COMPLETENESS_TOL",
    "SWAP",
    "CNOT",
    "QubitChannel",
    "CircuitKind",
    "CircuitSpec",
    "depolarize",
    "build_interaction",
]

COMPLETENESS_TOL = 1e-10

# SWAP: |xy> -> |yx>. CNOT: qubit 1 controls, flipping the target when it is |V>.
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
SWAP.setflags(write=False)
CNOT.setflags(write=False)

# _PAIRS[4 mu + nu] = P_mu (x) P_nu, P = (I, X, Y, Z); Tr[O P_mu (x) P_nu] = O.flat @
# _PAIRS_T[:, 4 mu + nu]. _READOUTS are QubitChannel.transfer's S_k, loop rail first.
_PAULI = np.stack([ID2, SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAIRS = c_einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)
_PAIRS_T = _PAIRS.transpose(0, 2, 1).reshape(16, 16).T
_READOUTS = np.concatenate([_PAIRS[:4], _PAIRS[::4]])
# The 8 readouts side by side, (4, 32): A @ _READOUT_ROW is every A @ S_k at once.
_READOUT_ROW = _READOUTS.transpose(1, 0, 2).reshape(4, 32)


@dataclass(frozen=True)
class QubitChannel:
    """Trace-preserving map sum_k w_k op_k rho op_k^dag given as (w_k, op_k) terms, w_k in
    (0, 1]; completeness sum_k w_k op_k^dag op_k = I is checked on construction.

    transfer (read-only, built on first read) holds the real Pauli-transfer tensors
    Tr[S_k E(P_mu (x) P_nu)]/4, S_k = I (x) P_k on the loop rail and P_k (x) I on the
    output rail, contracted index first: transfer[LOOP_RAIL, mu, k, nu], [OUTPUT_RAIL, nu, k, mu].
    """

    kraus: tuple[tuple[float, np.ndarray], ...]

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
        gram = sum((w * op.conj().T @ op for w, op in terms), np.zeros((4, 4)))
        if not np.abs(gram - ID4).max() <= COMPLETENESS_TOL:
            raise ValidationError(
                "channel violates completeness (sum w_k op_k^dag op_k != I to 1e-10)")

    @functools.cached_property
    def transfer(self) -> np.ndarray:
        weights, ops = zip(*self.kraus)
        tensors = _transfer_tensors(np.array([weights]), np.array([ops]))[0]
        tensors.setflags(write=False)
        return tensors


def _transfer_tensors(weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Pauli-transfer tensors (N, 2, 4, 4, 4) of N weighted Kraus rows, weights (N, K)
    and ops (N, K, 4, 4); completeness is not checked."""
    # Heisenberg picture: Tr[S E(P)] = Tr[E^dag(S) P] for every readout S.
    return _pauli_transfer((weights[:, :, None, None, None] * _readout_images(ops, ops)).sum(axis=1))


def _readout_images(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left^dag S right for the 8 readouts S, (..., 4, 4) -> (..., 8, 4, 4): one
    (4, 32) product left^dag [S_0 ... S_7], then the blocks stacked (32, 4) @ right."""
    lead = left.shape[:-2]
    blocks = (left.conj().swapaxes(-1, -2) @ _READOUT_ROW).reshape(lead + (4, 8, 4))
    return (blocks.swapaxes(-3, -2).reshape(lead + (32, 4)) @ right).reshape(lead + (8, 4, 4))


def _pauli_transfer(images: np.ndarray) -> np.ndarray:
    """Real parts of Tr[image P_mu (x) P_nu]/4 of readout images (N, 8, 4, 4), as C-contiguous
    transfer tensors (N, 2, 4, 4, 4) in QubitChannel.transfer's layout. Contracted over
    the leading index, numpy's einsum kernel runs over 16 contiguous entries, not 4."""
    t = (images.reshape(-1, 8, 16) @ _PAIRS_T).real.reshape(-1, 2, 4, 4, 4) / 4.0
    return np.ascontiguousarray(np.stack([t[:, LOOP_RAIL].transpose(0, 2, 1, 3),
                                          t[:, OUTPUT_RAIL].transpose(0, 3, 1, 2)], axis=1))


class CircuitKind(Enum):
    """The loop circuits, by their command-line names."""

    SWAP_CNOT = "swap-cnot"
    SWAP_THEN_CU = "swap-cu"


@dataclass(frozen=True)
class CircuitSpec:
    """One interaction: the circuit, its gate angle (checked by the family), the gate
    failure probability epsilon and the input depolarization p, both in [0, 1]."""

    kind: CircuitKind
    theta_xz: float = 0.0
    gate_noise: float = 0.0
    input_noise: float = 0.0

    def __post_init__(self) -> None:
        family = _family(self.kind)
        for name in ("theta_xz", "gate_noise", "input_noise"):
            v = getattr(self, name)
            if type(v) is bool or not isinstance(v, numbers.Real):
                raise ValidationError(f"{name} must be a real number, got {type(v).__name__}")
        family.check_angles(np.array([self.theta_xz], dtype=float))
        for name, v in (("gate_noise (epsilon)", self.gate_noise),
                        ("input_noise (p)", self.input_noise)):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} = {v} outside [0, 1]")


def _cu_weights(theta: np.ndarray) -> np.ndarray:
    """Rows (1, c, s) (N, 3) of the angles theta (N,), the one angle rule every
    gate is built from: math.cos and math.sin of theta mod 2pi (np.mod is
    Python's %), with the exact 2pi of a tiny negative angle folded to 0.0."""
    t = np.mod(theta, 2 * math.pi)
    t[t == 2 * math.pi] = 0.0
    t = t.tolist()
    weights = np.ones((len(t), 3))
    weights[:, 1], weights[:, 2] = list(map(math.cos, t)), list(map(math.sin, t))
    return weights


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Depolarizing channel (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z): the Bloch
    vector shrinks by 1 - p."""
    _require_type(DensityMatrix, "state", rho)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarization strength p = {p} outside [0, 1]")
    m = rho.mat
    return DensityMatrix((1 - 0.75 * p) * m + 0.25 * p * (
        SIGMA_X @ m @ SIGMA_X + SIGMA_Y @ m @ SIGMA_Y + SIGMA_Z @ m @ SIGMA_Z
    ))


def build_interaction(spec: CircuitSpec) -> QubitChannel:
    """The loop interaction with gate failure, _failure_kraus's row of one without its
    zero-weight term. Input depolarization is not in it: the engine applies it."""
    weights, ops = _failure_kraus(_FAMILIES[spec.kind], np.array([spec.theta_xz], dtype=float),
                                  np.array([spec.gate_noise], dtype=float))
    return QubitChannel(tuple((w, op) for w, op in zip(weights[0], ops[0]) if w > 0.0))


def _failure_kraus(family: _GateFamily, theta: np.ndarray, eps: np.ndarray):
    """Kraus stack (weights (N, 2), ops (N, 2, 4, 4)) of the gate-failure
    channels of angles theta (N,) and failure probabilities eps (N,):
    [1 - eps, eps] on [ideal gate sum_a x_a G_a of the family, SWAP]."""
    gate = c_einsum("nj,jab->nab", family.coefficients(theta), family.generators)
    ops = np.stack([gate, np.broadcast_to(SWAP, gate.shape)], axis=1)
    return np.stack([1.0 - eps, eps], axis=1), ops


def _pair_maps(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Transfer tensors (P, 2, 4, 4, 4) of rho -> L rho R^dag, plus R rho L^dag
    where L != R, for operator pairs (P, 4, 4): that sum's readout image is
    X + X^dag with X = L^dag S R, whose Pauli traces are twice X's real parts."""
    twice = np.where((left == right).all(axis=(1, 2)), 1.0, 2.0)
    return twice[:, None, None, None, None] * _pauli_transfer(_readout_images(left, right))


class _GateFamily(NamedTuple):
    """A circuit kind as data: its ideal gate at angles theta (N,) is
    sum_a x_a G_a, of generators G (J, 4, 4) and coefficients x(theta)
    (N, J), with angles in angle_range [lo, hi) (None: no angle, any finite
    value). basis row 0 is the SWAP-only channel and rows 1: the pair maps of
    (G_a, G_b) for the index arrays pairs = (a, b), (a, a) first, then a < b
    in lexicographic order; weighted by basis_weights they sum to the
    unfailed gate's channel. _gate_family derives basis and pairs."""

    generators: np.ndarray
    coefficients: Callable[[np.ndarray], np.ndarray]
    angle_range: tuple[float, float] | None
    basis: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]

    def check_angles(self, theta: np.ndarray) -> None:
        """ValidationError unless every angle in theta (N,) is finite and in angle_range."""
        if self.angle_range is None:
            ok = np.isfinite(theta)
        else:
            ok = (self.angle_range[0] <= theta) & (theta < self.angle_range[1])
        if not ok.all():
            t = float(theta[~ok][0])
            raise ValidationError(f"theta_xz = {t} is not finite" if not math.isfinite(t)
                                  else f"theta_xz = {t} outside the sweep range [-pi/2, pi/2)")

    def basis_weights(self, theta: np.ndarray) -> np.ndarray:
        """Weights x_a x_b (N, P) of basis[1:] for the angles theta (N,)."""
        x = self.coefficients(theta)
        return x[:, self.pairs[0]] * x[:, self.pairs[1]]


def _gate_family(generators: np.ndarray, coefficients, angle_range) -> _GateFamily:
    """The _GateFamily of the generators, with its read-only basis and pairs built once."""
    k = range(len(generators))
    a, b = np.array([(i, i) for i in k] + list(combinations(k, 2))).T
    basis = _pair_maps(np.array([SWAP, *generators[a]]), np.array([SWAP, *generators[b]]))
    basis.setflags(write=False)
    return _GateFamily(generators, coefficients, angle_range, basis, (a, b))


# CU_xz(theta), the pi-rotation about the Bloch xz-plane axis at theta controlled by
# qubit 1 (0: CZ, pi/2: CNOT, pi/4: controlled Hadamard), is B0 + c B1 + s B2: its
# control-|V> block is c Z + s X. So CU_xz(theta) SWAP = G0 + c G1 + s G2, G = B SWAP.
_H_PROJ, _V_PROJ = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_CU_BLOCKS = np.array([np.kron(_H_PROJ, ID2), np.kron(_V_PROJ, SIGMA_Z), np.kron(_V_PROJ, SIGMA_X)])
_FAMILIES = {
    CircuitKind.SWAP_CNOT: _gate_family(np.array([SWAP @ CNOT]),
                                        lambda theta: np.ones((len(theta), 1)), None),
    CircuitKind.SWAP_THEN_CU: _gate_family(_CU_BLOCKS @ SWAP, _cu_weights,
                                           (-math.pi / 2, math.pi / 2)),
}


def _family(kind: CircuitKind) -> _GateFamily:
    """The _FAMILIES record of kind; ValidationError unless kind is a CircuitKind."""
    if not isinstance(kind, CircuitKind):
        raise ValidationError(f"circuit kind {kind!r} is not a CircuitKind")
    return _FAMILIES[kind]
