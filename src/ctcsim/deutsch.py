"""Deutsch's consistency condition: the loop state rho = Tr_1[E(rho_in (x) rho)]
and the output Tr_2[E(rho_in (x) rho)], for any two-qubit channel E.

The engine (solve_loops, run_batch) works on Bloch vectors and the channels'
Pauli-transfer tensors. The Kraus-form consistency_map, evolve_output,
superoperator and damped_iteration are independent oracles: they never read
the transfer tensors.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
# np.linalg.det's and np.linalg.solve's LAPACK gufuncs: their bits, without their wrappers.
from numpy.linalg import _umath_linalg

from . import qmath
from .circuits import _FAMILIES, CircuitKind, CircuitSpec, QubitChannel, _family, build_interaction
from .qmath import (
    LOOP_RAIL,
    OUTPUT_RAIL,
    PSD_TOL,
    DensityMatrix,
    PureQubit,
    ValidationError,
    _ball_state,
    _eig_ranges_2x2,
    _partial_trace_raw,
    _require_type,
    c_einsum,
    density_from_bloch,
    fidelity,
    trace_distances,
    von_neumann_entropy,
)

__all__ = [
    "RESIDUAL_TOL",
    "EIGENVALUE_ONE_TOL",
    "ConvergenceError",
    "LocalPure",
    "ImproperMixed",
    "NonLocalEnsemble",
    "PreparationMode",
    "FixedPointResult",
    "ScenarioOutput",
    "LoopBatch",
    "DampedBatch",
    "consistency_map",
    "superoperator",
    "damped_iteration",
    "solve_loops",
    "run_batch",
    "solve_fixed_point",
    "evolve_output",
    "run_scenario",
    "proper_mixture_output",
    "iterate_circuit",
    "swap_cnot_closed_form",
    "resource_state_vector",
]

RESIDUAL_TOL = 1e-10
# Tolerance for counting a singular value of (consistency map - I) as zero:
# detects true degeneracies reliably at dim-4 scale.
EIGENVALUE_ONE_TOL = 1e-9
# solve_loops' screen tau on |det(I - A)|. A CPTP map keeps the Bloch ball,
# so |A r| = |(A r + b) - (-A r + b)|/2 <= 1 for unit r: the singular values
# of I - A are at most 2, and |det(I - A)| > tau gives sigma_min > tau/4 >>
# EIGENVALUE_ONE_TOL. Appending b only raises them (interlacing): dimension 1.
_UNIQUE_DET = 1e-6
# Largest Bloch norm a valid state may have: (1 - |r|)/2 >= -PSD_TOL.
BALL_TOL = 1.0 + 2.0 * PSD_TOL
# damped_iteration's step tolerance and step budget.
_STEP_TOL = 1e-12
_MAX_STEPS = 10000


class ConvergenceError(RuntimeError):
    """A solver did not close the loop to its tolerance."""


@dataclass(frozen=True)
class LocalPure:
    """A pure state prepared on the input qubit: the loop adapts to it shot by shot."""

    state: PureQubit

    def __post_init__(self) -> None:
        _require_type(PureQubit, "local preparation state", self.state)


@dataclass(frozen=True)
class ImproperMixed:
    """A mixed input that is the reduced state of a larger system: the loop sees the matrix."""

    rho: DensityMatrix

    def __post_init__(self) -> None:
        _require_type(DensityMatrix, "improper mixture", self.rho)


@dataclass(frozen=True)
class NonLocalEnsemble:
    """States prepared remotely through an entangled resource and post-selection.

    No record of the outcome reaches the loop, so it adapts to the mixture
    sum_i p_i |psi_i><psi_i|: the output depends on the preparation, not only
    on the input's density matrix (Bennett, Leung, Smith & Smolin, PRL 103,
    170502 (2009)).
    """

    states: tuple[PureQubit, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        states, probs = _ensemble(self.states, self.probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", probs)


PreparationMode = LocalPure | ImproperMixed | NonLocalEnsemble


def _ensemble(states, probs) -> tuple[tuple, tuple[float, ...]]:
    """Validated (states, weights): PureQubits, matching, non-empty, non-negative, summing to 1."""
    states = tuple(states)
    _require_type(PureQubit, "ensemble state", *states)
    probs = tuple(float(p) for p in probs)
    if len(states) != len(probs) or not states:
        raise ValidationError("ensemble needs matching, non-empty states and probs")
    if any(p < 0 for p in probs):
        raise ValidationError("ensemble probabilities must be non-negative")
    if not abs(sum(probs) - 1.0) <= 1e-12:
        raise ValidationError(f"ensemble probabilities sum to {sum(probs)}, not 1")
    return states, probs


@dataclass(frozen=True)
class FixedPointResult:
    """Solved loop state and diagnostics. fixed_set_dimension > 1 means rho_ctc is the
    entropy maximizer over a continuum of solutions; iterations counts damped-iteration
    steps (0 for the direct solve); entropy is in bits."""

    rho_ctc: DensityMatrix
    residual: float
    iterations: int
    fixed_set_dimension: int

    @property
    def entropy(self) -> float:
        return von_neumann_entropy(self.rho_ctc)


@dataclass(frozen=True)
class ScenarioOutput:
    """run_scenario's result: the loop solution, the outputs and the consistency fidelity."""

    fixed_point: FixedPointResult
    rho_out_per_input: tuple[DensityMatrix, ...]
    consistency_fidelity: float


def _kraus_stack(channels) -> tuple[np.ndarray, np.ndarray]:
    """Weights (N, K) and operators (N, K, 4, 4) of N channels' Kraus terms; shorter
    rows are padded with zero-weight zero operators, which add exact zeros."""
    k = max(len(ch.kraus) for ch in channels)
    weights = np.zeros((len(channels), k))
    ops = np.zeros((len(channels), k, 4, 4), dtype=complex)
    for n, ch in enumerate(channels):
        for j, (w, op) in enumerate(ch.kraus):
            weights[n, j] = w
            ops[n, j] = op
    return weights, ops


# _kraus_loop's row block: a superoperator build (B = 4, two Kraus operators)
# makes temporaries of 1-2 KB per row, so a block of 64 rows keeps each at or
# below 128 KB, which the allocator reuses instead of faulting in fresh pages.
_KRAUS_BLOCK = 64


def _kraus_loop(kraus, rho_in: np.ndarray, x: np.ndarray, keep: int = LOOP_RAIL) -> np.ndarray:
    """The `keep` rail of E_n(rho_in[n] (x) x[n, b]) for a Kraus stack: rho_in (N, 2, 2),
    x (N, B, 2, 2) -> (N, B, 2, 2). Rows run _KRAUS_BLOCK at a time, so a row's bits
    do not depend on N."""
    weights, ops = kraus
    n, b = x.shape[:2]
    if n > _KRAUS_BLOCK:
        out = np.empty((n, b, 2, 2), dtype=complex)
        for s in range(0, n, _KRAUS_BLOCK):
            block = slice(s, s + _KRAUS_BLOCK)
            out[block] = _kraus_loop((weights[block], ops[block]), rho_in[block], x[block], keep)
        return out
    k = weights.shape[1]
    # Inlined 2x2 Kronecker products; np.kron overhead dominates at this size.
    # The B joint states side by side (4, 4B), so each Kraus operator takes one
    # (4, 4B) product, then one (4B, 4) product with the B blocks stacked.
    joint = (rho_in[:, :, None, None, :, None] * x.transpose(0, 2, 1, 3)[:, None, :, :, None, :])
    left = (ops @ joint.reshape(n, 1, 4, 4 * b)).reshape(n, k, 4, b, 4)
    images = left.swapaxes(2, 3).reshape(n, k, 4 * b, 4) @ ops.conj().swapaxes(-1, -2)
    out = (weights[:, :, None, None, None] * images.reshape(n, k, b, 4, 4)).sum(axis=1)
    return _partial_trace_raw(out, keep)


def _kraus_apply(rho_in: DensityMatrix, interaction: QubitChannel, x: DensityMatrix,
                 keep: int) -> DensityMatrix:
    """_kraus_loop on a batch of one, validated as a state."""
    return DensityMatrix(
        _kraus_loop(_kraus_stack([interaction]), rho_in.mat[None], x.mat[None, None], keep)[0, 0]
    )


def consistency_map(rho_in: DensityMatrix, interaction: QubitChannel,
                    rho: DensityMatrix) -> DensityMatrix:
    """One application of the consistency condition: Tr_1[E(rho_in (x) rho)]."""
    return _kraus_apply(rho_in, interaction, rho, LOOP_RAIL)


def evolve_output(input_state: DensityMatrix, rho_ctc: DensityMatrix,
                  interaction: QubitChannel) -> DensityMatrix:
    """State leaving the loop region: Tr_2[E(input (x) rho_ctc)]."""
    return _kraus_apply(input_state, interaction, rho_ctc, OUTPUT_RAIL)


_VEC_BASIS = np.eye(4, dtype=complex).reshape(4, 2, 2)
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


def _superoperators(kraus, rho_in: np.ndarray) -> np.ndarray:
    """(N, 4, 4) superoperators: column k is vec of the k-th matrix unit's image."""
    images = _kraus_loop(kraus, rho_in, np.broadcast_to(_VEC_BASIS, (len(rho_in), 4, 2, 2)))
    return images.reshape(-1, 4, 4).transpose(0, 2, 1)


def superoperator(rho_in: DensityMatrix, interaction: QubitChannel) -> np.ndarray:
    """4x4 M with M @ vec(rho) = vec(consistency_map(rho)), vec row-major."""
    return _superoperators(_kraus_stack([interaction]), rho_in.mat[None])[0]


def _clip_to_density(mats: np.ndarray) -> np.ndarray:
    """Round numerically almost-valid states (N, 2, 2) onto the density-matrix set."""
    h = (mats + mats.conj().swapaxes(-1, -2)) / 2.0
    neg = np.flatnonzero(~(_eig_ranges_2x2(h)[0] >= 0.0))
    if neg.size:
        lam, v = np.linalg.eigh(h[neg])
        h[neg] = (v * np.clip(lam, 0.0, None)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return h / np.trace(h, axis1=-2, axis2=-1).real[:, None, None]


@dataclass(frozen=True)
class DampedBatch:
    """Damped-iteration fixed points rho (N, 2, 2) with each row's Kraus-map residual,
    step count and superoperator M_n; fixed_set_dimension, the number of singular
    values of M_n - I below EIGENVALUE_ONE_TOL, is computed on first read."""

    rho: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    superoperators: np.ndarray = field(repr=False)

    @functools.cached_property
    def fixed_set_dimension(self) -> np.ndarray:
        sing = np.linalg.svd(self.superoperators - _EYE4, compute_uv=False)
        return (sing < EIGENVALUE_ONE_TOL).sum(axis=1)


def _checked_residual(residual: np.ndarray) -> np.ndarray:
    """residual, unless a row exceeds RESIDUAL_TOL or is NaN: ConvergenceError."""
    if not (residual <= RESIDUAL_TOL).all():
        raise ConvergenceError(f"fixed-point residual {np.nanmax(residual):.3e} exceeds {RESIDUAL_TOL:.0e}")
    return residual


def damped_iteration(rho_in: np.ndarray, kraus) -> DampedBatch:
    """Independent oracle: row n iterates rho <- (M_n vec(rho) + vec(rho))/2 from I/2
    until its step (trace distance between iterates) is at most _STEP_TOL.

    M_n is the superoperator of row n of the Kraus stack kraus (as _kraus_stack
    builds it) at input rho_in[n] (N, 2, 2). ConvergenceError if a row still moves
    after _MAX_STEPS steps or a clipped state's residual exceeds RESIDUAL_TOL;
    ValidationError on a non-finite input.
    """
    m = _superoperators(kraus, rho_in)
    if not np.isfinite(m).all():
        raise ValidationError("non-finite loop input or interaction")
    cur = np.tile(np.eye(2, dtype=complex).reshape(4) / 2, (len(m), 1))
    iterations = np.zeros(len(m), dtype=int)
    active, step = np.arange(len(m)), np.array([math.inf])
    steps = 0
    while active.size:
        if steps >= _MAX_STEPS:
            raise ConvergenceError(
                f"damped iteration did not converge in {_MAX_STEPS} steps (step = {step.max():.3e})"
            )
        c = cur[active]
        nxt = 0.5 * (m[active] @ c[:, :, None])[:, :, 0] + 0.5 * c
        step = trace_distances(nxt.reshape(-1, 2, 2), c.reshape(-1, 2, 2))
        cur[active] = nxt
        steps += 1
        iterations[active] = steps
        moving = step > _STEP_TOL
        active, step = active[moving], step[moving]
    rho = _clip_to_density(cur.reshape(-1, 2, 2))
    residual = _checked_residual(trace_distances(rho, _kraus_loop(kraus, rho_in, rho[:, None])[:, 0]))
    return DampedBatch(rho, residual, iterations, m)


@dataclass(frozen=True)
class LoopBatch:
    """Solved scenarios in Bloch coordinates: loop states and outputs (N, 3), per-row diagnostics."""

    loop: np.ndarray
    outputs: np.ndarray
    fixed_set_dimension: np.ndarray
    residual: np.ndarray
    consistency_fidelity: np.ndarray


def _homogeneous(v: np.ndarray) -> np.ndarray:
    """Bloch vectors (..., 3) -> Pauli coordinates (..., 4) with leading 1."""
    out = np.empty(v.shape[:-1] + (4,))
    out[..., 0] = 1.0
    out[..., 1:] = v
    return out


def _mix(terms, rail: int, subscripts: str, x: np.ndarray) -> np.ndarray:
    """Per-row contraction of a rail's transfer tensors with x, summed over terms in order.

    terms are (weight, transfer) pairs: weight a scalar or (N,), transfer one
    channel's tensors (2, 4, 4, 4) shared by all rows or a stack (N, 2, 4, 4, 4).
    Transfer tensors are linear in the channel, so weighted terms mix channels.
    """
    out = np.zeros(x.shape[:1] + (4, 4))
    for w, t in terms:
        out += np.asarray(w).reshape(-1, 1, 1) * c_einsum(subscripts, t[..., rail, :, :, :], x)
    return out


def _require_in_ball(norm: np.ndarray, what: str) -> None:
    """ValidationError on the first of the Bloch norms (N,) outside the ball or NaN."""
    if not (norm <= BALL_TOL).all():
        first = norm[~(norm <= BALL_TOL)][0]
        raise ValidationError(f"{what} Bloch norm {first:.6g} " + (
            "is not a number" if math.isnan(first) else "exceeds 1 + 2 PSD_TOL"))


def solve_loops(terms, loop_in: np.ndarray) -> LoopBatch:
    """Solve N consistency conditions; loop_in (N, 3) is the state each loop adapts to
    and sends through the output rail, terms as _mix takes them, each rail's tensors
    contracted over their leading index (mu, nu) as QubitChannel.transfer stores them.

    The map is affine, (1, r) -> M (1, r) with M = [[1, 0], [b, A]]. Entropy falls
    as |r| grows, so the loop state is the min-norm solution of (I - A) r = b, and
    fixed_set_dimension counts the singular values of M - I below
    EIGENVALUE_ONE_TOL. ConvergenceError on a residual above RESIDUAL_TOL,
    ValidationError on a loop state or output outside the Bloch ball; a NaN fails
    both, so the rows are safe for qmath._ball_state. loop_in is the caller's to check.
    """
    return _checked(*_loop_rows(terms, loop_in))


def _loop_rows(terms, loop_in: np.ndarray) -> tuple[LoopBatch, np.ndarray, bool]:
    """solve_loops before its checks (only a non-finite map raises): the LoopBatch, the loop
    states' Bloch norms before rounding, and whether every row has a unit-trace fixed state."""
    pauli_in = _homogeneous(loop_in)
    m = _mix(terms, LOOP_RAIL, "...mkv,...m->...kv", pauli_in)
    if not np.isfinite(m).all():
        raise ValidationError("non-finite loop input or interaction")
    i_minus_a = _EYE4[1:, 1:] - m[:, 1:, 1:]
    unique = np.abs(_umath_linalg.det(i_minus_a, signature="d->d")) > _UNIQUE_DET
    all_unique = unique.all()
    # Rows that fail the screen solve I r = b here; the SVD overwrites them.
    r = _umath_linalg.solve(i_minus_a if all_unique else
                            np.where(unique[:, None, None], i_minus_a, _EYE4[1:, 1:]),
                            m[:, 1:, :1], signature="dd->d")[:, :, 0]
    dims = np.ones(len(m), dtype=int)
    fixed = True
    if not all_unique:
        svd_rows = np.flatnonzero(~unique)
        _, sing, vt = np.linalg.svd(m[svd_rows] - _EYE4)
        null = sing < EIGENVALUE_ONE_TOL
        dims[svd_rows] = null.sum(axis=1)
        # (1, r) = P e0 / (e0 . P e0), P the projector onto the null-space rows of vt.
        lead = np.where(null, vt[:, :, 0], 0.0)
        norm0 = qmath._dot(lead, vt[:, :, 0])
        fixed = bool((norm0 > 0.0).all())
        r[svd_rows] = c_einsum("nj,nji->ni", lead, vt[:, :, 1:]) / np.where(
            norm0 > 0.0, norm0, math.nan)[:, None]
    # Round the few-ulp excess of a pure fixed state back onto the sphere.
    norm = np.sqrt(qmath._dot(r, r))
    r = r / np.maximum(norm, 1.0)[:, None]

    image = c_einsum("nij,nj->ni", m[:, 1:, 1:], r) + m[:, 1:, 0]
    residual = np.sqrt(qmath._dot(image - r, image - r)) / 2.0

    o = _mix(terms, OUTPUT_RAIL, "...vkm,...v->...km", _homogeneous(r))
    outputs = c_einsum("nkm,nm->nk", o[:, 1:], pauli_in)
    return LoopBatch(r, outputs, dims, residual, qmath._qubit_fidelity(r, image)), norm, fixed


def _checked(batch: LoopBatch, loop_norm: np.ndarray, fixed: bool) -> LoopBatch:
    """batch, after solve_loops' checks in their order over all its rows."""
    if not fixed:
        raise ValidationError("consistency map has no unit-trace fixed state (non-CPTP interaction)")
    _require_in_ball(loop_norm, "loop state")
    _checked_residual(batch.residual)
    _require_in_ball(np.sqrt(qmath._dot(batch.outputs, batch.outputs)), "output")
    return batch


def run_batch(kind: CircuitKind, theta, eps, p, loop_in: np.ndarray) -> LoopBatch:
    """Solve N scenarios of one circuit kind: theta, eps and p (N,) are each row's gate
    angle, gate failure probability and input depolarization, loop_in (N, 3) the
    input before depolarization. ValidationError unless the arguments are as
    CircuitSpec checks them, of these shapes (nothing is broadcast), and loop_in
    lies in the Bloch ball. A row solves to the same bits in every batch.
    """
    family = _family(kind)
    theta, eps, p, loop_in = (np.asarray(x, dtype=float) for x in (theta, eps, p, loop_in))
    if loop_in.ndim != 2 or loop_in.shape[1] != 3:
        raise ValidationError(f"loop input shape {loop_in.shape} is not (N, 3)")
    for name, v in (("theta_xz", theta), ("gate_noise", eps), ("input_noise", p)):
        if v.shape != loop_in.shape[:1]:
            raise ValidationError(f"{name} shape {v.shape} is not ({len(loop_in)},)")
    family.check_angles(theta)
    for name, v in (("gate_noise", eps), ("input_noise", p)):
        if not ((0.0 <= v) & (v <= 1.0)).all():
            raise ValidationError(f"{name} outside [0, 1]")
    _require_in_ball(np.sqrt(qmath._dot(loop_in, loop_in)), "loop input")
    return _solve_batch(kind, theta, eps, p, loop_in)


# _solve_batch's row block. fig6's 3362-row run_batch (warm, one pinned CPU of a 2-core
# Intel Xeon; ms and minor page faults per call): unblocked 5.3-5.8, 1177; 512 rows
# 2.96, 0; 640 2.77, 0; 768 3.18, 224; 1024 3.1-3.3, 318. At 512 each (N, 4, 4)
# temporary is 64 KB, which malloc reuses instead of faulting it in anew.
_SOLVE_BLOCK = 512


def _solve_batch(kind: CircuitKind, theta: np.ndarray, eps: np.ndarray, p: np.ndarray,
                 loop_in: np.ndarray) -> LoopBatch:
    """run_batch on checked float arrays, _SOLVE_BLOCK rows at a time into one
    LoopBatch; solve_loops' checks run in their order over the whole batch."""
    family, n = _FAMILIES[kind], len(theta)
    if n <= _SOLVE_BLOCK:
        return solve_loops(_gate_terms(family, theta, eps), loop_in * (1.0 - p)[:, None])
    out = LoopBatch(np.empty((n, 3)), np.empty((n, 3)), np.empty(n, dtype=int), np.empty(n),
                    np.empty(n))
    loop_norm, fixed = np.empty(n), True
    for s in range(0, n, _SOLVE_BLOCK):
        rows = slice(s, s + _SOLVE_BLOCK)
        block, loop_norm[rows], ok = _loop_rows(_gate_terms(family, theta[rows], eps[rows]),
                                                loop_in[rows] * (1.0 - p[rows])[:, None])
        fixed = fixed and ok
        for whole, part in zip(vars(out).values(), vars(block).values()):
            whole[rows] = part
    return _checked(out, loop_norm, fixed)


def _gate_terms(family, theta: np.ndarray, eps: np.ndarray) -> list:
    """solve_loops terms of rows: no channel is built. Each row mixes the family's
    SWAP-only basis row (weight eps) with its ideal-gate tensors; one angle,
    repeated or not, shares one ideal-gate tensor, with the bits of per-row ones."""
    basis = family.basis
    shared = theta.size == 1 or (theta.size > 1 and (theta == theta[0]).all())
    coefficients = family.basis_weights(theta[:1] if shared else theta)
    ideal = c_einsum("nj,jx->nx", coefficients,
                     basis[1:].reshape(len(basis) - 1, -1)).reshape(-1, 2, 4, 4, 4)
    terms = [(eps, basis[0])] if eps.any() else []
    terms.append((1.0 - eps, ideal[0] if shared else ideal))
    return terms


def _fixed_point_result(rho: DensityMatrix, batch, iterations=0) -> FixedPointResult:
    """Row 0 of a LoopBatch or DampedBatch, whose loop state is rho."""
    return FixedPointResult(rho_ctc=rho, residual=float(batch.residual[0]), iterations=int(iterations),
                            fixed_set_dimension=int(batch.fixed_set_dimension[0]))


def solve_fixed_point(rho_in: DensityMatrix, interaction: QubitChannel,
                      method: str = "eigen_max_entropy") -> FixedPointResult:
    """Solve rho = Tr_1[E(rho_in (x) rho)] for the loop state: method
    "eigen_max_entropy" is solve_loops (authoritative), "damped_iteration" the
    oracle damped_iteration, which on a degenerate fixed set lands somewhere in it.
    """
    _require_type(DensityMatrix, "loop input", rho_in)
    _require_type(QubitChannel, "interaction", interaction)
    if method == "eigen_max_entropy":
        batch = solve_loops([(1.0, interaction.transfer)], rho_in.bloch()[None])
        return _fixed_point_result(_ball_state(batch.loop[0]), batch)
    if method != "damped_iteration":
        raise ValidationError(f"unknown solver method {method!r}")
    batch = damped_iteration(rho_in.mat[None], _kraus_stack([interaction]))
    return _fixed_point_result(DensityMatrix(batch.rho[0]), batch, batch.iterations[0])


def _prepared_bloch(prep: PreparationMode) -> np.ndarray:
    """Bloch vector of the input the loop adapts to, before depolarization."""
    if isinstance(prep, (LocalPure, ImproperMixed)):
        return (prep.state if isinstance(prep, LocalPure) else prep.rho).bloch()
    if isinstance(prep, NonLocalEnsemble):
        return sum(q * s.bloch() for q, s in zip(prep.probs, prep.states))
    raise ValidationError(f"unknown preparation mode {prep!r}")


def run_scenario(spec: CircuitSpec, prep: PreparationMode,
                 method: str = "eigen_max_entropy") -> ScenarioOutput:
    """Solve one scenario (method as in solve_fixed_point) and evolve the depolarized
    input the loop adapts to. rho_out_per_input has one entry, or for NonLocalEnsemble
    the evolved mixture once per state: the output correlates with the loop qubit,
    not the remote ancilla, so the post-selection outcome cannot steer it.
    """
    _require_type(CircuitSpec, "circuit spec", spec)
    loop_in = _prepared_bloch(prep)
    count = len(prep.states) if isinstance(prep, NonLocalEnsemble) else 1

    if method == "eigen_max_entropy":
        batch = _solve_batch(spec.kind, np.array([spec.theta_xz], dtype=float),
                             np.array([spec.gate_noise], dtype=float),
                             np.array([spec.input_noise], dtype=float), loop_in[None])
        fp = _fixed_point_result(_ball_state(batch.loop[0]), batch)
        out, cf = _ball_state(batch.outputs[0]), float(batch.consistency_fidelity[0])
    elif method == "damped_iteration":
        kraus = _kraus_stack([build_interaction(spec)])
        rho_in = density_from_bloch((1.0 - spec.input_noise) * loop_in).mat[None]
        damped = damped_iteration(rho_in, kraus)
        fp = _fixed_point_result(DensityMatrix(damped.rho[0]), damped, damped.iterations[0])
        out, image = (DensityMatrix(_kraus_loop(kraus, rho_in, fp.rho_ctc.mat[None, None], rail)[0, 0])
                      for rail in (OUTPUT_RAIL, LOOP_RAIL))
        cf = fidelity(fp.rho_ctc, image)
    else:
        raise ValidationError(f"unknown solver method {method!r}")
    return ScenarioOutput(fixed_point=fp, rho_out_per_input=(out,) * count, consistency_fidelity=cf)


def proper_mixture_output(spec: CircuitSpec, states: list[PureQubit],
                          probs: list[float]) -> DensityMatrix:
    """Loop output for a proper mixture: each state runs its own scenario and the
    outputs are averaged. Under nonlinear evolution this differs from the improper
    mixture of the same density matrix."""
    states, probs = _ensemble(states, probs)
    out = np.zeros((2, 2), dtype=complex)
    for q, psi in zip(probs, states):
        res = run_scenario(spec, LocalPure(psi))
        out += q * res.rho_out_per_input[0].mat
    return DensityMatrix(out)


def iterate_circuit(input_state: PureQubit, n: int) -> DensityMatrix:
    """The noise-free CNOT-then-SWAP loop output after n passes: the pass loop
    fig3 runs, each later pass fed the previous Bloch output as an improper
    mixture (it comes from tracing out the loop rail), so with fig3's bits."""
    _require_type(PureQubit, "input state", input_state)
    _check_count(n, "iteration count", 1)
    return _ball_state(_swap_cnot_passes(input_state.bloch()[None], n)[-1].outputs[0])


def _swap_cnot_passes(state: np.ndarray, n: int) -> list[LoopBatch]:
    """n noise-free CNOT-then-SWAP passes of the Bloch rows state (N, 3), each
    later pass fed the last pass's outputs: one LoopBatch per pass."""
    zero = np.zeros(len(state))
    batches = []
    for _ in range(n):
        batches.append(run_batch(CircuitKind.SWAP_CNOT, zero, zero, zero, state))
        state = batches[-1].outputs
    return batches


def _check_count(n, what: str, least: int) -> None:
    """ValidationError unless n is an integer (numpy's too, not a bool) of at least `least`."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"{what} {n!r} is not an integer")
    if n < least:
        raise ValidationError(f"{what} must be >= {least}")


def swap_cnot_closed_form(h_weight: float) -> tuple[DensityMatrix, DensityMatrix]:
    """Oracle: (rho_out, rho_ctc) of the CNOT-then-SWAP loop for |H>-population a,
    diag(a^2 + b^2, 2ab) and diag(a, b) with b = 1 - a (Bacon, quant-ph/0309189)."""
    if not 0.0 <= h_weight <= 1.0:
        raise ValidationError(f"population {h_weight} outside [0, 1]")
    a, b = float(h_weight), 1.0 - float(h_weight)
    rho_out = DensityMatrix(np.diag([a * a + b * b, 2 * a * b]).astype(complex))
    rho_ctc = DensityMatrix(np.diag([a, b]).astype(complex))
    return rho_out, rho_ctc


def resource_state_vector(psi0: PureQubit, psi1: PureQubit) -> np.ndarray:
    """Entangled resource (|0>|psi0> + |1>|psi1>)/sqrt(2) for remote preparation:
    projecting the ancilla (qubit 1) leaves psi0 or psi1, tracing it out the mixture."""
    v = np.zeros(4, dtype=complex)
    v[:2] = psi0.vector() / math.sqrt(2)
    v[2:] = psi1.vector() / math.sqrt(2)
    return v
