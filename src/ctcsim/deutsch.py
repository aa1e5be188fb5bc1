"""Fixed-point engine for the time-loop consistency condition.

The loop qubit must satisfy rho = Tr_1[E(rho_in (x) rho)], where E is the
two-qubit interaction channel: the state entering the wormhole equals the
state leaving it. This module solves that equation for arbitrary channels
and preparation modes, evolves chronology-respecting inputs through the
loop (rho_out = Tr_2[E(rho_in (x) rho)]), and exposes the closed forms
that serve as independent oracles for the engine.

Conventions follow qmath: qubit 1 is the chronology-respecting rail and
qubit 2 the loop rail, so Tr_1 keeps the loop qubit and Tr_2 the output.

The engine works in Bloch coordinates on the channels' Pauli-transfer
tensors and solves whole batches at once (solve_loops, run_batch): for a
fixed input the consistency map is affine on the loop's Bloch vector,
r -> A r + b, and Deutsch's maximum-entropy fixed point is the
minimum-norm solution of (I - A) r = b. Rows with |det(I - A)| above
_UNIQUE_DET are provably unique and take one 3x3 solve; the rest take the
SVD. Where the fixed set has more than one state its dimension is
reported, never hidden. Density matrices are built only at the API
boundary, from Bloch rows solve_loops has checked to lie in the ball,
with no second check (qmath._ball_state). Inputs are validated there:
run_batch checks its kind and raw arrays (shape, angle, noise, ball);
run_scenario, whose inputs are checked, solves as run_batch does without
checking again. A solve_loops term is a (weight, transfer) pair covering
every row: one channel's tensors shared by all rows, or a stack with one
channel per row (circuits._transfer_tensors), so a batch of distinct
channels is one term.
run_batch builds no channel: it mixes its circuit family's fixed transfer
basis (circuits._FAMILIES) with each row's angle and gate noise.

The Kraus-form consistency_map, evolve_output, superoperator and the
damped iteration stay as independent oracles: they never read the
transfer tensors. All four apply the interaction through one batched
Kraus path (_kraus_loop, on the rows' stacked Kraus terms, in row
blocks of _KRAUS_BLOCK so its temporaries do not grow with the batch);
consistency_map and evolve_output are batches of one of it. The damped
iteration (damped_iteration) takes a Kraus stack, builds one 4x4
superoperator per row and iterates all rows together, each stopping on
its own when its step, the closed-form trace distance between successive
iterates, is small enough; the fixed-set dimension is read from the kept
superoperators only when asked for. superoperator and
solve_fixed_point(method="damped_iteration") are batches of one of it.
run_scenario tests its method once: the default is run_batch's solve on
a batch of one; "damped_iteration" runs damped_iteration on the
interaction's one Kraus stack and reads the output and the consistency
image off that stack with _kraus_loop.
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
# damped_iteration's stopping step (trace distance between successive
# iterates) and step budget.
_STEP_TOL = 1e-12
_MAX_STEPS = 10000


class ConvergenceError(RuntimeError):
    """The iterative solver did not reach the requested tolerance."""


@dataclass(frozen=True)
class LocalPure:
    """A pure state prepared directly on the input qubit.

    The consistency condition acts shot-by-shot, so this single state (after
    any input depolarization) is exactly what the loop adapts to.
    """

    state: PureQubit

    def __post_init__(self) -> None:
        _require_type(self.state, PureQubit, "local preparation state")


@dataclass(frozen=True)
class ImproperMixed:
    """A mixed input that is the reduced state of some larger system.

    The loop sees the density matrix itself, not an ensemble of pure shots.
    """

    rho: DensityMatrix

    def __post_init__(self) -> None:
        _require_type(self.rho, DensityMatrix, "improper mixture")


@dataclass(frozen=True)
class NonLocalEnsemble:
    """States prepared remotely via an entangled resource and post-selection.

    No classical record of the post-selection outcome exists at the loop, so
    the loop adapts to the unconditioned mixture sum_i p_i |psi_i><psi_i|.
    That a Deutsch loop's output depends on how its input was prepared,
    not only on the input's density matrix, is the point made by Bennett,
    Leung, Smith & Smolin, Phys. Rev. Lett. 103, 170502 (2009).
    """

    states: tuple[PureQubit, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        states, probs = _ensemble(self.states, self.probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", probs)


PreparationMode = LocalPure | ImproperMixed | NonLocalEnsemble


def _require_type(value, cls: type, what: str) -> None:
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")


def _ensemble(states, probs) -> tuple[tuple, tuple[float, ...]]:
    """Validated (states, weights): PureQubits, matching, non-empty, non-negative, summing to 1.

    A non-finite weight fails the sum check.
    """
    states = tuple(states)
    for s in states:
        _require_type(s, PureQubit, "ensemble state")
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
    """Solved loop state plus solver diagnostics.

    fixed_set_dimension is the dimension of the eigenvalue-1 eigenspace of
    the consistency map; values above 1 mean the returned state is the
    entropy maximizer (the min-norm Bloch vector) over a continuum of
    solutions. iterations counts damped-iteration steps (0 for the
    closed-form solve). entropy, the loop state's von Neumann entropy in
    bits, is computed when read.
    """

    rho_ctc: DensityMatrix
    residual: float
    iterations: int
    fixed_set_dimension: int

    @property
    def entropy(self) -> float:
        return von_neumann_entropy(self.rho_ctc)


@dataclass(frozen=True)
class ScenarioOutput:
    fixed_point: FixedPointResult
    rho_out_per_input: tuple[DensityMatrix, ...]
    consistency_fidelity: float


def _kraus_stack(channels) -> tuple[np.ndarray, np.ndarray]:
    """Weights (N, K) and operators (N, K, 4, 4) of N channels' Kraus terms.

    Rows with fewer than K terms are padded with zero-weight zero operators,
    which add exact zeros.
    """
    k = max(len(ch.kraus) for ch in channels)
    weights = np.zeros((len(channels), k))
    ops = np.zeros((len(channels), k, 4, 4), dtype=complex)
    for n, ch in enumerate(channels):
        for j, (w, op) in enumerate(ch.kraus):
            weights[n, j] = w
            ops[n, j] = op
    return weights, ops


# _kraus_loop's row block: its temporaries take about 8 KB per row at B = 4
# (a superoperator build), so a block of 200 rows caps them near 1.6 MB.
_KRAUS_BLOCK = 200


def _kraus_loop(kraus, rho_in: np.ndarray, x: np.ndarray, keep: int = LOOP_RAIL) -> np.ndarray:
    """The `keep` rail of E_n(rho_in[n] (x) x[n, b]) for a Kraus stack: rho_in
    (N, 2, 2), x (N, B, 2, 2) -> (N, B, 2, 2). Linear in x; keeping LOOP_RAIL
    gives the consistency map, OUTPUT_RAIL the output. Rows are independent
    and run _KRAUS_BLOCK at a time, so a row's bits do not depend on N."""
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
    """(N, 4, 4) stack of superoperators: column k is vec of the map's image of
    the k-th matrix unit (row-major vec)."""
    images = _kraus_loop(kraus, rho_in, np.broadcast_to(_VEC_BASIS, (len(rho_in), 4, 2, 2)))
    return images.reshape(-1, 4, 4).transpose(0, 2, 1)


def superoperator(rho_in: DensityMatrix, interaction: QubitChannel) -> np.ndarray:
    """4x4 matrix M with M @ vec(rho) = vec(consistency_map(rho)) for all rho.

    vec is row-major flattening of the 2x2 matrix. Built from the Kraus
    form, independently of the transfer tensors the engine solves with;
    the damped iteration runs on it. A batch of one of _superoperators.
    """
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
    """Damped-iteration fixed points: rho (N, 2, 2) states, and per row the
    Kraus-map residual, the step count and the fixed-set dimension. The
    dimension counts the singular values of M_n - I below
    EIGENVALUE_ONE_TOL, with M_n the row's superoperator (superoperators,
    (N, 4, 4)); it is computed when first read, as few callers read it."""

    rho: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    superoperators: np.ndarray = field(repr=False)

    @functools.cached_property
    def fixed_set_dimension(self) -> np.ndarray:
        sing = np.linalg.svd(self.superoperators - _EYE4, compute_uv=False)
        return (sing < EIGENVALUE_ONE_TOL).sum(axis=1)


def damped_iteration(rho_in: np.ndarray, kraus) -> DampedBatch:
    """Independent oracle: damped iteration on the Kraus-form superoperators.

    Row n iterates rho <- (M_n vec(rho) + vec(rho))/2 from the maximally
    mixed state until the step (the closed-form trace distance between
    successive iterates) is at most _STEP_TOL, then stops; M_n is the
    superoperator of row n of the Kraus stack kraus (weights (N, K), ops
    (N, K, 4, 4), as _kraus_stack builds) at input rho_in[n] (N, 2, 2).
    Any row still moving after _MAX_STEPS steps raises ConvergenceError.
    Each clipped state must close the Kraus consistency map to
    RESIDUAL_TOL (else ConvergenceError); a NaN or inf input raises
    ValidationError. The rows of M_n stay in the result, whose fixed-set
    dimension is read from them on demand. Never touches the transfer
    tensors.
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
    residual = trace_distances(rho, _kraus_loop(kraus, rho_in, rho[:, None])[:, 0])
    if not (residual <= RESIDUAL_TOL).all():
        raise ConvergenceError(
            f"fixed-point residual {np.nanmax(residual):.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    return DampedBatch(rho, residual, iterations, m)


@dataclass(frozen=True)
class LoopBatch:
    """Solved loop scenarios in Bloch coordinates: loop (N, 3) min-norm loop
    states, outputs (N, 3) evolved loop inputs, and three per-row diagnostics."""

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
    """Per-row contraction of a rail's transfer tensors with x, mixed over terms.

    terms are (weight, transfer) pairs: transfer is either one channel's
    tensors (2, 4, 4, 4), shared by all the rows, or a stack (N, 2, 4, 4,
    4) with one channel per row. Row n's interaction is the sum over the
    terms of weight * transfer (weight scalar or one per row), added in
    term order. Transfer tensors are linear in the channel, so they mix.
    """
    out = np.zeros(x.shape[:1] + (4, 4))
    for w, t in terms:
        out += np.asarray(w).reshape(-1, 1, 1) * c_einsum(subscripts, t[..., rail, :, :, :], x)
    return out


def _require_in_ball(v: np.ndarray, what: str) -> np.ndarray:
    """Bloch norms of v (N, 3); ValidationError naming the first row outside
    the ball, a NaN row included."""
    norm = np.sqrt(qmath._dot(v, v))
    if not (norm <= BALL_TOL).all():
        first = norm[~(norm <= BALL_TOL)][0]
        raise ValidationError(f"{what} Bloch norm {first:.6g} " + (
            "is not a number" if math.isnan(first) else "exceeds 1 + 2 PSD_TOL"))
    return norm


def solve_loops(terms, loop_in: np.ndarray) -> LoopBatch:
    """Solve a batch of consistency conditions at once, in Bloch coordinates.

    For a fixed input the map is affine on the loop's Bloch vector,
    (1, r) -> M (1, r) with M = [[1, 0], [b, A]]. The fixed set has
    dimension d = #(singular values of M - I below EIGENVALUE_ONE_TOL).
    Entropy falls as |r| grows, so the maximum-entropy fixed state is the
    min-norm solution pinv(I - A) b of (I - A) r = b; with P the projector
    onto null(M - I) it is (1, r) = P e0 / (e0 . P e0).

    Rows with |det(I - A)| above _UNIQUE_DET are provably unique and take
    one batched 3x3 solve, r = (I - A)^-1 b; the rest take the SVD, which
    is set up only when some row fails the screen. Both call the LAPACK
    gufuncs of np.linalg.det and np.linalg.solve directly, with their bits;
    the solve sees only screened rows or the identity, never a singular one.

    terms: (weight, transfer) pairs (see _mix); loop_in (N, 3): the
    state the loop adapts to, which is also the input sent through the
    output rail. It checks the states it computes: a residual above
    RESIDUAL_TOL raises ConvergenceError, a loop state or output outside
    the Bloch ball ValidationError; a NaN fails both, so its rows become
    states unchecked (qmath._ball_state). loop_in's shape and ball are the
    caller's to check (run_batch does). Zero rows give an empty LoopBatch.
    """
    pauli_in = _homogeneous(loop_in)
    m = _mix(terms, LOOP_RAIL, "...kmv,...m->...kv", pauli_in)
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
    if not all_unique:
        svd_rows = np.flatnonzero(~unique)
        _, sing, vt = np.linalg.svd(m[svd_rows] - _EYE4)
        null = sing < EIGENVALUE_ONE_TOL
        dims[svd_rows] = null.sum(axis=1)
        # Null-space rows of vt; e0 . P e0 = sum of their squared first entries.
        lead = np.where(null, vt[:, :, 0], 0.0)
        norm0 = qmath._dot(lead, vt[:, :, 0])
        if not (norm0 > 0.0).all():
            raise ValidationError(
                "consistency map has no unit-trace fixed state (non-CPTP interaction)")
        r[svd_rows] = c_einsum("nj,nji->ni", lead, vt[:, :, 1:]) / norm0[:, None]
    # Round the few-ulp excess of a pure fixed state back onto the sphere.
    r = r / np.maximum(_require_in_ball(r, "loop state"), 1.0)[:, None]

    image = c_einsum("nij,nj->ni", m[:, 1:, 1:], r) + m[:, 1:, 0]
    residual = np.sqrt(qmath._dot(image - r, image - r)) / 2.0
    if not (residual <= RESIDUAL_TOL).all():
        raise ConvergenceError(
            f"fixed-point residual {np.nanmax(residual):.3e} exceeds {RESIDUAL_TOL:.0e}"
        )

    o = _mix(terms, OUTPUT_RAIL, "...kmv,...v->...km", _homogeneous(r))
    outputs = c_einsum("nkm,nm->nk", o[:, 1:], pauli_in)
    _require_in_ball(outputs, "output")
    return LoopBatch(r, outputs, dims, residual, qmath._qubit_fidelity(r, image))


def run_batch(kind: CircuitKind, theta, eps, p, loop_in: np.ndarray) -> LoopBatch:
    """Solve N loop scenarios of one circuit kind, one spec per row.

    theta, eps and p (length N) are each row's gate angle, gate failure
    probability and input depolarization; loop_in (N, 3) is as in
    solve_loops, before depolarization (a 1 - p shrink). No channel is
    built: gate failure is linear in eps, so each row mixes the family's
    SWAP-only basis row with its ideal-gate tensors, one einsum of the other
    basis rows and the row's basis weights. A batch of one angle, repeated
    or not, shares one ideal-gate tensor; otherwise each row has its own,
    with the same bits, so a row solves to the same result in every batch.
    The kind and angles are checked as CircuitSpec checks them (a
    CircuitKind; finite, and in the family's angle range); run_scenario,
    whose CircuitSpec has checked them, calls the solve behind these checks
    directly. theta, eps and p must be 1-D with one entry per row of an
    (N, 3) loop_in whose rows lie in the Bloch ball; nothing is broadcast.
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
    _require_in_ball(loop_in, "loop input")
    return _solve_batch(kind, theta, eps, p, loop_in)


def _solve_batch(kind: CircuitKind, theta: np.ndarray, eps: np.ndarray, p: np.ndarray,
                 loop_in: np.ndarray) -> LoopBatch:
    """run_batch on the float arrays it has checked."""
    family = _FAMILIES[kind]
    basis = family.basis
    shared = theta.size == 1 or (theta.size > 1 and (theta == theta[0]).all())
    coefficients = family.basis_weights(theta[:1] if shared else theta)
    ideal = c_einsum("nj,jx->nx", coefficients,
                     basis[1:].reshape(len(basis) - 1, -1)).reshape(-1, 2, 4, 4, 4)
    terms = [(eps, basis[0])] if eps.any() else []
    terms.append((1.0 - eps, ideal[0] if shared else ideal))
    return solve_loops(terms, loop_in * (1.0 - p)[:, None])


def _fixed_point_result(rho: DensityMatrix, batch, iterations=0) -> FixedPointResult:
    """Row 0 of a LoopBatch or DampedBatch, whose loop state is rho."""
    return FixedPointResult(rho_ctc=rho, residual=float(batch.residual[0]), iterations=int(iterations),
                            fixed_set_dimension=int(batch.fixed_set_dimension[0]))


def solve_fixed_point(rho_in: DensityMatrix, interaction: QubitChannel,
                      method: str = "eigen_max_entropy") -> FixedPointResult:
    """Solve rho = Tr_1[E(rho_in (x) rho)] for the loop state.

    method "eigen_max_entropy" (authoritative): the min-norm Bloch-affine
    solve of solve_loops, a batch of one. Its state maximizes the entropy
    over the fixed set, whose dimension is reported.

    method "damped_iteration" (independent oracle): rho <- (map(rho) +
    rho)/2 on the Kraus-form superoperator, from the maximally mixed state;
    damped_iteration on a batch of one, with its default step tolerance
    and step budget. Agrees with the default whenever the fixed point is
    unique; on degenerate sets it lands somewhere in the set (residual
    still checked).
    """
    if method == "eigen_max_entropy":
        batch = solve_loops([(1.0, interaction.transfer)], rho_in.bloch()[None])
        return _fixed_point_result(_ball_state(batch.loop[0]), batch)
    if method != "damped_iteration":
        raise ValidationError(f"unknown solver method {method!r}")
    batch = damped_iteration(rho_in.mat[None], _kraus_stack([interaction]))
    return _fixed_point_result(DensityMatrix(batch.rho[0]), batch, batch.iterations[0])


def _prepared_bloch(prep: PreparationMode) -> np.ndarray:
    """Bloch vector of the reduced input the loop adapts to, before depolarization."""
    if isinstance(prep, (LocalPure, ImproperMixed)):
        return (prep.state if isinstance(prep, LocalPure) else prep.rho).bloch()
    if isinstance(prep, NonLocalEnsemble):
        return sum(q * s.bloch() for q, s in zip(prep.probs, prep.states))
    raise ValidationError(f"unknown preparation mode {prep!r}")


def run_scenario(spec: CircuitSpec, prep: PreparationMode,
                 method: str = "eigen_max_entropy") -> ScenarioOutput:
    """Solve one complete loop scenario and evolve its input.

    The loop state is solved once, from the reduced input the preparation
    mode dictates (pure state for LocalPure, the given matrix for
    ImproperMixed, the unconditioned mixture for NonLocalEnsemble), after
    input depolarization. method is tested once, before any channel is
    built: "eigen_max_entropy" (default) is run_batch's solve on a batch of
    one; "damped_iteration" runs the Kraus-form oracle on the interaction's
    Kraus stack and reads the output and the consistency image off that
    stack, as evolve_output and consistency_map compute them.

    The depolarized state the loop adapts to is also the one sent through
    it, and is evolved once. For local and improper preparations
    rho_out_per_input has that one entry. For NonLocalEnsemble the
    interaction correlates the output with the loop qubit, not with the
    remote ancilla, so conditioning on the (space-like separated)
    post-selection outcome cannot steer it: every ensemble state emerges
    as the evolved ensemble mixture, repeated once per state.
    """
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
    """Loop output for a proper mixture: classical fluctuations in the preparation.

    Each pure state runs through its own complete scenario (own fixed
    point), and the outputs are averaged with the ensemble weights. Under
    nonlinear evolution this generally differs from feeding the same
    reduced density matrix in as an improper mixture.
    """
    states, probs = _ensemble(states, probs)
    out = np.zeros((2, 2), dtype=complex)
    for q, psi in zip(probs, states):
        res = run_scenario(spec, LocalPure(psi))
        out += q * res.rho_out_per_input[0].mat
    return DensityMatrix(out)


def iterate_circuit(input_state: PureQubit, n: int) -> DensityMatrix:
    """Feed the noise-free CNOT-then-SWAP loop output back through it n times in total.

    Pass 1 treats the pure input shot-by-shot; every later pass receives
    the previous output as an improper mixture, because that mixture comes
    from tracing out the loop rail, not from classical fluctuation. Each
    pass is run_batch on a batch of one, fed the previous pass's Bloch
    output as nonlinearity_sweep feeds its passes, so the state is fig3's
    iterated row bit for bit; it becomes a DensityMatrix only at return.
    """
    _check_count(n, "iteration count", 1)
    zero = np.zeros(1)
    state = input_state.bloch()[None]
    for _ in range(n):
        state = run_batch(CircuitKind.SWAP_CNOT, zero, zero, zero, state).outputs
    return _ball_state(state[0])


def _check_count(n, what: str, least: int) -> None:
    """ValidationError unless the count n, named `what`, is an integer (a
    numpy one too, not a bool) of at least `least`."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"{what} {n!r} is not an integer")
    if n < least:
        raise ValidationError(f"{what} must be >= {least}")


def swap_cnot_closed_form(h_weight: float) -> tuple[DensityMatrix, DensityMatrix]:
    """Analytic (rho_out, rho_ctc) for the CNOT-then-SWAP loop circuit.

    For an input with |H>-population a (and |V>-population b = 1-a) the
    loop state is diag(a, b) and the output diag(a^2 + b^2, 2ab): the
    nonlinear map studied by Bacon (quant-ph/0309189). Serves as the
    independent oracle for the matrix engine.
    """
    if not 0.0 <= h_weight <= 1.0:
        raise ValidationError(f"population {h_weight} outside [0, 1]")
    a, b = float(h_weight), 1.0 - float(h_weight)
    rho_out = DensityMatrix(np.diag([a * a + b * b, 2 * a * b]).astype(complex))
    rho_ctc = DensityMatrix(np.diag([a, b]).astype(complex))
    return rho_out, rho_ctc


def resource_state_vector(psi0: PureQubit, psi1: PureQubit) -> np.ndarray:
    """Entangled resource (|0>|psi0> + |1>|psi1>)/sqrt(2) for remote preparation.

    Projecting the first (ancilla) qubit onto |0> or |1> leaves the second
    qubit in psi0 or psi1; tracing the ancilla out instead gives the
    mixture the loop adapts to.
    """
    v = np.zeros(4, dtype=complex)
    v[:2] = psi0.vector() / math.sqrt(2)
    v[2:] = psi1.vector() / math.sqrt(2)
    return v
