"""Distinguishability measures: closed forms against projector traces, the
eigensolve and brute-force oracles."""

import math

import numpy as np
import pytest

import ctcsim.measures as measures
from ctcsim.circuits import depolarize
from ctcsim.measures import (
    _RESCAN_LEVELS,
    _RESCANS,
    _SCAN_CHUNK,
    _ZOOM_CHUNK,
    _ZOOM_LEVELS,
    SIGMA_Z_AXIS,
    DistinguishabilityReport,
    MeasurementDirection,
    _eigen_optima,
    _pair_measures,
    _search_grid,
    _sphere_argmax,
    grid_search_mismatch,
    grid_search_mismatches,
    helstrom_success_probability,
    mismatch_probability,
    bloch_measures,
    optimal_mismatch_probability,
    qm_baseline,
)
from ctcsim.qmath import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    PureQubit,
    ValidationError,
    density_from_bloch,
    fidelity,
    trace_distance,
    von_neumann_entropy,
)

H = PureQubit(0.0, 0.0).density()
V = PureQubit(math.pi, 0.0).density()
HALF = DensityMatrix.maximally_mixed()


def random_qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def random_pure(rng):
    return PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


def random_axis(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return MeasurementDirection(v)


def projector_mismatch(a, b, direction):
    """Oracle: <+|a|+><-|b|-> + <-|a|-><+|b|+> as traces against the
    projectors (I +- n.sigma)/2, built on each call."""
    x, y, z = direction.axis
    n_sigma = x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
    p_plus, p_minus = (ID2 + n_sigma) / 2.0, (ID2 - n_sigma) / 2.0
    return (float(np.trace(p_plus @ a.mat).real) * float(np.trace(p_minus @ b.mat).real)
            + float(np.trace(p_minus @ a.mat).real) * float(np.trace(p_plus @ b.mat).real))


def eigen_optimum(a, b):
    """Oracle: the eigensolve's optimized mismatch probability and unit axis of one pair."""
    values, axes = _eigen_optima(a.bloch()[None], b.bloch()[None])
    return float(values[0]), axes[0] / np.linalg.norm(axes[0])


MIXED_ARRAY = np.eye(2) / 2


class TestArgumentTypes:
    """A state or direction of the wrong type is refused with ValidationError
    naming the type, not an AttributeError from inside the formula."""

    @pytest.mark.parametrize("call, expected", [
        (lambda: mismatch_probability(H, H, np.array([0, 0, 1.0])), "measurement direction"),
        (lambda: mismatch_probability(MIXED_ARRAY, H, SIGMA_Z_AXIS), "state"),
        (lambda: optimal_mismatch_probability(H, MIXED_ARRAY), "state"),
        (lambda: trace_distance(MIXED_ARRAY, H), "state"),
        (lambda: helstrom_success_probability(H, MIXED_ARRAY), "state"),
        (lambda: fidelity(MIXED_ARRAY, H), "state"),
        (lambda: von_neumann_entropy(MIXED_ARRAY), "state"),
        (lambda: grid_search_mismatch(H, MIXED_ARRAY), "state"),
        (lambda: depolarize(MIXED_ARRAY, 0.5), "state"),
    ], ids=["mismatch_probability-direction", "mismatch_probability-state",
            "optimal_mismatch_probability", "trace_distance", "helstrom_success_probability",
            "fidelity", "von_neumann_entropy", "grid_search_mismatch", "depolarize"])
    def test_wrong_type_rejected(self, call, expected):
        with pytest.raises(ValidationError) as exc:
            call()
        cls = "MeasurementDirection" if expected == "measurement direction" else "DensityMatrix"
        assert str(exc.value) == f"{expected} must be a {cls}, got ndarray"


class TestMismatchProbability:
    def test_orthogonal_aligned(self):
        assert mismatch_probability(H, V, SIGMA_Z_AXIS) == pytest.approx(1.0, abs=1e-15)

    def test_identical_pure_aligned(self):
        assert mismatch_probability(H, H, SIGMA_Z_AXIS) == pytest.approx(0.0, abs=1e-15)

    def test_against_reference_curve(self):
        """sigma_z mismatch between |H> and psi(phi) is sin^2(phi/2)."""
        for phi in np.linspace(0, 2 * math.pi, 17, endpoint=False):
            val = mismatch_probability(H, PureQubit(phi, 0.0).density(), SIGMA_Z_AXIS)
            assert val == pytest.approx(math.sin(phi / 2) ** 2, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            axis = random_axis(rng)
            assert abs(
                mismatch_probability(a, b, axis) - mismatch_probability(b, a, axis)
            ) <= 1e-14

    def test_bloch_closed_form_agreement(self):
        """The Bloch closed form against the projector traces it replaces."""
        rng = np.random.default_rng(101)
        for _ in range(100):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            axis = random_axis(rng)
            assert mismatch_probability(a, b, axis) == pytest.approx(
                projector_mismatch(a, b, axis), abs=1e-12)

    def test_non_unit_axis_rejected(self):
        """Non-unit, NaN, infinite and wrong-length axes all fail the unit check."""
        for axis in ([0.5, 0.0, 0.5], [math.nan, 0.0, 1.0], [0.0, 0.0, math.nan],
                     [math.inf, 0.0, 0.0], [0.0, -math.inf, 0.0], [0.0, 1.0]):
            with pytest.raises(ValidationError, match="unit 3-vector"):
                MeasurementDirection(np.array(axis))

    def test_axis_is_a_read_only_copy(self):
        given = np.array([0.0, 1.0, 0.0])
        direction = MeasurementDirection(given)
        given[1] = 5.0
        assert tuple(direction.axis) == (0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            direction.axis[0] = 1.0


class TestOptimalMismatch:
    def test_dominates_every_fixed_axis(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            best, _ = optimal_mismatch_probability(a, b)
            assert best >= mismatch_probability(a, b, random_axis(rng)) - 1e-12

    def test_pure_pair_closed_form(self):
        """For pure pairs the optimum is 1 - |<psi0|psi1>|^2 / 2 = (1 + D^2)/2."""
        rng = np.random.default_rng(107)
        for _ in range(1000):
            s0, s1 = random_pure(rng), random_pure(rng)
            val, _ = optimal_mismatch_probability(s0.density(), s1.density())
            ov = abs(np.vdot(s0.vector(), s1.vector())) ** 2
            d = trace_distance(s0.density(), s1.density())
            assert val == pytest.approx(1 - ov / 2, abs=1e-10)
            assert val == pytest.approx(0.5 * (1 + d * d), abs=1e-10)

    def test_working_point_value(self):
        val, _ = optimal_mismatch_probability(
            H, PureQubit(3 * math.pi / 2, 0.0).density()
        )
        assert val == pytest.approx(0.75, abs=1e-14)

    def test_degenerate_pair_returns_z_axis(self):
        val, axis = optimal_mismatch_probability(HALF, HALF)
        assert val == 0.5
        assert tuple(axis.axis) == (0.0, 0.0, 1.0)

    def test_one_vanishing_bloch_vector_returns_z_axis(self):
        val, axis = optimal_mismatch_probability(HALF, random_qubit_state(np.random.default_rng(3)))
        assert val == 0.5
        assert tuple(axis.axis) == (0.0, 0.0, 1.0)

    def test_tiny_but_nonzero_bloch_vectors_are_not_vanishing(self):
        """|r1||r2| ~ 9e-15 is not a vanishing form: the value keeps its
        4.6e-15 excess over 1/2 and agrees with the eigensolve."""
        p = 1 - 9.5e-8
        r1, r2 = (depolarize(PureQubit(phi, 0.0).density(), p) for phi in (0.0, math.pi))
        val, _ = optimal_mismatch_probability(r1, r2)
        assert val > 0.5
        assert abs(val - eigen_optimum(r1, r2)[0]) <= 1e-15

    def test_axis_is_the_eigenvector_on_mixed_pairs(self):
        """For Bloch vectors that are not parallel the optimal axis is unique up
        to sign: the returned one is +- the eigensolve's and attains the value."""
        rng = np.random.default_rng(137)
        for _ in range(500):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            u1, u2 = (r.bloch() / np.linalg.norm(r.bloch()) for r in (a, b))
            assert np.linalg.norm(np.cross(u1, u2)) > 1e-3
            val, axis = optimal_mismatch_probability(a, b)
            eigen_axis = eigen_optimum(a, b)[1]
            assert min(np.abs(axis.axis - eigen_axis).max(),
                       np.abs(axis.axis + eigen_axis).max()) <= 1e-9
            assert abs(projector_mismatch(a, b, axis) - val) <= 1e-12

    def test_identical_mixed_states_cap_at_half(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            rho = random_qubit_state(rng)
            val, _ = optimal_mismatch_probability(rho, rho)
            assert val == pytest.approx(0.5, abs=1e-12)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(113)
        for _ in range(60):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            val, _ = optimal_mismatch_probability(a, b)
            assert abs(val - grid_search_mismatch(a, b)) <= 1e-6


class TestHelstrom:
    def test_orthogonal(self):
        assert helstrom_success_probability(H, V) == pytest.approx(1.0, abs=1e-14)

    def test_identical_is_coin_flip(self):
        assert helstrom_success_probability(H, H) == 0.5

    def test_working_point_value(self):
        val = helstrom_success_probability(H, PureQubit(3 * math.pi / 2, 0.0).density())
        assert val == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-14)
        assert val == pytest.approx(0.8535533905932737, abs=1e-14)

    def test_matches_explicit_measurement(self):
        """Constructed two-outcome measurement from the eigensystem of the difference."""
        rng = np.random.default_rng(127)
        for _ in range(1000):
            a, b = random_qubit_state(rng), random_qubit_state(rng)
            lam, v = np.linalg.eigh(a.mat - b.mat)
            pos = v[:, lam > 0]
            proj = pos @ pos.conj().T if pos.size else np.zeros((2, 2))
            explicit = 0.5 * float(
                np.trace(proj @ a.mat).real + np.trace((np.eye(2) - proj) @ b.mat).real
            )
            assert helstrom_success_probability(a, b) == pytest.approx(explicit, abs=1e-10)


class TestQmBaseline:
    def test_orthogonal_pair(self):
        rep = qm_baseline(math.pi, 0.0)
        assert rep.L_optimal == pytest.approx(1.0, abs=1e-14)
        assert rep.p_succ_optimal == pytest.approx(1.0, abs=1e-14)

    def test_working_point(self):
        rep = qm_baseline(3 * math.pi / 2, 0.0)
        assert rep.L_optimal == pytest.approx(0.75, abs=1e-14)
        assert rep.trace_dist == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_depolarized_working_point(self):
        """At p = sqrt(2)-1 the baseline drops to 2 - sqrt(2) = 0.58578..."""
        rep = qm_baseline(3 * math.pi / 2, math.sqrt(2) - 1)
        expected = 0.5 + (2 - math.sqrt(2)) ** 2 / 4
        assert rep.L_optimal == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5857864376269049, abs=1e-15)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValidationError):
            DistinguishabilityReport(
                L_sigma_z=0.9, L_optimal=0.5, trace_dist=0.5, p_succ_optimal=0.75,
            )

    @staticmethod
    def points(seed):
        """The 9 x 3 (phi, p) grid, the edge cases (phi = 0, pi; p = 1) and a seeded
        200-point draw."""
        rng = np.random.default_rng(seed)
        grid = [(float(phi), p) for phi in np.linspace(0, 2 * math.pi, 9) for p in (0.0, 0.3, 1.0)]
        edges = [(0.0, 0.0), (0.0, 0.6), (math.pi, 0.0), (math.pi, 0.6), (2.0, 1.0)]
        draw = zip(rng.uniform(0.0, 2 * math.pi, 200).tolist(), rng.uniform(0.0, 1.0, 200).tolist())
        return grid + edges + list(draw)

    @staticmethod
    def depolarized_pair(phi, p):
        return depolarize(H, p), depolarize(PureQubit(phi, 0.0).density(), p)

    def test_matches_eigen_oracles_on_depolarized_pairs(self):
        """The closed forms against the projector traces, the eigensolve and the
        eigen-based trace distance on the depolarized DensityMatrix pair."""
        for phi, p in self.points(20261018):
            qm = qm_baseline(phi, p)
            rho0, rho1 = self.depolarized_pair(phi, p)
            d = trace_distance(rho0, rho1)
            assert abs(qm.L_sigma_z - projector_mismatch(rho0, rho1, SIGMA_Z_AXIS)) <= 1e-12
            assert abs(qm.L_optimal - eigen_optimum(rho0, rho1)[0]) <= 1e-12
            assert abs(qm.trace_dist - d) <= 1e-12
            assert abs(qm.p_succ_optimal - helstrom_success_probability(rho0, rho1)) <= 1e-12

    def test_invalid_inputs_rejected(self):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValidationError, match="depolarization strength"):
                qm_baseline(1.0, p)
        with pytest.raises(ValidationError, match="finite"):
            qm_baseline(math.inf, 0.2)


class TestBlochClosedForms:
    """The batched closed forms against the projector traces and the eigensolve."""

    def test_match_eigen_measures_on_random_pairs(self):
        rng = np.random.default_rng(127)
        pairs = []
        for k in range(1000):
            # Mixed pairs, plus pure pairs and identical pairs for the edges.
            a = random_qubit_state(rng) if k % 3 else random_pure(rng).density()
            b = a if k % 50 == 0 else random_qubit_state(rng)
            pairs.append((a, b))
        r1 = np.array([a.bloch() for a, _ in pairs])
        r2 = np.array([b.bloch() for _, b in pairs])
        l_z, l_opt, d, p_succ = bloch_measures(r1, r2)
        for i, (a, b) in enumerate(pairs):
            assert abs(l_z[i] - projector_mismatch(a, b, SIGMA_Z_AXIS)) <= 1e-12
            assert abs(l_opt[i] - eigen_optimum(a, b)[0]) <= 1e-12
            assert abs(d[i] - trace_distance(a, b)) <= 1e-12
            assert abs(p_succ[i] - helstrom_success_probability(a, b)) <= 1e-12


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def array_axis(r1, r2):
    """Oracle: optimal_mismatch_probability's axis computed on (3,) arrays, the
    numpy form of its branches, before the canonical sign."""
    n1, n2 = math.hypot(*r1), math.hypot(*r2)
    if min(n1, n2) < 1e-12:
        return np.array([0.0, 0.0, 1.0])
    axis = r1 / n1 - r2 / n2
    if math.hypot(*axis) <= 1e-9:
        u = r1 / n1 + r2 / n2
        axis = np.array([-u[1], u[0], 0.0])
        if math.hypot(*axis) <= 1e-9 * math.hypot(*u):
            axis = np.array([1.0, 0.0, 0.0])
    return axis / np.linalg.norm(axis)


class TestPairForms:
    """The one-pair forms on DensityMatrix floats against bloch_measures, bit for bit.

    Their equality rests on np.add.reduce summing a 3-vector left to right,
    as Python's a + b + c does, for both (3,) and (N, 3) shapes.
    """

    @staticmethod
    def pairs(seed):
        """Seeded pairs covering mixed and pure states, the zero Bloch vector,
        Bloch norms just below and above 1e-12, parallel and antiparallel
        pairs, pairs along and near z, and nearly parallel pairs just outside
        the |u1 - u2| <= 1e-9 branch."""
        rng = np.random.default_rng(seed)
        out = []
        for k in range(300):
            a = random_qubit_state(rng) if k % 2 else random_pure(rng).density()
            r = a.bloch()
            out.append((a, random_qubit_state(rng)))
            out.append((a, random_pure(rng).density()))
            out.append((a, HALF))
            out.append((a, a))
            for scale in (rng.uniform(0.05, 1.0), -rng.uniform(0.05, 1.0)):
                out.append((a, density_from_bloch(scale * r)))
            u = r / np.linalg.norm(r)
            for norm in (0.5e-12, 0.999e-12, 1.001e-12, 2e-12):
                out.append((density_from_bloch(norm * u), a))
            # Along z, and within 1e-10 of it: z x u is below 1e-9.
            z = np.array([rng.uniform(-1e-10, 1e-10), 0.0, rng.choice([-1.0, 1.0])])
            out.append((density_from_bloch(rng.uniform(0.05, 1.0) * z),
                        density_from_bloch(rng.uniform(0.05, 1.0) * z)))
            # Nearly parallel, 1e-9 to 1e-8 apart.
            tilt = r + rng.uniform(1e-9, 1e-8) * np.cross(u, rng.normal(size=3))
            out.append((a, density_from_bloch(0.5 * tilt / np.linalg.norm(tilt))))
        return out

    @pytest.mark.parametrize("seed", [1, 20261020])
    def test_match_bloch_measures_bit_for_bit(self, seed):
        pairs = self.pairs(seed)
        r1 = np.array([a.bloch() for a, _ in pairs])
        r2 = np.array([b.bloch() for _, b in pairs])
        stacked = np.column_stack(bloch_measures(r1, r2))
        for i, (a, b) in enumerate(pairs):
            expected = bits(bloch_measures(r1[i], r2[i]))
            np.testing.assert_array_equal(bits(stacked[i]), expected)
            np.testing.assert_array_equal(bits(_pair_measures(a._xyz(), b._xyz())), expected)
            value, direction = optimal_mismatch_probability(a, b)
            forms = (value, trace_distance(a, b), helstrom_success_probability(a, b))
            np.testing.assert_array_equal(bits(forms), expected[1:])
            axis = array_axis(r1[i], r2[i])
            assert np.array_equal(bits(direction.axis), bits(axis)) or np.array_equal(
                bits(direction.axis), bits(-axis))

    def test_pairs_reach_every_axis_branch(self):
        """The seeded pairs take each branch of optimal_mismatch_probability's axis."""
        taken = set()
        for a, b in self.pairs(1):
            r1, r2 = a.bloch(), b.bloch()
            n1, n2 = math.hypot(*r1), math.hypot(*r2)
            if min(n1, n2) < 1e-12:
                taken.add("below 1e-12")
                continue
            if min(n1, n2) < 1e-11:
                taken.add("just above 1e-12")
            gap = math.hypot(*(r1 / n1 - r2 / n2))
            if gap > 1e-9:
                taken.add("nearly parallel" if gap < 1e-7 else "apart")
            else:
                u = r1 / n1 + r2 / n2
                taken.add("x" if math.hypot(-u[1], u[0]) <= 1e-9 * math.hypot(*u) else "z cross u")
        assert taken == {"below 1e-12", "just above 1e-12", "apart", "nearly parallel",
                         "z cross u", "x"}

    def test_qm_baseline_matches_bloch_measures_bit_for_bit(self):
        rng = np.random.default_rng(20261021)
        points = [(phi, p) for phi in (-1e-20, 0.0, math.pi, 2 * math.pi) for p in (0.0, 1.0)]
        points += list(zip(rng.uniform(-7.0, 7.0, 2000).tolist(), rng.uniform(0.0, 1.0, 2000).tolist()))
        for phi, p in points:
            qm = qm_baseline(phi, p)
            shrink = 1.0 - p
            expected = bloch_measures(np.array([0.0, 0.0, shrink]), shrink * PureQubit(phi).bloch())
            np.testing.assert_array_equal(
                bits((qm.L_sigma_z, qm.L_optimal, qm.trace_dist, qm.p_succ_optimal)),
                bits(expected))


def scalar_grid_search(r1, r2):
    """Oracle: the one-pair-at-a-time grid search on Bloch vectors (3,) that
    grid_search_mismatches stacks, step for step, on the same search grid. At
    the _RESCAN_LEVELS coarsest levels a mesh is scanned again around its best
    axis while that beats the centre more than 7 of the 10 steps out, at most
    _RESCANS times."""
    axes, zoom = _search_grid()

    def value(ax):
        return (1.0 - (ax @ r1) * (ax @ r2)) / 2.0

    def cross(a, b):
        (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])

    best_ax = axes[int(np.argmax(value(axes)))]
    for level, (du, dv) in enumerate(zoom):
        for _ in range(1 + (_RESCANS if level < _RESCAN_LEVELS else 0)):
            ref = np.array([1.0, 0.0, 0.0]) if abs(best_ax[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
            u = cross(best_ax, ref)
            u /= np.linalg.norm(u)
            v = cross(best_ax, u)
            cand = best_ax[None, :] + du[:, None] * u[None, :] + dv[:, None] * v[None, :]
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            values = value(cand)
            k = int(np.argmax(values))
            best_ax = cand[k]
            row, col = divmod(k, 21)
            if max(abs(row - 10), abs(col - 10)) <= 7 or values[k] <= values[220]:
                break
    return float(value(best_ax[None, :])[0])


def ginibre_bloch_pairs(rng, n):
    """n pairs of Bloch vectors (n, 3) of G G^dag / Tr(G G^dag), G complex
    Gaussian, drawn as the acceptance suite once drew its mixed pairs."""
    x = rng.normal(size=(n, 2, 2, 2, 2))
    g = x[:, :, 0] + 1j * x[:, :, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    m = m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    m = (m + m.conj().swapaxes(-1, -2)) / 2.0
    r = np.stack([2.0 * m[..., 0, 1].real, -2.0 * m[..., 0, 1].imag,
                  m[..., 0, 0].real - m[..., 1, 1].real], axis=-1)
    return r[:, 0], r[:, 1]


def near_parallel_pairs(rng, n):
    """n pairs (n, 3) of random lengths whose directions are 0.01 to 0.1 rad
    apart: each pair's optimum lies on a narrow crest."""
    r1 = random_bloch(rng, n)
    u = r1 / np.linalg.norm(r1, axis=1, keepdims=True)
    w = np.cross(u, rng.normal(size=(n, 3)))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    angle = rng.uniform(0.01, 0.1, size=(n, 1))
    return r1, (np.cos(angle) * u + np.sin(angle) * w) * rng.uniform(0.3, 1.0, size=(n, 1))


def random_bloch(rng, n):
    """n random Bloch vectors (n, 3), pure and mixed, uniform in direction."""
    r = rng.normal(size=(n, 3))
    return r / np.linalg.norm(r, axis=1, keepdims=True) * rng.choice([1.0, 0.7, 0.2], size=(n, 1))


class TestGridSearchBatch:
    """The stacked grid search against the one-pair-at-a-time search, bit for bit."""

    def assert_matches_scalar(self, r1, r2):
        got = grid_search_mismatches(r1, r2)
        assert got.shape == (len(r1),)
        np.testing.assert_array_equal(got, [scalar_grid_search(a, b) for a, b in zip(r1, r2)])

    @pytest.mark.parametrize("n", [1, _ZOOM_CHUNK, _ZOOM_CHUNK + 1, 3 * _ZOOM_CHUNK + 7])
    def test_seeded_pairs(self, n):
        rng = np.random.default_rng(211 + n)
        self.assert_matches_scalar(random_bloch(rng, n), random_bloch(rng, n))

    def test_zero_and_parallel_pairs(self):
        rng = np.random.default_rng(223)
        r = random_bloch(rng, 12)
        zero = np.zeros_like(r)
        r1 = np.vstack([zero, r, zero, r, r])
        r2 = np.vstack([r, zero, zero, r, -r])
        self.assert_matches_scalar(r1, r2)
        # Antiparallel pairs are told apart by the axis along them.
        np.testing.assert_allclose(grid_search_mismatches(r[:1], -r[:1]),
                                   (1.0 + r[0] @ r[0]) / 2.0, rtol=0, atol=1e-6)

    def test_axes_near_the_frame_switch(self):
        """Optimal axes +-n with |n_x| at and around 0.9, where the zoom frame's
        reference vector changes from x to y."""
        xs = 0.9 + np.array([-1e-3, -1e-6, 0.0, 1e-6, 1e-3])
        rows = []
        for x in np.concatenate([xs, -xs]):
            for angle in (0.0, 1.0, 2.5):
                rest = math.sqrt(1.0 - x * x)
                rows.append([x, rest * math.cos(angle), rest * math.sin(angle)])
        n = np.array(rows)
        self.assert_matches_scalar(n, -n)
        self.assert_matches_scalar(0.8 * n, -0.5 * n)

    def test_crest_pairs_rescanned_in_chunks(self, monkeypatch):
        """Near-parallel pairs among ordinary ones: more than a chunk of them is
        scanned again, every row still equals the one-pair search, and every
        value is within C10's 1e-6 of the eigensolve."""
        scanned = []
        real = measures._zoom

        def recorded(ax, *args):
            scanned.append(len(ax))
            return real(ax, *args)

        monkeypatch.setattr(measures, "_zoom", recorded)
        rng = np.random.default_rng(239)
        crest = near_parallel_pairs(rng, 3 * _ZOOM_CHUNK)
        plain = random_bloch(rng, 20), random_bloch(rng, 20)
        r1, r2 = (np.vstack([c[:40], p, c[40:]]) for c, p in zip(crest, plain))
        self.assert_matches_scalar(r1, r2)
        assert sum(scanned) - _ZOOM_LEVELS * len(r1) > _ZOOM_CHUNK
        np.testing.assert_allclose(grid_search_mismatches(r1, r2), _eigen_optima(r1, r2)[0],
                                   rtol=0, atol=1e-6)

    def test_batch_of_one_is_the_density_matrix_form(self):
        rng = np.random.default_rng(227)
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        assert grid_search_mismatch(a, b) == scalar_grid_search(a.bloch(), b.bloch())

    def test_empty_batch(self):
        assert grid_search_mismatches(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("r1, r2", [
        (np.zeros((2, 3)), np.zeros((3, 3))),
        (np.zeros(3), np.zeros(3)),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.zeros((2, 3, 1)), np.zeros((2, 3, 1))),
        (np.array([[0.0, math.nan, 0.0]]), np.zeros((1, 3))),
        (np.zeros((1, 3)), np.array([[math.inf, 0.0, 0.0]])),
    ])
    def test_invalid_stacks_rejected(self, r1, r2):
        with pytest.raises(ValidationError):
            grid_search_mismatches(r1, r2)


class TestCrestPairs:
    """Pairs whose sphere axis lies far along a narrow crest from the optimum,
    which four plain zoom levels missed by more than C10's 1e-6."""

    @pytest.mark.parametrize("seed, pair, missed", [(19, 31, 3.03e-6), (27, 58, 1.23e-6)])
    def test_ginibre_pairs_reach_the_optimum(self, seed, pair, missed):
        r1, r2 = ginibre_bloch_pairs(np.random.default_rng(seed), 200)
        r1, r2 = r1[pair:pair + 1], r2[pair:pair + 1]
        deviation = abs(grid_search_mismatches(r1, r2)[0] - _eigen_optima(r1, r2)[0][0])
        assert deviation <= 1e-8 < missed


class TestSphereArgmax:
    """The sphere scan's feature product picks the axis the per-pair scan
    argmax((1 - (n.r1)(n.r2))/2) picks, so the zoom starts where it did."""

    @staticmethod
    def assert_per_pair_index(r1, r2):
        axes, _ = _search_grid()
        want = [int(np.argmax((1.0 - (axes @ a) * (axes @ b)) / 2.0)) for a, b in zip(r1, r2)]
        np.testing.assert_array_equal(_sphere_argmax(axes, r1, r2), want)

    def test_seeded_pairs(self):
        rng = np.random.default_rng(229)
        n = 20_000 + _SCAN_CHUNK // 2
        self.assert_per_pair_index(random_bloch(rng, n), random_bloch(rng, n))

    def test_zero_parallel_and_antiparallel_pairs(self):
        rng = np.random.default_rng(233)
        r = np.vstack([random_bloch(rng, 40), np.eye(3), -np.eye(3)])
        zero = np.zeros_like(r)
        self.assert_per_pair_index(np.vstack([zero, r, zero, r, r, 0.5 * r]),
                                   np.vstack([r, zero, zero, r, -r, -0.2 * r]))

    def test_empty_batch(self):
        axes, _ = _search_grid()
        assert _sphere_argmax(axes, np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)
