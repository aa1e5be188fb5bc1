"""Sweeps, surfaces, and thresholds: structure, closed forms, determinism."""

import math

import numpy as np
import pytest

from ctcsim.circuits import CircuitKind
from ctcsim.deutsch import run_batch
from ctcsim.experiments import (
    _SCAN_POINTS,
    SWEEP_TABLES,
    WORKING_POINT_PHI,
    WORKING_POINT_THETA,
    decoherence_surface,
    discrimination_sweep,
    discrimination_sweeps,
    find_threshold,
    find_thresholds,
    nonlinearity_sweep,
    reproduce,
    validate_records,
)
from ctcsim.qmath import PureQubit, ValidationError


class TestNonlinearitySweep:
    def test_default_grid_covers_fourteen_states(self):
        recs = [r for r in nonlinearity_sweep() if r.n_iterations == 1]
        assert len(recs) == 14
        assert len({(r.phi, r.phase) for r in recs}) == 14

    def test_closed_form_curves(self):
        """Loop curve sin^2(phi)/2, baseline sin^2(phi/2), both to 1e-10."""
        for k in range(17):
            phi = k * math.pi / 16
            r = nonlinearity_sweep([phi], [0.0], iterations=[])[0]
            assert abs(r.L_ctc_sigma_z - 0.5 * math.sin(phi) ** 2) <= 1e-10
            assert abs(r.L_qm - math.sin(phi / 2) ** 2) <= 1e-10
            assert abs(r.D_ctc - 0.5 * math.sin(phi) ** 2) <= 1e-10
            assert abs(r.D_qm - math.sin(phi / 2)) <= 1e-10

    def test_advantage_region_boundary(self):
        quarter = nonlinearity_sweep([math.pi / 4], [0.0], iterations=[])[0]
        assert quarter.L_ctc_sigma_z == pytest.approx(0.25, abs=1e-12)
        assert quarter.L_qm == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-12)
        assert quarter.L_ctc_sigma_z > quarter.L_qm
        assert quarter.D_ctc < quarter.D_qm  # the metric misses the effect
        boundary = nonlinearity_sweep([math.pi / 2], [0.0], iterations=[])[0]
        assert abs(boundary.L_ctc_sigma_z - boundary.L_qm) <= 1e-10

    def test_iterated_rows_bracket_the_baseline(self):
        recs = nonlinearity_sweep([math.pi / 4], [0.0], iterations=[2, 3])
        by_n = {r.n_iterations: r for r in recs}
        assert by_n[2].D_ctc == pytest.approx(0.375, abs=1e-10)
        assert by_n[3].D_ctc == pytest.approx(0.46875, abs=1e-10)
        assert by_n[2].D_ctc < by_n[2].D_qm < by_n[3].D_ctc

    def test_empty_grid_rejected(self):
        from ctcsim.qmath import ValidationError

        with pytest.raises(ValidationError):
            nonlinearity_sweep([], [0.0])

    @pytest.mark.parametrize("grids", [(np.array([]), [0.0]), ([0.5], np.array([]))])
    def test_empty_numpy_grid_rejected(self, grids):
        with pytest.raises(ValidationError, match="sweep grids must be non-empty"):
            nonlinearity_sweep(*grids, [])

    def test_numpy_grids_match_lists(self):
        phi, phase = [0.0, 0.1, 0.2, math.pi], [0.0, 1.0]
        assert nonlinearity_sweep(np.array(phi), np.array(phase), [2]) == nonlinearity_sweep(
            phi, phase, [2])

    @pytest.mark.parametrize("iterations", [[2.5], [2, 3.0], [np.float64(2.0)], [None], [True],
                                            [2, False]])
    def test_non_integer_iteration_count_rejected(self, iterations):
        with pytest.raises(ValidationError, match="is not an integer"):
            nonlinearity_sweep(iterations=iterations)

    def test_numpy_integer_iteration_counts_accepted(self):
        assert nonlinearity_sweep(iterations=np.array([2, 3])) == nonlinearity_sweep(
            iterations=[2, 3])

    @pytest.mark.parametrize("grids", [([math.nan], [0.0]), ([1.0], [math.inf]),
                                       ([0.5, -math.inf], [0.0]), ([0.5], [0.0, math.nan])])
    def test_non_finite_grid_rejected_before_numpy(self, grids, monkeypatch):
        import ctcsim.experiments as experiments

        monkeypatch.setattr(experiments, "run_batch", lambda *args: pytest.fail("solved"))
        with pytest.raises(ValidationError) as exc:
            nonlinearity_sweep(*grids, [])
        assert str(exc.value) == "sweep grids must be finite"


class TestDiscriminationSweep:
    def test_local_optimal_gate_is_perfect_everywhere(self):
        recs = discrimination_sweep("local", "optimal-gate", 32)
        assert len(recs) == 32
        for r in recs:
            if r.phi == 0.0:
                assert r.fixed_set_dimension > 1  # flagged, not skipped
                continue
            assert abs(r.L_ctc_sigma_z - 1.0) <= 1e-9
            assert r.fixed_point_residual <= 1e-10
            assert r.theta_xz == pytest.approx((r.phi - math.pi) / 2)

    def test_nonlocal_never_beats_coin_flip(self):
        for variant, n in (("optimal-gate", 16), ("fixed-state", 16), ("fixed-gate", 16)):
            for r in discrimination_sweep("nonlocal", variant, n):
                assert r.L_ctc_sigma_z <= 0.5 + 1e-9

    def test_fixed_state_cut_closed_form(self):
        """Local fixed-state cut: L = 1/(2 - sin(2 theta)), peaking at theta = pi/4."""
        recs = discrimination_sweep("local", "fixed-state", 16)
        for r in recs:
            expected = 1.0 / (2.0 - math.sin(2 * r.theta_xz))
            assert r.L_ctc_sigma_z == pytest.approx(expected, abs=1e-10)
            assert r.phi == WORKING_POINT_PHI
            assert r.L_qm == pytest.approx(0.75, abs=1e-12)

    def test_fixed_gate_cut_closed_form(self):
        """Local fixed-gate cut: output z is (cos+sin)/(2-cos+sin) of phi."""
        recs = discrimination_sweep("local", "fixed-gate", 16)
        for r in recs:
            s_z = (math.cos(r.phi) + math.sin(r.phi)) / (2 - math.cos(r.phi) + math.sin(r.phi))
            assert r.L_ctc_sigma_z == pytest.approx((1 - s_z) / 2, abs=1e-10)
            assert r.theta_xz == WORKING_POINT_THETA

    def test_nan_diagnostics_fail_validation(self):
        rec = discrimination_sweep("local", "fixed-gate", 4)[1]
        for name in ("fixed_point_residual", "consistency_fidelity", "L_ctc_sigma_z"):
            assert validate_records([rec._replace(**{name: math.nan})])

    def test_record_invariants(self):
        recs = discrimination_sweep("local", "fixed-gate", 8)
        assert validate_records(recs) == []
        for r in recs:
            assert r.L_ctc_optimal >= r.L_ctc_sigma_z - 1e-12

    def test_grid_size_validated(self):
        from ctcsim.qmath import ValidationError

        with pytest.raises(ValidationError):
            discrimination_sweep("local", "optimal-gate", 1)
        with pytest.raises(ValidationError):
            discrimination_sweep("local", "sideways", 8)

    @pytest.mark.parametrize("grid, message", [
        (2.5, "grid size 2.5 is not an integer"),
        (np.float64(8.0), "grid size np.float64(8.0) is not an integer"),
        ("8", "grid size '8' is not an integer"),
        (1, "grid size must be >= 2"),
        (np.int64(0), "grid size must be >= 2"),
    ])
    def test_grid_size_is_an_integer_count(self, grid, message):
        for call in (lambda: discrimination_sweep("local", "fixed-gate", grid),
                     lambda: reproduce("fig6", grid), lambda: reproduce("fig5a", grid)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize("grid", [5, 2, 1, np.int64(7)])
    def test_fig3_refuses_a_grid(self, grid):
        """fig3's grid is fixed: reproduce refuses one rather than ignore it."""
        with pytest.raises(ValidationError) as exc:
            reproduce("fig3", grid)
        assert str(exc.value) == "reproduce fig3 has a fixed grid; drop --grid"

    def test_numpy_integer_grid_sizes_accepted(self):
        assert (discrimination_sweep("local", "fixed-gate", np.int64(3))
                == discrimination_sweep("local", "fixed-gate", 3))
        assert reproduce("fig6", np.int32(3)) == reproduce("fig6", 3)
        assert len(reproduce("fig6", 3)) == 9


class TestDecoherenceSurface:
    def test_corners(self):
        recs = decoherence_surface([0.0, 1.0], [0.0, 1.0])
        by_corner = {(r.p, r.epsilon): r for r in recs}
        assert by_corner[(0.0, 0.0)].L_ctc_sigma_z == pytest.approx(1.0, abs=1e-9)
        assert by_corner[(0.0, 1.0)].L_ctc_sigma_z == pytest.approx(0.5, abs=1e-9)
        assert by_corner[(1.0, 0.0)].L_ctc_sigma_z == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_on_coarse_grid(self):
        """L = (1 + q^2 (1-e^2)/(2-q(1-e))^2)/2 with q = 1-p at the working point."""
        for p in (0.0, 0.25, 0.6):
            for e in (0.0, 0.3, 0.8):
                r = decoherence_surface([p], [e])[0]
                q, f = 1 - p, 1 - e
                expected = 0.5 * (1 + q * q * (1 - e * e) / (2 - q * f) ** 2)
                assert r.L_ctc_sigma_z == pytest.approx(expected, abs=1e-10)

    def test_monotone_along_axes(self):
        grid = np.linspace(0, 1, 11).tolist()
        vs_p = [r.L_ctc_sigma_z for r in decoherence_surface(grid, [0.0])]
        vs_e = [r.L_ctc_sigma_z for r in decoherence_surface([0.0], grid)]
        assert all(a >= b - 1e-12 for a, b in zip(vs_p, vs_p[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(vs_e, vs_e[1:]))

    @pytest.mark.parametrize("grids", [([], [0.0, 0.5]), ([0.5], []), ([], [])])
    def test_empty_grid_rejected(self, grids):
        with pytest.raises(ValidationError, match="noise grids must be non-empty"):
            decoherence_surface(*grids)

    def test_no_sweep_tables_give_no_records(self):
        assert discrimination_sweeps([]) == []

    def test_grid_bounds_validated(self):
        from ctcsim.qmath import ValidationError

        with pytest.raises(ValidationError):
            decoherence_surface([0.0, 1.5], [0.0])


class TestThresholds:
    def test_depolarization_threshold(self):
        thr = find_threshold("p")
        assert thr.crossing == pytest.approx(math.sqrt(2) - 1, abs=1e-6)
        assert thr.achieved_tolerance <= 1e-9
        assert thr.bracket[0] < thr.crossing < thr.bracket[1]

    def test_gate_noise_threshold(self):
        thr = find_threshold("epsilon")
        assert thr.crossing == pytest.approx(1 / 3, abs=1e-6)

    def test_crossings_are_the_exact_roots(self):
        """p* = sqrt(2) - 1 (eps = 0) and eps* = 1/3 (p = 0), the only roots in
        (0, 1) of the advantage gap that sympy derives from the swap-cu closed
        form (tests/test_deutsch.py::swap_cu_closed_form) at the working point,
        local preparation; find_thresholds lands within 2e-12 of both."""
        sp = pytest.importorskip("sympy")
        phi, theta = 3 * sp.pi / 2, sp.pi / 4
        assert (WORKING_POINT_PHI, WORKING_POINT_THETA) == (float(phi), float(theta))
        axis = sp.Matrix([sp.sin(theta), 0, sp.cos(theta)])

        def output_z(r, eps):
            # The output's z is the loop's: loop = r + (1 - eps)(1 - z)/2 d.
            d = 2 * axis.dot(r) * axis - 2 * r
            c = (1 - eps) * d[2] / 2
            z = (r[2] + c) / (1 + c)
            return r[2] + (1 - eps) * (1 - z) / 2 * d[2]

        def gap(p, eps):
            """L_ctc(sigma_z) minus the QM optimum on the depolarized pair."""
            r0 = (1 - p) * sp.Matrix([0, 0, 1])
            r1 = (1 - p) * sp.Matrix([sp.sin(phi), 0, sp.cos(phi)])
            lam = (r0.dot(r1) - r0.norm() * r1.norm()) / 2
            return (1 - output_z(r0, eps) * output_z(r1, eps)) / 2 - (1 - lam) / 2

        x = sp.Symbol("x")
        exact = {}
        for parameter, g in (("p", gap(x, 0)), ("epsilon", gap(0, x))):
            roots = sp.solveset(sp.numer(sp.together(sp.simplify(g))), x, sp.Interval.open(0, 1))
            assert isinstance(roots, sp.FiniteSet) and len(roots) == 1, roots
            exact[parameter] = roots.args[0]
        assert sp.simplify(exact["p"] - (sp.sqrt(2) - 1)) == 0
        assert exact["epsilon"] == sp.Rational(1, 3)
        for thr in find_thresholds(("p", "epsilon")):
            assert abs(thr.crossing - float(exact[thr.parameter])) <= 2e-12, thr

    def test_advantage_at_zero_noise(self):
        from ctcsim.experiments import _advantage_gaps

        assert _advantage_gaps(["p", "epsilon"], [0.0, 0.0]).tolist() == pytest.approx(
            [0.25, 0.25], abs=1e-9)

    def test_unknown_parameter_rejected(self):
        from ctcsim.qmath import ValidationError

        with pytest.raises(ValidationError):
            find_threshold("q")

    @pytest.mark.parametrize("parameter", ["p", "epsilon"])
    def test_speculative_bisection_matches_sequential(self, parameter):
        """Every bracket, the crossing and the tolerance are the step-by-step ones."""
        assert find_threshold(parameter) == sequential_threshold(parameter)

    @pytest.mark.parametrize("parameter", ["p", "epsilon"])
    def test_bisection_is_batched_and_builds_no_records(self, parameter, monkeypatch):
        import ctcsim.experiments as experiments

        batches, records = [], []
        real = experiments.run_batch

        def counted(*args, **kwargs):
            batches.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_batch", counted)
        monkeypatch.setattr(experiments, "SweepRecord", lambda *row: records.append(row))
        find_threshold(parameter)
        assert len(batches) == 4  # the scan, then three bisection batches
        assert records == []

    @pytest.mark.parametrize("gap", [
        lambda x: np.where(x < 0.4137, 1.0, -1.0),
        lambda x: np.where(x < 0.3012, 1.0, -1e-9),
        lambda x: np.where(x < 0.6031, 1.0, np.where(x < 0.6031 + 1e-7, np.nan, -1.0)),
    ], ids=["step", "cliff", "nan-band"])
    def test_misleading_gaps_keep_the_bisection(self, gap, monkeypatch):
        """Gaps that defeat the regula-falsi path (a +-1 step aims it at every
        midpoint, a cliff at hi, and a NaN band after the root makes it NaN) give
        the step-by-step result bit for bit, in no more batches than the tree
        alone takes."""
        import ctcsim.experiments as experiments

        calls = []

        def stub(parameters, xs):
            calls.append(len(xs))
            return gap(np.asarray(xs, dtype=float))

        monkeypatch.setattr(experiments, "_advantage_gaps", stub)
        levels = math.ceil(math.log2(1 / (_SCAN_POINTS - 1) / experiments._BISECT_TOL))
        assert levels == 35
        for parameter in ("p", "epsilon"):
            calls.clear()
            result = find_threshold(parameter)
            assert len(calls) <= 1 + math.ceil(levels / experiments._SPEC_LEVELS)
            assert threshold_bits(result) == threshold_bits(sequential_threshold(parameter))


class TestBatchedTargets:
    """Each sweep table and the threshold pair is one batch, equal to its batches of one."""

    @pytest.mark.parametrize("grid", [None, 2, 7])
    @pytest.mark.parametrize("target", ["fig5a", "fig5b", "fig5c", "s1", "s2"])
    def test_sweep_table_equals_its_sweeps(self, target, grid):
        tables = SWEEP_TABLES[target]
        one_at_a_time = [r._replace(experiment_id=eid) for eid, variant, mode in tables
                         for r in discrimination_sweep(mode, variant, grid)]
        assert bitwise(discrimination_sweeps(tables, grid)) == bitwise(one_at_a_time)

    def test_record_diagnostics_are_the_worst_over_its_loops(self):
        """A local record's residual, fidelity and dimension are the worst over
        its |H> and psi1 loops, a non-local record's those of its mixture loop."""
        for r in discrimination_sweeps(SWEEP_TABLES["s1"], 7):
            psi0, psi1 = np.array([0.0, 0.0, 1.0]), np.array(PureQubit(r.phi, 0.0).bloch())
            rows = [psi0, psi1] if r.prep_mode == "local_pure" else [(psi0 + psi1) / 2.0]
            zero = np.zeros(len(rows))
            loops = run_batch(CircuitKind.SWAP_THEN_CU, zero + r.theta_xz, zero, zero,
                              np.array(rows))
            assert r.fixed_point_residual == loops.residual.max()
            assert r.consistency_fidelity == loops.consistency_fidelity.min()
            assert r.fixed_set_dimension == loops.fixed_set_dimension.max()

    @pytest.mark.parametrize("name", ["p", "epsilon"])
    def test_bare_string_rejected(self, name, monkeypatch):
        """A str is a sequence of letters: "p" used to pass as one axis and
        "epsilon" to fail on its first letter 'e'."""
        import ctcsim.experiments as experiments

        def no_solve(*args):
            raise AssertionError("solved before validating")

        monkeypatch.setattr(experiments, "run_batch", no_solve)
        with pytest.raises(ValidationError) as exc:
            find_thresholds(name)
        assert str(exc.value) == f"threshold parameters must be a sequence, not the str {name!r}"

    @pytest.mark.parametrize("make", [np.array, iter], ids=["array", "iterator"])
    def test_any_iterable_of_names(self, make):
        """An array or iterator of names acts as its tuple: an array used to fail
        on its truth value, an empty one too, and an iterator on len(). An array's
        np.str_ names become plain str, in the results and in the error."""
        results = find_thresholds(make(["p", "epsilon"]))
        assert results == find_thresholds(("p", "epsilon"))
        assert [type(r.parameter) for r in results] == [str, str]
        assert find_thresholds(make([])) == []
        with pytest.raises(ValidationError) as exc:
            find_thresholds(make(["p", "q"]))
        assert str(exc.value) == "unknown threshold parameter 'q'"

    @pytest.mark.parametrize("name", [1, None, b"p"], ids=["int", "None", "bytes"])
    def test_non_string_name_reported_by_its_repr(self, name):
        with pytest.raises(ValidationError) as exc:
            find_thresholds(["p", name])
        assert str(exc.value) == f"unknown threshold parameter {name!r}"

    def test_thresholds_equal_their_batches_of_one(self):
        both = find_thresholds(("p", "epsilon"))
        assert both == [find_threshold("p"), find_threshold("epsilon")]

    @pytest.mark.parametrize("target", ["fig5a", "fig5b", "fig5c", "s1", "s2", "thresholds"])
    def test_one_batch_per_sweep_target(self, target, tmp_path, monkeypatch):
        import ctcsim.experiments as experiments
        from ctcsim.cli import main

        batches = []
        real = experiments.run_batch

        def counted(*args):
            batches.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(experiments, "run_batch", counted)
        assert main(["reproduce", target, "--out", str(tmp_path / "t.csv")]) == 0
        if target == "thresholds":
            assert batches[0] == 2 * 2 * _SCAN_POINTS  # both scans, two loops a point
            assert len(batches) <= 9
        else:
            assert len(batches) == 1

    @pytest.mark.parametrize("call", [
        lambda: discrimination_sweeps([("a", "fixed-gate", "local"), ("b", "sideways", "local")]),
        lambda: discrimination_sweeps([("a", "fixed-gate", "local"), ("b", "fixed-gate", "mixed")]),
        lambda: discrimination_sweeps([("a", "fixed-gate", "local")], 1),
        lambda: discrimination_sweep("both", "optimal-gate"),
        lambda: find_thresholds(("p", "q")),
    ])
    def test_bad_input_rejected_before_any_solve(self, call, monkeypatch):
        import ctcsim.experiments as experiments

        def no_solve(*args):
            raise AssertionError("solved before validating")

        monkeypatch.setattr(experiments, "run_batch", no_solve)
        with pytest.raises(ValidationError):
            call()


def bitwise(records):
    """Records with every float as its hex string, so == compares bits (and -0.0)."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in r) for r in records]


def threshold_bits(result):
    """A ThresholdResult with every float as its hex string, so == compares bits."""
    return (result.parameter, result.crossing.hex(), [x.hex() for x in result.bracket],
            result.achieved_tolerance.hex())


def sequential_threshold(parameter):
    """Oracle: the one-midpoint-at-a-time bisection, on batch-of-one gaps."""
    from ctcsim.experiments import (
        _BISECT_TOL,
        _SCAN_POINTS,
        ThresholdResult,
        _advantage_gaps,
    )

    def gaps(xs):
        return _advantage_gaps([parameter] * len(xs), xs)

    xs = np.linspace(0.0, 1.0, _SCAN_POINTS)
    vals = gaps(xs)
    i = next(i for i in range(len(xs) - 1) if vals[i] > 0.0 >= vals[i + 1])
    bracket = (float(xs[i]), float(xs[i + 1]))
    lo, hi = bracket
    flo = gaps([lo])[0]
    while hi - lo > _BISECT_TOL:
        mid = (lo + hi) / 2
        fm = gaps([mid])[0]
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return ThresholdResult(parameter, (lo + hi) / 2, bracket, hi - lo)


def supplement_sweep(target, variant, mode, grid):
    """The records of one (variant, mode) block of the s1/s2 reproduce table."""
    records = reproduce(target, grid)
    assert len({r.experiment_id for r in records}) == 6
    return [r for r in records if r.experiment_id == f"{target}-{variant}-{mode}"]


class TestSupplementSweeps:
    """The s1 (optimized loop measurement) and s2 (identification) tables."""

    def test_nonlocal_optimal_measure_plateau(self):
        for variant in ("optimal-gate", "fixed-state", "fixed-gate"):
            recs = supplement_sweep("s1", variant, "nonlocal", 12)
            assert len(recs) == 12
            for r in recs:
                assert abs(r.L_ctc_optimal - 0.5) <= 1e-9
                assert r.experiment_id == f"s1-{variant}-nonlocal"
                assert r.prep_mode == "nonlocal_ensemble"

    def test_identification_values_at_working_point(self):
        recs = supplement_sweep("s2", "optimal-gate", "local", 8)
        peak = [r for r in recs if abs(r.phi - 3 * math.pi / 2) < 1e-9][0]
        assert peak.p_succ_ctc == pytest.approx(1.0, abs=1e-9)
        assert peak.p_succ_qm == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_nonlocal_identification_never_beats_coin_flip(self):
        recs = supplement_sweep("s2", "fixed-gate", "nonlocal", 12)
        assert len(recs) == 12
        for r in recs:
            assert r.p_succ_ctc <= 0.5 + 1e-9

    def test_identical_inputs_are_indistinguishable(self):
        recs = supplement_sweep("s2", "fixed-gate", "local", 8)
        zero = [r for r in recs if r.phi == 0.0][0]
        assert zero.p_succ_ctc == pytest.approx(0.5, abs=1e-9)
        assert zero.p_succ_qm == pytest.approx(0.5, abs=1e-9)

    def test_table_blocks_are_the_discrimination_sweeps(self):
        """Each table is the six discrimination sweeps, variant-major, each
        under its own experiment id."""
        for target in ("s1", "s2"):
            assert reproduce(target, 6) == [
                r._replace(experiment_id=f"{target}-{variant}-{mode}")
                for variant in ("optimal-gate", "fixed-state", "fixed-gate")
                for mode in ("local", "nonlocal")
                for r in discrimination_sweep(mode, variant, 6)
            ]


class TestDeterminism:
    def test_repeated_runs_are_bit_identical(self):
        a = discrimination_sweep("local", "fixed-state", 8)
        b = discrimination_sweep("local", "fixed-state", 8)
        assert a == b

    def test_batched_surface_matches_batches_of_one(self):
        """One batch over a 3x3 grid gives the same records as nine batches of one."""
        grid = [0.0, 0.5, 1.0]
        batched = decoherence_surface(grid, grid)
        single = [decoherence_surface([p], [e])[0] for p in grid for e in grid]
        assert len(batched) == len(single) == 9
        for a, b in zip(batched, single):
            assert_records_match(a, b)

    def test_permuting_or_splitting_a_batch_leaves_rows_unchanged(self):
        rng = np.random.default_rng(137)
        n = 40
        theta = rng.choice([-0.9, 0.2, WORKING_POINT_THETA], n)
        eps, p = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        eps[::7] = 0.0
        bloch = np.array([PureQubit(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 6.2))
                          .bloch() for _ in range(n)])

        def solve(rows):
            return run_batch(CircuitKind.SWAP_THEN_CU, theta[rows], eps[rows], p[rows],
                             bloch[rows])

        whole = solve(np.arange(n))
        perm = rng.permutation(n)
        parts = [solve(perm), solve(np.arange(n // 3)), solve(np.arange(n // 3, n))]
        rows = [perm, np.arange(n // 3), np.arange(n // 3, n)]
        for part, idx in zip(parts, rows):
            np.testing.assert_array_equal(part.fixed_set_dimension,
                                          whole.fixed_set_dimension[idx])
            for name in ("loop", "outputs", "residual", "consistency_fidelity"):
                np.testing.assert_allclose(getattr(part, name), getattr(whole, name)[idx],
                                           rtol=0, atol=1e-12)


DISCRETE_FIELDS = {"experiment_id", "prep_mode", "n_iterations", "fixed_set_dimension"}


def assert_records_match(a, b, atol=1e-12):
    for name, x, y in zip(a._fields, a, b):
        if name in DISCRETE_FIELDS:
            assert x == y, name
        else:
            assert abs(x - y) <= atol, (name, x, y)
