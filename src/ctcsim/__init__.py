"""ctcsim: a desk-scale simulator of qubits traversing a Deutsch closed timelike curve.

The simulator solves the self-consistency fixed point for the qubit
trapped in the loop under arbitrary two-qubit interactions and noise,
evolves chronology-respecting inputs through the loop, and reproduces the
quantitative phenomenology of such circuits (nonlinear state evolution,
perfect discrimination of non-orthogonal states, the local/non-local
preparation split, and decoherence thresholds) as machine-checkable
tables.

Quick example
-------------

.. code:: python

    import math
    from ctcsim import CircuitSpec, CircuitKind, LocalPure, PureQubit, run_scenario

    # A qubit at polar angle pi/4 meets its older self via CNOT + SWAP.
    spec = CircuitSpec(kind=CircuitKind.SWAP_CNOT)
    result = run_scenario(spec, LocalPure(PureQubit(math.pi / 4)))
    print(result.fixed_point.rho_ctc.mat)      # the self-consistent loop state
    print(result.rho_out_per_input[0].mat)     # the nonlinearly evolved output

The `experiments` module sweeps entire parameter grids and the
`ctcsim` command line reproduces every bundled experiment as CSV
(`ctcsim reproduce fig6`, `ctcsim selftest`, ...).
"""

from .circuits import (
    CNOT,
    SWAP,
    CircuitKind,
    CircuitSpec,
    QubitChannel,
    build_interaction,
    depolarize,
    make_cu_xz,
)
from .deutsch import (
    ConvergenceError,
    FixedPointResult,
    ImproperMixed,
    LocalPure,
    NonLocalEnsemble,
    ScenarioOutput,
    consistency_map,
    evolve_output,
    iterate_circuit,
    proper_mixture_output,
    resource_state_vector,
    run_scenario,
    solve_fixed_point,
    superoperator,
    swap_cnot_closed_form,
)
from .experiments import (
    SweepRecord,
    ThresholdResult,
    decoherence_surface,
    discrimination_sweep,
    find_threshold,
    nonlinearity_sweep,
)
from .measures import (
    SIGMA_Z_AXIS,
    DistinguishabilityReport,
    MeasurementDirection,
    helstrom_success_probability,
    mismatch_probability,
    optimal_mismatch_probability,
    qm_baseline,
)
from .qmath import (
    DensityMatrix,
    PureQubit,
    ValidationError,
    density_from_bloch,
    fidelity,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # qmath
    "DensityMatrix", "PureQubit", "ValidationError",
    "density_from_bloch", "fidelity", "trace_distance", "von_neumann_entropy",
    # circuits
    "CNOT", "SWAP", "CircuitKind", "CircuitSpec", "QubitChannel", "build_interaction",
    "depolarize", "make_cu_xz",
    # deutsch
    "ConvergenceError", "FixedPointResult", "ImproperMixed", "LocalPure",
    "NonLocalEnsemble", "ScenarioOutput", "consistency_map", "evolve_output",
    "iterate_circuit", "proper_mixture_output", "resource_state_vector",
    "run_scenario", "solve_fixed_point", "superoperator", "swap_cnot_closed_form",
    # measures
    "SIGMA_Z_AXIS", "DistinguishabilityReport", "MeasurementDirection",
    "helstrom_success_probability", "mismatch_probability",
    "optimal_mismatch_probability", "qm_baseline",
    # experiments
    "SweepRecord", "ThresholdResult", "decoherence_surface", "discrimination_sweep",
    "find_threshold", "nonlinearity_sweep",
]
