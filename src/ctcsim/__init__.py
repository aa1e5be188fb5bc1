"""ctcsim: a desk-scale simulator of qubits traversing a Deutsch closed timelike curve.

It solves the loop's self-consistency fixed point for any two-qubit interaction
and noise, evolves inputs through the loop, and reproduces the paper's tables
(`ctcsim reproduce`, `ctcsim selftest`). README.md has a quick example.
"""

from .circuits import (
    CNOT,
    SWAP,
    CircuitKind,
    CircuitSpec,
    QubitChannel,
    build_interaction,
    depolarize,
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
    "depolarize",
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
