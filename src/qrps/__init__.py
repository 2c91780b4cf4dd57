"""Exact simulator and experiment harness for rank-one quantum deliberation
on two qubits, with trapped-ion noise models and dynamical decoupling.

A type that validates on construction or hashes by identity is a frozen
dataclass, and ``dataclasses.replace`` on it runs its checks again.  Every
other record is a ``typing.NamedTuple``, used with ``_replace`` (which
checks nothing), ``tuple(record)`` and ``_fields``.
"""

from .circuits import (
    PreparationAngles,
    StationaryDistribution,
    angles_from_distribution,
    cnot,
    diffusion,
    phase_aligned_distance,
    prepare_alpha,
    ref_actions,
    ref_alpha,
    rotation,
    rotation_z,
    rz_pulse_identity,
    u_zz,
)
from .deliberation import (
    DeliberationRecord,
    LearningStep,
    classical_cost_curve,
    deliberate,
    grover_success,
    learning_demo,
    optimal_k,
    run_ideal,
)
from .harness import (
    ConfigError,
    DDCheckResult,
    HarnessConfig,
    LinearFit,
    PowerLawFit,
    RatioResult,
    ScalingResult,
    dd_check,
    fit_linear,
    fit_power_law,
    load_config,
    ratio_experiment,
    scaling_experiment,
)
from .noise import (
    NOISELESS,
    NoiseModel,
    PulseSchedule,
    PulseSettings,
    RFPulse,
    RunResult,
    ZZSegment,
    collective_dephasing,
    compile_diffusion_schedule,
    compile_preparation_schedule,
    detection_confusion,
    noisy_distribution,
    run_noisy,
    simulate_schedule,
    ur14_phases,
    window_infidelity,
)
from .qsim import (
    QuantumState,
    apply,
    probabilities,
    sample_outcomes,
)

__version__ = "0.1.0"
