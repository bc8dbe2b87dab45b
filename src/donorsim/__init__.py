"""donorsim: pulse compiler and simulator for globally controlled donor electron-spin qubits.

Synthesizes global-control gate schedules (X, Y, Z, Hadamard, CNOT, SWAP and
parallel compositions), propagates them under the rotating- or lab-frame spin
Hamiltonians, and verifies gate times and fidelities against the published
reference timings.
"""

from .analysis import (
    frozen_nucleus_check,
    gate_fidelity,
    rabi_probability,
    spectator_fidelity,
    sweep,
    timescale_table,
)
from .gates import (
    CorrectionPlan,
    GateReport,
    GateSpec,
    compile_gate,
    compose_parallel,
    embed_ideal,
    ideal_unitary,
    spectator_period,
    synth_correction,
    synthesize,
)
from .params import (
    CONSTANTS,
    DeviceParameters,
    DipoleAlignmentError,
    InfeasibleDetuningError,
    PhysicalConstants,
    canonical_detuning_span,
    detuning,
    dipole_strength,
    exchange_strength,
    load_device_parameters,
    local_control_tradeoff,
    max_detuning,
    resonant_frequency,
)
from .propagator import (
    EvolutionTrace,
    PulseSchedule,
    PulseSegment,
    execute_schedule,
    propagate_constant,
    schedule_from_text,
    schedule_to_text,
    trace_evolution,
    trace_to_csv,
)
from .spin_model import (
    SpinSystem,
    dipole_term,
    frame_rotation,
    single_donor_static,
    single_electron_lab,
)

__version__ = "0.1.0"
