"""Gate synthesis: compiling abstract gates into global-control pulse schedules.

Under global control every qubit feels the one always-on drive; a gate is a
sequence of resonant segments (everyone rotates about x together) and detuned
segments (the addressed qubit precesses about a tilted axis, typically through
whole revolutions so it nets an identity).  Each synthesized schedule ends
with spectators having completed whole 2*pi revolutions, so every gate lasts
an integer number of spectator periods.

Conventions: rotations are R_n(theta) = exp(-i theta (n.sigma)/2); requested
negative angles are normalized by theta -> theta + 2*pi (a 2*pi rotation is a
global phase).  Physical detunings are negative (biasing lowers the
resonance), which in the logical basis tilts the rotation axis toward +z; see
spin_model for the representation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Mapping, NamedTuple

import numpy as np

from . import _memo
from .params import (DeviceParameters, DipoleAlignmentError, InfeasibleDetuningError,
                     _store_floats, dipole_strength, exceeds_max_detuning, max_detuning)
from .propagator import PulseSchedule, PulseSegment, _execute_rotating, execute_schedule
from .spin_model import ID2, SX, SY, SZ, SpinSystem, _read_only, embed

__all__ = [
    "GateKind",
    "GATE_KINDS",
    "UNUSED_REASONS",
    "GateSpec",
    "CorrectionPlan",
    "GateReport",
    "spectator_period",
    "max_single_step_angle",
    "synth_x",
    "synth_y",
    "synth_hadamard",
    "synth_z",
    "synth_correction",
    "synth_cnot",
    "synth_swap",
    "synth_idle",
    "synthesize",
    "interaction_coupling",
    "compose_parallel",
    "ideal_unitary",
    "embed_ideal",
    "compile_gate",
    "TABLE_GATES",
]

HADAMARD = (SX + SZ) / math.sqrt(2.0)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class GateKind(NamedTuple):
    """A gate kind's targets in GateSpec order, the fields each mode uses (the
    first mode is the default; a kind without modes has the one key None), and
    the CLI's defaults in its units (theta in rad, interaction_step and duration in ns)."""

    targets: tuple[str, ...]
    modes: Mapping[str | None, tuple[str, ...]]
    defaults: Mapping[str, float]

    def usage(self, kind: str, mode: str | None) -> tuple[str | None, tuple[str, ...], str]:
        """(mode, fields used, name in errors); a kind without modes resolves any to None."""
        if None in self.modes:
            return None, self.modes[None], kind
        mode = next(iter(self.modes)) if mode is None else mode
        if mode not in self.modes:
            raise ValueError(f"unknown {kind} mode {mode!r}")
        return mode, self.modes[mode], f"{kind} in {mode} mode"


# The one table of gate kinds.  GateSpec validates against it; the CLI takes its
# --gate and --mode choices, option checks and defaults from it.  J is picked
# from the CLI's interaction_step when it is not given; a pair's target that
# defaults onto the given control takes the control's default instead.
_ROTATION = GateKind(("target",), {None: ("target", "theta")}, {"target": 0, "theta": math.pi})
_CNOT = ("control", "target", "mode", "extended_correction", "x_conjugation")
_PAIR_DEFAULTS = {"control": 0, "target": 1, "interaction_step": 0.01}
GATE_KINDS = {
    "x": _ROTATION, "y": _ROTATION, "z": _ROTATION,
    "hadamard": GateKind(("target",), {None: ("target",)}, {"target": 0}),
    "cnot": GateKind(("control", "target"), {"exchange": (*_CNOT, "j", "interaction_step"),
                                             "dipole": (*_CNOT, "d"),
                                             "combined": (*_CNOT, "j", "interaction_step", "d")},
                     _PAIR_DEFAULTS),
    "swap": GateKind(("control", "target"), {None: ("control", "target", "j", "interaction_step")},
                     _PAIR_DEFAULTS),
    # an idle acts on every donor, so its one target is a placeholder
    "idle": GateKind(("target",), {None: ("duration",)}, {"target": 0, "duration": 0.0}),
}
# why each field the CLI takes does not apply where GATE_KINDS leaves it unused
UNUSED_REASONS = {
    "theta": "only x, y and z take an angle",
    "target": "idle acts on every donor",
    "control": "only cnot and swap have a control",
    "mode": "only cnot has a coupling mode",
    "j": "only swap and exchange or combined cnot use exchange",
    "d": "only dipole or combined cnot use a separation",
    "extended_correction": "only cnot has a final correction to extend",
    "duration": "only idle takes a duration",
    "interaction_step": "only swap and exchange or combined cnot without --j-uev pick J from it",
}


@dataclass(frozen=True)
class GateSpec:
    """An abstract gate request: everything synthesis depends on but the device
    and the system.

    kind is one of x, y, z (rotations by theta), hadamard, cnot (targets =
    (control, target), mode exchange|dipole|combined with couplings j and/or
    separation d), swap (coupling j) and idle (duration).  A cnot's mode
    defaults to exchange; extended_correction adds one spectator wrap to its
    final correction, and x_conjugation=False replaces its X steps with
    equal-duration idles.  GATE_KINDS says which fields each kind and mode
    uses; any other field that is set, or a flag that is not at its default,
    is a ValueError, so equal requests are equal specs.  Integer targets are
    stored as ints (an idle's placeholder target as 0) and real numbers as
    floats, so equal specs, which share one synthesis cache entry, also
    compute with the same types.
    """

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None
    mode: str | None = None
    j: float | None = None
    d: float | None = None
    duration: float | None = None
    extended_correction: bool = False
    x_conjugation: bool = True

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(
            int(t) if type(t) is not int and isinstance(t, numbers.Integral) else t
            for t in self.targets))
        _store_floats(self)
        row = GATE_KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.targets)) != len(self.targets) or any(t < 0 for t in self.targets):
            raise ValueError("targets must be distinct non-negative qubit indices")
        if len(self.targets) != len(row.targets):
            raise ValueError(f"{self.kind} takes {len(row.targets)} target(s)")
        mode, uses, what = row.usage(self.kind, self.mode)
        if "target" not in uses:
            object.__setattr__(self, "targets", (row.defaults["target"],))
        if self.mode is None:
            object.__setattr__(self, "mode", mode)
        for name, default in _OPTIONAL_FIELDS:
            value = getattr(self, name)
            if default is not None:
                if value not in (False, True):
                    raise ValueError(f"{name} must be True or False, got {value!r}")
                object.__setattr__(self, name, bool(value))
            if value != default and name not in uses:
                raise ValueError(f"{name} does not apply to {what}")
        if "theta" in uses and (self.theta is None
                                or not -2.0 * math.pi < self.theta < 2.0 * math.pi):
            raise ValueError("rotation angle must lie in (-2*pi, 2*pi)")
        if "duration" in uses and not (self.duration is not None
                                       and 0.0 <= self.duration < math.inf):
            raise ValueError("idle needs a finite non-negative duration")


# (name, default) of each GateSpec field after kind and targets, in the order
# they are checked: the None-default fields first, then the flags
_OPTIONAL_FIELDS = tuple((f.name, f.default) for f in fields(GateSpec)[2:])


@dataclass(frozen=True)
class CorrectionPlan:
    """Bookkeeping of one correction step.

    Spectators (resonant) rotate deficit + 2*pi*wrap_count; each idle target
    completes `revolutions` whole detuned revolutions in the same window.
    """

    spectator_deficit: float        # rad, in [0, 2*pi)
    wrap_count: int
    duration: float                 # s
    idle_detuning: float            # rad/s (negative: physical biasing)
    revolutions: int


@dataclass(frozen=True)
class GateReport:
    spec: GateSpec
    schedule: PulseSchedule
    ideal: np.ndarray
    achieved: np.ndarray
    fidelity: float
    step_durations: tuple[tuple[str, float], ...]
    notes: str = ""


# ---------------------------------------------------------------------------
# timing primitives
# ---------------------------------------------------------------------------

def spectator_period(p: DeviceParameters) -> float:
    """One full resonant 2*pi revolution: pi*hbar / (mu_B B_ac).  The clock tick."""
    return math.pi * p.constants.hbar / p.transverse_energy


def _omega_max(p: DeviceParameters) -> float:
    """Largest generalized Rabi energy sqrt(Omega0^2 + (hbar dw_max)^2)."""
    return math.hypot(p.transverse_energy, p.constants.hbar * max_detuning(p))


def max_single_step_angle(p: DeviceParameters) -> float:
    """Largest X-rotation angle one detuned step can imprint: 2*pi*(1 - Omega0/Omega_max)."""
    return 2.0 * math.pi * (1.0 - p.transverse_energy / _omega_max(p))


def _resonant_segment(theta: float, p: DeviceParameters, label: str) -> PulseSegment:
    """Everyone resonant, rotating R_x(theta); duration theta*hbar/(2 mu_B B_ac)."""
    return PulseSegment(duration=theta * p.constants.hbar / (2.0 * p.transverse_energy),
                        label=label)


def _detuning_for_tilt(tilt: float, p: DeviceParameters) -> float:
    """Physical (negative) detuning whose matrix z-tilt is +tilt (energy units)."""
    dw = -tilt / p.constants.hbar
    if exceeds_max_detuning(dw, p):
        raise InfeasibleDetuningError(
            f"needed detuning {abs(dw):.4e} rad/s exceeds the bound {max_detuning(p):.4e}"
        )
    return dw


def _full_revolution_segment(
    speed_ratio: float, targets: tuple[int, ...], p: DeviceParameters, label: str
) -> PulseSegment:
    """Targets detuned to Omega = speed_ratio * Omega0 complete one 2*pi revolution."""
    omega0 = p.transverse_energy
    tilt = omega0 * math.sqrt(speed_ratio**2 - 1.0)
    dw = _detuning_for_tilt(tilt, p)
    return PulseSegment(
        duration=math.pi * p.constants.hbar / (speed_ratio * omega0),
        detunings={q: dw for q in targets},
        label=label,
    )


def _normalize_angle(theta: float) -> float:
    """Map a requested angle in (-2*pi, 2*pi) to [0, 2*pi) (global-phase equivalence)."""
    return theta % (2.0 * math.pi)


def _make_schedule(
    segments: list[PulseSegment],
    p: DeviceParameters,
    system: SpinSystem,
    declared_target: np.ndarray | None = None,
    dipole: dict | None = None,
) -> PulseSchedule:
    return PulseSchedule(
        segments=tuple(segments),
        b_ac=p.b_ac,
        system=system,
        frame="rotating",
        rf_phase=0.0,
        dipole=dipole or {},
        declared_target=None if declared_target is None else _read_only(declared_target),
        hbar=p.constants.hbar,
        mu_b=p.constants.mu_b,
    )


# ---------------------------------------------------------------------------
# corrections
# ---------------------------------------------------------------------------

def synth_correction(
    deficit: float,
    idle_targets: tuple[int, ...],
    p: DeviceParameters,
    extra_wraps: int = 0,
) -> tuple[list[PulseSegment], CorrectionPlan]:
    """Resonant completion of the spectators' revolution while targets idle.

    The duration is (deficit + 2*pi*k) * hbar / (2 mu_B B_ac) with the minimal
    wrap count k >= extra_wraps such that every idle target fits an integer
    number n >= 1 of whole detuned revolutions (required detuning within the
    device bound).  deficit = 0 with no extra wraps needs no correction.
    For f = deficit / 2pi > 0 the fewest revolutions n = k + 1 fit once
    (f + k) rho >= k + 1, rho = Omega_max / Omega0, so the scan starts one
    wrap below (1 - f rho) / (rho - 1).  With no tuning range it is an error.
    """
    deficit = deficit % (2.0 * math.pi)
    if deficit < 1e-12 or 2.0 * math.pi - deficit < 1e-12:
        deficit = 0.0
    omega0 = p.transverse_energy
    hbar = p.constants.hbar
    t_spec = spectator_period(p)
    if deficit == 0.0 and extra_wraps == 0:
        return [], CorrectionPlan(0.0, 0, 0.0, 0.0, 0)
    omega_hi = _omega_max(p)
    rho = omega_hi / omega0
    f = deficit / (2.0 * math.pi)
    first = extra_wraps
    if idle_targets and rho > 1.0 and f > 1e-12:
        first = max(extra_wraps, math.ceil((1.0 - f * rho) / (rho - 1.0)) - 1)
    for k in range(first, first + 3):
        t_c = (deficit + 2.0 * math.pi * k) * hbar / (2.0 * omega0)
        if not idle_targets:
            plan = CorrectionPlan(deficit, k, t_c, 0.0, 0)
            return [PulseSegment(duration=t_c, label="correction")], plan
        n_lo = max(1, math.ceil(t_c / t_spec - 1e-12))
        n_hi = math.floor(t_c * omega_hi / (math.pi * hbar) + 1e-12)
        if n_lo > n_hi:
            continue
        n = n_lo
        omega_req = n * math.pi * hbar / t_c
        tilt = math.sqrt(max(omega_req**2 - omega0**2, 0.0))
        dw = -tilt / hbar
        plan = CorrectionPlan(deficit, k, t_c, dw, n)
        seg = PulseSegment(duration=t_c, detunings={q: dw for q in idle_targets},
                           label="correction")
        return [seg], plan
    raise InfeasibleDetuningError("no feasible correction window found")


def _spectator_angle(segments, p: DeviceParameters) -> float:
    """Angle the resonant spectators turn through over `segments`.

    Spectators rotate only while the global drive is on; drive-gated windows
    (long dipole interactions, SWAP) freeze the spectator clock.
    """
    total = sum(seg.duration for seg in segments if seg.rf_on)
    return 2.0 * p.transverse_energy / p.constants.hbar * total


def _deficit_after(segments: list[PulseSegment], p: DeviceParameters) -> float:
    """Spectator angle still missing to complete whole revolutions."""
    gamma = _spectator_angle(segments, p)
    return (2.0 * math.pi - gamma % (2.0 * math.pi)) % (2.0 * math.pi)


# ---------------------------------------------------------------------------
# single-qubit gates
# ---------------------------------------------------------------------------

# The most equal sub-steps (X steps or Y blocks) one rotation splits into.  A
# device whose tuning range needs more is refused before any segment is built:
# the count grows without bound as a_min nears a0.
_MAX_SPLIT = 1 << 16


def _split_count(kind: str, theta: float, per_step: float) -> int:
    """Sub-steps of at most per_step rad that turn theta, within _MAX_SPLIT."""
    steps = max(1, math.ceil(theta / per_step - 1e-12))
    if steps > _MAX_SPLIT:
        raise InfeasibleDetuningError(
            f"{kind}({theta:.6g}) needs {steps} sub-steps on this device's tuning range, "
            f"more than the cap of {_MAX_SPLIT}")
    return steps


def _x_step_segments(theta: float, target: int, p: DeviceParameters,
                     step_label: str) -> list[PulseSegment]:
    """One X-rotation step: detuned target revolution, then a resonant theta."""
    speed_ratio = 2.0 * math.pi / (2.0 * math.pi - theta)
    return [
        _full_revolution_segment(speed_ratio, (target,), p,
                                 f"x{step_label} detuned revolution"),
        _resonant_segment(theta, p, f"x{step_label} resonant rotation"),
    ]


def _x_segments(theta: float, target: int, p: DeviceParameters) -> list[PulseSegment]:
    theta = _normalize_angle(theta)
    if theta == 0.0:
        return []
    cap = min(math.pi, max_single_step_angle(p) * (1.0 - 1e-12))
    if cap <= 0.0:
        raise InfeasibleDetuningError("device has no tuning range for X rotations")
    steps = _split_count("X", theta, cap)
    per_step = theta / steps
    segments: list[PulseSegment] = []
    for i in range(steps):
        tag = f" {i + 1}/{steps}" if steps > 1 else ""
        segments.extend(_x_step_segments(per_step, target, p, tag))
    return segments


def synth_x(theta: float, target: int, p: DeviceParameters,
            system: SpinSystem | None = None) -> PulseSchedule:
    """X rotation per the two-step global-control recipe.

    Step 1 detunes the target so it completes a whole revolution while the
    spectators fall behind by theta; step 2 rotates everyone by theta.  The
    two steps together last exactly one spectator period (for X(pi), 14.89 ns
    each and 29.77 ns in all).  Angles beyond the single-step limit are split
    into equal feasible rotations, each such pair of steps one period.
    """
    return synthesize(GateSpec("x", (target,), theta=theta), p, system)


def _y_segments(theta: float, target: int, p: DeviceParameters) -> list[PulseSegment]:
    theta = _normalize_angle(theta)
    if theta == 0.0:
        return []
    omega0 = p.transverse_energy
    hbar = p.constants.hbar
    tan_phi_max = hbar * max_detuning(p) / omega0
    if tan_phi_max <= 0.0:
        raise InfeasibleDetuningError("device has no tuning range for Y rotations")
    phi_max = math.atan(tan_phi_max) * (1.0 - 1e-12)
    blocks = _split_count("Y", theta, 4.0 * phi_max)
    phi = theta / (4.0 * blocks)
    dw = _detuning_for_tilt(omega0 * math.tan(phi), p)
    omega = omega0 / math.cos(phi)
    t_tilted = math.pi * hbar / (2.0 * omega)
    segments: list[PulseSegment] = []
    for i in range(blocks):
        tag = f" {i + 1}/{blocks}" if blocks > 1 else ""
        tilted = PulseSegment(duration=t_tilted, detunings={target: dw},
                              label=f"y{tag} tilted half-revolution")
        resonant = _resonant_segment(math.pi, p, f"y{tag} resonant pi")
        segments += [tilted, resonant, tilted, resonant]
    return segments


def synth_y(theta: float, target: int, p: DeviceParameters,
            system: SpinSystem | None = None) -> PulseSchedule:
    """Y rotation from alternating tilted-axis and resonant pi rotations.

    One block R_x(pi) R_n(pi) R_x(pi) R_n(pi) = R_y(4*phi) with
    tan(phi) = hbar*dw/(mu_B B_ac); angles beyond 4*phi_max repeat the block.
    A final correction step walks the spectators to a whole revolution while
    the target idles.
    """
    return synthesize(GateSpec("y", (target,), theta=theta), p, system)


def _hadamard_block(target: int, p: DeviceParameters) -> list[PulseSegment]:
    """Uncorrected Hadamard: half-revolution about (x+z)/sqrt2, tilt mu_B B_ac.

    A device too weak for that tilt runs Y(pi/2), then X(pi), instead:
    R_x(pi) R_y(pi/2) = -i H, a global phase.  Where neither fits, the tilt's
    error is the one raised.
    """
    omega0 = p.transverse_energy
    try:
        dw = _detuning_for_tilt(omega0, p)
    except InfeasibleDetuningError as tilt_error:
        try:
            return _y_segments(math.pi / 2.0, target, p) + _x_segments(math.pi, target, p)
        except InfeasibleDetuningError:
            raise tilt_error from None
    duration = math.pi * p.constants.hbar / (2.0 * math.sqrt(2.0) * omega0)
    return [PulseSegment(duration=duration, detunings={target: dw}, label="hadamard pulse")]


def synth_hadamard(target: int, p: DeviceParameters,
                   system: SpinSystem | None = None) -> PulseSchedule:
    """Hadamard: one tilted half-revolution (hbar*dw = mu_B B_ac) plus correction."""
    return synthesize(GateSpec("hadamard", (target,)), p, system)


def _z_segments(theta: float, target: int, p: DeviceParameters) -> list[PulseSegment]:
    theta = _normalize_angle(theta)
    hadamard = _hadamard_block(target, p)
    rotation = [_resonant_segment(theta, p, "z resonant rotation")] if theta > 0.0 else []
    return hadamard + rotation + hadamard


def synth_z(theta: float, target: int, p: DeviceParameters,
            system: SpinSystem | None = None) -> PulseSchedule:
    """Z rotation as H R_x(theta) H with a single merged correction step."""
    return synthesize(GateSpec("z", (target,), theta=theta), p, system)


# ---------------------------------------------------------------------------
# two-qubit gates and idle
# ---------------------------------------------------------------------------

# Exchange pulse angle realizing exp(+i pi/8 sigma.sigma) up to global phase:
# evolution under +J sigma.sigma generates exp(-i (Jt/hbar) sigma.sigma), and
# the 3*pi/8 pulse equals the required +pi/8 pulse times a global phase.
_INTERACTION_ANGLE = 3.0 * math.pi / 8.0


def interaction_coupling(step_s: float, p: DeviceParameters) -> float:
    """Exchange J whose 3*pi/8 interaction pulse lasts step_s seconds: 3*pi*hbar/(8*step_s)."""
    if not (math.isfinite(step_s) and step_s > 0.0):
        raise ValueError(f"interaction step must be positive and finite, got {step_s:g} s")
    return 3.0 * math.pi * p.constants.hbar / (8.0 * step_s)


def _cnot_segments(spec: GateSpec, p: DeviceParameters) -> tuple[list[PulseSegment], dict]:
    control, target = spec.targets
    mode, j, d = spec.mode, spec.j, spec.d
    uses = GATE_KINDS["cnot"].modes[mode]
    if any(name in uses and (value is None or value <= 0.0)
           for name, value in (("j", j), ("d", d))):
        raise ValueError(f"{mode} mode needs " + {"exchange": "a positive coupling j",
                                                  "dipole": "a positive separation d",
                                                  "combined": "positive j and d"}[mode])
    # GateSpec holds j only for exchange coupling and d only for dipole coupling
    couplings = {} if j is None else {(control, target): j}
    sigma_coupling = 0.0 if j is None else j
    dipole = {}
    if d is not None:
        if p.alignment != "z":
            raise DipoleAlignmentError("dipole-coupled gates need z-aligned donors")
        d_coupling = dipole_strength(d, p)
        sigma_coupling += d_coupling
        dipole = {(control, target): d_coupling}

    t_int = _INTERACTION_ANGLE * p.constants.hbar / sigma_coupling
    # exchange pulses last a fraction of a drive period, so the always-on field
    # stays on (it commutes with sigma.sigma); dipole-scale pulses span ~1e5
    # periods and are run drive-gated so the bare sigma_z sigma_z error term is
    # what the X-conjugation refocuses
    rf_during_interaction = mode == "exchange"

    def interact(label: str) -> PulseSegment:
        return PulseSegment(duration=t_int, couplings=couplings,
                            rf_on=rf_during_interaction, label=label)

    try:
        # control resonant pi; target detuned to a whole revolution of the same
        # duration (speed ratio 2).  The diagnostic variant is an equal-duration
        # idle (both qubits revolve).
        x_step = [_full_revolution_segment(
            2.0, (target,) if spec.x_conjugation else (control, target), p, "")]
    except InfeasibleDetuningError:
        # a device too weak for that revolution: X(pi) on the control from the
        # sub-steps synth_x uses, each a whole spectator period, so the target
        # idles; the diagnostic variant is one resonant segment as long
        x_step = _x_segments(math.pi, control, p)
        if not spec.x_conjugation:
            x_step = [PulseSegment(duration=sum(seg.duration for seg in x_step))]

    def x_on_control(label: str) -> list[PulseSegment]:
        return [seg.with_label(label) for seg in x_step]

    # steps 1 and 7 are the corrected Hadamard gate on the control (its table
    # entry on its own default system), relabelled; _layout, not synthesize, so
    # a CNOT counts as one synthesis request
    hadamard = _layout(GateSpec("hadamard", (control,)), p,
                       SpinSystem(num_donors=control + 1)).segments

    def hadamard_step(step: int) -> list[PulseSegment]:
        return [seg.with_label(f"step {step} hadamard "
                               + ("correction" if seg.label == "correction" else "pulse"))
                for seg in hadamard]

    segments = hadamard_step(1)
    segments.append(interact("step 2 interaction"))
    segments += x_on_control("step 3 x on control")
    segments.append(interact("step 4 interaction"))
    segments += x_on_control("step 5 x on control")
    segments.append(_resonant_segment(math.pi / 2.0, p, "step 6 resonant pi/2 pair"))
    segments += hadamard_step(7)
    final_corr, _ = synth_correction(_deficit_after(segments, p), (control, target), p,
                                     1 if spec.extended_correction else 0)
    segments += [s.with_label("step 8 correction") for s in final_corr]
    return segments, dipole


def synth_cnot(
    mode: str,
    control: int,
    target: int,
    p: DeviceParameters,
    j: float | None = None,
    d: float | None = None,
    system: SpinSystem | None = None,
    extended_correction: bool = False,
    x_conjugation: bool = True,
) -> PulseSchedule:
    """CNOT via Hadamards, a conjugated sigma.sigma interaction pair, and X steps.

    mode selects the interaction: exchange (coupling j), dipole (separation d;
    always-on 1/d^3 coupling with its sigma_z sigma_z error term) or combined
    (j plus dipole).  extended_correction adds one extra spectator wrap to the
    final correction step; x_conjugation=False replaces the X steps with
    equal-duration idles (diagnostic for the refocusing property).  The
    arguments become one GateSpec, synthesized like any other.
    """
    return synthesize(GateSpec("cnot", (control, target), mode=mode, j=j, d=d,
                               extended_correction=extended_correction,
                               x_conjugation=x_conjugation), p, system)


def _swap_segments(spec: GateSpec, p: DeviceParameters) -> list[PulseSegment]:
    if spec.j is None or spec.j <= 0.0:
        raise ValueError("swap needs a positive exchange coupling")
    duration = math.pi * p.constants.hbar / (4.0 * spec.j)
    return [PulseSegment(duration=duration, couplings={spec.targets: spec.j},
                         rf_on=False, label="swap interaction")]


def synth_swap(j: float, qubit_a: int, qubit_b: int, p: DeviceParameters,
               system: SpinSystem | None = None) -> PulseSchedule:
    """SWAP: one exchange pulse with J*t = pi/4 (hbar units), drive gated off.

    exp(-i pi/4 sigma.sigma) is SWAP up to global phase.  With the drive
    gated off the spectators do not rotate, so no correction step is needed;
    the gate report notes the (zero) residual spectator rotation.
    """
    return synthesize(GateSpec("swap", (qubit_a, qubit_b), j=j), p, system)


def _idle_segments(duration: float, p: DeviceParameters) -> list[PulseSegment]:
    t_spec = spectator_period(p)
    periods = round(duration / t_spec)
    if abs(duration - periods * t_spec) > 1e-9 * max(duration, t_spec):
        raise ValueError("idle duration must be an integer number of spectator periods")
    return [PulseSegment(duration=periods * t_spec, label="idle")] if periods else []


def synth_idle(duration: float, p: DeviceParameters,
               system: SpinSystem | None = None) -> PulseSchedule:
    """Idle: resonant whole spectator periods (identity on everyone)."""
    return synthesize(GateSpec("idle", (0,), duration=duration), p, system)


# ---------------------------------------------------------------------------
# the synthesis path
# ---------------------------------------------------------------------------

# Synthesis is a pure function of frozen inputs, so each whole gate is laid out
# once per process in one bounded table keyed on (spec, device, system).  Its
# schedules are shared: segments are frozen, and their mappings and declared
# targets are read-only.
@_memo.table
def _layout(spec: GateSpec, p: DeviceParameters, system: SpinSystem) -> PulseSchedule:
    """Segments of spec's kind, wrapped once into a schedule with its declared target."""
    dipole: dict = {}
    if spec.kind == "cnot":
        segments, dipole = _cnot_segments(spec, p)
    elif spec.kind == "swap":
        segments = _swap_segments(spec, p)
    elif spec.kind == "idle":
        segments = _idle_segments(spec.duration, p)
    else:
        target = spec.targets[0]
        rotation = {"x": _x_segments, "y": _y_segments, "z": _z_segments}.get(spec.kind)
        segments = (rotation(spec.theta, target, p) if rotation
                    else _hadamard_block(target, p))
        # X's steps already end on whole spectator periods, so its correction is empty
        segments += synth_correction(_deficit_after(segments, p), (target,), p)[0]
    return _make_schedule(segments, p, system, declared_target=embed_ideal(spec, system),
                          dipole=dipole)


def synthesize(spec: GateSpec, p: DeviceParameters,
               system: SpinSystem | None = None) -> PulseSchedule:
    """The one path from a GateSpec to a PulseSchedule.

    Lays out the kind's resonant and detuned segments and, for single-qubit
    kinds, a correction that brings every spectator to a whole 2*pi turn, so
    each gate lasts whole spectator periods.  The default system has
    max(targets) + 1 donors.  The result comes from the gate
    table, keyed on (spec, p, system) with that default resolved first, so
    every equal request shares one entry.
    """
    if system is None:
        system = SpinSystem(num_donors=max(spec.targets) + 1)
    return _layout(spec, p, system)


# ---------------------------------------------------------------------------
# parallel composition
# ---------------------------------------------------------------------------

def compose_parallel(specs: list[GateSpec], p: DeviceParameters,
                     system: SpinSystem | None = None) -> PulseSchedule:
    """Merge gates on disjoint qubit sets into one simultaneous schedule.

    Shorter gates are padded with whole-period resonant idles (exactly what
    spectators do); the merged duration is the longest component's, an integer
    number of spectator periods.  An idle acts on every donor, so it composes
    only alone.
    """
    if not specs:
        raise ValueError("nothing to compose")
    if len(specs) > 1 and any(spec.kind == "idle" for spec in specs):
        raise ValueError("an idle acts on every donor, so it composes with no other gate")
    seen: set[int] = set()
    for spec in specs:
        overlap = seen.intersection(spec.targets)
        if overlap:
            raise ValueError(f"gates overlap on qubits {sorted(overlap)}")
        seen.update(spec.targets)
    system = system or SpinSystem(num_donors=max(seen) + 1)
    schedules = [synthesize(spec, p, system) for spec in specs]
    t_spec = spectator_period(p)
    durations = [s.total_duration for s in schedules]
    t_max = max(durations)
    padded: list[list[PulseSegment]] = []
    for sched, dur in zip(schedules, durations):
        segs = list(sched.segments)
        missing = t_max - dur
        periods = round(missing / t_spec)
        if abs(missing - periods * t_spec) > 1e-9 * max(t_max, t_spec):
            raise ValueError("component durations differ by a non-integer period count")
        if periods:
            segs.append(PulseSegment(duration=periods * t_spec, label="parallel padding"))
        padded.append(segs)

    merged: list[PulseSegment] = []
    cursors = [0] * len(padded)
    consumed = [0.0] * len(padded)
    eps = 1e-15 * max(t_max, 1e-30)
    while True:
        active = [(i, segs[cursors[i]]) for i, segs in enumerate(padded)
                  if cursors[i] < len(segs)]
        if not active:
            break
        remaining = [seg.duration - consumed[i] for i, seg in active]
        dt = min(remaining)
        detunings: dict[int, float] = {}
        couplings: dict[tuple[int, int], float] = {}
        rf_states = set()
        labels = []
        for (i, seg), rem in zip(active, remaining):
            detunings.update(seg.detunings)
            couplings.update(seg.couplings)
            rf_states.add(seg.rf_on)
            if seg.label and seg.label != "parallel padding":
                labels.append(seg.label)
        if len(rf_states) > 1:
            raise ValueError("cannot compose gates that disagree on the global drive state")
        merged.append(PulseSegment(duration=dt, detunings=detunings, couplings=couplings,
                                   rf_on=rf_states.pop(), label=" | ".join(labels)))
        for (i, seg), rem in zip(active, remaining):
            if rem - dt <= eps:
                cursors[i] += 1
                consumed[i] = 0.0
            else:
                consumed[i] += dt

    dipole: dict = {}
    for sched in schedules:
        dipole.update(sched.dipole)
    target = np.eye(system.dim, dtype=complex)
    for spec in specs:
        target = embed_ideal(spec, system) @ target
    return _make_schedule(merged, p, system, declared_target=target, dipole=dipole)


# ---------------------------------------------------------------------------
# ideal unitaries and reports
# ---------------------------------------------------------------------------

def ideal_unitary(spec: GateSpec) -> np.ndarray:
    """Canonical matrix of a gate on its own qubits (global-control convention).

    Rotations follow R_n(theta) = exp(-i theta (n.sigma)/2); note X(2*pi) = -I
    (spinor sign, a pure global phase).
    """
    if spec.kind in ("x", "y", "z"):
        pauli = {"x": SX, "y": SY, "z": SZ}[spec.kind]
        half = 0.5 * spec.theta
        return math.cos(half) * ID2 - 1j * math.sin(half) * pauli
    if spec.kind == "hadamard":
        return HADAMARD.copy()
    if spec.kind == "cnot":
        return CNOT_MATRIX.copy()
    if spec.kind == "swap":
        return SWAP_MATRIX.copy()
    if spec.kind == "idle":
        return ID2.copy()
    raise ValueError(f"unknown gate kind {spec.kind!r}")


def embed_ideal(spec: GateSpec, system: SpinSystem) -> np.ndarray:
    """Ideal gate acting on its targets, identity on all other sites."""
    sites = tuple(system.electron_site(q) for q in spec.targets)
    return embed(ideal_unitary(spec), sites, system.num_sites)


# Grading a synthesized schedule is as pure as synthesis, so what compile_gate
# derives from it lives in a second table with _layout's key.  Each entry holds
# immutable values only; a miss checks both matrices' unitarity once.
@_memo.table
def _grade(spec: GateSpec, p: DeviceParameters, system: SpinSystem
           ) -> tuple[float, tuple[tuple[str, float], ...], str]:
    """(fidelity against the declared target, step durations, notes) of spec's schedule."""
    from .analysis import gate_fidelity   # here, not at the top: analysis imports gates

    schedule = _layout(spec, p, system)
    fidelity = (gate_fidelity(_execute_rotating(schedule), schedule.declared_target)
                if schedule.segments else 1.0)
    steps = tuple((seg.label, seg.duration) for seg in schedule.segments)
    notes = ""
    if spec.kind == "swap":
        gamma = _spectator_angle(schedule.segments, p)
        notes = (f"drive gated off; residual spectator rotation {gamma:.3e} rad, "
                 f"no correction step")
    return fidelity, steps, notes


def compile_gate(spec: GateSpec, p: DeviceParameters,
                 system: SpinSystem | None = None) -> GateReport:
    """Synthesize, execute and grade a gate against its ideal unitary.

    The schedule comes from the gate table and its grade (fidelity, step
    durations, notes) from the grade table, both keyed on (spec, p, system)
    with the default system resolved first, so a repeated request does no
    numerics.  `achieved` is a fresh, writable copy of the executed unitary;
    `ideal` is the schedule's shared, read-only declared target.
    """
    schedule = synthesize(spec, p, system)
    achieved = execute_schedule(schedule).unitary
    fidelity, steps, notes = _grade(spec, p, schedule.system)
    return GateReport(spec=spec, schedule=schedule, ideal=schedule.declared_target,
                      achieved=achieved, fidelity=fidelity, step_durations=steps,
                      notes=notes)


# ---------------------------------------------------------------------------
# the paper's timing tables
# ---------------------------------------------------------------------------

# Tables II-VI: the gate each table times, as spec_of(p), and the published
# step (a key, in order of first appearance) each of its segments counts
# toward, as step_of(index, label), so a step split into sub-steps sums them.
# Table I's global row times the gates of II and VI.
TABLE_GATES = {
    "II": (lambda p: GateSpec("x", (0,), theta=math.pi),
           lambda i, label: label.split()[-2]),             # detuned / resonant
    "III": (lambda p: GateSpec("y", (0,), theta=math.pi),
            lambda i, label: label == "correction"),         # y block, correction
    "IV": (lambda p: GateSpec("hadamard", (0,)), lambda i, label: i),
    "V": (lambda p: GateSpec("z", (0,), theta=math.pi), lambda i, label: i),
    "VI": (lambda p: GateSpec("cnot", (0, 1), j=interaction_coupling(1e-11, p),
                              extended_correction=True),
           lambda i, label: label.split()[1]),               # 'step N ...'
}
