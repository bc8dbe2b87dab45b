"""Pulse schedules and their propagation to unitaries and population traces.

Rotating-frame segments are piecewise constant, so their propagators are exact
matrix exponentials (Hermitian eigendecomposition).  Lab-frame segments are
genuinely time dependent and are integrated with the midpoint-time Hamiltonian
at a fixed step, refined adaptively until halving the step changes the final
unitary by less than `lab_tol` in max-norm.  A single global clock spans all
lab segments; drive phases are never reset at segment boundaries.
"""

from __future__ import annotations

import ast
import functools
import io
import math
import operator
import tokenize
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _kernels, _memo
from .params import (_UEV, CONSTANTS, DeviceParameters, _as_float, _check_drive_energy, _flag,
                     _integer, _store_floats, carrier_frequency, detuning_for_hyperfine,
                     exceeds_max_detuning, hyperfine_for_detuning)
from .spin_model import (SpinSystem, _identity, _z_turn, assert_hermitian,
                         rotating_hamiltonian)

__all__ = [
    "PulseSegment",
    "PulseSchedule",
    "ExecutionResult",
    "EvolutionTrace",
    "propagate_constant",
    "execute_schedule",
    "trace_evolution",
    "concat_schedules",
    "validate_schedule_controls",
    "schedule_to_text",
    "schedule_from_text",
    "trace_to_csv",
]


def _sorted_pairs(pairs, what: str) -> dict:
    """pairs keyed by each pair of int donor indices in ascending order, each
    value a Python float; a pair given twice, in either order, a non-integer
    member or a value that is not a real number is a ValueError."""
    out = {}
    for pair, value in dict(pairs).items():
        if not isinstance(pair, tuple):
            raise ValueError(f"{what} pair {pair!r} must be a tuple of donor indices")
        key = tuple(sorted(q if type(q) is int else _integer(q, f"{what} pair member")
                           for q in pair))
        if key in out:
            raise ValueError(f"{what} pair {'-'.join(map(str, key))} given twice")
        out[key] = _as_float(value, f"{what} coupling")
    return out


def _check_label(label) -> str:
    if not isinstance(label, str):
        raise ValueError(f"segment label must be a str, got {label!r}")
    return label


def _check_pairs(pairs: dict, what: str, system: SpinSystem | None = None) -> dict:
    """pairs, once every coupled pair names two different donors (of system, when given)."""
    for pair in pairs:
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError(f"{what} pair {'-'.join(map(str, pair))} "
                             f"must name two different donors")
        if system is not None:
            for q in pair:
                system.electron_site(q)
    return pairs


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant control segment.

    detunings maps donor index -> detuning omega(A) - omega_ac in rad/s
    (equivalently the per-donor hyperfine setting; the schedule file format
    stores A/A0).  couplings maps donor pairs -> exchange energy J in J.
    Both are read-only copies with int donor indices, so one segment can be
    shared by many schedules.  rf_on must be True or False, and label a str.
    Every real control is stored as a Python float (see params._as_float).
    """

    duration: float
    detunings: Mapping[int, float] = field(default_factory=dict)
    couplings: Mapping[tuple[int, int], float] = field(default_factory=dict)
    rf_on: bool = True
    label: str = ""

    def __post_init__(self):
        if self.rf_on is not True and self.rf_on is not False:
            object.__setattr__(self, "rf_on", _flag(self.rf_on, "rf_on"))
        _check_label(self.label)
        _store_floats(self)
        detunings = dict(self.detunings)
        for q, v in detunings.items():
            if type(q) is not int or type(v) is not float:
                detunings = {_integer(q, "detuning key"): _as_float(v, "detuning")
                             for q, v in detunings.items()}
                break
        couplings = _sorted_pairs(self.couplings, "exchange")
        controls = (self.duration, *detunings.values(), *couplings.values())
        if not all(math.isfinite(v) for v in controls):
            raise ValueError("segment duration, detunings and couplings must be finite")
        if self.duration < 0.0:
            raise ValueError("segment duration must be non-negative")
        for j in couplings.values():
            if j < 0.0:
                raise ValueError("exchange coupling must be non-negative")
        _check_pairs(couplings, "exchange")
        object.__setattr__(self, "detunings", MappingProxyType(detunings))
        object.__setattr__(self, "couplings", MappingProxyType(couplings))

    def with_label(self, label: str) -> "PulseSegment":
        """This segment under another label.

        A label is not a control, so the already validated fields are copied
        as they are instead of being checked again.
        """
        seg = object.__new__(type(self))
        seg.__dict__.update(self.__dict__, label=_check_label(label))
        return seg


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Ordered control segments plus the context needed to execute them.

    All segments share one frame.  dipole maps donor pairs to an always-on
    dipole-dipole coupling D (J); unlike exchange it cannot be gated off, so it
    applies during every segment; the mapping is a read-only copy.
    declared_target is the ideal unitary the schedule is meant to implement
    (None when unknown).  Every real control is stored as a Python float (see
    params._as_float).

    A schedule compares and hashes by its controls: system, frame, carrier,
    b_ac, mu_b, hbar, rf_phase, the dipole pairs, and each segment's duration,
    rf switch, detunings and exchange pairs.  Labels and declared_target are
    annotations and take no part, so a schedule is the `_memo` key of its own
    execution results.
    """

    segments: tuple[PulseSegment, ...]
    b_ac: float
    system: SpinSystem
    frame: str = "rotating"
    carrier: float | None = None   # rad/s; required for lab-frame execution
    rf_phase: float = 0.0
    dipole: Mapping[tuple[int, int], float] = field(default_factory=dict)
    declared_target: np.ndarray | None = None
    hbar: float = CONSTANTS.hbar
    mu_b: float = CONSTANTS.mu_b

    def __post_init__(self):
        _store_floats(self)
        if self.frame not in ("rotating", "lab"):
            raise ValueError("frame must be 'rotating' or 'lab'")
        if self.frame == "lab" and self.carrier is None:
            raise ValueError("lab-frame schedules need the carrier frequency")
        positive = (("b_ac", "T"), ("hbar", "J*s"), ("mu_b", "J/T"))
        if self.carrier is not None:
            positive += (("carrier", "rad/s"),)
        for name, unit in positive:
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r} {unit}")
        _check_drive_energy(self.b_ac, self.mu_b)
        if not -math.inf < self.rf_phase < math.inf:
            raise ValueError(f"rf_phase must be finite, got {self.rf_phase!r} rad")
        dipole = _sorted_pairs(self.dipole, "dipole")
        if not all(0.0 <= d < math.inf for d in dipole.values()):
            raise ValueError("dipole couplings must be finite and non-negative")
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "dipole", MappingProxyType(dipole))
        _check_pairs(self.dipole, "dipole", self.system)
        for seg in self.segments:
            for q in seg.detunings:
                self.system.electron_site(q)
            _check_pairs(seg.couplings, "exchange", self.system)

    @property
    def transverse_energy(self) -> float:
        return self.mu_b * self.b_ac

    @functools.cached_property
    def total_duration(self) -> float:
        """The sum of the segment durations, computed on first use and kept on the object."""
        return sum(seg.duration for seg in self.segments)

    # Pair and detuning tuples keep dict order, the order the Hamiltonian sums
    # its terms in.  Numbers compare by value; a value equal to another gives
    # the same bits (+0.0 and -0.0 only ever meet a nonzero term or a test
    # against zero).
    @functools.cached_property
    def _key(self) -> tuple:
        """(hash, controls), computed on first use and kept on the object."""
        controls = (self.system, self.frame, self.carrier, self.b_ac, self.mu_b, self.hbar,
                    self.rf_phase, tuple(self.dipole.items()),
                    tuple((seg.duration, seg.rf_on, tuple(seg.detunings.items()),
                           tuple(seg.couplings.items())) for seg in self.segments))
        return hash(controls), controls

    def __eq__(self, other) -> bool:
        return isinstance(other, PulseSchedule) and self._key == other._key

    def __hash__(self) -> int:
        return self._key[0]

    def replace(self, **kwargs) -> "PulseSchedule":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ExecutionResult:
    unitary: np.ndarray
    duration: float


def propagate_constant(h: np.ndarray, t: float, hbar: float = CONSTANTS.hbar) -> np.ndarray:
    """exp(-i H t / hbar) for Hermitian H, via eigendecomposition (exactly unitary)."""
    if t < 0.0:
        raise ValueError("propagation time must be non-negative")
    assert_hermitian(h)
    w, v = np.linalg.eigh(h)
    return _exponentiate(w, v, t, hbar)


# Largest propagator phase w t / hbar accepted, in rad.  One ulp of 2**33 is
# about 2e-6 rad; far beyond it a phase, and the unitary made from it, carries
# no meaning.  The longest windows the package synthesizes, the dipole CNOT's
# rf-off interactions, turn through about 2e7 rad of lab phase at d = 20 nm
# and 1.6e8 rad at 40 nm.
_MAX_PHASE = 2.0 ** 33


def _check_phase(phase: float, t: float) -> None:
    """ValueError, naming the duration t, unless |phase| <= _MAX_PHASE (NaN fails)."""
    if not (abs(phase) <= _MAX_PHASE):
        raise ValueError(f"duration {t!r} s is too long: its propagator phase "
                         f"exceeds 2**33 rad")


def _max_rate(w: np.ndarray) -> float:
    """Largest |w| of an eigh spectrum (ascending, so its two ends bound every |w|)."""
    return float(max(-w[0], w[-1]))


def _exponentiate(w: np.ndarray, v: np.ndarray, t: float, hbar: float) -> np.ndarray:
    """exp(-i H t / hbar) from H's eigensystem (w, v): the one propagator formula.

    ValueError, naming t, when a phase w t / hbar exceeds _MAX_PHASE.
    """
    rate = t / hbar
    _check_phase(rate * _max_rate(w), t)
    return (v * np.exp(-1j * w * rate)) @ v.conj().T


def segment_hamiltonian(schedule: PulseSchedule, segment: PulseSegment) -> np.ndarray:
    """Rotating-frame Hamiltonian of one segment on the schedule's system."""
    drive = schedule.transverse_energy if segment.rf_on else 0.0
    return rotating_hamiltonian(schedule.system, drive, segment.detunings, segment.couplings,
                                schedule.dipole, schedule.hbar)


# Global-control gates are built from a few pulses that recur within and across
# gates, so rotating-frame execution keeps the eigensystems and propagators of
# the most recent ones for the whole process.  The key holds every input of
# rotating_hamiltonian; the pair tuples keep dict order, which is the order the
# exchange and dipole terms are summed in, so equal keys give bit-identical H.
def _keyed_segments(schedule: PulseSchedule):
    """(start, segment, key) of each timed segment (see _timed_segments), key
    its Hamiltonian's (system, drive, dipole, hbar, detunings, couplings): the
    _eigensystem key, and the _propagator key without the duration.  The
    schedule's parts of the key are built once per schedule."""
    system, drive, hbar = schedule.system, schedule.transverse_energy, schedule.hbar
    dipole_items = tuple(schedule.dipole.items())
    for start, seg in _timed_segments(schedule):
        yield start, seg, (system, drive if seg.rf_on else 0.0, dipole_items, hbar,
                           tuple(seg.detunings.items()), tuple(seg.couplings.items()))


@_memo.table
def _eigensystem(system: SpinSystem, drive: float, dipole_items: tuple, hbar: float,
                 detuning_items: tuple, coupling_items: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigh (w, v) of one rotating-frame segment Hamiltonian."""
    h = rotating_hamiltonian(system, drive, dict(detuning_items), dict(coupling_items),
                             dict(dipole_items), hbar)
    assert_hermitian(h)
    w, v = np.linalg.eigh(h)
    return _memo.read_only(w), _memo.read_only(v)


@_memo.table
def _propagator(system: SpinSystem, drive: float, dipole_items: tuple, hbar: float,
                detuning_items: tuple, coupling_items: tuple, duration: float) -> np.ndarray:
    """Read-only exp(-i H t / hbar) of one segment Hamiltonian (same key as _eigensystem)."""
    w, v = _eigensystem(system, drive, dipole_items, hbar, detuning_items, coupling_items)
    return _memo.read_only(_exponentiate(w, v, duration, hbar))


def _timed_segments(schedule: PulseSchedule):
    """(start, segment) of each segment of positive duration, on one global clock."""
    t0 = 0.0
    for seg in schedule.segments:
        if seg.duration > 0.0:
            yield t0, seg
        t0 += seg.duration


@_memo.table
def _execute_rotating(schedule: PulseSchedule) -> np.ndarray:
    """Read-only rotating-frame unitary of schedule: its cached propagators'
    product R U(0) R^dagger, R the drive phase's spin_model._z_turn."""
    u = _identity(schedule.system.dim)
    for _, seg, key in _keyed_segments(schedule):
        u = _propagator(*key, seg.duration) @ u
    if schedule.rf_phase:
        r = _z_turn(schedule.system, schedule.rf_phase)
        u = r[:, None] * u * r.conj()
    return _memo.read_only(u)


def _lab_levels(schedule: PulseSchedule, carrier: float, dim: int, segment_step):
    """A lab-frame evolution as a function of the steps per carrier period:
    the lab frame's one walk over schedule's timed segments.

    segment_step(seg) is each timed segment's step, built once, here, in time
    order: a fixed unitary, or step(t0, dts, ns), the segment's n-step kernel
    products from global time t0 at each level's (dt, n), as a stack or a
    list.  The returned function takes a block of levels (a list of steps per
    carrier period, the period 2 pi / carrier) and returns the stack of their
    unitaries.  A stepped segment takes at least 16 steps at every level and
    makes one kernel call for the whole block.  The block's stepped products
    are re-unitarized in one stacked nearest_unitary call and multiplied in
    time order as stacked matmuls.  Each matrix is still projected and
    multiplied on its own, so a level has the same bits in any block.
    """
    period = 2.0 * math.pi / carrier
    timed = [(start, seg.duration, segment_step(seg)) for start, seg in _timed_segments(schedule)]

    def levels(block: list) -> np.ndarray:
        products = []
        for start, duration, step in timed:
            if callable(step):
                ns = [max(int(math.ceil(duration / period * s)), 16) for s in block]
                products.append(step(start, [duration / n for n in ns], ns))
        projected = iter(_kernels.nearest_unitary(np.array(products)) if products else ())
        u = np.repeat(np.eye(dim, dtype=complex)[None], len(block), axis=0)
        for _, _, step in timed:
            u = (next(projected) if callable(step) else step) @ u
        return u

    return levels


class _NotConverged(RuntimeError):
    """An adaptive refinement passed its step ceiling without converging."""


def _predicted_levels(diff: float, tol: float) -> int:
    """Further step doublings a second-order integrator needs to bring a
    step-halving difference diff > tol within tol: ceil(log4(diff / tol)),
    at least 1, and 1 when diff is not finite."""
    if not math.isfinite(diff):
        return 1
    return max(math.ceil((math.log(diff) - math.log(tol)) / math.log(4.0)), 1)


def _refine(propagate, tol: float, ceiling: int, what: str) -> np.ndarray:
    """Adaptive step refinement shared by the lab frame and the nuclear oracle.

    propagate(block) is the stack of unitaries at the listed steps per
    carrier period.  Starting at 64, s doubles until the result moves by at
    most tol in max-norm; the finer of the last two results is returned.
    ValueError, before any level is computed, unless tol is finite and
    positive; _NotConverged (a RuntimeError) once s passes the ceiling.

    Levels are asked for in blocks: 64 and 128 first, then, after a pair
    that misses tol by diff, the ceil(log4(diff / tol)) further levels the
    integrators' second order predicts (one when diff is not finite), never
    past the last level the sequential loop could reach (2 * ceiling for a
    power-of-two ceiling).  The pairs are still compared in order and a
    level has the same bits in any block, so the returned array and the
    _NotConverged text are those of evaluating one level at a time.  A block
    that raises is evaluated again one level at a time, so no level the
    sequential loop would not reach can raise.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{what} tolerance must be finite and positive, got {tol!r}")
    top = max(128, 1 << ceiling.bit_length())   # the first level past the ceiling
    block = [64, 128]
    coarse = None
    while True:
        try:
            results = propagate(block)
        except Exception:
            if len(block) == 1:
                raise
            results = (propagate([steps])[0] for steps in block)
        for steps, fine in zip(block, results):
            if coarse is not None:
                diff = np.abs(fine - coarse).max()
                if diff <= tol:
                    return fine.copy()
                if steps > ceiling:
                    raise _NotConverged(
                        f"{what} did not converge to {tol} in max-norm: last "
                        f"difference {diff:.3e} at {steps} steps per carrier period"
                    )
            coarse = fine
        block = [steps << k for k in range(1, _predicted_levels(diff, tol) + 1)
                 if steps << k <= top]


def _lab_donor_levels(schedule: PulseSchedule, donor: int):
    """One donor's lab-frame evolution across all segments (global clock), as a
    function of the steps per carrier period (see _lab_levels).

    Driven segments step with the SU(2) kernel; rf-off segments are their
    free precession, computed once, after the phase check.
    """
    w_ac = schedule.carrier
    ax = schedule.transverse_energy / schedule.hbar

    def segment_step(seg: PulseSegment):
        # matrix z-rate: sigma_z^e = -Z, so az = -(omega_ac/2 + dw); the kernel's
        # (-w_ac, -rf_phase) is spin_model._z_turn's frame convention on Z
        az = -(0.5 * w_ac + seg.detunings.get(donor, 0.0))
        phase = az * seg.duration
        _check_phase(phase, seg.duration)
        if seg.rf_on:
            return functools.partial(_kernels.su2_lab_levels, az, ax, -w_ac, -schedule.rf_phase)
        return np.diag([np.exp(-1j * phase), np.exp(1j * phase)])

    return _lab_levels(schedule, w_ac, 2, segment_step)


# Verification repeats whole schedules, not only pulses: the lab realization
# of a gate is asked for again and again, and each is a full refinement.  So
# the converged result is memoized on the schedule, which is its own key.
@_memo.table
def _lab_unitary(schedule: PulseSchedule, lab_tol: float) -> np.ndarray:
    """Read-only converged lab-frame unitary of schedule at lab_tol."""
    system = schedule.system
    if system.include_nuclei:
        raise NotImplementedError(
            "lab-frame execution covers electron-only systems; "
            "nuclear dynamics live in analysis.frozen_nucleus_check"
        )
    for seg in schedule.segments:
        if any(seg.couplings.values()):
            raise NotImplementedError("lab-frame execution does not support exchange coupling")
    if any(schedule.dipole.values()):
        raise NotImplementedError("lab-frame execution does not support dipole coupling")

    first, *rest = [_lab_donor_levels(schedule, donor) for donor in range(system.num_donors)]

    def assemble(block: list) -> np.ndarray:
        u = first(block)
        for levels in rest:
            v = levels(block)
            # np.kron of each level's pair, as one broadcast product
            u = (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(
                len(block), u.shape[1] * v.shape[1], u.shape[2] * v.shape[2])
        return u

    return _memo.read_only(_refine(assemble, lab_tol, 1 << 18, "lab-frame integration"))


def execute_schedule(schedule: PulseSchedule, lab_tol: float = 1e-9) -> ExecutionResult:
    """Propagate a schedule to its total unitary.

    Rotating-frame segments compose exactly.  Lab-frame schedules are
    integrated with midpoint stepping refined until a step-halving changes
    the result by at most lab_tol in max-norm.  Each result is computed once
    per schedule (its controls, see PulseSchedule), with lab_tol, while its
    `_memo` table (`_execute_rotating`, `_lab_unitary`) holds it; errors are
    raised again on every call.  The unitary is always a fresh, writable
    array.
    """
    u = (_execute_rotating(schedule) if schedule.frame == "rotating"
         else _lab_unitary(schedule, lab_tol))
    return ExecutionResult(unitary=u.copy(), duration=schedule.total_duration)


def concat_schedules(first: PulseSchedule, second: PulseSchedule) -> PulseSchedule:
    """Concatenate two schedules that agree on every control but their segments."""
    if first.system != second.system:
        raise ValueError("schedules act on different systems")
    for attr in ("frame", "b_ac", "carrier", "rf_phase", "hbar", "mu_b"):
        if getattr(first, attr) != getattr(second, attr):
            raise ValueError(f"schedules disagree on {attr}")
    if first.dipole != second.dipole:
        raise ValueError("schedules disagree on dipole couplings")
    return first.replace(segments=first.segments + second.segments, declared_target=None)


def _check_controls(segment: PulseSegment, p: DeviceParameters) -> None:
    """ValueError unless every detuning of segment is within the device's range."""
    for q, dw in segment.detunings.items():
        if exceeds_max_detuning(dw, p):
            raise ValueError(f"detuning {dw:.6e} on donor {q} exceeds the device bound")


def validate_schedule_controls(schedule: PulseSchedule, p: DeviceParameters) -> None:
    """Check every segment's controls against the device's tunable ranges."""
    for i, seg in enumerate(schedule.segments):
        try:
            _check_controls(seg, p)
        except ValueError as exc:
            raise ValueError(f"segment {i}: {exc}") from exc


# ---------------------------------------------------------------------------
# population traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Uniformly sampled basis-state populations along a schedule.

    times and populations are read-only copies of the arrays passed in, so a
    later change to those arrays cannot reach the trace or its CSV text.
    Traces compare and hash by identity: their arrays have no single truth value.
    """

    times: np.ndarray                 # s
    populations: np.ndarray           # (num_samples, dim)
    basis_labels: tuple[str, ...]
    initial_label: str

    def __post_init__(self):
        object.__setattr__(self, "times", _memo.read_only(np.array(self.times)))
        object.__setattr__(self, "populations", _memo.read_only(np.array(self.populations)))
        sums = self.populations.sum(axis=1)
        if not np.abs(sums - 1.0).max() <= 1e-9:
            raise ValueError("trace rows must sum to 1 within 1e-9")


def _resolve_state(initial, system: SpinSystem) -> tuple[np.ndarray, str]:
    labels = system.basis_labels()
    if isinstance(initial, str):
        if initial not in labels:
            raise ValueError(f"unknown basis label {initial!r}")
        psi = np.zeros(system.dim, dtype=complex)
        psi[labels.index(initial)] = 1.0
        return psi, initial
    psi = np.asarray(initial, dtype=complex)
    if psi.shape != (system.dim,):
        raise ValueError("initial state has the wrong dimension")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:
        raise ValueError("initial state must be normalized")
    return psi, "custom"


# Most samples one trace takes, a thousand times the CLI's default.  A 3-donor
# trace of 10**6 samples holds 64 MB of populations; a count far past it would
# only fail in numpy's allocator, with a traceback instead of a message.
_MAX_SAMPLES = 10**6


def trace_evolution(schedule: PulseSchedule, initial, samples: int = 1000) -> EvolutionTrace:
    """Sample basis populations uniformly over a rotating-frame schedule.

    The final sample is |U psi0|^2 of the execute_schedule propagator U, to
    roundoff.  Basis populations are invariant under the frame map (it is
    diagonal), so these traces equally describe the lab-frame evolution.  Each
    call samples afresh (no table keeps traces: the CLI keeps the CSV text it
    writes, see cli._rendered).  Every input is checked before any work: fewer
    than 2 or more than _MAX_SAMPLES samples is a ValueError, also for a
    zero-duration schedule, whose trace has one row.
    """
    if schedule.frame != "rotating":
        raise NotImplementedError("traces are computed in the rotating frame")
    psi0, init_label = _resolve_state(initial, schedule.system)
    # an int: a float count raises TypeError, also one equal to an int (2.0)
    samples = operator.index(samples)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"at most {_MAX_SAMPLES} trace samples, got {samples}")
    if schedule.rf_phase:
        # R U(t) R^dagger psi0 has the populations of U(t) R^dagger psi0 (R is
        # diagonal); a new vector, so the caller's is left as it was
        psi0 = psi0 * _z_turn(schedule.system, schedule.rf_phase).conj()
    labels = tuple(schedule.system.basis_labels())
    total = schedule.total_duration
    if total == 0.0:
        pops = np.abs(psi0[None, :]) ** 2
        return EvolutionTrace(np.zeros(1), pops, labels, init_label)

    timed = list(_keyed_segments(schedule))
    starts = [start for start, _, _ in timed]
    eigs = [_eigensystem(*key) for _, _, key in timed]
    for (_, seg, _), (w, _) in zip(timed, eigs):
        _check_phase(seg.duration / schedule.hbar * _max_rate(w), seg.duration)
    times = np.linspace(0.0, total, samples)
    # segment of each sample: the last one starting at or before it (a sample
    # within 1e-18 of the total below a start already counts as in it)
    bounds = np.searchsorted(np.array(starts[1:]) - 1e-18 * total, times, side="right")
    first = np.searchsorted(bounds, np.arange(len(starts) + 1))
    pops = np.empty((samples, schedule.system.dim))
    psi_seg_start = psi0
    for k, (w, v) in enumerate(eigs):
        c = v.conj().T @ psi_seg_start
        block = slice(first[k], first[k + 1])
        phases = np.exp((-1j * w)[None, :] * ((times[block] - starts[k]) / schedule.hbar)[:, None])
        # a stacked mat-vec, not one GEMM, so every sample is computed exactly
        # as v @ (phases * c) would compute it alone
        pops[block] = np.abs((v @ (phases * c)[:, :, None])[..., 0]) ** 2
        if k + 1 < len(eigs):
            # full propagator of segment k, also when it holds no sample
            phases = np.exp(-1j * w * ((starts[k + 1] - starts[k]) / schedule.hbar))
            psi_seg_start = v @ (phases * c)
    return EvolutionTrace(times, pops, labels, init_label)


def trace_to_csv(trace: EvolutionTrace, stream, header: Mapping[str, object]) -> None:
    """Write a trace as CSV to the text stream: `# key = value` header lines,
    then `time_ns,pop_<label>,...` and one row per sample, 12 significant digits."""
    lines = [f"# {key} = {val}\n" for key, val in header.items()]
    lines.append("time_ns," + ",".join(f"pop_{lab}" for lab in trace.basis_labels) + "\n")
    cells = np.column_stack([trace.times * 1e9, trace.populations])
    row = ",".join(["%.12g"] * cells.shape[1]) + "\n"
    lines.append(row * cells.shape[0] % tuple(cells.ravel().tolist()))
    stream.write("".join(lines))


# ---------------------------------------------------------------------------
# schedule file format
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def schedule_to_text(schedule: PulseSchedule, p: DeviceParameters) -> str:
    """Serialize a schedule (units: ns for durations, ueV for couplings, A/A0 for
    hyperfine settings), stable field order; alignment is z, the dipole form."""
    out = io.StringIO()
    out.write("# donorsim schedule v1\n")
    out.write(f"frame = {schedule.frame}\n")
    out.write(f"b_ac = {_fmt(schedule.b_ac)}\n")
    out.write(f"num_donors = {schedule.system.num_donors}\n")
    out.write(f"include_nuclei = {str(schedule.system.include_nuclei).lower()}\n")
    out.write("alignment = z\n")
    out.write(f"rf_phase = {_fmt(schedule.rf_phase)}\n")
    if schedule.carrier is not None:
        out.write(f"carrier = {_fmt(schedule.carrier)}\n")
    if schedule.dipole:
        pairs = ",".join(f"{a}-{b}:{_fmt(d / _UEV)}" for (a, b), d in sorted(schedule.dipole.items()))
        out.write(f"dipole_uev = {pairs}\n")
    w_ac = schedule.carrier
    if w_ac is None:
        w_ac = carrier_frequency(p)
    for seg in schedule.segments:
        a_parts = ",".join(
            f"{q}:{_fmt(hyperfine_for_detuning(dw, w_ac, p) / p.a0)}"
            for q, dw in sorted(seg.detunings.items())
        )
        j_parts = ",".join(f"{a}-{b}:{_fmt(j / _UEV)}" for (a, b), j in sorted(seg.couplings.items()))
        label = seg.label.replace("\n", " ")
        out.write(
            f"segment duration_ns={_fmt(seg.duration * 1e9)}"
            f" a_over_a0={a_parts} j_uev={j_parts}"
            f" rf={'on' if seg.rf_on else 'off'} label={label!r}\n"
        )
    return out.getvalue()


def _parse_pairs(text: str, cast_key, twice) -> dict:
    """'key:v,...' as {cast_key(key): v}; twice(key) names a key given twice."""
    out = {}
    if not text:
        return out
    for item in text.split(","):
        key, _, val = item.partition(":")
        key = cast_key(key)
        if key in out:
            raise ValueError(twice(key))
        out[key] = float(val)
    return out


def _one_of(key: str, choices: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{key} must be one of {', '.join(map(repr, choices))}, "
                             f"got {text!r}")
        return text
    return parse


def _finite(key: str):
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {text!r}")
        return value
    return parse


def _positive(key: str):
    def parse(text: str) -> float:
        value = float(text)
        if not 0.0 < value < math.inf:
            raise ValueError(f"{key} must be finite and positive, got {text!r}")
        return value
    return parse


def _leading_literal(text: str) -> tuple[str, str]:
    """The string literal text starts with, and the text after it, which must
    be empty or start with whitespace; anything else is a ValueError."""
    text = text.lstrip()
    try:
        token = next(tokenize.generate_tokens(io.StringIO(text).readline))
    except tokenize.TokenError as exc:
        raise ValueError(str(exc)) from exc
    after = text[token.end[1]:]
    if token.type != tokenize.STRING or after[:1].strip():
        raise ValueError(f"expected a string literal, got {text!r}")
    return token.string, after


# Longest schedule text, in characters, whose parse `_parsed` keeps.  The
# densest texts are runs of short segment lines that each hold exchange pairs
# ("segment duration_ns=1 j_uev=0-1:1"), at most about 24.4 bytes of entry
# (schedule and key) per character, so an entry holds at most about 122 KB
# (see _memo); a 10-segment CNOT file is about 1.5 KB.
_MAX_KEPT_TEXT = 5000


def schedule_from_text(text: str, p: DeviceParameters) -> PulseSchedule:
    """Parse the schedule file format written by schedule_to_text.

    Hyperfine settings convert to detunings against the file's carrier, or
    the device carrier when the file names none, as schedule_to_text wrote them.
    Dipole terms take the z-aligned form, so an x or y file may hold no nonzero one.

    Global control sends the same few compiled pulses through the file again
    and again, so a text of at most _MAX_KEPT_TEXT characters is parsed once
    per (text, p) while the `_parsed` table holds it, and every call returns
    that one frozen schedule (whose execution results are then identity hits).
    A longer text, or one that is not a str, is parsed on every call.  Every
    check runs on a miss, and a refused text keeps no entry, so it raises the
    same ValueError on every call.
    """
    keep = type(text) is str and len(text) <= _MAX_KEPT_TEXT
    return (_parsed if keep else _parsed.__wrapped__)(text, p)


@_memo.table
def _parsed(text: str, p: DeviceParameters) -> PulseSchedule:
    """The schedule of schedule_from_text.  Devices that are equal share an
    entry: a field's zero sign (a_min = -0.0) reaches no control, only the
    bound checks, which compare by value."""
    header: dict[str, tuple[str, int]] = {}   # key -> (value, line number)
    segment_lines: list[tuple[int, dict, bool, str]] = []   # (line number, fields, rf, label)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("segment "):
            fields: dict[str, str] = {}
            rest = line[len("segment"):]
            # the label is the first field named label, and its literal may
            # itself hold " label="; fields after it are read like the rest
            rest, has_label, tail = rest.partition(" label=")
            label = ""
            if has_label:
                try:
                    label_repr, after = _leading_literal(tail)
                    label = ast.literal_eval(label_repr)
                    if not isinstance(label, str):   # a bytes literal
                        raise ValueError(f"label is {type(label).__name__}, not str")
                except (ValueError, SyntaxError) as exc:
                    raise ValueError(f"line {lineno}: bad label literal") from exc
                rest += after
            for tok in rest.split():
                key, _, val = tok.partition("=")
                if key in fields or (key == "label" and has_label):
                    raise ValueError(f"line {lineno}: segment field {key!r} given twice")
                fields[key] = val
            unknown = set(fields) - {"duration_ns", "a_over_a0", "j_uev", "rf"}
            if unknown:
                raise ValueError(f"line {lineno}: unknown segment fields {sorted(unknown)}")
            if "duration_ns" not in fields:
                raise ValueError(f"line {lineno}: segment has no duration_ns")
            rf = fields.get("rf", "on")
            if rf not in ("on", "off"):
                raise ValueError(f"line {lineno}: rf must be 'on' or 'off', got {rf!r}")
            segment_lines.append((lineno, fields, rf == "on", label))
        else:
            key, _, val = line.partition("=")
            key = key.strip()
            known = {"frame", "b_ac", "num_donors", "include_nuclei", "alignment",
                     "rf_phase", "dipole_uev", "carrier"}
            if key not in known:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in header:
                raise ValueError(f"line {lineno}: {key} given twice "
                                 f"(first on line {header[key][1]})")
            header[key] = (val.strip(), lineno)

    def header_value(key: str, default, parse):
        """Parse a header value (default when absent); errors name its line."""
        if key not in header:
            return default
        text, lineno = header[key]
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc

    frame = header_value("frame", "rotating", _one_of("frame", ("rotating", "lab")))
    include_nuclei = header_value("include_nuclei", "false",
                                  _one_of("include_nuclei", ("true", "false"))) == "true"
    alignment = header_value("alignment", "z", _one_of("alignment", ("x", "y", "z")))
    system = header_value("num_donors", SpinSystem(1, include_nuclei),
                          lambda text: SpinSystem(int(text), include_nuclei))
    device_carrier = carrier_frequency(p)
    carrier = header_value("carrier", device_carrier if frame == "lab" else None,
                           _positive("carrier"))
    w_ac = device_carrier if carrier is None else carrier

    def pair_values(text: str, what: str) -> dict:
        """'a-b:v,...' in ueV as {(a, b): v in J}, pairs as written (see _sorted_pairs)."""
        pairs = _parse_pairs(text, lambda key: tuple(map(int, key.split("-"))),
                             lambda pair: f"{what} pair {'-'.join(map(str, sorted(pair)))} "
                                          "given twice")
        return {pair: v * _UEV for pair, v in pairs.items()}

    segments = []
    for lineno, fields, rf_on, label in segment_lines:
        try:
            fractions = _parse_pairs(fields.get("a_over_a0", ""), int,
                                     lambda q: f"donor {q} named twice in a_over_a0")
            detunings = {q: detuning_for_hyperfine(frac * p.a0, w_ac, p)
                         for q, frac in fractions.items()}
            seg = PulseSegment(
                duration=float(fields["duration_ns"]) * 1e-9, detunings=detunings,
                couplings=pair_values(fields.get("j_uev", ""), "exchange"),
                rf_on=rf_on, label=label)
            for q in [*seg.detunings, *(q for pair in seg.couplings for q in pair)]:
                system.electron_site(q)
            _check_controls(seg, p)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        segments.append(seg)

    def dipole_values(text: str) -> dict:
        pairs = _sorted_pairs(pair_values(text, "dipole"), "dipole")
        if not all(0.0 <= d < math.inf for d in pairs.values()):
            raise ValueError("dipole couplings must be finite and non-negative")
        if alignment != "z" and any(pairs.values()):
            raise ValueError(f"dipole coupling requires z alignment, got alignment = {alignment}")
        return _check_pairs(pairs, "dipole", system)

    dipole = header_value("dipole_uev", {}, dipole_values)
    return PulseSchedule(
        segments=tuple(segments),
        b_ac=header_value("b_ac", p.b_ac, lambda text: _check_drive_energy(
            _positive("b_ac")(text), p.constants.mu_b)),
        system=system,
        frame=frame,
        carrier=carrier,
        rf_phase=header_value("rf_phase", 0.0, _finite("rf_phase")),
        dipole=dipole,
        hbar=p.constants.hbar,
        mu_b=p.constants.mu_b,
    )
