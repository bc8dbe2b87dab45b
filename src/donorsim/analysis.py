"""Fidelity metrics, analytic oracles and the summary timing tables."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernels, _memo, gates
from .params import (
    _CONFIG_FIELDS,
    _UEV,
    CONSTANTS,
    DeviceParameters,
    PhysicalConstants,
    _integer,
    canonical_detuning_span,
    carrier_frequency,
    dipole_strength,
    exchange_strength,
    hyperfine_for_detuning,
    local_control_tradeoff,
    max_detuning,
)
from .propagator import (
    PulseSchedule,
    PulseSegment,
    _check_phase,
    _execute_rotating,
    _lab_levels,
    _refine,
    validate_schedule_controls,
)
from .spin_model import SpinSystem, frame_rotation, single_donor_static

__all__ = [
    "gate_fidelity",
    "spectator_fidelity",
    "rabi_probability",
    "TimescaleRow",
    "timescale_table",
    "lab_realization",
    "frozen_nucleus_check",
    "sweep",
    "SWEEP_FIELDS",
    "SWEEP_METRICS",
]


def _assert_unitary(u: np.ndarray) -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    dev = u.conj().T @ u
    dev.flat[:: len(dev) + 1] -= 1   # u^dag u - I, on the diagonal only
    if not np.abs(dev).max() <= 1e-10:
        raise ValueError("matrix is not unitary within tolerance")


# elements of the largest register's matrix: two donors with nuclei, 16x16
_MAX_KEPT_SIZE = 256


def _array_key(a: np.ndarray) -> tuple:
    """(dtype, shape, C-order bytes) of an array: a grading table's key for
    it.  Only a bit-identical array of the same dtype and shape has the same
    key, and the key holds no reference to the array, so changing the array
    later cannot make an entry stale."""
    return a.dtype.str, a.shape, a.tobytes()


def _key_array(key: tuple) -> np.ndarray:
    """The read-only C-order array an _array_key was taken of."""
    dtype, shape, data = key
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant overlap |Tr(U^dag V)| / dim of two unitaries.

    Computed once per bit-identical (u, v) while the `_gate_fidelity` table
    holds it (see _array_key); a rejected input raises again on every call.
    A matrix larger than any register's (16x16) is graded without being
    kept, so a table entry holds at most 8 KB.
    """
    if u.size > _MAX_KEPT_SIZE or v.size > _MAX_KEPT_SIZE:
        return _gate_fidelity.__wrapped__(_array_key(u), _array_key(v))
    return _gate_fidelity(_array_key(u), _array_key(v))


@_memo.table
def _gate_fidelity(u_key: tuple, v_key: tuple) -> float:
    """gate_fidelity of the arrays behind two _array_keys."""
    u, v = _key_array(u_key), _key_array(v_key)
    if u.shape != v.shape:
        raise ValueError("unitaries have different dimensions")
    _assert_unitary(u)
    _assert_unitary(v)
    return float(abs((u.conj().T @ v).trace()) / u.shape[0])


def spectator_fidelity(u: np.ndarray, gate: np.ndarray, targets: Sequence[int],
                       system: SpinSystem) -> float:
    """How close the non-target action of `u` is to the identity.

    Contracts the target legs of `u` against the ideal gate; for an exactly
    factorized u = phase * (gate (x) S) the result is |Tr S| / dim normalized
    by the contraction's scale, i.e. 1 iff S is the identity up to phase.
    u must be a unitary on `system` and gate a unitary on the distinct
    integer targets.  Computed once per bit-identical (u, gate), targets (in
    order, by value and type) and system while the `_spectator_fidelity`
    table holds it (see _array_key); a rejected input raises again on every
    call.
    """
    targets = tuple(targets)
    return _spectator_fidelity(_array_key(u), _array_key(gate), targets,
                               tuple(map(type, targets)), system)


@_memo.table
def _spectator_fidelity(u_key: tuple, gate_key: tuple, targets: tuple, target_types: tuple,
                        system: SpinSystem) -> float:
    """spectator_fidelity of the arrays behind two _array_keys; target_types
    only keys the entry, so an entry for target 1 never answers True or 1.0.

    The contraction is one product of conj(gate), flattened, with u's legs
    ordered (target out, target in, rest out, rest in): the product
    np.tensordot forms for it.
    """
    targets = [_integer(q, "target") for q in targets]
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {tuple(targets)}")
    n = system.num_sites
    sites = [system.electron_site(q) for q in targets]
    rest = [s for s in range(n) if s not in sites]
    dim_g, dim_s = 2 ** len(sites), 2 ** len(rest)
    u, gate = _key_array(u_key), _key_array(gate_key)
    if u.shape != (system.dim, system.dim):
        raise ValueError(f"u must be {system.dim}x{system.dim} on {system}, "
                         f"got shape {u.shape}")
    if gate.shape != (dim_g, dim_g):
        raise ValueError(f"gate must be {dim_g}x{dim_g} on {len(sites)} target(s), "
                         f"got shape {gate.shape}")
    _assert_unitary(u)
    _assert_unitary(gate)
    legs = u.reshape((2,) * (2 * n)).transpose(
        sites + [n + s for s in sites] + rest + [n + s for s in rest])
    block = np.dot(np.conj(gate).reshape(1, dim_g * dim_g),
                   legs.reshape(dim_g * dim_g, dim_s * dim_s)).reshape(dim_s, dim_s) / dim_g
    scale = math.sqrt(max((block.conj().T @ block).trace().real / dim_s, 1e-300))
    return float(abs(block.trace()) / (dim_s * scale))


def rabi_probability(t: float, delta_omega: float, b_ac: float,
                     constants: PhysicalConstants = CONSTANTS) -> float:
    """Driven two-level excitation probability from |0>.

    (mu_B B_ac / Omega)^2 sin^2(Omega t / hbar),
    Omega^2 = (mu_B B_ac)^2 + hbar^2 dw^2.
    """
    if t < 0.0:
        raise ValueError("time must be non-negative")
    transverse = constants.mu_b * b_ac
    omega = math.hypot(transverse, constants.hbar * delta_omega)
    return (transverse / omega) ** 2 * math.sin(omega * t / constants.hbar) ** 2


# ---------------------------------------------------------------------------
# timescale summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimescaleRow:
    scheme: str
    t_x: float
    t2_over_tx: float
    t_cnot: float | None
    t2_over_tcnot: float | None


# drive amplitude (T) of the canonical local-control scheme, in Table I and the
# local_pi_time_us sweep metric
_LOCAL_B_AC = 1e-5


def timescale_table(p: DeviceParameters, t2: float = 0.060) -> list[TimescaleRow]:
    """Electron-spin timescale rows for local vs global control.

    The local row evaluates the canonical scheme at B_ac = _LOCAL_B_AC with
    qubits parked a full hyperfine span off resonance; its CNOT time has no
    closed form here, so t_cnot and t2_over_tcnot are None.  The global row
    times the gates of Tables II and VI (gates.TABLE_GATES): the corrected X(pi)
    and the published-style CNOT (one extra spectator wrap in the final
    correction, interaction steps of 0.01 ns).

    On the default device T2/T_CNOT is 4.03e5 against the published 6e5; the
    paper's own 60 ms / 148 ns is 4.05e5, so its 6e5 does not follow from its
    T2 and CNOT time.  The test accepts a factor of 2; the reference and the
    window stay as published.
    """
    tradeoff = local_control_tradeoff(_LOCAL_B_AC, canonical_detuning_span(p), p.constants)
    local = TimescaleRow(
        scheme="e-spin (local control)",
        t_x=tradeoff.pi_time,
        t2_over_tx=t2 / tradeoff.pi_time,
        t_cnot=None,
        t2_over_tcnot=None,
    )
    t_x, t_cnot = (gates.synthesize(gates.TABLE_GATES[which][0](p), p).total_duration
                   for which in ("II", "VI"))
    global_row = TimescaleRow(
        scheme="e-spin (global control)",
        t_x=t_x,
        t2_over_tx=t2 / t_x,
        t_cnot=t_cnot,
        t2_over_tcnot=t2 / t_cnot,
    )
    return [local, global_row]


# ---------------------------------------------------------------------------
# frozen-nucleus oracle
# ---------------------------------------------------------------------------

def lab_realization(schedule: PulseSchedule, p: DeviceParameters) -> PulseSchedule:
    """The same control sequence expressed as a lab-frame schedule.

    A lab-frame input is returned as it is.  Verification asks for the twin
    of the same few gates again and again, so each twin is built once while
    the `_lab_twin` table holds it.  The twin carries its source's labels and
    declared_target, annotations a schedule's own key leaves out, so the
    table's key adds them: the labels by value, the target by identity (the
    entry holds the target, so its id is not reused while the entry lives).
    """
    if schedule.frame == "lab":
        return schedule
    return _lab_twin(schedule, p, tuple(seg.label for seg in schedule.segments),
                     id(schedule.declared_target))


@_memo.table
def _lab_twin(schedule: PulseSchedule, p: DeviceParameters, labels: tuple[str, ...],
              target_id: int) -> PulseSchedule:
    """lab_realization's lab-frame copy of a rotating-frame schedule; labels
    and target_id only key the entry."""
    return schedule.replace(frame="lab", carrier=carrier_frequency(p))


def _donor4_levels(local: PulseSchedule, p: DeviceParameters, include_nuclear_drive: bool):
    """Lab-frame propagator of a one-donor schedule's electron (x) nucleus
    pair, as a function of the steps per carrier period (see
    propagator._lab_levels).

    Each timed segment steps with the split-step kernel on its static
    Hamiltonian, rf-off ones included (with zero drive), one kernel call per
    level; the kernel memoizes everything but the telescope.  The drive comes
    from the schedule, as in the electron-only reference; the device sets the
    carrier and the static Hamiltonian, so a lab-frame schedule must run at
    the device carrier.  A segment whose static phase |H| t / hbar exceeds
    propagator._MAX_PHASE is rejected here, before any level runs, with
    |H| <= mu_B B + |g_n mu_n B| + 3 |A| (sigma_e . sigma_n has eigenvalues
    1 and -3) standing in for an eigh.
    """
    w_ac = carrier_frequency(p)
    if local.frame == "lab" and local.carrier != w_ac:
        raise ValueError(f"the nuclear oracle runs at the device carrier {w_ac!r} rad/s; "
                         f"the schedule's carrier is {local.carrier!r} rad/s")
    c, hbar = p.constants, local.hbar
    gx_e = local.transverse_energy / hbar
    gx_n = -c.g_n * c.mu_n * local.b_ac / hbar if include_nuclear_drive else 0.0
    zeeman = abs(c.mu_b * p.b) + abs(c.g_n * c.mu_n * p.b)

    def segment_step(seg: PulseSegment):
        a_phys = hyperfine_for_detuning(2.0 * seg.detunings.get(0, 0.0), w_ac, p)
        _check_phase((zeeman + 3.0 * abs(a_phys)) / hbar * seg.duration, seg.duration)
        # phase_sign_e = -1: the drive phase turns the electron by spin_model._z_turn
        kernel = functools.partial(
            _kernels.donor4_strang_product, single_donor_static(a_phys, p), hbar,
            gx_e if seg.rf_on else 0.0, -1.0, gx_n if seg.rf_on else 0.0, w_ac, local.rf_phase)
        return lambda t0, dts, ns: [kernel(t0, dt, n) for dt, n in zip(dts, ns)]

    return _lab_levels(local, w_ac, 4, segment_step)


@_memo.table
def _oracle_check(schedule: PulseSchedule, p: DeviceParameters, donor: int, tol: float,
                  include_nuclear_drive: bool) -> tuple[float, float]:
    """frozen_nucleus_check's (flip, fdev), with the donor resolved."""
    if schedule.system.include_nuclei:
        raise ValueError("pass the electron-only schedule; the oracle adds the nucleus")
    validate_schedule_controls(schedule, p)
    schedule.system.electron_site(donor)
    if any(schedule.dipole.values()) or any(any(seg.couplings.values())
                                            for seg in schedule.segments):
        raise ValueError("the nuclear oracle covers single-qubit schedules only")

    # the donor's own schedule, in the input's frame and at its carrier; no
    # coupling is nonzero, so dropping them adds or removes no term
    local = schedule.replace(
        system=SpinSystem(num_donors=1),
        segments=tuple(PulseSegment(seg.duration,
                                    {0: seg.detunings[donor]} if donor in seg.detunings else {},
                                    rf_on=seg.rf_on)
                       for seg in schedule.segments),
        dipole={},
        declared_target=None,
    )
    fine = _refine(_donor4_levels(local, p, include_nuclear_drive), tol, 1 << 16,
                   "nuclear oracle")
    # electron-only reference: local's rotating-frame unitary, which reads
    # controls only (the rf phase among them), so it is the reference in
    # either frame
    u_ref = _execute_rotating(local)

    # frame-map the electron part at the final time
    u_map = frame_rotation(schedule.total_duration, p, SpinSystem(1, include_nuclei=True)) @ fine

    flip = 0.0
    fdev = 0.0
    for e_idx in (0, 1):
        psi = u_map[:, 2 * e_idx]  # the electron start e_idx, nucleus up
        flip = max(flip, abs(psi[1]) ** 2 + abs(psi[3]) ** 2)
        fdev = max(fdev, abs(1.0 - abs(np.vdot(u_ref[:, e_idx], psi[[0, 2]])) ** 2))
    return flip, fdev


def frozen_nucleus_check(
    schedule: PulseSchedule,
    p: DeviceParameters,
    donor: int | None = None,
    tol: float = 1e-6,
    include_nuclear_drive: bool = False,
) -> tuple[float, float]:
    """Full electron (x) nucleus simulation of a single-qubit schedule.

    Returns (flip_probability, electron_fidelity_deviation): the worst final
    nuclear-spin-down population over computational-basis electron starts with
    the nucleus up, and the worst deviation of the conditional electron state
    from the electron-only rotating-frame result.  The integration step is
    refined until halving changes the propagator by at most tol in max-norm.

    The donor defaults to the lowest one the schedule detunes.  The result is
    computed once per (schedule, p, donor, tol, include_nuclear_drive) while
    the `_oracle_check` table holds it, the schedule compared by its controls
    (see PulseSchedule), so a repeated check computes nothing.  Errors are
    raised again on every call.
    """
    if donor is None:
        touched = {q for seg in schedule.segments for q in seg.detunings}
        donor = min(touched) if touched else 0
    return _oracle_check(schedule, p, donor, tol, include_nuclear_drive)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def _metric_spectator_period_ns(p: DeviceParameters) -> float:
    return gates.spectator_period(p) * 1e9


def _gate_ns(spec_of):
    """Sweep metric: the duration in ns of the gate spec_of(p) on its default system."""
    return lambda p: gates.synthesize(spec_of(p), p).total_duration * 1e9


def _metric_exchange_uev(p: DeviceParameters) -> float:
    return exchange_strength(p.d, p) / _UEV


def _metric_dipole_uev(p: DeviceParameters) -> float:
    return dipole_strength(p.d, p) / _UEV


def _metric_local_pi_time_us(p: DeviceParameters) -> float:
    return local_control_tradeoff(_LOCAL_B_AC, canonical_detuning_span(p),
                                  p.constants).pi_time * 1e6


SWEEP_FIELDS = tuple(f for f in _CONFIG_FIELDS if f != "alignment")

SWEEP_METRICS = {
    "spectator_period_ns": _metric_spectator_period_ns,
    "x_gate_ns": _gate_ns(gates.TABLE_GATES["II"][0]),
    "hadamard_ns": _gate_ns(gates.TABLE_GATES["IV"][0]),
    "y_gate_ns": _gate_ns(gates.TABLE_GATES["III"][0]),
    "z_gate_ns": _gate_ns(gates.TABLE_GATES["V"][0]),
    # the CNOT of each coupling mode at the device's own separation
    **{f"cnot_{mode}_ns": _gate_ns(lambda p, mode=mode, uses=uses: gates.GateSpec(
        "cnot", (0, 1), mode=mode, j=exchange_strength(p.d, p) if "j" in uses else None,
        d=p.d if "d" in uses else None)) for mode, uses in gates.GATE_KINDS["cnot"].modes.items()},
    "max_detuning_rad_s": max_detuning,
    "exchange_uev": _metric_exchange_uev,
    "dipole_uev": _metric_dipole_uev,
    "local_pi_time_us": _metric_local_pi_time_us,
}


def sweep(grid: Mapping[str, Sequence[float]], metric: str,
          p: DeviceParameters) -> list[dict]:
    """Evaluate a named metric over a grid of device-parameter overrides.

    Grid keys are the numeric config fields (SWEEP_FIELDS); rows come out in
    the deterministic product order of the given ranges.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValueError("grid must be non-empty")
    unknown = sorted(set(grid) - set(SWEEP_FIELDS))
    if unknown:
        raise ValueError(f"cannot sweep {', '.join(map(repr, unknown))}; "
                         f"sweepable fields: {', '.join(SWEEP_FIELDS)}")
    if metric not in SWEEP_METRICS:
        raise ValueError(f"unknown metric {metric!r}; known: {sorted(SWEEP_METRICS)}")
    fn = SWEEP_METRICS[metric]
    keys = list(grid.keys())
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        rows.append({**overrides, metric: fn(p.replace(**overrides))})
    return rows
