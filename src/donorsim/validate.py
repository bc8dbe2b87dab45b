"""The invariant suite behind `donorsim validate` and much of the test suite.

Each check returns (passed, detail).  Checks that synthesize gates treat a
clean InfeasibleDetuningError as a pass when the device genuinely cannot reach
the required detuning (e.g. zero tuning range), and a DipoleAlignmentError as
one when its donors are not z-aligned: correct rejection is correct behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, gates
from .params import (
    DeviceParameters,
    DipoleAlignmentError,
    InfeasibleDetuningError,
    canonical_detuning_span,
    carrier_frequency,
    detuning,
    dipole_strength,
    exchange_peak_separation,
    exchange_strength,
    local_control_tradeoff,
    max_detuning,
    resonant_frequency,
)
from .propagator import (
    PulseSchedule,
    PulseSegment,
    _lab_donor_levels,
    concat_schedules,
    execute_schedule,
    propagate_constant,
    trace_evolution,
)
from .spin_model import (
    SpinSystem,
    dipole_term,
    electron_pauli,
    frame_rotation,
    is_hermitian,
    rotating_hamiltonian,
    single_donor_driven,
    single_donor_static,
    single_electron_lab,
)

__all__ = ["CheckResult", "run_validation", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _feasible(check):
    """Decorate a synthesis-dependent check: a clean infeasible or misaligned rejection passes."""
    def run(p: DeviceParameters, rng) -> tuple[bool, str]:
        try:
            return check(p, rng)
        except InfeasibleDetuningError as exc:
            return True, f"correctly rejected as infeasible: {exc}"
        except DipoleAlignmentError as exc:
            return True, f"correctly rejected as misaligned: {exc}"

    return run


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def check_resonance_monotone(p: DeviceParameters, rng) -> tuple[bool, str]:
    a = np.linspace(0.0, p.a0, 512)
    w = np.array([resonant_frequency(x, p) for x in a])
    ok = bool(np.all(np.diff(w) > 0.0))
    return ok, "omega(A) strictly increasing on 512-point grid"


def check_detuning_endpoints(p: DeviceParameters, rng) -> tuple[bool, str]:
    zero = detuning(p.a0, p)
    edge = detuning(p.a_min, p)
    a = np.linspace(p.a_min, p.a0, 257)
    d = np.array([detuning(x, p) for x in a])
    mono = bool(np.all(np.diff(d) > 0.0)) if p.a_min < p.a0 else True
    ok = zero == 0.0 and abs(edge + max_detuning(p)) <= 1e-9 * max(max_detuning(p), 1.0) and mono
    return ok, f"detuning(a0)={zero:.1e}, detuning(a_min)+dw_max={edge + max_detuning(p):.1e}"


def check_exchange_peak(p: DeviceParameters, rng) -> tuple[bool, str]:
    lo, hi = 0.2 * p.a_star, 5.0 * p.a_star
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(200):
        if exchange_strength(c, p) > exchange_strength(d, p):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    found = 0.5 * (a + b)
    ref = exchange_peak_separation(p)
    rel = abs(found - ref) / ref
    return rel <= 1e-9, f"golden-section peak {found:.6e} vs analytic {ref:.6e} (rel {rel:.1e})"


def check_dipole_cube_law(p: DeviceParameters, rng) -> tuple[bool, str]:
    ds = np.linspace(5e-9, 80e-9, 41)
    vals = np.array([dipole_strength(d, p) * d**3 for d in ds])
    rel = float(np.abs(vals / vals[0] - 1.0).max())
    return rel <= 1e-12, f"D(d)*d^3 constant to {rel:.1e}"


def check_tradeoff_identity(p: DeviceParameters, rng) -> tuple[bool, str]:
    tr = local_control_tradeoff(1e-5, canonical_detuning_span(p), p.constants)
    rel = abs(tr.pi_time * tr.fwhm - 2.0 * math.pi) / (2.0 * math.pi)
    return rel <= 1e-12, f"pi_time*fwhm = 2*pi to {rel:.1e}"


# ---------------------------------------------------------------------------
# spin model
# ---------------------------------------------------------------------------

def check_hermitian_builders(p: DeviceParameters, rng) -> tuple[bool, str]:
    dw = max_detuning(p)
    drive, hbar = p.transverse_energy, p.constants.hbar
    ops = [
        single_donor_static(p.a0, p),
        single_donor_driven(p.a0, 1.3e-9, p, include_nuclear_drive=True),
        single_electron_lab(p.a0, 0.7e-9, p),
        rotating_hamiltonian(SpinSystem(1), drive, {0: -0.5 * dw}, {}, {}, hbar),
        rotating_hamiltonian(SpinSystem(2), drive, {0: -0.1 * dw, 1: -0.2 * dw},
                             {(0, 1): 1e-27}, {}, hbar),
        dipole_term(1e-30, "x"),
        dipole_term(1e-30, "z"),
        rotating_hamiltonian(SpinSystem(2), drive, {0: 0.0, 1: 0.0},
                             {(0, 1): 1e-27}, {(0, 1): 1e-30}, hbar),
    ]
    ok = all(is_hermitian(h) for h in ops)
    return ok, f"{len(ops)} builders Hermitian to 1e-12 relative"


def check_commutators(p: DeviceParameters, rng) -> tuple[bool, str]:
    sys2 = SpinSystem(num_donors=2)
    sx = electron_pauli(sys2, 0, "x") + electron_pauli(sys2, 1, "x")
    sz = electron_pauli(sys2, 0, "z") + electron_pauli(sys2, 1, "z")
    hbar = p.constants.hbar
    dot = (rotating_hamiltonian(sys2, p.transverse_energy, {0: 0.0, 1: 0.0}, {(0, 1): 1.0}, {},
                                hbar)
           - rotating_hamiltonian(sys2, p.transverse_energy, {0: 0.0, 1: 0.0}, {(0, 1): 0.0},
                                  {}, hbar))
    dw = 0.3 * max_detuning(p)
    global_part = p.transverse_energy * sx + hbar * dw * sz
    scale = np.abs(global_part).max() * np.abs(dot).max()
    c1 = np.abs(global_part @ dot - dot @ global_part).max() / scale
    jd = dot  # (J+D) sigma.sigma has the same commutation structure
    c2 = np.abs(sx @ jd - jd @ sx).max() / (np.abs(sx).max() * np.abs(jd).max())
    zz = electron_pauli(sys2, 0, "z") @ electron_pauli(sys2, 1, "z")
    lhs = zz @ sx - sx @ zz
    rhs = 2.0j * (
        electron_pauli(sys2, 0, "y") @ electron_pauli(sys2, 1, "z")
        + electron_pauli(sys2, 0, "z") @ electron_pauli(sys2, 1, "y")
    )
    c3 = np.abs(lhs - rhs).max() / np.abs(rhs).max()
    ok = c1 <= 1e-12 and c2 <= 1e-12 and c3 <= 1e-12
    return ok, f"rel residuals {c1:.1e}, {c2:.1e}, zz-x identity {c3:.1e}"


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------

def check_unitarity(p: DeviceParameters, rng) -> tuple[bool, str]:
    worst = 0.0
    for dim in (2, 4, 8):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (m + m.conj().T) * 1e-26
        u = propagate_constant(h, rng.uniform(0.0, 50e-9), p.constants.hbar)
        worst = max(worst, analysis._unitarity_deviation(u))
    return worst <= 1e-12, f"worst |U^dag U - I| = {worst:.1e}"


def _random_schedule(p: DeviceParameters, rng, n_segments: int) -> PulseSchedule:
    segs = []
    dw_max = max_detuning(p)
    for _ in range(n_segments):
        segs.append(
            PulseSegment(
                duration=rng.uniform(1e-10, 8e-9),
                detunings={0: -rng.uniform(0.0, dw_max)},
            )
        )
    return PulseSchedule(segments=tuple(segs), b_ac=p.b_ac, system=SpinSystem(1),
                         hbar=p.constants.hbar, mu_b=p.constants.mu_b)


def check_composition(p: DeviceParameters, rng) -> tuple[bool, str]:
    s1 = _random_schedule(p, rng, 3)
    s2 = _random_schedule(p, rng, 2)
    u12 = execute_schedule(concat_schedules(s1, s2)).unitary
    u_prod = execute_schedule(s2).unitary @ execute_schedule(s1).unitary
    err = float(np.abs(u12 - u_prod).max())
    return err <= 1e-13, f"concat vs product max-norm {err:.1e}"


def check_rabi_match(p: DeviceParameters, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        dw = rng.uniform(-max_detuning(p), max_detuning(p))
        t = rng.uniform(0.0, 60e-9)
        b_ac = rng.uniform(0.2e-3, 1.2e-3)
        pp = p.replace(b_ac=b_ac)
        h = rotating_hamiltonian(SpinSystem(1), pp.transverse_energy, {0: dw}, {}, {},
                                 pp.constants.hbar)
        u = propagate_constant(h, t, pp.constants.hbar)
        numeric = abs(u[1, 0]) ** 2
        worst = max(worst, abs(numeric - analysis.rabi_probability(t, dw, b_ac, p.constants)))
    return worst <= 1e-10, f"worst |P_numeric - P_formula| = {worst:.1e}"


def check_integrator_order(p: DeviceParameters, rng) -> tuple[bool, str]:
    seg = PulseSegment(duration=2e-9, detunings={0: -0.4 * max_detuning(p)})
    sched = PulseSchedule(segments=(seg,), b_ac=p.b_ac, system=SpinSystem(1),
                          frame="lab", carrier=carrier_frequency(p),
                          hbar=p.constants.hbar, mu_b=p.constants.mu_b)
    u_rot = execute_schedule(sched.replace(frame="rotating", carrier=None)).unitary
    u_lab_exact = frame_rotation(seg.duration, p, SpinSystem(1)).conj().T @ u_rot
    steps = [64, 128, 256, 512, 1024]
    errs = [np.abs(u - u_lab_exact).max() for u in _lab_donor_levels(sched, 0)(steps)]
    dts = [1.0 / s for s in steps]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    return slope >= 2.0 - 0.1, f"log-log error slope {slope:.2f} (want >= 2)"


@_feasible
def check_trace_rows(p: DeviceParameters, rng) -> tuple[bool, str]:
    sched = gates.synthesize(gates.GateSpec("x", (0,), theta=math.pi), p, SpinSystem(2))
    tr = trace_evolution(sched, "00", samples=257)
    worst = float(np.abs(tr.populations.sum(axis=1) - 1.0).max())
    final_p1 = tr.populations[-1][tr.basis_labels.index("10")]
    ok = worst <= 1e-9 and final_p1 >= 1.0 - 1e-6
    return ok, f"row-sum dev {worst:.1e}, final target flip {final_p1:.8f}"


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

@_feasible
def check_duration_clock(p: DeviceParameters, rng) -> tuple[bool, str]:
    t_spec = gates.spectator_period(p)
    j = gates.interaction_coupling(1e-11, p)
    worst = 0.0
    for spec in (gates.GateSpec("x", (0,), theta=math.pi),
                 gates.GateSpec("x", (0,), theta=math.pi / 2.0),
                 gates.GateSpec("y", (0,), theta=math.pi), gates.GateSpec("z", (0,), theta=math.pi),
                 gates.GateSpec("hadamard", (0,)),
                 gates.GateSpec("cnot", (0, 1), mode="exchange", j=j)):
        total = gates.synthesize(spec, p).total_duration
        periods = round(total / t_spec)
        worst = max(worst, abs(total - periods * t_spec) / t_spec)
    return worst <= 1e-9, f"worst off-clock fraction {worst:.1e}"


@_feasible
def check_single_qubit_fidelity(p: DeviceParameters, rng) -> tuple[bool, str]:
    worst_f, worst_s = 1.0, 1.0
    for n in (2, 3):
        system = SpinSystem(num_donors=n)
        for spec in (
            gates.GateSpec("x", (0,), theta=math.pi),
            gates.GateSpec("x", (1,), theta=math.pi / 2.0),
            gates.GateSpec("y", (0,), theta=math.pi),
            gates.GateSpec("z", (0,), theta=math.pi),
            gates.GateSpec("hadamard", (0,)),
        ):
            rep = gates.compile_gate(spec, p, system)
            worst_f = min(worst_f, rep.fidelity)
            worst_s = min(worst_s, analysis.spectator_fidelity(
                rep.achieved, gates.ideal_unitary(spec), spec.targets, system))
    ok = worst_f >= 1.0 - 1e-6 and worst_s >= 1.0 - 1e-6
    return ok, f"worst gate fidelity {worst_f:.9f}, worst spectator {worst_s:.9f}"


def check_correction_minimality(p: DeviceParameters, rng) -> tuple[bool, str]:
    t_spec = gates.spectator_period(p)
    omega0 = p.transverse_energy
    omega_hi = math.hypot(omega0, p.constants.hbar * max_detuning(p))
    hbar = p.constants.hbar
    # from K = ceil(Omega0 / (Omega_max - Omega0)) wraps on a window always
    # exists; the exhaustive reference stops at K + 1, or at 64 wraps
    spread = omega_hi - omega0
    limit = math.ceil(omega0 / spread) + 1 if spread > 0.0 else 1
    reach = min(limit, 64)

    def exhaustive_k(deficit: float) -> int | None:
        for k in range(reach + 1):
            t_c = (deficit + 2.0 * math.pi * k) * hbar / (2.0 * omega0)
            n_lo = max(1, math.ceil(t_c / t_spec - 1e-12))
            n_hi = math.floor(t_c * omega_hi / (math.pi * hbar) + 1e-12)
            if n_lo <= n_hi:
                return k
        return None

    mismatches = 0
    infeasible = 0
    for deficit in np.linspace(1e-6, 2.0 * math.pi - 1e-6, 1000):
        minimal = exhaustive_k(float(deficit))
        try:
            _, plan = gates.synth_correction(float(deficit), (0,), p)
            synthesized = plan.wrap_count
        except InfeasibleDetuningError:
            synthesized = None
            infeasible += 1
        if minimal is None and reach < limit:   # the reference only rules out k <= reach
            mismatches += synthesized is None or synthesized <= reach
        elif synthesized != minimal:
            mismatches += 1
    note = f"; {infeasible} grid deficits have no correction window" if infeasible else ""
    return mismatches == 0, f"{mismatches} of 1000 grid deficits disagree with exhaustive search{note}"


@_feasible
def check_multi_step_x(p: DeviceParameters, rng) -> tuple[bool, str]:
    theta = 1.5 * math.pi
    system = SpinSystem(2)
    rep = gates.compile_gate(gates.GateSpec("x", (0,), theta=theta), p, system)
    n_steps = len(rep.schedule.segments)
    ok = n_steps >= 4 and rep.fidelity >= 1.0 - 1e-6
    return ok, f"{n_steps} segments, fidelity {rep.fidelity:.9f}"


def check_frame_equivalence_random(p: DeviceParameters, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        segs = tuple(
            PulseSegment(duration=rng.uniform(0.2e-9, 2e-9),
                         detunings={0: rng.uniform(-max_detuning(p), max_detuning(p))})
            for _ in range(rng.integers(1, 4))
        )
        lab = PulseSchedule(segments=segs, b_ac=p.b_ac, system=SpinSystem(1),
                            frame="lab", carrier=carrier_frequency(p),
                            hbar=p.constants.hbar, mu_b=p.constants.mu_b)
        u_lab = execute_schedule(lab, lab_tol=1e-8).unitary
        u_rot = execute_schedule(lab.replace(frame="rotating", carrier=None)).unitary
        u_map = frame_rotation(lab.total_duration, p, SpinSystem(1)) @ u_lab
        worst = max(worst, 1.0 - analysis.gate_fidelity(u_map, u_rot))
    return worst <= 1e-8, f"worst infidelity {worst:.1e} over 20 random 1-3 segment schedules"


@_feasible
def check_frame_equivalence_gates(p: DeviceParameters, rng) -> tuple[bool, str]:
    worst_f = 0.0
    worst_norm = 0.0
    one = SpinSystem(1)
    for name, sched in (("x", gates.synthesize(gates.GateSpec("x", (0,), theta=math.pi), p, one)),
                        ("hadamard", gates.synthesize(gates.GateSpec("hadamard", (0,)), p, one))):
        lab = analysis.lab_realization(sched, p)
        u_lab = execute_schedule(lab, lab_tol=1e-7).unitary
        u_rot = execute_schedule(sched).unitary
        u_map = frame_rotation(sched.total_duration, p, sched.system) @ u_lab
        worst_f = max(worst_f, 1.0 - analysis.gate_fidelity(u_map, u_rot))
        worst_norm = max(worst_norm, float(np.abs(u_map - u_rot).max()))
    ok = worst_f <= 1e-6 and worst_norm <= 1e-4
    return ok, f"worst infidelity {worst_f:.1e}, phase-exact max-norm {worst_norm:.1e}"


@_feasible
def check_frozen_nucleus(p: DeviceParameters, rng) -> tuple[bool, str]:
    sched = gates.synthesize(gates.GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    flip, fdev = analysis.frozen_nucleus_check(sched, p)
    ok = flip <= 1e-4 and fdev <= 1e-3
    return ok, f"flip probability {flip:.2e}, electron-fidelity deviation {fdev:.2e}"


@_feasible
def check_dipole_refocus(p: DeviceParameters, rng) -> tuple[bool, str]:
    d = 30e-9
    with_x = gates.synthesize(gates.GateSpec("cnot", (0, 1), mode="dipole", d=d), p)
    without = gates.synthesize(
        gates.GateSpec("cnot", (0, 1), mode="dipole", d=d, x_conjugation=False), p)
    f_with = analysis.gate_fidelity(execute_schedule(with_x).unitary,
                                    with_x.declared_target)
    f_without = analysis.gate_fidelity(execute_schedule(without).unitary,
                                       with_x.declared_target)
    return f_with > f_without, f"refocused {f_with:.6f} vs idle-replaced {f_without:.6f}"


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def check_fidelity_properties(p: DeviceParameters, rng) -> tuple[bool, str]:
    worst_phase = 0.0
    worst_sym = 0.0
    in_range = True
    for _ in range(50):
        dim = int(rng.choice([2, 4]))
        u = _haar_unitary(dim, rng)
        v = _haar_unitary(dim, rng)
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        worst_phase = max(worst_phase,
                          abs(analysis.gate_fidelity(u, np.exp(1j * alpha) * u) - 1.0))
        f_uv = analysis.gate_fidelity(u, v)
        worst_sym = max(worst_sym, abs(f_uv - analysis.gate_fidelity(v, u)))
        in_range &= 0.0 <= f_uv <= 1.0
    ok = worst_phase <= 1e-12 and worst_sym <= 1e-12 and in_range
    return ok, f"phase dev {worst_phase:.1e}, symmetry dev {worst_sym:.1e}"


def check_rabi_envelope(p: DeviceParameters, rng) -> tuple[bool, str]:
    dw = 0.7 * max_detuning(p)
    env = (p.transverse_energy /
           math.hypot(p.transverse_energy, p.constants.hbar * dw)) ** 2
    worst = max(analysis.rabi_probability(t, dw, p.b_ac, p.constants) - env
                for t in np.linspace(0.0, 100e-9, 999))
    return worst <= 1e-12, f"max P - envelope = {worst:.1e}"


def check_sweep_determinism(p: DeviceParameters, rng) -> tuple[bool, str]:
    rows = analysis.sweep({"b_ac": [p.b_ac]}, "spectator_period_ns", p)
    direct = gates.spectator_period(p) * 1e9
    ok = len(rows) == 1 and rows[0]["spectator_period_ns"] == direct
    return ok, "1-point sweep reproduces the direct call bit-for-bit"


CHECKS = [
    ("params.resonance_monotone", check_resonance_monotone),
    ("params.detuning_endpoints", check_detuning_endpoints),
    ("params.exchange_peak", check_exchange_peak),
    ("params.dipole_cube_law", check_dipole_cube_law),
    ("params.tradeoff_identity", check_tradeoff_identity),
    ("spin_model.hermitian_builders", check_hermitian_builders),
    ("spin_model.commutators", check_commutators),
    ("propagator.unitarity", check_unitarity),
    ("propagator.composition", check_composition),
    ("propagator.rabi_match", check_rabi_match),
    ("propagator.integrator_order", check_integrator_order),
    ("propagator.trace_rows", check_trace_rows),
    ("gates.duration_clock", check_duration_clock),
    ("gates.single_qubit_fidelity", check_single_qubit_fidelity),
    ("gates.correction_minimality", check_correction_minimality),
    ("gates.multi_step_x", check_multi_step_x),
    ("gates.frame_equivalence_random", check_frame_equivalence_random),
    ("gates.frame_equivalence_gates", check_frame_equivalence_gates),
    ("gates.frozen_nucleus", check_frozen_nucleus),
    ("gates.dipole_refocus", check_dipole_refocus),
    ("analysis.fidelity_properties", check_fidelity_properties),
    ("analysis.rabi_envelope", check_rabi_envelope),
    ("analysis.sweep_determinism", check_sweep_determinism),
]


def run_validation(p: DeviceParameters | None = None, seed: int = 7) -> list[CheckResult]:
    """Run every invariant check; deterministic for a fixed seed."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    p = p or DeviceParameters()
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            passed, detail = fn(p, rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
