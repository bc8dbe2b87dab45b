import dataclasses
import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import cnot_steps, embed_loop, table_j
from donorsim import _memo, analysis, gates
from donorsim.analysis import gate_fidelity, spectator_fidelity
from donorsim.gates import (
    CNOT_MATRIX,
    HADAMARD,
    SWAP_MATRIX,
    GateSpec,
    compile_gate,
    compose_parallel,
    embed_ideal,
    ideal_unitary,
    max_single_step_angle,
    spectator_period,
    synth_cnot,
    synth_correction,
    synth_hadamard,
    synth_idle,
    synth_swap,
    synth_x,
    synth_y,
    synth_z,
    synthesize,
    interaction_coupling,
    _hadamard_block,
    _make_schedule,
)
from donorsim.params import (DeviceParameters, DipoleAlignmentError, InfeasibleDetuningError,
                             exceeds_max_detuning, max_detuning)
from donorsim.propagator import PulseSegment, concat_schedules, execute_schedule
from donorsim.spin_model import SpinSystem, embed

# frozen from the closed forms (independent evaluation; see test_params for
# the underlying device numbers)
T_SPEC = 2.9770717529974448e-08
X_PI_STEP = T_SPEC / 2.0
X_HALF_PI_STEP1 = 2.2328038147480833e-08
X_HALF_PI_STEP2 = 7.442679382493612e-09
H_PULSE = 1.0525538123117077e-08
Y_BLOCK = 5.0821793776208605e-08
Y_DEFICIT = 1.8403023690212201
Y_CORRECTION = 3.849035881371474e-08
Z_CORRECTION = 2.3605000048727514e-08


def _durations(sched):
    return [seg.duration for seg in sched.segments]


def test_spectator_period(p):
    t = spectator_period(p)
    assert t == pytest.approx(T_SPEC, rel=1e-12)
    assert abs(t - 29.7e-9) / 29.7e-9 <= 0.005
    assert spectator_period(p.replace(b_ac=2 * p.b_ac)) == pytest.approx(t / 2, rel=1e-12)
    rate = 2.0 * p.transverse_energy / p.constants.hbar
    assert t * rate == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_x_pi_durations(p):
    sched = synth_x(math.pi, 0, p)
    assert _durations(sched) == pytest.approx([X_PI_STEP, X_PI_STEP], rel=1e-12)
    assert sched.total_duration == pytest.approx(T_SPEC, rel=1e-12)


def test_x_zero_angle_empty(p):
    assert synth_x(0.0, 0, p).segments == ()


def test_x_half_pi_durations(p):
    sched = synth_x(math.pi / 2.0, 0, p)
    assert _durations(sched) == pytest.approx([X_HALF_PI_STEP1, X_HALF_PI_STEP2], rel=1e-12)
    # spectators complete exactly 2*pi
    assert sched.total_duration == pytest.approx(T_SPEC, rel=1e-12)


@pytest.mark.parametrize("theta", [0.3, math.pi / 2, math.pi, -math.pi / 3, 1.9 * math.pi])
@pytest.mark.parametrize("n", [2, 3])
def test_x_fidelity(p, theta, n):
    system = SpinSystem(n)
    rep = compile_gate(GateSpec("x", (0,), theta=theta), p, system)
    assert rep.fidelity >= 1.0 - 1e-6
    assert spectator_fidelity(rep.achieved, ideal_unitary(rep.spec), (0,), system) >= 1.0 - 1e-6


def test_x_multi_step_decomposition(p):
    theta = 1.5 * math.pi
    sched = synth_x(theta, 0, p)
    assert len(sched.segments) == 4  # two feasible steps
    two_halves = concat_schedules(synth_x(theta / 2, 0, p), synth_x(theta / 2, 0, p))
    u1 = execute_schedule(sched).unitary
    u2 = execute_schedule(two_halves).unitary
    assert gate_fidelity(u1, u2) >= 1.0 - 1e-12


def test_x_high_drive_forces_decomposition():
    p = DeviceParameters(b_ac=5e-3)
    assert max_single_step_angle(p) < math.pi
    sched = synth_x(math.pi, 0, p)
    assert len(sched.segments) > 2
    rep = compile_gate(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6


def test_x_infeasible_without_tuning_range(p):
    with pytest.raises(InfeasibleDetuningError):
        synth_x(math.pi, 0, p.replace(a_min=p.a0))


def test_correction_hadamard_case(p):
    # Hadamard leaves spectators 4.0617 rad short: k=0, one revolution
    segs, plan = synth_correction(4.061744001271126, (0,), p)
    assert plan.wrap_count == 0 and plan.revolutions == 1
    assert plan.duration == pytest.approx(T_SPEC - H_PULSE, rel=1e-9)


def test_correction_wrap_case(p):
    segs, plan = synth_correction(Y_DEFICIT, (0,), p)
    assert plan.wrap_count == 1 and plan.revolutions == 2
    assert plan.duration == pytest.approx(Y_CORRECTION, rel=1e-12)


def test_correction_zero_deficit(p):
    segs, plan = synth_correction(0.0, (0,), p)
    assert segs == [] and plan.duration == 0.0


def test_correction_without_idle_targets_is_one_resonant_segment(p):
    segs, plan = synth_correction(1.0, (), p)
    assert plan.wrap_count == 0 and plan.revolutions == 0
    assert segs == [PulseSegment(duration=plan.duration, label="correction")]
    assert plan.duration == 1.0 * p.constants.hbar / (2.0 * p.transverse_energy)


def test_correction_minimality_grid(p):
    # spot-check against exhaustive wrap search (the full 1e3 grid runs in validate)
    from donorsim.validate import check_correction_minimality

    ok, detail = check_correction_minimality(p, np.random.default_rng(0))
    assert ok, detail


@pytest.mark.parametrize("kwargs, wraps", [
    ({}, 1),
    ({"a_min": 1.2e-26}, 2),
    ({"a_min": 1.5e-26}, 4),
    ({"a_min": 1.6666918461074218e-26}, 9),
    ({"b_ac": 0.0034850460491305853}, 7),
    ({"a_min": 1.9e-26}, 428),
])
def test_correction_holds_a_window_within_k_plus_one_wraps(kwargs, wraps):
    """From K = ceil(Omega0 / (Omega_max - Omega0)) wraps on, the window of
    whole detuned revolutions spans at least one, so every deficit has a
    correction within K + 1 wraps, and the closed-form start still finds the
    exhaustive minimum (which validate searches up to 64 wraps)."""
    from donorsim.validate import check_correction_minimality

    dev = DeviceParameters(**kwargs)
    omega0 = dev.transverse_energy
    assert math.ceil(omega0 / (math.hypot(omega0, dev.constants.hbar * max_detuning(dev))
                               - omega0)) == wraps
    for deficit in np.linspace(1e-6, 2.0 * math.pi - 1e-6, 200):
        assert synth_correction(float(deficit), (0,), dev)[1].wrap_count <= wraps + 1
    ok, detail = check_correction_minimality(dev, np.random.default_rng(0))
    assert ok and "infeasible" not in detail, detail


def test_split_hadamard_finds_its_correction_past_four_wraps():
    """Where Omega_max / Omega0 = 1.113 the split Hadamard's correction first
    fits at nine wraps, past the old budget of four."""
    from donorsim.gates import _deficit_after

    dev = DeviceParameters(a_min=1.6666918461074218e-26)
    sched = synth_hadamard(0, dev)
    assert sched.segments[-1].label == "correction"
    segments = list(sched.segments[:-1])
    assert synth_correction(_deficit_after(segments, dev), (0,), dev)[1].wrap_count == 9
    rep = compile_gate(GateSpec("hadamard", (0,)), dev, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6


def test_correction_on_a_narrow_tuning_range_is_found_in_closed_form(p):
    """At a_min = 0.9999 a0 the first window is 1.6e7 wraps out; the scan
    starts next to it, so Y synthesizes in milliseconds."""
    from donorsim.gates import _deficit_after

    dev = p.replace(a_min=0.9999 * p.a0)
    start = time.perf_counter()
    sched = synthesize(GateSpec("y", (0,), theta=1.0), dev, SpinSystem(2))
    assert time.perf_counter() - start < 1.0
    corr = sched.segments[-1]
    assert corr.label == "correction"
    plan = synth_correction(_deficit_after(list(sched.segments[:-1]), dev), (0,), dev)[1]
    assert plan.wrap_count > 10**7 and plan.revolutions == plan.wrap_count + 1
    assert corr.duration == plan.duration and corr.detunings == {0: plan.idle_detuning}
    assert not exceeds_max_detuning(plan.idle_detuning, dev)


def test_correction_without_tuning_range_keeps_its_error(p):
    flat = p.replace(a_min=p.a0)
    with pytest.raises(InfeasibleDetuningError, match="^no feasible correction window found$"):
        synth_correction(1.0, (0,), flat)


def test_hadamard_durations_and_fidelity(p):
    sched = synth_hadamard(0, p)
    assert _durations(sched) == pytest.approx([H_PULSE, T_SPEC - H_PULSE], rel=1e-9)
    assert sched.total_duration == pytest.approx(T_SPEC, rel=1e-12)
    rep = compile_gate(GateSpec("hadamard", (0,)), p, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6


def test_hadamard_squared_is_identity(p):
    # two uncorrected pulses plus one merged correction
    segments = [*_hadamard_block(0, p), *_hadamard_block(0, p)]
    from donorsim.gates import _deficit_after

    corr, _ = synth_correction(_deficit_after(segments, p), (0,), p)
    sched = _make_schedule(segments + corr, p, SpinSystem(2))
    u = execute_schedule(sched).unitary
    assert gate_fidelity(u, np.eye(4, dtype=complex)) >= 1.0 - 1e-6


def test_hadamard_infeasible(p):
    with pytest.raises(InfeasibleDetuningError):
        synth_hadamard(0, p.replace(a_min=p.a0))


def test_y_durations(p):
    sched = synth_y(math.pi, 0, p)
    block = sum(_durations(sched)[:4])
    assert block == pytest.approx(Y_BLOCK, rel=1e-12)
    assert _durations(sched)[4] == pytest.approx(Y_CORRECTION, rel=1e-12)
    assert sched.total_duration == pytest.approx(3 * T_SPEC, rel=1e-12)


@pytest.mark.parametrize("theta", [0.5, math.pi, -1.2, 5.5])
def test_y_fidelity(p, theta):
    rep = compile_gate(GateSpec("y", (0,), theta=theta), p, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6


def test_y_zero_angle_empty(p):
    assert synth_y(0.0, 0, p).segments == ()


def test_y_infeasible(p):
    with pytest.raises(InfeasibleDetuningError):
        synth_y(math.pi, 0, p.replace(a_min=p.a0))


def test_z_durations(p):
    sched = synth_z(math.pi, 0, p)
    assert _durations(sched) == pytest.approx(
        [H_PULSE, X_PI_STEP, H_PULSE, Z_CORRECTION], rel=1e-9
    )
    assert sched.total_duration == pytest.approx(2 * T_SPEC, rel=1e-12)


@pytest.mark.parametrize("theta", [math.pi, 0.7, -0.9])
def test_z_fidelity(p, theta):
    rep = compile_gate(GateSpec("z", (0,), theta=theta), p, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6


def test_z_zero_angle_collapses_to_identity(p):
    sched = synth_z(0.0, 0, p)
    assert len(sched.segments) == 3  # H, H, merged correction
    u = execute_schedule(sched).unitary
    assert gate_fidelity(u, np.eye(2, dtype=complex)) >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# CNOT
# ---------------------------------------------------------------------------

def test_cnot_exchange_steps(p):
    sched = synth_cnot("exchange", 0, 1, p, j=table_j(p))
    refs_ns = [29.7, 0.01, 14.8, 0.01, 14.8, 7.4, 29.7]
    grouped = cnot_steps(sched)
    assert len(grouped) == 7
    for (label, dur), ref in zip(grouped, refs_ns):
        assert abs(dur * 1e9 - ref) / ref <= 0.01
    uncorrected = sum(d for _, d in grouped)
    assert abs(uncorrected * 1e9 - 96.5) / 96.5 <= 0.01


def test_cnot_exchange_fidelity_and_clock(p):
    for extended in (False, True):
        sched = synth_cnot("exchange", 0, 1, p, j=table_j(p), extended_correction=extended)
        periods = sched.total_duration / spectator_period(p)
        assert abs(periods - round(periods)) <= 1e-9
        u = execute_schedule(sched).unitary
        assert gate_fidelity(u, CNOT_MATRIX) >= 1.0 - 1e-4


def test_cnot_extended_correction_mode(p):
    minimal = synth_cnot("exchange", 0, 1, p, j=table_j(p))
    extended = synth_cnot("exchange", 0, 1, p, j=table_j(p), extended_correction=True)
    assert abs(extended.segments[-1].duration * 1e9 - 51.9) / 51.9 <= 0.01
    assert abs(extended.total_duration * 1e9 - 148.4) / 148.4 <= 0.01
    assert extended.total_duration - minimal.total_duration == pytest.approx(
        spectator_period(p), rel=1e-9
    )


def test_cnot_on_three_qubit_system(p):
    system = SpinSystem(3)
    sched = synth_cnot("exchange", 0, 1, p, j=table_j(p), system=system)
    u = execute_schedule(sched).unitary
    assert gate_fidelity(u, sched.declared_target) >= 1.0 - 1e-4
    assert spectator_fidelity(u, CNOT_MATRIX, (0, 1), system) >= 1.0 - 1e-4


def test_cnot_dipole_duration_scaling(p):
    t30 = synth_cnot("dipole", 0, 1, p, d=30e-9).total_duration
    t60 = synth_cnot("dipole", 0, 1, p, d=60e-9).total_duration
    # interaction windows dominate and scale as d^3
    int30 = sum(s.duration for s in synth_cnot("dipole", 0, 1, p, d=30e-9).segments
                if not s.rf_on)
    int60 = sum(s.duration for s in synth_cnot("dipole", 0, 1, p, d=60e-9).segments
                if not s.rf_on)
    assert int60 / int30 == pytest.approx(8.0, rel=1e-12)
    assert t60 > t30


def test_cnot_dipole_refocusing_improves(p):
    d = 30e-9
    with_x = synth_cnot("dipole", 0, 1, p, d=d)
    without = synth_cnot("dipole", 0, 1, p, d=d, x_conjugation=False)
    target = with_x.declared_target
    f_with = gate_fidelity(execute_schedule(with_x).unitary, target)
    f_without = gate_fidelity(execute_schedule(without).unitary, target)
    assert f_with > f_without


def test_cnot_x_steps_fall_back_to_sub_steps(p):
    """On a device too weak for the one-step revolution of the target, X(pi) on
    the control is synth_x's own sub-steps, relabelled; its diagnostic idle is
    one resonant segment as long.  The gate stays on the spectator clock, on
    three donors too, and the X-conjugation still refocuses the dipole term."""
    weak = p.replace(a_min=1.2e-26)
    x_pi = synth_x(math.pi, 0, weak).segments
    assert len(x_pi) == 4
    for system in (None, SpinSystem(3)):
        sched = synth_cnot("exchange", 0, 1, weak, j=table_j(weak), system=system)
        for step in (3, 5):
            label = f"step {step} x on control"
            steps = [seg for seg in sched.segments if seg.label == label]
            assert steps == [seg.with_label(label) for seg in x_pi]
        periods = sched.total_duration / spectator_period(weak)
        assert abs(periods - round(periods)) <= 1e-9
        u = execute_schedule(sched).unitary
        assert gate_fidelity(u, sched.declared_target) >= 1.0 - 1e-4
        if system is not None:
            assert spectator_fidelity(u, CNOT_MATRIX, (0, 1), system) >= 1.0 - 1e-4
    with_x = synth_cnot("dipole", 0, 1, weak, d=30e-9)
    without = synth_cnot("dipole", 0, 1, weak, d=30e-9, x_conjugation=False)
    idle = [seg for seg in without.segments if seg.label == "step 3 x on control"]
    assert idle == [PulseSegment(duration=sum(seg.duration for seg in x_pi),
                                 label="step 3 x on control")]
    target = with_x.declared_target
    f_with = gate_fidelity(execute_schedule(with_x).unitary, target)
    assert f_with > gate_fidelity(execute_schedule(without).unitary, target)


def test_cnot_combined_mode(p):
    j = table_j(p, step_ns=1.9e3)  # interaction steps ~1.9 us
    sched = synth_cnot("combined", 0, 1, p, j=j, d=23e-9)
    assert 2.0e-6 <= sched.total_duration <= 8.0e-6
    u = execute_schedule(sched).unitary
    assert gate_fidelity(u, CNOT_MATRIX) >= 1.0 - 1e-3


def test_cnot_rejects(p):
    with pytest.raises(ValueError):
        synth_cnot("exchange", 0, 1, p)  # no coupling
    # an x-aligned device breaks the secular dipole form of the rotating frame
    for mode in ("dipole", "combined"):
        with pytest.raises(DipoleAlignmentError, match="need z-aligned donors"):
            synth_cnot(mode, 0, 1, p.replace(alignment="x"),
                       j=None if mode == "dipole" else 1e-27, d=30e-9)
    with pytest.raises(ValueError):
        synth_cnot("exchange", 0, 0, p, j=1e-27)


# ---------------------------------------------------------------------------
# SWAP, idle, parallel
# ---------------------------------------------------------------------------

def test_swap_fidelity(p):
    j = table_j(p)
    sched = synth_swap(j, 0, 1, p)
    assert sched.total_duration == pytest.approx(
        math.pi * p.constants.hbar / (4.0 * j), rel=1e-15
    )
    u = execute_schedule(sched).unitary
    assert gate_fidelity(u, SWAP_MATRIX) >= 1.0 - 1e-10
    # S^2 = I via two consecutive schedules
    u2 = execute_schedule(concat_schedules(sched, sched)).unitary
    assert gate_fidelity(u2, np.eye(4, dtype=complex)) >= 1.0 - 1e-10
    with pytest.raises(ValueError):
        synth_swap(0.0, 0, 1, p)


def test_swap_note_counts_driven_time_only(p):
    system = SpinSystem(3)
    rep = compile_gate(GateSpec("swap", (0, 1), j=table_j(p)), p, system)
    assert "residual spectator rotation 0.000e+00 rad" in rep.notes
    assert spectator_fidelity(rep.achieved, SWAP_MATRIX, (0, 1), system) == 1.0


def test_idle(p):
    sched = synth_idle(2 * spectator_period(p), p, SpinSystem(1))
    u = execute_schedule(sched).unitary
    assert gate_fidelity(u, np.eye(2, dtype=complex)) >= 1.0 - 1e-12
    with pytest.raises(ValueError):
        synth_idle(1.3 * spectator_period(p), p)


def test_parallel_x_with_cnot(p):
    specs = [GateSpec("x", (0,), theta=math.pi),
             GateSpec("cnot", (1, 2), mode="exchange", j=table_j(p))]
    sched = compose_parallel(specs, p)
    cnot_alone = synth_cnot("exchange", 1, 2, p, j=table_j(p), system=SpinSystem(3))
    assert sched.total_duration == pytest.approx(cnot_alone.total_duration, rel=1e-12)
    u = execute_schedule(sched).unitary
    assert u.shape == (8, 8)
    assert gate_fidelity(u, sched.declared_target) >= 1.0 - 1e-4


def test_parallel_identical_x(p):
    sched = compose_parallel(
        [GateSpec("x", (0,), theta=math.pi), GateSpec("x", (1,), theta=math.pi)], p
    )
    assert sched.total_duration == pytest.approx(
        synth_x(math.pi, 0, p).total_duration, rel=1e-12
    )
    u = execute_schedule(sched).unitary
    assert gate_fidelity(u, sched.declared_target) >= 1.0 - 1e-6


def test_parallel_single_gate_unchanged(p):
    single = compose_parallel([GateSpec("x", (0,), theta=math.pi)], p,
                              system=SpinSystem(1))
    direct = synth_x(math.pi, 0, p, SpinSystem(1))
    assert [s.duration for s in single.segments] == [s.duration for s in direct.segments]
    assert [s.detunings for s in single.segments] == [s.detunings for s in direct.segments]


@st.composite
def _disjoint_single_qubit_gates(draw):
    """Two random single-qubit gates on different donors of three, in qubit order."""
    qubits = sorted(draw(st.permutations(range(3)))[:2])
    specs = []
    for q in qubits:
        kind = draw(st.sampled_from(("x", "y", "z", "hadamard")))
        theta = None if kind == "hadamard" else draw(
            st.floats(-2.0 * math.pi, 2.0 * math.pi, exclude_min=True, exclude_max=True))
        specs.append(GateSpec(kind, (q,), theta=theta))
    return specs


@settings(max_examples=40, deadline=None)
@given(specs=_disjoint_single_qubit_gates())
def test_parallel_disjoint_gates_compose(p, specs):
    """Disjoint gates run side by side: the target is the product of their ideals
    (in either order, and as the site-by-site kron), the schedule lasts as long
    as the longer gate, on the spectator clock, and gate and spectator are graded
    like the gates alone."""
    system = SpinSystem(3)
    sched = compose_parallel(specs, p, system)
    first, second = (embed_ideal(spec, system) for spec in specs)
    sites = {spec.targets[0]: ideal_unitary(spec) for spec in specs}
    by_site = functools.reduce(np.kron, [sites.get(q, np.eye(2)) for q in range(3)])
    for product in (second @ first, first @ second, by_site):
        np.testing.assert_allclose(sched.declared_target, product, rtol=0.0, atol=1e-15)

    longest = max(synthesize(spec, p, system).total_duration for spec in specs)
    assert sched.total_duration == pytest.approx(longest, rel=1e-12, abs=0.0)
    periods = sched.total_duration / spectator_period(p)
    assert periods == pytest.approx(round(periods), rel=1e-12, abs=1e-12)

    u = execute_schedule(sched).unitary
    assert gate_fidelity(u, sched.declared_target) >= 1.0 - 1e-4
    ideal = np.kron(*(ideal_unitary(spec) for spec in specs))
    targets = tuple(spec.targets[0] for spec in specs)
    assert spectator_fidelity(u, ideal, targets, system) >= 1.0 - 1e-4


def test_parallel_rejects_overlap(p):
    with pytest.raises(ValueError):
        compose_parallel(
            [GateSpec("x", (0,), theta=math.pi), GateSpec("hadamard", (0,))], p
        )


def test_parallel_idle_composes_only_alone(p):
    """An idle acts on every donor, whichever donor it names, so it composes
    with no other gate, beside a gate on donor 0 or on donor 1 alike."""
    idle = GateSpec("idle", (0,), duration=spectator_period(p))
    for target in (0, 1):
        with pytest.raises(ValueError, match="^an idle acts on every donor, so it composes "
                                             "with no other gate$"):
            compose_parallel([idle, GateSpec("x", (target,), theta=math.pi)], p)
    alone = compose_parallel([idle], p)
    assert alone.total_duration == spectator_period(p)
    assert np.array_equal(alone.declared_target, np.eye(2))


def test_parallel_rejects_an_empty_list(p):
    with pytest.raises(ValueError, match="^nothing to compose$"):
        compose_parallel([], p)


def test_parallel_rejects_drive_gated_gates(p):
    # a SWAP gates the drive off, which cannot run concurrently with driven gates
    with pytest.raises(ValueError):
        compose_parallel(
            [GateSpec("x", (0,), theta=math.pi), GateSpec("swap", (1, 2), j=table_j(p))], p
        )
    # a swap lasting one spectator period lines up with X(pi), and still cannot
    with pytest.raises(ValueError, match="^cannot compose gates that disagree on the global "
                                         "drive state$"):
        compose_parallel([GateSpec("swap", (0, 1), j=p.transverse_energy / 4.0),
                          GateSpec("x", (2,), theta=math.pi)], p)


# ---------------------------------------------------------------------------
# ideal unitaries and reports
# ---------------------------------------------------------------------------

def test_ideal_unitaries():
    assert np.allclose(ideal_unitary(GateSpec("hadamard", (0,))), HADAMARD)
    assert np.allclose(ideal_unitary(GateSpec("cnot", (0, 1))), CNOT_MATRIX)
    x_pi = ideal_unitary(GateSpec("x", (0,), theta=math.pi))
    assert np.allclose(x_pi, -1j * np.array([[0, 1], [1, 0]]))
    # spinor sign: approaching 2*pi the rotation tends to -I
    near = ideal_unitary(GateSpec("x", (0,), theta=2 * math.pi - 1e-9))
    assert np.allclose(near, -np.eye(2), atol=1e-9)


def test_embed_ideal_orderings(p, rng):
    system = SpinSystem(3)
    emb = embed_ideal(GateSpec("cnot", (2, 0)), system)
    # control on qubit 2, target qubit 0: |q0 q1 q2> = |001> -> |101>
    col = 0b001
    assert emb[0b101, col] == 1.0
    assert emb[col, col] == 0.0
    # embed reproduces the bit loop exactly for every ordered site tuple
    for system in (SpinSystem(1), SpinSystem(2), SpinSystem(3),
                   SpinSystem(1, include_nuclei=True), SpinSystem(2, include_nuclei=True)):
        n = system.num_sites
        for k in range(1, n + 1):
            for sites in itertools.permutations(range(n), k):
                op = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
                assert np.array_equal(embed(op, sites, n), embed_loop(op, sites, n))
        for q in range(system.num_donors):
            spec = GateSpec("hadamard", (q,))
            assert np.array_equal(embed_ideal(spec, system),
                                  embed_loop(HADAMARD, (system.electron_site(q),), n))
    with pytest.raises(ValueError):
        embed(np.eye(4), (0, 0), 2)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("x", (0,), theta=2.0 * math.pi)
    with pytest.raises(ValueError):
        GateSpec("cnot", (0, 0))
    with pytest.raises(ValueError):
        GateSpec("warp", (0,))
    with pytest.raises(ValueError):
        GateSpec("cnot", (0, 1), mode="telepathy")
    with pytest.raises(ValueError):
        GateSpec("idle", (0,))
    # a cnot's default mode is stored, so both spellings are one request
    assert GateSpec("cnot", (0, 1)).mode == "exchange"
    assert GateSpec("cnot", (0, 1)) == GateSpec("cnot", (0, 1), mode="exchange")
    flagged = GateSpec("cnot", (0, 1), extended_correction=np.bool_(True), x_conjugation=0)
    assert (type(flagged.extended_correction), type(flagged.x_conjugation)) == (bool, bool)
    with pytest.raises(ValueError, match="^x_conjugation must be True or False, got 'no'$"):
        GateSpec("cnot", (0, 1), x_conjugation="no")


def test_compile_gate_report(p):
    rep = compile_gate(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6
    assert sum(d for _, d in rep.step_durations) == pytest.approx(
        rep.schedule.total_duration, rel=1e-15
    )
    rep0 = compile_gate(GateSpec("x", (0,), theta=0.0), p, SpinSystem(1))
    assert rep0.schedule.segments == () and rep0.fidelity == 1.0


@pytest.mark.parametrize("spec", [GateSpec("hadamard", (1,)), GateSpec("swap", (0, 1), j=1e-25)],
                         ids=["hadamard", "swap"])
def test_equal_compile_requests_grade_once(p, spec, monkeypatch):
    """A repeated request reads its grade: one _grade miss and one gate_fidelity
    call (both unitarity checks) for two calls, the second with the default
    system written out.  Each report gets its own writable achieved unitary;
    the read-only ideal is shared."""
    calls = []

    def counted(u, v):
        calls.append(1)
        return gate_fidelity(u, v)

    monkeypatch.setattr(analysis, "gate_fidelity", counted)
    _memo.clear()
    first = compile_gate(spec, p)
    second = compile_gate(dataclasses.replace(spec), p, SpinSystem(2))
    info = gates._grade.cache_info()
    assert (info.misses, info.hits, len(calls)) == (1, 1, 1)
    assert (second.fidelity, second.step_durations, second.notes) == (
        first.fidelity, first.step_durations, first.notes)
    assert second.achieved is not first.achieved
    assert np.array_equal(second.achieved, first.achieved)
    assert first.achieved.flags.writeable and second.achieved.flags.writeable
    second.achieved[0, 0] = 2.0
    assert first.achieved[0, 0] != 2.0
    assert second.ideal is first.ideal and not first.ideal.flags.writeable


def test_synthesize_dispatch(p):
    for spec in (GateSpec("x", (0,), theta=1.0), GateSpec("hadamard", (1,)),
                 GateSpec("swap", (0, 1), j=1e-25),
                 GateSpec("idle", (0,), duration=0.0)):
        sched = synthesize(spec, p)
        assert sched.declared_target is not None


def test_synth_functions_route_through_synthesize(p):
    j = table_j(p)
    system = SpinSystem(3)
    t_idle = 3 * spectator_period(p)
    pairs = [
        (synth_x(2.0, 1, p), GateSpec("x", (1,), theta=2.0)),
        (synth_y(-1.0, 0, p, system), GateSpec("y", (0,), theta=-1.0)),
        (synth_z(math.pi, 2, p), GateSpec("z", (2,), theta=math.pi)),
        (synth_hadamard(1, p, system), GateSpec("hadamard", (1,))),
        (synth_swap(j, 2, 0, p), GateSpec("swap", (2, 0), j=j)),
        (synth_idle(t_idle, p), GateSpec("idle", (0,), duration=t_idle)),
        (synth_cnot("combined", 1, 0, p, j=j, d=30e-9, extended_correction=True),
         GateSpec("cnot", (1, 0), mode="combined", j=j, d=30e-9, extended_correction=True)),
    ]
    for sched, spec in pairs:
        ref = synthesize(spec, p, sched.system)
        assert sched.segments == ref.segments and sched.dipole == ref.dipole
        assert np.array_equal(sched.declared_target, ref.declared_target)
    assert synth_x(2.0, 1, p).system == SpinSystem(2)
    # an idle's target is a placeholder, stored as 0
    idle = synthesize(GateSpec("idle", (2,), duration=0.0), p)
    assert idle.system == SpinSystem(1) and GateSpec("idle", (2,), duration=0.0).targets == (0,)
    assert np.array_equal(idle.declared_target, np.eye(2))


@pytest.mark.parametrize("b_ac", [2e-4, 5e-4, 1.2e-3, 2e-3, 5e-3])
def test_x_needs_no_correction(b_ac):
    """Every X step already ends on whole spectator periods."""
    p = DeviceParameters(b_ac=b_ac)
    t_spec = spectator_period(p)
    for theta in np.linspace(-2.0 * math.pi, 2.0 * math.pi, 401)[1:-1]:
        sched = synth_x(float(theta), 0, p)
        assert not any("correction" in seg.label for seg in sched.segments)
        periods = round(sched.total_duration / t_spec)
        assert abs(sched.total_duration - periods * t_spec) <= 1e-12 * t_spec * max(periods, 1)


def test_gate_spec_rejects_non_finite_idle():
    for bad in (math.inf, math.nan, -1e-9, None):
        with pytest.raises(ValueError, match="idle needs a finite non-negative duration"):
            GateSpec("idle", (0,), duration=bad)


def test_swap_needs_coupling(p):
    for j in (None, 0.0, -1e-25):
        with pytest.raises(ValueError, match="swap needs a positive exchange coupling"):
            synthesize(GateSpec("swap", (0, 1), j=j), p)


def test_interaction_coupling(p):
    j = interaction_coupling(1e-11, p)
    assert j == 3.0 * math.pi * p.constants.hbar / (8.0 * 1e-11)
    sched = synth_cnot("exchange", 0, 1, p, j=j)
    interactions = [seg for seg in sched.segments if seg.couplings]
    assert [seg.duration for seg in interactions] == pytest.approx([1e-11, 1e-11], rel=1e-12)
    for bad in (0.0, -1e-11, math.inf, math.nan):
        with pytest.raises(ValueError, match="interaction step must be positive and finite"):
            interaction_coupling(bad, p)


# ---------------------------------------------------------------------------
# synthesis caches
# ---------------------------------------------------------------------------

def _exact(x):
    """A number with its type and every bit, so 1 != 1.0 and 0.0 != -0.0."""
    return type(x).__name__, float(x).hex()


def _fingerprint(sched):
    """Everything synthesis decides, bit for bit, plus the executed unitary."""
    segments = tuple(
        (_exact(seg.duration), tuple((q, _exact(v)) for q, v in seg.detunings.items()),
         tuple((pair, _exact(v)) for pair, v in seg.couplings.items()), seg.rf_on, seg.label)
        for seg in sched.segments)
    return (segments, tuple((pair, _exact(v)) for pair, v in sched.dipole.items()),
            sched.system, _exact(sched.b_ac), _exact(sched.hbar), _exact(sched.mu_b),
            sched.declared_target.tobytes(), execute_schedule(sched).unitary.tobytes())


def _synth(spec, p, system=None):
    if spec.kind == "cnot":
        return synth_cnot(spec.mode, *spec.targets, p, j=spec.j, d=spec.d, system=system,
                          extended_correction=spec.extended_correction,
                          x_conjugation=spec.x_conjugation)
    return synthesize(spec, p, system)


def _equal_values(v):
    """Values equal to the float v (so sharing its cache key) of other types or signs."""
    out = [np.float64(v)]
    if v == int(v):
        out += [int(v), np.int64(int(v))]
    if float(np.float32(v)) == v:
        out.append(np.float32(v))
    if v == 0.0:
        out.append(-v)
    return out


_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, -6.0, 0.5, 1.5, math.pi, -math.pi / 2]),
    st.floats(-2.0 * math.pi, 2.0 * math.pi, exclude_min=True, exclude_max=True))


def _request_fields(draw, kind, donors, p):
    """(targets, fields) of a drawn request of kind on donors donors."""
    fields = {}
    if kind in ("x", "y", "z"):
        fields["theta"] = draw(_ANGLES)
        targets = (draw(st.integers(0, donors - 1)),)
    elif kind in ("cnot", "swap"):
        targets = tuple(draw(st.permutations(range(donors)))[:2])
        mode = draw(st.sampled_from(("exchange", "dipole", "combined"))) if kind == "cnot" else None
        if mode:
            fields["mode"] = mode
            fields["extended_correction"] = draw(st.booleans())
            fields["x_conjugation"] = draw(st.booleans())
        if mode != "dipole":
            fields["j"] = draw(st.floats(1.0, 10.0)) * table_j(p)
        if mode in ("dipole", "combined"):
            fields["d"] = draw(st.floats(20e-9, 40e-9))
    elif kind == "idle":
        fields["duration"] = draw(st.integers(0, 3)) * spectator_period(p)
        targets = (0,)
    else:
        targets = (draw(st.integers(0, donors - 1)),)
    return targets, fields


@st.composite
def _synthesis_cases(draw):
    """(spec, twin, system): twin is an equal request written another way: one
    number of another type or sign, a default flag or an exchange cnot's mode
    left out, or a flag given as a numpy bool."""
    p = DeviceParameters()
    donors = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("x", "y", "z", "hadamard", "idle")
                                + (("cnot", "swap") if donors > 1 else ())))
    targets, fields = _request_fields(draw, kind, donors, p)
    spec = GateSpec(kind, targets, **fields)
    rewrites = [{name: draw(st.sampled_from(_equal_values(v)))}
                for name, v in fields.items() if isinstance(v, float)]
    rewrites += [{name: None} for name, v in fields.items()
                 if (name, v) in (("mode", "exchange"), ("extended_correction", False),
                                  ("x_conjugation", True))]
    rewrites += [{name: np.bool_(v)} for name, v in fields.items() if isinstance(v, bool)]
    twin = spec
    if rewrites:
        rewrite = draw(st.sampled_from(rewrites))
        twin_fields = {k: v for k, v in {**fields, **rewrite}.items() if v is not None}
        twin = GateSpec(kind, targets, **twin_fields)
    system = draw(st.sampled_from((None, SpinSystem(donors))))
    return spec, twin, system


@settings(max_examples=80, deadline=None)
@given(case=_synthesis_cases())
def test_synthesis_cold_and_warm_are_bit_identical(p, case):
    spec, twin, system = case
    assert twin == spec
    _memo.clear()
    cold = _fingerprint(_synth(spec, p, system))
    assert _fingerprint(_synth(spec, p, system)) == cold
    # an equal spec of other number types fills the entry spec then reads
    _memo.clear()
    assert _fingerprint(_synth(twin, p, system)) == cold
    assert _fingerprint(_synth(spec, p, system)) == cold


@settings(max_examples=80, deadline=None)
@given(case=_synthesis_cases())
def test_equal_requests_share_one_layout_entry(p, case):
    """However an equal request is written, it reads the entry the first made."""
    spec, twin, system = case
    _memo.clear()
    first = _synth(spec, p, system)
    misses = gates._layout.cache_info().misses
    assert _synth(twin, p, system) is first
    assert synthesize(twin, p, system) is first
    assert gates._layout.cache_info().misses == misses


_UNUSED = {"theta": 1.0, "mode": "exchange", "j": 1e-25, "d": 30e-9, "duration": 0.0}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(list(gates.GATE_KINDS)))
def test_unused_fields_and_flags_raise(p, data, kind):
    """A field the kind does not use, or a cnot flag on another kind, is an error
    that names the field and the kind."""
    targets, fields = _request_fields(data.draw, kind, 2, p)
    spec = GateSpec(kind, targets, **fields)
    what = f"cnot in {spec.mode} mode" if kind == "cnot" else kind
    unused = [name for name in _UNUSED if name not in fields]
    if kind != "cnot":
        unused += ["extended_correction", "x_conjugation"]
    name = data.draw(st.sampled_from(unused))
    value = {"extended_correction": True, "x_conjugation": False}.get(name, _UNUSED.get(name))
    with pytest.raises(ValueError, match=f"^{name} does not apply to {what}$"):
        GateSpec(kind, targets, **{**fields, name: value})


def _key_pairs(p):
    """Requests that differ in one input of the gate cache key, and in nothing else."""
    j = table_j(p)
    x = GateSpec("x", (0,), theta=math.pi)
    cnot = GateSpec("cnot", (0, 1), mode="combined", j=j, d=30e-9)
    two = SpinSystem(2)
    slow = dataclasses.replace(p.constants, hbar=p.constants.hbar * (1.0 + 1e-9))
    return {
        "theta": [(x, p, two),
                  (GateSpec("x", (0,), theta=math.nextafter(math.pi, 4.0)), p, two)],
        "kind": [(x, p, two), (GateSpec("y", (0,), theta=math.pi), p, two)],
        "targets": [(cnot, p, two),
                    (GateSpec("cnot", (1, 0), mode="combined", j=j, d=30e-9), p, two)],
        "mode": [(GateSpec("cnot", (0, 1), mode="exchange", j=j), p, two),
                 (GateSpec("cnot", (0, 1), mode="combined", j=j, d=30e-9), p, two)],
        "j": [(cnot, p, two),
              (GateSpec("cnot", (0, 1), mode="combined", j=2.0 * j, d=30e-9), p, two)],
        "d": [(cnot, p, two),
              (GateSpec("cnot", (0, 1), mode="combined", j=j, d=31e-9), p, two)],
        "duration": [(GateSpec("idle", (0,), duration=spectator_period(p)), p, two),
                     (GateSpec("idle", (0,), duration=2.0 * spectator_period(p)), p, two)],
        "b_ac": [(x, p, two), (x, p.replace(b_ac=1.3e-3), two)],
        "a_min": [(x, p, two), (x, p.replace(a_min=0.9 * p.a0), two)],
        "b": [(x, p.replace(a_min=0.9 * p.a0), two),
              (x, p.replace(a_min=0.9 * p.a0, b=0.05), two)],
        "hbar": [(x, p, two), (x, p.replace(constants=slow), two)],
        "system": [(x, p, two), (x, p, SpinSystem(3))],
        "nuclei": [(x, p, two), (x, p, SpinSystem(2, include_nuclei=True))],
        "extended_correction": [
            (cnot, p, two), (dataclasses.replace(cnot, extended_correction=True), p, two)],
        "x_conjugation": [
            (cnot, p, two), (dataclasses.replace(cnot, x_conjugation=False), p, two)],
    }


@pytest.mark.parametrize("which", list(_key_pairs(DeviceParameters())))
def test_synthesis_cache_key_is_complete(p, which):
    """Each build of a pair matches its own uncached build, in either order."""
    pair = _key_pairs(p)[which]
    references = []
    for spec, dev, system in pair:
        _memo.clear()
        references.append(_fingerprint(synthesize(spec, dev, system)))
    assert references[0] != references[1]
    for order in ((0, 1), (1, 0)):
        _memo.clear()
        for k in order:
            assert _fingerprint(synthesize(*pair[k])) == references[k]


def test_synthesis_entries_are_shared_and_errors_are_not_cached(p):
    _memo.clear()
    x = synth_x(1.0, 1, p)
    assert synthesize(GateSpec("x", (1,), theta=1.0), p, SpinSystem(2)) is x
    cnot = synth_cnot("exchange", 0, 1, p, j=table_j(p), system=SpinSystem(3))
    assert synthesize(GateSpec("cnot", (0, 1), mode="exchange", j=table_j(p)), p,
                      SpinSystem(3)) is cnot
    hits = gates._layout.cache_info().hits
    compose_parallel([GateSpec("x", (1,), theta=1.0), GateSpec("hadamard", (0,))], p,
                     SpinSystem(2))
    assert gates._layout.cache_info().hits == hits + 1
    bad = p.replace(a_min=p.a0)
    size = gates._layout.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InfeasibleDetuningError, match="exceeds the bound"):
            synth_hadamard(0, bad)
    assert gates._layout.cache_info().currsize == size


def test_equal_devices_share_entries_bit_for_bit():
    """A device given numpy scalars equals one given floats and so shares its
    cache entries; both must build the same bits."""
    plain = DeviceParameters(b_ac=2.0**-10)
    numpy_typed = DeviceParameters(b_ac=np.float32(2.0**-10), b=np.int64(2))
    assert numpy_typed == plain
    spec = GateSpec("cnot", (0, 1), mode="combined", j=table_j(plain), d=30e-9)
    references = []
    for dev in (plain, numpy_typed):
        _memo.clear()
        references.append(_fingerprint(synthesize(spec, dev)))
    assert references[0] == references[1]


def test_cached_synthesis_is_read_only_and_bounded(p):
    sched = synth_cnot("combined", 0, 1, p, j=table_j(p), d=30e-9)
    assert synth_cnot("combined", 0, 1, p, j=table_j(p), d=30e-9) is sched
    with pytest.raises(ValueError, match="read-only"):
        sched.declared_target[0, 0] = 0.0
    with pytest.raises(TypeError):
        sched.dipole[(0, 1)] = 0.0
    pulse = next(seg for seg in sched.segments if seg.detunings)
    interaction = next(seg for seg in sched.segments if seg.couplings)
    with pytest.raises(TypeError):
        pulse.detunings[0] = 0.0
    with pytest.raises(TypeError):
        interaction.couplings[(0, 1)] = 0.0
    assert compile_gate(GateSpec("x", (0,), theta=1.0), p).ideal.flags.writeable is False


@pytest.mark.parametrize("mode", ["exchange", "dipole", "combined"])
def test_cnot_hadamard_steps_are_the_hadamard_gate(p, mode):
    """A CNOT's steps 1 and 7 are the corrected Hadamard gate on its control,
    relabelled, bit for bit."""
    def bits(segments):
        return [(seg.label, seg.rf_on, _exact(seg.duration),
                 tuple((q, _exact(v)) for q, v in seg.detunings.items()),
                 tuple((pair, _exact(v)) for pair, v in seg.couplings.items()))
                for seg in segments]

    j = None if mode == "dipole" else table_j(p)
    d = None if mode == "exchange" else 30e-9
    _memo.clear()
    cnot = synth_cnot(mode, 1, 0, p, j=j, d=d, system=SpinSystem(3))
    pulse, correction = synth_hadamard(1, p).segments
    for step in (1, 7):
        steps = [seg for seg in cnot.segments if seg.label.startswith(f"step {step} ")]
        assert bits(steps) == bits([pulse.with_label(f"step {step} hadamard pulse"),
                                    correction.with_label(f"step {step} hadamard correction")])


def test_synth_correction_returns_a_fresh_list(p):
    first, plan = synth_correction(1.0, (0,), p)
    first.append(PulseSegment(duration=1e-9))
    first[0] = PulseSegment(duration=2e-9)
    again, plan_again = synth_correction(1.0, (0,), p)
    assert len(again) == 1 and again[0].label == "correction" and plan_again == plan
    assert again is not first


def test_with_label_equals_replace(p):
    for seg in synth_cnot("combined", 0, 1, p, j=table_j(p), d=30e-9).segments:
        relabelled = seg.with_label("renamed")
        reference = dataclasses.replace(seg, label="renamed")
        assert type(relabelled) is PulseSegment
        for f in dataclasses.fields(PulseSegment):
            assert getattr(relabelled, f.name) == getattr(reference, f.name)
        assert relabelled == reference and relabelled.label == "renamed"
        assert seg.label != "renamed"
        with pytest.raises(TypeError):
            relabelled.detunings[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            relabelled.label = "again"


def _shift_legs(u, n):
    """u with its site s moved to site (s + 1) % n, on rows and columns alike."""
    src = [(t - 1) % n for t in range(n)]
    return u.reshape((2,) * (2 * n)).transpose(src + [n + s for s in src]).reshape(u.shape)


_RELABEL_THETAS = np.random.default_rng(18).uniform(-2.0 * math.pi, 2.0 * math.pi, 3)


@pytest.mark.parametrize("spec", [
    *(GateSpec(kind, (0,), theta=float(theta)) for kind, theta in zip("xyz", _RELABEL_THETAS)),
    GateSpec("hadamard", (0,)),
    GateSpec("cnot", (0, 1), j=table_j(DeviceParameters())),
], ids=["x", "y", "z", "hadamard", "cnot"])
def test_relabelling_donors_permutes_the_legs(p, spec):
    """Moving every donor of a 3-donor register one place on (target q to q + 1
    mod 3, the exchange CNOT on (0,1) to (1,2)) moves the schedule's controls
    to the new donors exactly and permutes the achieved unitary's legs.  The
    Hamiltonians are exact permutations of each other, but their `eigh` is
    not, so the unitaries agree to the max-norm gap measured here (8.9e-15
    at most over these cases), not bit for bit."""
    system = SpinSystem(3)
    report = compile_gate(spec, p, system=system)
    for _ in range(system.num_donors):
        moved = dataclasses.replace(spec, targets=tuple((q + 1) % 3 for q in spec.targets))
        relabelled = compile_gate(moved, p, system=system)
        for seg, new in zip(report.schedule.segments, relabelled.schedule.segments, strict=True):
            assert dict(new.detunings) == {(q + 1) % 3: dw for q, dw in seg.detunings.items()}
            assert dict(new.couplings) == {tuple(sorted((q + 1) % 3 for q in pair)): j
                                           for pair, j in seg.couplings.items()}
            assert (new.duration, new.rf_on) == (seg.duration, seg.rf_on)
        gap = np.abs(_shift_legs(report.achieved, 3) - relabelled.achieved).max()
        assert gap <= 8.9e-15
        spec, report = moved, relabelled


_SCALED_GATES = [GateSpec("x", (0,), theta=math.pi), GateSpec("x", (0,), theta=1.1),
                 GateSpec("y", (0,), theta=math.pi), GateSpec("z", (0,), theta=math.pi),
                 GateSpec("hadamard", (0,))]


# Each s keeps every gate below on the s = 1 plateau: the same segments, each
# duration scaled.  At s = 0.5 Y keeps its labels but moves its correction window.
@pytest.mark.parametrize("s", [0.6, 0.7, 0.8, 0.9, 0.95, 0.99])
def test_scaling_b_ac_scales_single_qubit_durations(p, s):
    """Scaling B_ac by s scales every X, Y, Z and H segment duration by 1/s on
    2 donors, and leaves the rotating unitary and the fidelity where they were.
    The bounds hold the largest values measured over these points: 4.2e-16
    relative in the durations (bound 2 ulp), 1 - F of 2.11e-15 and 4.34e-15
    in max-norm between the unitaries."""
    scaled = p.replace(b_ac=s * p.b_ac)
    system = SpinSystem(2)
    for spec in _SCALED_GATES:
        ref, new = synthesize(spec, p, system), synthesize(spec, scaled, system)
        assert [seg.label for seg in new.segments] == [seg.label for seg in ref.segments]
        for seg, new_seg in zip(ref.segments, new.segments, strict=True):
            assert abs(new_seg.duration * s - seg.duration) <= 4.4e-16 * seg.duration
        fidelity = compile_gate(spec, scaled, system).fidelity
        assert 1.0 - fidelity <= 2.11e-15 and fidelity >= 1.0 - 1e-12
        gap = np.abs(execute_schedule(new).unitary - execute_schedule(ref).unitary).max()
        assert gap <= 4.34e-15
