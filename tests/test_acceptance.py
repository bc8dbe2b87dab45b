"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Reference timings are the published table values; tolerances are
stated inline and pinned (nothing deferred to calibration).
"""

import math

import numpy as np
import pytest

from _reference import cnot_steps, table_j
from donorsim import (
    CONSTANTS,
    DeviceParameters,
    GateSpec,
    SpinSystem,
    canonical_detuning_span,
    compile_gate,
    compose_parallel,
    dipole_strength,
    execute_schedule,
    gate_fidelity,
    local_control_tradeoff,
    rabi_probability,
    spectator_fidelity,
    spectator_period,
    synthesize,
)
from donorsim.analysis import frozen_nucleus_check, lab_realization
from donorsim.gates import CNOT_MATRIX, SWAP_MATRIX, ideal_unitary
from donorsim.params import max_detuning
from donorsim.propagator import concat_schedules, propagate_constant
from donorsim.spin_model import (
    electron_pair_dot,
    electron_pauli,
    frame_rotation,
    rotating_hamiltonian,
)

P = DeviceParameters()
HBAR = CONSTANTS.hbar


def _ok(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def _within(value, reference, rel):
    assert abs(value - reference) / abs(reference) <= rel, (
        f"{value} not within {rel:%} of {reference}"
    )


def test_criterion_1_spectator_period():
    t = spectator_period(P)
    _within(t, 29.77e-9, 1e-4)
    _within(t, 29.7e-9, 0.005)
    _ok(1, f"spectator period {t * 1e9:.4f} ns, within 0.5% of the published 29.7 ns")


def test_criterion_2_x_gate_table():
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), P, SpinSystem(2))
    steps_ns = [seg.duration * 1e9 for seg in sched.segments]
    for val, ref in zip(steps_ns + [sched.total_duration * 1e9], [14.8, 14.8, 29.7]):
        _within(val, ref, 0.01)
    rep = compile_gate(GateSpec("x", (0,), theta=math.pi), P, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6
    spec_fid = spectator_fidelity(rep.achieved, ideal_unitary(rep.spec), (0,), SpinSystem(2))
    assert spec_fid >= 1.0 - 1e-6
    _ok(2, f"X steps {steps_ns[0]:.2f}/{steps_ns[1]:.2f} ns, total "
           f"{sched.total_duration * 1e9:.2f} ns; fidelity {rep.fidelity:.9f}, "
           f"spectator {spec_fid:.9f}")


def test_criterion_3_hadamard_table():
    sched = synthesize(GateSpec("hadamard", (0,)), P, SpinSystem(2))
    steps_ns = [seg.duration * 1e9 for seg in sched.segments]
    for val, ref in zip(steps_ns + [sched.total_duration * 1e9], [10.5, 19.2, 29.7]):
        _within(val, ref, 0.01)
    rep = compile_gate(GateSpec("hadamard", (0,)), P, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6
    _ok(3, f"Hadamard steps {steps_ns[0]:.2f}/{steps_ns[1]:.2f} ns, total "
           f"{sched.total_duration * 1e9:.2f} ns; fidelity {rep.fidelity:.9f}")


def test_criterion_4_y_gate_table():
    from donorsim.gates import _deficit_after, synth_correction

    sched = synthesize(GateSpec("y", (0,), theta=math.pi), P, SpinSystem(2))
    block_ns = sum(seg.duration for seg in sched.segments[:4]) * 1e9
    corr_ns = sched.segments[4].duration * 1e9
    total_ns = sched.total_duration * 1e9
    _within(block_ns, 50.7, 0.01)
    _within(corr_ns, 38.3, 0.01)
    _within(total_ns, 89.0, 0.01)
    _, plan = synth_correction(_deficit_after(list(sched.segments[:4]), P), (0,), P)
    assert plan.wrap_count == 1, "minimum-revolution constraint must force one wrap"
    rep = compile_gate(GateSpec("y", (0,), theta=math.pi), P, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6
    _ok(4, f"Y block {block_ns:.2f} ns, correction {corr_ns:.2f} ns (wrap k=1), "
           f"total {total_ns:.2f} ns; fidelity {rep.fidelity:.9f}")


def test_criterion_5_z_gate_table():
    sched = synthesize(GateSpec("z", (0,), theta=math.pi), P, SpinSystem(2))
    steps_ns = [seg.duration * 1e9 for seg in sched.segments]
    refs = [10.5, 14.8, 10.5, 23.5, 59.4]
    for val, ref in zip(steps_ns + [sched.total_duration * 1e9], refs):
        _within(val, ref, 0.01)
    rep = compile_gate(GateSpec("z", (0,), theta=math.pi), P, SpinSystem(2))
    assert rep.fidelity >= 1.0 - 1e-6
    _ok(5, f"Z steps {'/'.join(f'{s:.2f}' for s in steps_ns)} ns, total "
           f"{sched.total_duration * 1e9:.2f} ns; fidelity {rep.fidelity:.9f}")


def test_criterion_6_cnot_exchange():
    j = table_j(P)
    refs_ns = [29.7, 0.01, 14.8, 0.01, 14.8, 7.4, 29.7]
    sched = synthesize(GateSpec("cnot", (0, 1), mode="exchange", j=j), P)
    grouped = cnot_steps(sched)
    assert len(grouped) == 7
    for (label, dur), ref in zip(grouped, refs_ns):
        _within(dur * 1e9, ref, 0.01)
    uncorrected_ns = sum(d for _, d in grouped) * 1e9
    _within(uncorrected_ns, 96.5, 0.01)
    for extended in (False, True):
        s = synthesize(GateSpec("cnot", (0, 1), mode="exchange", j=j,
                                extended_correction=extended), P)
        periods = s.total_duration / spectator_period(P)
        assert abs(periods - round(periods)) <= 1e-9
    fid = gate_fidelity(execute_schedule(sched).unitary, CNOT_MATRIX)
    assert fid >= 1.0 - 1e-4
    extended_sched = synthesize(GateSpec("cnot", (0, 1), mode="exchange", j=j,
                                         extended_correction=True), P)
    _within(extended_sched.segments[-1].duration * 1e9, 51.9, 0.01)
    _within(extended_sched.total_duration * 1e9, 148.4, 0.01)
    _ok(6, f"CNOT steps 1-7 within 1% (uncorrected {uncorrected_ns:.2f} ns), "
           f"fidelity {fid:.7f}; extended mode correction "
           f"{extended_sched.segments[-1].duration * 1e9:.2f} ns, total "
           f"{extended_sched.total_duration * 1e9:.2f} ns")


def test_criterion_7_rabi_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        b_ac = rng.uniform(0.2e-3, 2.0e-3)
        pp = P.replace(b_ac=b_ac)
        dw = rng.uniform(-max_detuning(pp), max_detuning(pp))
        t = rng.uniform(0.0, 80e-9)
        h = rotating_hamiltonian(SpinSystem(1), pp.transverse_energy, {0: dw}, {}, {}, HBAR)
        u = propagate_constant(h, t, HBAR)
        worst = max(worst, abs(abs(u[1, 0]) ** 2 - rabi_probability(t, dw, b_ac)))
    assert worst <= 1e-10
    _ok(7, f"numerical Rabi populations match the closed form to {worst:.1e} "
           f"at 100 random (t, dw, B_ac) points")


def test_criterion_8_local_control_row():
    tr = local_control_tradeoff(1e-5, canonical_detuning_span(P))
    _within(tr.pi_time, 1.79e-6, 0.01)
    assert abs(tr.pi_time - 1.7e-6) / 1.7e-6 <= 0.06  # the published 1.7 us rounding
    assert tr.max_offres_error <= 1.2e-5
    _ok(8, f"local-control pi time {tr.pi_time * 1e6:.3f} us, peak off-resonant "
           f"error {tr.max_offres_error:.2e} <= 1.2e-5")


def test_criterion_9_frame_equivalence():
    worst = 0.0
    for name, sched in (
        ("x", synthesize(GateSpec("x", (0,), theta=math.pi), P, SpinSystem(2))),
        ("y", synthesize(GateSpec("y", (0,), theta=math.pi), P, SpinSystem(2))),
        ("z", synthesize(GateSpec("z", (0,), theta=math.pi), P, SpinSystem(2))),
        ("hadamard", synthesize(GateSpec("hadamard", (0,)), P, SpinSystem(2))),
    ):
        lab = lab_realization(sched, P)
        u_lab = execute_schedule(lab, lab_tol=1e-6).unitary
        u_rot = execute_schedule(sched).unitary
        mapped = frame_rotation(sched.total_duration, P, sched.system) @ u_lab
        infid = 1.0 - gate_fidelity(mapped, u_rot)
        assert infid <= 1e-6, f"{name}: lab/rotating infidelity {infid}"
        worst = max(worst, infid)
    _ok(9, f"lab-frame integration + frame map matches rotating-frame propagation "
           f"for X/Y/Z/H; worst infidelity {worst:.1e}")


def test_criterion_10_frozen_nucleus():
    worst_flip, worst_dev = 0.0, 0.0
    for name, sched in (
        ("x", synthesize(GateSpec("x", (0,), theta=math.pi), P, SpinSystem(1))),
        ("y", synthesize(GateSpec("y", (0,), theta=math.pi), P, SpinSystem(1))),
        ("z", synthesize(GateSpec("z", (0,), theta=math.pi), P, SpinSystem(1))),
        ("hadamard", synthesize(GateSpec("hadamard", (0,)), P, SpinSystem(1))),
    ):
        flip, fdev = frozen_nucleus_check(sched, P)
        assert flip <= 1e-4, f"{name}: nuclear flip {flip}"
        assert fdev <= 1e-3, f"{name}: electron-subspace deviation {fdev}"
        worst_flip = max(worst_flip, flip)
        worst_dev = max(worst_dev, fdev)
    _ok(10, f"nuclear flip probability <= {worst_flip:.2e}, electron-subspace "
            f"fidelity within {worst_dev:.2e} of electron-only, all four gates")


def test_criterion_11_commutator_identities():
    sys2 = SpinSystem(2)
    sx = electron_pauli(sys2, 0, "x") + electron_pauli(sys2, 1, "x")
    sz = electron_pauli(sys2, 0, "z") + electron_pauli(sys2, 1, "z")
    dot = electron_pair_dot(0, 1, 2)
    dw_term = P.transverse_energy * sx + HBAR * 1e8 * sz
    r1 = np.abs(dw_term @ dot - dot @ dw_term).max() / (
        np.abs(dw_term).max() * np.abs(dot).max())
    r2 = np.abs(sx @ dot - dot @ sx).max() / (np.abs(sx).max() * np.abs(dot).max())
    zz = electron_pauli(sys2, 0, "z") @ electron_pauli(sys2, 1, "z")
    rhs = 2.0j * (electron_pauli(sys2, 0, "y") @ electron_pauli(sys2, 1, "z")
                  + electron_pauli(sys2, 0, "z") @ electron_pauli(sys2, 1, "y"))
    r3 = np.abs((zz @ sx - sx @ zz) - rhs).max() / np.abs(rhs).max()
    assert r1 <= 1e-12 and r2 <= 1e-12 and r3 <= 1e-12
    _ok(11, f"identical-rotation and (J+D) commutators vanish ({r1:.1e}, {r2:.1e}); "
            f"zz-vs-global-x commutator matches its identity ({r3:.1e})")


def test_criterion_12_swap():
    j = table_j(P)
    sched = synthesize(GateSpec("swap", (0, 1), j=j), P)
    fid = gate_fidelity(execute_schedule(sched).unitary, SWAP_MATRIX)
    assert fid >= 1.0 - 1e-10
    fid2 = gate_fidelity(execute_schedule(concat_schedules(sched, sched)).unitary,
                         np.eye(4, dtype=complex))
    assert fid2 >= 1.0 - 1e-10
    _ok(12, f"SWAP fidelity {fid:.12f}; S^2 = identity to {1 - fid2:.1e}")


def test_criterion_13_parallel_composition():
    j = table_j(P)
    specs = [GateSpec("x", (0,), theta=math.pi),
             GateSpec("cnot", (1, 2), mode="exchange", j=j)]
    sched = compose_parallel(specs, P)
    cnot = synthesize(GateSpec("cnot", (1, 2), mode="exchange", j=j), P, SpinSystem(3))
    assert sched.system.dim == 8
    assert sched.total_duration == pytest.approx(cnot.total_duration, rel=1e-12)
    fid = gate_fidelity(execute_schedule(sched).unitary, sched.declared_target)
    assert fid >= 1.0 - 1e-4
    _ok(13, f"X(pi) || CNOT on 3 qubits: joint fidelity {fid:.7f}, duration equals "
            f"the CNOT's {sched.total_duration * 1e9:.2f} ns")


def test_criterion_14_dipole_and_combined_regimes():
    # combined mode at 23 nm with J chosen so the two interaction windows dominate
    j = table_j(P, step_ns=1.9e3)
    combined = synthesize(GateSpec("cnot", (0, 1), mode="combined", j=j, d=23e-9), P)
    total = combined.total_duration
    assert 2.0e-6 <= total <= 8.0e-6, "combined-mode duration within 2x of 4.0 us"
    interaction = sum(s.duration for s in combined.segments if not s.rf_on)
    assert interaction / total >= 0.9

    d30 = dipole_strength(30e-9, P)
    _within(d30, 3.19e-31, 0.002)
    ds = np.linspace(10e-9, 60e-9, 21)
    cubes = np.array([dipole_strength(float(d), P) * d**3 for d in ds])
    assert np.abs(cubes / cubes[0] - 1.0).max() <= 1e-12

    dipole = synthesize(GateSpec("cnot", (0, 1), mode="dipole", d=30e-9), P)
    idle_variant = synthesize(GateSpec("cnot", (0, 1), mode="dipole", d=30e-9,
                                       x_conjugation=False), P)
    f_refocused = gate_fidelity(execute_schedule(dipole).unitary, dipole.declared_target)
    f_idle = gate_fidelity(execute_schedule(idle_variant).unitary, dipole.declared_target)
    assert f_refocused > f_idle
    _ok(14, f"combined CNOT at 23 nm takes {total * 1e6:.2f} us (published 4.0 us, "
            f"within 2x); D(30 nm) = {d30:.3e} J with exact 1/d^3 scaling; dipole "
            f"CNOT duration {dipole.total_duration * 1e3:.2f} ms with X-conjugation "
            f"fidelity {f_refocused:.4f} > idle-replaced {f_idle:.2e}")
