import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import (assert_unitary_reference, gate_fidelity_reference, haar, no_kernel,
                        oracle_reference, rf_off_and_empty_segments, spectator_fidelity_loop,
                        is_hermitian_reference, spectator_fidelity_reference,
                        unitarity_deviation_reference, with_segment)
from donorsim import DeviceParameters, _kernels, _memo, analysis, propagator, spin_model
from donorsim.analysis import (
    SWEEP_FIELDS,
    SWEEP_METRICS,
    _donor4_levels,
    frozen_nucleus_check,
    gate_fidelity,
    lab_realization,
    rabi_probability,
    spectator_fidelity,
    sweep,
    timescale_table,
)
from donorsim.gates import GateSpec, spectator_period, synthesize
from donorsim.params import carrier_frequency, max_detuning
from donorsim.propagator import PulseSchedule, PulseSegment, _refine
from donorsim.spin_model import SX, SpinSystem, is_hermitian, single_donor_static


def test_gate_fidelity_basics(rng):
    u = haar(4, rng)
    assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(SX.astype(complex), np.eye(2, dtype=complex)) == 0.0
    for _ in range(200):
        f = gate_fidelity(haar(2, rng), haar(2, rng))
        assert 0.0 <= f <= 1.0


def test_gate_fidelity_phase_invariance_and_symmetry(rng):
    u, v = haar(4, rng), haar(4, rng)
    for alpha in rng.uniform(0, 2 * math.pi, size=8):
        assert gate_fidelity(u, np.exp(1j * alpha) * u) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(u, v) == pytest.approx(gate_fidelity(v, u), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(dim=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
def test_gate_fidelity_is_invariant_under_a_shared_unitary(dim, seed):
    """F(WU, WV) = F(UW, VW) = F(U, V), and a factor W on a further register
    leaves F alone: F(U (x) W, V (x) W) = F(U, V)."""
    rng = np.random.default_rng(seed)
    u, v, w = haar(dim, rng), haar(dim, rng), haar(dim, rng)
    f = gate_fidelity(u, v)
    assert gate_fidelity(w @ u, w @ v) == pytest.approx(f, abs=1e-12)
    assert gate_fidelity(u @ w, v @ w) == pytest.approx(f, abs=1e-12)
    assert gate_fidelity(np.kron(u, w), np.kron(v, w)) == pytest.approx(f, abs=1e-12)


def test_gate_fidelity_rejects(rng):
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2, dtype=complex), np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2, dtype=complex) * 2.0, np.eye(2, dtype=complex))
    # NaN fails the unitarity check instead of passing through it
    with pytest.raises(ValueError, match="not unitary"):
        gate_fidelity(np.full((2, 2), np.nan), np.eye(2))


def test_spectator_fidelity_factorized(rng):
    system = SpinSystem(2)
    gate = haar(2, rng)
    ident = np.kron(gate, np.eye(2))
    assert spectator_fidelity(ident, gate, (0,), system) == pytest.approx(1.0, abs=1e-12)
    rotated = np.kron(gate, haar(2, rng))
    assert spectator_fidelity(rotated, gate, (0,), system) < 1.0 - 1e-3
    # the tensor contraction agrees with the index loop for every target tuple
    for system in (SpinSystem(1), SpinSystem(2), SpinSystem(3),
                   SpinSystem(1, include_nuclei=True), SpinSystem(2, include_nuclei=True)):
        for k in range(1, system.num_donors + 1):
            for targets in itertools.permutations(range(system.num_donors), k):
                u, gate = haar(system.dim, rng), haar(2**k, rng)
                assert spectator_fidelity(u, gate, targets, system) == pytest.approx(
                    spectator_fidelity_loop(u, gate, targets, system), abs=1e-14)


_GRADING_SYSTEMS = [SpinSystem(n, include_nuclei=nuclei)
                    for n in (1, 2, 3) for nuclei in (False, True) if n < 3 or not nuclei]


@pytest.mark.parametrize("system", _GRADING_SYSTEMS, ids=lambda s: f"{s.num_donors}"
                         f"{'_nuclei' if s.include_nuclei else ''}")
def test_grading_matches_reference_formulas_bitwise(rng, system):
    for k in range(1, system.num_donors + 1):
        for targets in itertools.permutations(range(system.num_donors), k):
            u, v, gate = haar(system.dim, rng), haar(system.dim, rng), haar(2**k, rng)
            assert gate_fidelity(u, v) == gate_fidelity_reference(u, v)
            assert spectator_fidelity(u, gate, targets, system) == \
                spectator_fidelity_reference(u, gate, targets, system)
            # the gate embedded on its targets: spectators see the identity
            exact = spin_model.embed(gate, tuple(system.electron_site(q) for q in targets),
                                     system.num_sites)
            assert spectator_fidelity(exact, gate, targets, system) == \
                spectator_fidelity_reference(exact, gate, targets, system)


def _strided(a):
    """a as a view with a stride of 2 elements in both axes."""
    big = np.zeros((2 * a.shape[0], 2 * a.shape[1]), dtype=a.dtype)
    big[::2, ::2] = a
    return big[::2, ::2]


_LAYOUTS = {"c": np.ascontiguousarray, "f": np.asfortranarray, "strided": _strided}


def _grading_misses():
    return (analysis._gate_fidelity.cache_info().misses,
            analysis._spectator_fidelity.cache_info().misses)


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("system", _GRADING_SYSTEMS, ids=lambda s: f"{s.num_donors}"
                         f"{'_nuclei' if s.include_nuclei else ''}")
def test_grading_tables_give_the_reference_bits_cold_and_warm(rng, system, layout):
    """A cold call and a hit give the bits of the reference formulas on the
    caller's own array, whatever its memory layout; targets given as a list
    or as numpy integers read the entry of the int tuple."""
    arrange = _LAYOUTS[layout]
    for k in range(1, system.num_donors + 1):
        for targets in itertools.permutations(range(system.num_donors), k):
            u, v, gate = (arrange(haar(d, rng)) for d in (system.dim, system.dim, 2**k))
            f_ref = gate_fidelity_reference(u, v)
            s_ref = spectator_fidelity_reference(u, gate, targets, system)
            _memo.clear()
            assert gate_fidelity(u, v) == f_ref
            assert spectator_fidelity(u, gate, targets, system) == s_ref
            assert _grading_misses() == (1, 1)
            assert gate_fidelity(u, v) == f_ref
            assert spectator_fidelity(u, gate, list(targets), system) == s_ref
            assert spectator_fidelity(u, gate, tuple(map(np.int64, targets)), system) == s_ref
            assert _grading_misses() == (1, 1)


def test_grading_tables_key_on_bits_dtype_shape_targets_and_system(rng):
    """Only a bit-identical input of the same dtype and shape, with the same
    targets in the same order and the same system, is answered from an entry."""
    system = SpinSystem(2)
    u, v, gate, gate1 = haar(4, rng), haar(4, rng), haar(4, rng), haar(2, rng)
    _memo.clear()
    f = gate_fidelity(u, v)
    s = spectator_fidelity(u, gate, (0, 1), system)
    flipped = u.copy()
    flipped.view(np.uint64)[0, 0] ^= 1   # the last bit of u[0, 0].real
    assert gate_fidelity(flipped, v) == gate_fidelity_reference(flipped, v)
    assert spectator_fidelity(flipped, gate, (0, 1), system) == \
        spectator_fidelity_reference(flipped, gate, (0, 1), system)
    assert _grading_misses() == (2, 2)
    # the same bytes under another shape: a miss, and this one is refused
    with pytest.raises(ValueError, match="different dimensions"):
        gate_fidelity(u.reshape(2, 8), v)
    with pytest.raises(ValueError, match="u must be 4x4"):
        spectator_fidelity(u.reshape(2, 8), gate, (0, 1), system)
    assert _grading_misses() == (3, 3)
    # the other target order
    assert spectator_fidelity(u, gate, (1, 0), system) == \
        spectator_fidelity_reference(u, gate, (1, 0), system)
    assert _grading_misses() == (3, 4)
    # another register of the same dimension, where target 0 is the same site
    nuclei = SpinSystem(1, include_nuclei=True)
    assert spectator_fidelity(u, gate1, (0,), system) == \
        spectator_fidelity(u, gate1, (0,), nuclei)
    assert _grading_misses() == (3, 6)
    # equal values of another dtype, or with -0.0 for 0.0: misses with equal results
    eye = np.eye(2, dtype=complex)
    signed = eye.copy()
    signed[0, 1] = -0.0
    assert gate_fidelity(eye, eye) == gate_fidelity(eye.real, eye) == \
        gate_fidelity(signed, eye) == 1.0
    assert _grading_misses() == (6, 6)
    # the first entries still answer
    assert gate_fidelity(u, v) == f
    assert spectator_fidelity(u, gate, (0, 1), system) == s
    assert _grading_misses() == (6, 6)


def test_grading_tables_hold_no_caller_array(rng):
    """Writing to an array after grading it changes no later result."""
    system = SpinSystem(2)
    u, v, gate = haar(4, rng), haar(4, rng), haar(2, rng)
    kept = u.copy()
    f = gate_fidelity(u, v)
    s = spectator_fidelity(u, gate, (1,), system)
    u[...] = haar(4, rng)
    assert gate_fidelity(u, v) == gate_fidelity_reference(u, v)
    assert spectator_fidelity(u, gate, (1,), system) == \
        spectator_fidelity_reference(u, gate, (1,), system)
    assert gate_fidelity(kept, v) == f
    assert spectator_fidelity(kept, gate, (1,), system) == s


def test_gate_fidelity_keeps_no_matrix_larger_than_a_register(rng):
    """A 32x32 pair is graded with the reference bits but not kept, so an
    entry holds at most two 16x16 matrices."""
    u, v = haar(32, rng), haar(32, rng)
    _memo.clear()
    for _ in range(2):
        assert gate_fidelity(u, v) == gate_fidelity_reference(u, v)
    info = analysis._gate_fidelity.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    u, v = haar(16, rng), haar(16, rng)
    assert gate_fidelity(u, v) == gate_fidelity_reference(u, v)
    assert analysis._gate_fidelity.cache_info().currsize == 1


_NAN2 = np.full((2, 2), np.nan)
_EYE2, _EYE4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)


@pytest.mark.parametrize("args, message", [
    pytest.param((_NAN2, _EYE2), "not unitary", id="nan_u"),
    pytest.param((_EYE2, _NAN2), "not unitary", id="nan_v"),
    pytest.param((2.0 * _EYE2, _EYE2), "not unitary", id="non_unitary"),
    pytest.param((_EYE2, _EYE4), "different dimensions", id="shape_mismatch"),
])
def test_gate_fidelity_refusals_raise_every_time_and_store_nothing(args, message):
    _memo.clear()
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            gate_fidelity(*args)
    assert analysis._gate_fidelity.cache_info().currsize == 0


@pytest.mark.parametrize("u, gate, targets, message", [
    pytest.param(np.full((4, 4), np.nan), _EYE2, (0,), "not unitary", id="nan_u"),
    pytest.param(2.0 * _EYE4, _EYE2, (0,), "not unitary", id="scaled_identity_u"),
    pytest.param(_EYE4, 2.0 * _EYE2, (0,), "not unitary", id="non_unitary_gate"),
    pytest.param(_EYE4, np.full((2, 2), np.nan), (0,), "not unitary", id="nan_gate"),
    pytest.param(_EYE2, _EYE2, (0,), re.escape("u must be 4x4"), id="u_of_another_system"),
    pytest.param(_EYE4, _EYE4, (0,), re.escape("gate must be 2x2 on 1 target(s)"),
                 id="gate_of_another_target_count"),
    pytest.param(_EYE4, _EYE2, (True,), "target must be an integer, got True", id="bool_target"),
    pytest.param(_EYE4, _EYE2, (1.0,), "target must be an integer, got 1.0", id="float_target"),
    pytest.param(_EYE4, _EYE4, (0, 0), re.escape("targets must be distinct, got (0, 0)"),
                 id="repeated_target"),
    pytest.param(_EYE4, _EYE2, (2,), "donor index 2 out of range", id="target_out_of_range"),
])
def test_spectator_fidelity_refusals_raise_every_time_and_store_nothing(u, gate, targets,
                                                                        message):
    system = SpinSystem(2)
    _memo.clear()
    # an entry for the integer targets answers a numpy integer target, but no
    # bool or float target
    spectator_fidelity(_EYE4, _EYE2, (1,), system)
    spectator_fidelity(_EYE4, _EYE2, (np.int64(1),), system)
    assert analysis._spectator_fidelity.cache_info().hits == 1
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            spectator_fidelity(u, gate, targets, system)
    assert analysis._spectator_fidelity.cache_info().currsize == 1


@pytest.mark.parametrize("m", [
    pytest.param(np.full((2, 2), np.nan), id="nan"),
    pytest.param(np.eye(2, 3, dtype=complex), id="non_square"),
    pytest.param(np.ones(4, dtype=complex), id="vector"),
    pytest.param(2.0 * np.eye(4, dtype=complex), id="non_unitary"),
    pytest.param(np.diag([1.0, 1.0 + 2e-10]), id="just_past_tol"),
    pytest.param(np.diag([1.0, 1.0 + 4e-11]), id="within_tol"),
    pytest.param(haar(8, np.random.default_rng(5)), id="haar"),
    pytest.param(np.array([[0, 1], [1, 0]]), id="integer_permutation"),
])
def test_assert_unitary_agrees_with_the_reference(m):
    """Accepts what the former check accepted and rejects the rest with its message."""
    try:
        assert_unitary_reference(m)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            analysis._assert_unitary(m)
    else:
        analysis._assert_unitary(m)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_unitarity_deviation_is_max_of_u_dag_u_minus_identity(dim):
    """The one max|U^dag U - I|, which grading, `schedule load` and validate
    read, has the bits of subtracting the identity matrix."""
    rng = np.random.default_rng(dim)
    for m in (haar(dim, rng), haar(dim, rng) * (1.0 + 3e-9),
              rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))):
        assert analysis._unitarity_deviation(m) == float(
            np.abs(m.conj().T @ m - np.eye(dim)).max())


def _odd_entries(m, rng):
    """m with NaN, +inf, -inf and -0.0 written at random places (as many as fit)."""
    m = m.copy()
    for value in (np.nan, np.inf, -np.inf, -0.0)[:m.size]:
        m.flat[rng.integers(m.size)] = value
    return m


def _check_inputs(dim, rng):
    """Complex, real and integer square matrices of size dim, each plain and,
    for the float kinds, with NaN, infinite and -0.0 entries."""
    u = haar(dim, rng)
    h = u + u.conj().T
    for m in (u, h, u * (1.0 + 3e-9), h + 3e-12 * rng.normal(size=(dim, dim)), h.real,
              u.real):
        yield m
        yield _odd_entries(m, rng)
    yield rng.integers(-3, 4, size=(dim, dim))
    yield np.eye(dim, dtype=int)
    yield np.zeros((dim, dim))
    yield -np.zeros((dim, dim), dtype=complex)


@pytest.mark.parametrize("dim", range(1, 17))
def test_unitarity_deviation_has_the_in_place_forms_bits(dim):
    """Subtracting the shared identity gives the bits of taking 1 off the
    diagonal in place, NaN for NaN, on complex, real and integer input."""
    rng = np.random.default_rng(100 + dim)
    with np.errstate(all="ignore"):
        for m in _check_inputs(dim, rng):
            new, old = analysis._unitarity_deviation(m), unitarity_deviation_reference(m)
            assert new == old or (math.isnan(new) and math.isnan(old)), m


@pytest.mark.parametrize("dim", range(1, 17))
def test_is_hermitian_gives_the_former_verdicts(dim):
    """One-ufunc reductions accept and reject what ndarray.max's did."""
    rng = np.random.default_rng(200 + dim)
    verdicts = set()
    with np.errstate(all="ignore"):
        for m in _check_inputs(dim, rng):
            verdicts.add(is_hermitian(m))
            assert is_hermitian(m) == is_hermitian_reference(m), m
    assert verdicts == {True, False}


@pytest.mark.parametrize("m", [np.eye(2, dtype=bool), np.ones((1, 1), dtype=bool),
                               np.array([[False, True], [True, False]])],
                         ids=["identity", "one", "swap"])
def test_bool_matrices_are_refused_as_unitaries(m):
    """A bool matrix cannot be checked in place, and is refused by name, not graded."""
    with pytest.raises(TypeError):
        unitarity_deviation_reference(m)
    for check in (lambda: analysis._assert_unitary(m),
                  lambda: gate_fidelity(m, m.astype(complex)),
                  lambda: gate_fidelity(m.astype(complex), m)):
        with pytest.raises(ValueError, match="^expected a numeric matrix, got a bool one$"):
            check()


def test_rabi_probability_limits(p):
    assert rabi_probability(0.0, 1e8, p.b_ac) == 0.0
    t_pi = math.pi * p.constants.hbar / (2.0 * p.transverse_energy)
    assert rabi_probability(t_pi, 0.0, p.b_ac) == pytest.approx(1.0, abs=1e-12)
    dw = 0.5 * max_detuning(p)
    env = (p.transverse_energy
           / math.hypot(p.transverse_energy, p.constants.hbar * dw)) ** 2
    for t in np.linspace(0.0, 60e-9, 211):
        assert rabi_probability(float(t), dw, p.b_ac) <= env + 1e-12
    with pytest.raises(ValueError):
        rabi_probability(-1e-9, 0.0, p.b_ac)


def test_timescale_table(p):
    local, glob = timescale_table(p)
    assert local.t_x == pytest.approx(1.7862430517984666e-06, rel=1e-12)
    assert local.t2_over_tx == pytest.approx(3.36e4, rel=0.02)
    assert local.t_cnot is None
    assert glob.t_x == pytest.approx(29.770717529974448e-9, rel=1e-12)
    assert abs(glob.t_x - 30e-9) / 30e-9 <= 0.01
    assert glob.t2_over_tx == pytest.approx(2e6, rel=0.02)
    assert abs(glob.t_cnot - 148e-9) / 148e-9 <= 0.01
    # published ratio 6e5 is an order-of-magnitude entry; stay within x2
    assert 0.5 <= glob.t2_over_tcnot / 6e5 <= 2.0


def test_timescale_table_t2_scaling(p):
    rows1 = timescale_table(p, t2=0.060)
    rows2 = timescale_table(p, t2=0.120)
    for r1, r2 in zip(rows1, rows2):
        assert r2.t_x == r1.t_x and r2.t_cnot == r1.t_cnot
        assert r2.t2_over_tx == pytest.approx(2.0 * r1.t2_over_tx, rel=1e-12)


def test_nuclear_flip_x_gate(p):
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    flip, fdev = frozen_nucleus_check(sched, p)
    assert flip <= 1e-4
    assert fdev <= 1e-3


def test_frozen_nucleus_near_detuning_bound(p):
    """A legal Y gate whose correction sits at dw/dmax = -0.9997.

    The oracle's reading of that detuning is a hyperfine value just below 0.
    """
    sched = synthesize(GateSpec("y", (0,), theta=4.177247349626241), p, SpinSystem(1))
    assert min(dw for seg in sched.segments for dw in seg.detunings.values()) \
        < -0.999 * max_detuning(p)
    flip, fdev = frozen_nucleus_check(sched, p)
    assert flip <= 1e-4
    assert fdev <= 1e-3


def test_frozen_nucleus_rejects_out_of_bound_detuning(p):
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    seg = PulseSegment(duration=1e-9, detunings={0: -1.01 * max_detuning(p)})
    with pytest.raises(ValueError, match="exceeds the device bound"):
        frozen_nucleus_check(sched.replace(segments=(seg,)), p)


def test_frozen_nucleus_convergence_error_reports_progress(p):
    """An unreachable tolerance ends at the step ceiling, saying how close it got."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi / 2), p, SpinSystem(1))
    with pytest.raises(RuntimeError, match=r"last difference \S+ at 131072 steps"):
        frozen_nucleus_check(sched, p, tol=1e-300)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_frozen_nucleus_rejects_bad_tolerance_up_front(p, monkeypatch, tol):
    """A tolerance that is not finite and positive fails before any level runs."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi / 2), p, SpinSystem(1))

    monkeypatch.setattr(_kernels, "donor4_strang_product", no_kernel)
    message = f"nuclear oracle tolerance must be finite and positive, got {tol!r}"
    with pytest.raises(ValueError, match=message):
        frozen_nucleus_check(sched, p, tol=tol)


@pytest.mark.parametrize("mode,coupling", [("dipole", {"d": 30e-9}), ("exchange", {"j": 1e-25})])
def test_frozen_nucleus_rejects_coupled_schedules_up_front(p, monkeypatch, mode, coupling):
    """Dipole and exchange couplings are refused before any level runs."""
    sched = synthesize(GateSpec("cnot", (0, 1), mode=mode, **coupling), p)

    monkeypatch.setattr(_kernels, "donor4_strang_product", no_kernel)
    with pytest.raises(ValueError, match="the nuclear oracle covers single-qubit schedules only"):
        frozen_nucleus_check(sched, p)


@pytest.mark.parametrize("donor", [5, -1])
def test_frozen_nucleus_rejects_absent_donor(p, donor):
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    with pytest.raises(ValueError, match=f"donor index {donor} out of range"):
        frozen_nucleus_check(sched, p, donor=donor)


def test_frozen_nucleus_takes_the_drive_from_the_schedule(p):
    """The oracle drives at the schedule's B_ac, as its electron-only reference
    does; a lab-frame schedule at the device carrier gives the rotating-frame
    result, and one off that carrier is refused."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1)).replace(b_ac=1.0e-3)
    flip, fdev = frozen_nucleus_check(sched, p)
    assert (flip, fdev) == frozen_nucleus_check(sched, p.replace(b_ac=1.0e-3))
    assert flip <= 1e-5 and fdev <= 1e-5
    hadamard = synthesize(GateSpec("hadamard", (0,)), p, SpinSystem(1))
    assert frozen_nucleus_check(lab_realization(hadamard, p), p) \
        == frozen_nucleus_check(hadamard, p)
    lab = lab_realization(synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1)), p)
    off = lab.replace(carrier=lab.carrier * (1.0 + 1e-6))
    message = (f"device carrier {lab.carrier!r} rad/s; "
               f"the schedule's carrier is {off.carrier!r} rad/s")
    with pytest.raises(ValueError, match=re.escape(message)):
        frozen_nucleus_check(off, p)


@pytest.mark.parametrize("frame", ["rotating", "lab"])
def test_frozen_nucleus_check_is_invariant_under_the_rf_phase(p, frame):
    """A phase of the global drive turns the frame's drive axis about z, so
    the oracle's nuclear flip and electron deviation stay put: its reference
    turns with the lab run."""
    tol = 1e-6
    one = SpinSystem(1)
    for sched in (synthesize(GateSpec("x", (0,), theta=math.pi), p, one),
                  synthesize(GateSpec("hadamard", (0,)), p, one),
                  synthesize(GateSpec("y", (0,), theta=1.1), p, one)):
        if frame == "lab":
            sched = lab_realization(sched, p)
        flip, fdev = frozen_nucleus_check(sched, p, tol=tol)
        for phase in (0.7, -2.1):
            turned = frozen_nucleus_check(sched.replace(rf_phase=phase), p, tol=tol)
            assert turned == pytest.approx((flip, fdev), rel=0.0, abs=tol)


def _rf_off_and_empty_schedule(p):
    """Rotating-frame twin of test_propagator's rf-off and zero-duration lab
    schedule, with its detunings made non-positive to stay within the device bound."""
    segments = rf_off_and_empty_segments(PulseSegment, max_detuning(p), non_positive=True)
    x = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    return x.replace(segments=segments, declared_target=None)


@pytest.mark.parametrize("include_nuclear_drive", [False, True], ids=["electron_drive",
                                                                      "nuclear_drive"])
@pytest.mark.parametrize("make", [
    pytest.param(lambda p: synthesize(GateSpec("hadamard", (0,)), p, SpinSystem(1)), id="hadamard"),
    pytest.param(lambda p: synthesize(GateSpec("x", (0,), theta=2.1), p, SpinSystem(1)),
                 id="x_theta"),
    pytest.param(lambda p: synthesize(GateSpec("y", (0,), theta=4.7), p, SpinSystem(1)),
                 id="y_theta"),
    pytest.param(_rf_off_and_empty_schedule, id="rf_off_and_zero_duration"),
])
def test_frozen_nucleus_refinement_against_reference_loop(p, make, include_nuclear_drive):
    """Per-segment kernel calls and one stacked projection per level change no bit."""
    sched = make(p)
    u = _refine(_donor4_levels(sched, p, include_nuclear_drive), 1e-6, 1 << 16,
                "nuclear oracle")
    # the reference computes every power afresh, not from the entries u left behind
    _memo.clear()
    assert np.array_equal(u, oracle_reference(sched, 0, p, 1e-6, include_nuclear_drive,
                                              _kernels, single_donor_static))


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["x", "y", "hadamard"]),
       theta=st.floats(min_value=0.05, max_value=2.0 * math.pi, exclude_max=True),
       include_nuclear_drive=st.booleans())
def test_frozen_nucleus_cache_state_changes_no_bit(kind, theta, include_nuclear_drive):
    """Cache-cold and cache-warm oracle calls give the same bits, also when the
    warm caches hold the entries of the other drive setting."""
    p = DeviceParameters()
    one = SpinSystem(1)
    spec = GateSpec("hadamard", (0,)) if kind == "hadamard" else GateSpec(kind, (0,), theta=theta)
    sched = synthesize(spec, p, one)

    def unitary(drive):
        return _refine(_donor4_levels(sched, p, drive), 1e-6, 1 << 16,
                       "nuclear oracle").tobytes()

    def check(drive):
        return [x.hex() for x in frozen_nucleus_check(sched, p, include_nuclear_drive=drive)]

    drives = (include_nuclear_drive, not include_nuclear_drive)
    cold = {}
    for drive in drives:
        _memo.clear()
        u = unitary(drive)
        _memo.clear()
        cold[drive] = u, check(drive)
    for drive in drives:
        assert (unitary(drive), check(drive)) == cold[drive]


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["x", "y", "hadamard"]),
       theta=st.floats(min_value=0.05, max_value=2.0 * math.pi, exclude_max=True),
       include_nuclear_drive=st.booleans(),
       block=st.sets(st.sampled_from([64 << k for k in range(8)]), min_size=1, max_size=4))
def test_oracle_blocks_match_single_levels_and_the_sequential_loop(kind, theta,
                                                                    include_nuclear_drive,
                                                                    block):
    """Each level of an oracle block has the bits of that level alone, and the
    block refinement returns the sequential reference loop's unitary."""
    p = DeviceParameters()
    one = SpinSystem(1)
    spec = GateSpec("hadamard", (0,)) if kind == "hadamard" else GateSpec(kind, (0,), theta=theta)
    sched = synthesize(spec, p, one)
    levels = _donor4_levels(sched, p, include_nuclear_drive)
    block = sorted(block)
    stack = levels(block)
    assert stack.shape == (len(block), 4, 4)
    for steps, u in zip(block, stack):
        assert np.array_equal(u, levels([steps])[0])
    u = _refine(levels, 1e-6, 1 << 16, "nuclear oracle")
    _memo.clear()
    assert np.array_equal(u, oracle_reference(sched, 0, p, 1e-6, include_nuclear_drive,
                                              _kernels, single_donor_static))


@pytest.mark.parametrize("rf_on", [True, False], ids=["rf_on", "rf_off"])
def test_frozen_nucleus_rejects_huge_phases_up_front(p, monkeypatch, rf_on):
    """A segment whose static phase passes 2**33 rad fails before any level
    runs, with the duration in the message and no numpy warning."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    long = PulseSegment(duration=1e250, detunings={0: -0.3 * max_detuning(p)}, rf_on=rf_on)
    sched = sched.replace(segments=(*sched.segments, long), declared_target=None)

    monkeypatch.setattr(_kernels, "donor4_strang_product", no_kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                "duration 1e+250 s is too long: its propagator phase exceeds 2**33 rad")):
            frozen_nucleus_check(sched, p)


@pytest.mark.parametrize("a_over_a0", [-0.01, 0.0, 0.5, 1.0, 2.0])
def test_oracle_phase_bound_covers_the_static_spectrum(p, a_over_a0):
    """mu_B B + |g_n mu_n B| + 3|A|, the bound the oracle's phase check uses,
    is at least the largest |eigenvalue| of the static Hamiltonian."""
    c = p.constants
    a = a_over_a0 * p.a0
    bound = abs(c.mu_b * p.b) + abs(c.g_n * c.mu_n * p.b) + 3.0 * abs(a)
    largest = np.abs(np.linalg.eigvalsh(single_donor_static(a, p))).max()
    assert largest <= bound <= largest * (1.0 + 1e-2)


def test_frozen_nucleus_power_cache_dedupes_segments(p, monkeypatch):
    """A Y gate's repeated pulses cost one power per distinct (segment, level),
    and a repeated check takes its propagator from the oracle table."""
    sched = synthesize(GateSpec("y", (0,), theta=4.7), p, SpinSystem(1))
    timed = [seg for seg in sched.segments if seg.duration > 0.0]
    distinct = {(seg.duration, tuple(seg.detunings.items()), seg.rf_on) for seg in timed}
    assert (len(timed), len(distinct)) == (9, 3)
    calls = []
    kernel = _kernels.donor4_strang_product

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "donor4_strang_product", counted)
    _memo.clear()
    cold = frozen_nucleus_check(sched, p)
    levels, rest = divmod(len(calls), len(timed))
    assert rest == 0 and levels >= 2
    assert _kernels._strang_power.cache_info().misses == len(distinct) * levels
    assert frozen_nucleus_check(sched, p) == cold
    assert _kernels._strang_power.cache_info().misses == len(distinct) * levels
    assert len(calls) == levels * len(timed)


@st.composite
def _oracle_cases(draw):
    """A random rotating-frame schedule of 1-3 uncoupled segments (some rf-off
    or of zero duration) on 1-3 donors, and one of its donors."""
    p = DeviceParameters()
    dw = max_detuning(p)
    num_donors = draw(st.integers(1, 3))
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        duration = draw(st.sampled_from([0.0, 0.05e-9]) | st.floats(0.1e-9, 1.5e-9))
        detunings = {q: draw(st.floats(-dw, dw)) for q in range(num_donors)
                     if draw(st.booleans())}
        segments.append(PulseSegment(duration=duration, detunings=detunings,
                                     rf_on=draw(st.booleans())))
    sched = PulseSchedule(segments=tuple(segments), b_ac=p.b_ac, system=SpinSystem(num_donors),
                          rf_phase=draw(st.floats(-math.pi, math.pi)))
    return sched, draw(st.integers(0, num_donors - 1))


@settings(max_examples=30, deadline=None)
@given(case=_oracle_cases(), tol=st.sampled_from([1e-6, 1e-8]),
       include_nuclear_drive=st.booleans())
def test_oracle_memo_cold_and_warm_are_bit_identical(case, tol, include_nuclear_drive):
    """An oracle check from a cleared table and the hit of an equal schedule
    have the same bits."""
    sched, donor = case
    p = DeviceParameters()

    def check(s):
        return [x.hex() for x in frozen_nucleus_check(
            s, p, donor=donor, tol=tol, include_nuclear_drive=include_nuclear_drive)]

    _memo.clear()
    cold = check(sched)
    assert check(sched.replace()) == cold
    info = analysis._oracle_check.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_oracle_memo_entries_are_read_only(p):
    """The table holds the finished (flip, fdev) tuple, which no caller can
    change, so a later hit returns the cold result."""
    sched = synthesize(GateSpec("y", (0,), theta=4.7), p, SpinSystem(1))
    _memo.clear()
    cold = frozen_nucleus_check(sched, p)
    entry = analysis._oracle_check(sched, p, 0, 1e-6, False)
    assert analysis._oracle_check.cache_info().hits == 1
    assert entry == cold and isinstance(entry, tuple)
    with pytest.raises(TypeError, match="does not support item assignment"):
        entry[0] = 0.0
    assert frozen_nucleus_check(sched, p) == cold


def _oracle_memo_base(p):
    dw = max_detuning(p)
    segments = [PulseSegment(duration=0.7e-9, detunings={0: -0.3 * dw, 1: 0.6 * dw}),
                PulseSegment(duration=0.4e-9, detunings={0: 0.5 * dw}),
                PulseSegment(duration=0.3e-9, detunings={1: -0.2 * dw}, rf_on=False),
                PulseSegment(duration=0.5e-9, detunings={0: 0.1 * dw, 1: -0.7 * dw})]
    return PulseSchedule(segments=tuple(segments), b_ac=p.b_ac, system=SpinSystem(2),
                         rf_phase=0.3)


def _oracle_key_variants(p):
    """(schedule, device, options) of the base call changed in one key field."""
    base = _oracle_memo_base(p)
    c = p.constants
    lab = lab_realization(base, p)
    return {
        "base": (base, p, {}),
        "lab": (lab, p, {}),
        "carrier": (lab.replace(carrier=1.001 * lab.carrier), p, {}),
        "b_ac": (base.replace(b_ac=1.5 * p.b_ac), p, {}),
        "mu_b": (base.replace(mu_b=1.01 * c.mu_b), p, {}),
        "hbar": (base.replace(hbar=1.01 * c.hbar), p, {}),
        "rf_phase": (base.replace(rf_phase=0.4), p, {}),
        "duration": (with_segment(base, 1, duration=0.5e-9), p, {}),
        "detuning": (with_segment(base, 1, detunings={0: 0.4 * max_detuning(p)}), p, {}),
        "rf_on": (with_segment(base, 1, rf_on=False), p, {}),
        "segment_order": (base.replace(segments=base.segments[::-1]), p, {}),
        "tol": (base, p, {"tol": 1e-10}),
        "donor": (base, p, {"donor": 1}),
        "include_nuclear_drive": (base, p, {"include_nuclear_drive": True}),
        "device": (base, p.replace(b=2.01), {}),
    }


def _oracle_outcome(sched, p, options):
    """The check's result bits, or the text of the error it raises."""
    try:
        return [x.hex() for x in frozen_nucleus_check(sched, p, **options)]
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("which", ["carrier", "b_ac", "mu_b", "hbar", "rf_phase", "duration",
                                   "detuning", "rf_on", "segment_order", "tol", "donor",
                                   "include_nuclear_drive", "device"])
def test_oracle_memo_key_is_complete(p, which):
    """A call differing from another in one key field gets its own cold
    result, whichever of the two the table saw first (a carrier other than
    the device's is an error, against the device-carrier lab schedule)."""
    variants = _oracle_key_variants(p)
    pair = (variants["lab" if which == "carrier" else "base"], variants[which])
    cold = []
    for call in pair:
        _memo.clear()
        cold.append(_oracle_outcome(*call))
    assert cold[0] != cold[1]
    for order in ((0, 1), (1, 0)):
        _memo.clear()
        for i in order:
            assert _oracle_outcome(*pair[i]) == cold[i]


def test_oracle_memo_ignores_labels_and_declared_target(p):
    sched = synthesize(GateSpec("hadamard", (0,)), p, SpinSystem(1))
    relabelled = sched.replace(segments=tuple(seg.with_label("other") for seg in sched.segments),
                               declared_target=None)
    _memo.clear()
    cold = frozen_nucleus_check(sched, p)
    assert frozen_nucleus_check(relabelled, p) == cold
    info = analysis._oracle_check.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _oracle_error_cases(p):
    """(schedule, options, exception, message) of each error the oracle's
    argument checks and refinement raise."""
    base = _oracle_memo_base(p)
    lab = lab_realization(base, p)
    long = base.replace(segments=(*base.segments, PulseSegment(duration=1e250, rf_on=False)))
    return {
        "nuclei": (base.replace(system=SpinSystem(2, include_nuclei=True)), {}, ValueError,
                   "pass the electron-only schedule"),
        "controls": (with_segment(base, 1, detunings={0: 1.5 * max_detuning(p)}), {},
                     ValueError, "segment 1: detuning .* on donor 0 exceeds the device bound"),
        "donor": (base, {"donor": 2}, ValueError, "donor index 2 out of range"),
        "exchange": (base.replace(segments=(PulseSegment(0.5e-9, couplings={(0, 1): 1e-25}),)),
                     {}, ValueError, "covers single-qubit schedules only"),
        "dipole": (base.replace(dipole={(0, 1): 1e-25}), {}, ValueError,
                   "covers single-qubit schedules only"),
        "carrier": (lab.replace(carrier=1.001 * lab.carrier), {}, ValueError,
                    "runs at the device carrier"),
        "huge_phase": (long, {}, ValueError, "propagator phase exceeds 2\\*\\*33 rad"),
        "zero_tol": (base, {"tol": 0.0}, ValueError, "tolerance must be finite and positive"),
        "nan_tol": (base, {"tol": math.nan}, ValueError, "tolerance must be finite and positive"),
        "not_converged": (base, {"tol": 1e-300}, propagator._NotConverged,
                          "did not converge to 1e-300"),
    }


@pytest.mark.parametrize("which", ["nuclei", "controls", "donor", "exchange", "dipole",
                                   "carrier", "huge_phase", "zero_tol", "nan_tol",
                                   "not_converged"])
def test_oracle_memo_stores_no_error(p, which):
    """An input the oracle rejects raises the same text on every call and
    adds no table entry."""
    sched, options, exc, message = _oracle_error_cases(p)[which]
    _memo.clear()
    frozen_nucleus_check(_oracle_memo_base(p), p)
    texts = []
    for _ in range(2):
        with pytest.raises(exc, match=message) as info:
            frozen_nucleus_check(sched, p, **options)
        texts.append(str(info.value))
    assert texts[0] == texts[1]
    info = analysis._oracle_check.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 0, 3)


def test_frozen_nucleus_check_accepts_zero_dipole_couplings(p):
    """A zero dipole coupling on a multi-donor schedule adds no term, so the
    check equals that of the same schedule without it."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(2))
    zero = sched.replace(dipole={(0, 1): 0.0})
    assert zero != sched
    assert frozen_nucleus_check(zero, p) == frozen_nucleus_check(sched, p)


def test_nuclear_flip_zero_duration(p):
    sched = synthesize(GateSpec("x", (0,), theta=0.0), p, SpinSystem(1))
    assert frozen_nucleus_check(sched, p)[0] == 0.0


def test_nuclear_flip_degrades_at_low_field(p):
    sched_hi = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    flip_hi = frozen_nucleus_check(sched_hi, p)[0]
    p_low = p.replace(b=0.2)
    sched_lo = synthesize(GateSpec("x", (0,), theta=math.pi), p_low, SpinSystem(1))
    flip_lo = frozen_nucleus_check(sched_lo, p_low)[0]
    assert flip_lo > flip_hi


def test_nuclear_flip_rejects_coupled_schedules(p):
    sched = synthesize(GateSpec("swap", (0, 1), j=1e-25), p)
    with pytest.raises(ValueError):
        frozen_nucleus_check(sched, p)


def test_lab_realization(p):
    sched = synthesize(GateSpec("z", (0,), theta=math.pi), p, SpinSystem(1))
    lab = lab_realization(sched, p)
    assert lab.frame == "lab" and lab.carrier is not None
    assert lab_realization(lab, p) is lab


def test_lab_twin_carries_its_own_source_annotations(p):
    """Rotating schedules with equal controls but other labels or another
    declared target are equal keys of the schedule's own tables; each gets a
    twin carrying its own annotations, and a repeated request is a hit."""
    _memo.clear()
    base = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    relabeled = base.replace(segments=tuple(seg.with_label(f"step {k}")
                                            for k, seg in enumerate(base.segments)))
    retargeted = base.replace(declared_target=base.declared_target.copy())
    untargeted = base.replace(declared_target=None)
    sources = (base, relabeled, retargeted, untargeted)
    assert len(set(sources)) == 1
    twins = [lab_realization(sched, p) for sched in sources]
    for sched, twin in zip(sources, twins):
        assert twin.frame == "lab" and twin.carrier == carrier_frequency(p)
        assert twin == sched.replace(frame="lab", carrier=twin.carrier)
        assert [seg.label for seg in twin.segments] == [seg.label for seg in sched.segments]
        assert twin.declared_target is sched.declared_target
        assert lab_realization(sched, p) is twin
    assert analysis._lab_twin.cache_info()[:2] == (4, 4)


def test_lab_twin_table_is_emptied_by_clear(p):
    sched = synthesize(GateSpec("x", (0,), theta=math.pi / 2), p, SpinSystem(1))
    twin = lab_realization(sched, p)
    assert analysis._lab_twin.cache_info().currsize >= 1
    _memo.clear()
    assert analysis._lab_twin.cache_info().currsize == 0
    again = lab_realization(sched, p)
    assert again is not twin and again == twin


def test_sweep_single_point_bitwise(p):
    rows = sweep({"b_ac": [p.b_ac]}, "spectator_period_ns", p)
    assert rows == [{"b_ac": p.b_ac, "spectator_period_ns": spectator_period(p) * 1e9}]


def test_sweep_exchange_uev(p):
    """J(d) in ueV at each swept separation (J(20 nm) and J(20)/J(30) frozen
    from the closed form, as in test_params)."""
    rows = sweep({"d": [20e-9, 30e-9]}, "exchange_uev", p)
    assert [r["d"] for r in rows] == [20e-9, 30e-9]
    assert rows[0]["exchange_uev"] == pytest.approx(1.9545816628675454e-24 / 1.602176634e-25,
                                                    rel=1e-12)
    assert rows[0]["exchange_uev"] / rows[1]["exchange_uev"] == pytest.approx(
        285.1467318557543, rel=1e-12)


def test_sweep_local_pi_time_us(p):
    """The local-control pi time at B_ac = 1e-5 T over the canonical span, in us
    (frozen from the closed form, as in test_params)."""
    rows = sweep({"b_ac": [1e-3]}, "local_pi_time_us", p)
    assert rows[0]["local_pi_time_us"] == pytest.approx(1.7862430517984666, rel=1e-12)


def test_sweep_spectator_inverse_linear(p):
    values = [0.6e-3, 1.2e-3, 2.4e-3]
    rows = sweep({"b_ac": values}, "spectator_period_ns", p)
    products = [r["b_ac"] * r["spectator_period_ns"] for r in rows]
    assert products[0] == pytest.approx(products[1], rel=1e-12)
    assert products[1] == pytest.approx(products[2], rel=1e-12)


def test_sweep_combined_cnot_monotone_in_d(p):
    ds = [20e-9, 24e-9, 28e-9, 32e-9]
    rows = sweep({"d": ds}, "cnot_combined_ns", p)
    vals = [r["cnot_combined_ns"] for r in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sweep_grid_order_deterministic(p):
    rows = sweep({"b_ac": [1e-3, 2e-3], "b": [1.0, 2.0]}, "spectator_period_ns", p)
    assert [(r["b_ac"], r["b"]) for r in rows] == [
        (1e-3, 1.0), (1e-3, 2.0), (2e-3, 1.0), (2e-3, 2.0)
    ]


def test_sweep_rejects_non_numeric_fields(p):
    assert SWEEP_FIELDS == ("b", "b_ac", "a0", "a_min", "d", "a_star", "eps_r")
    for key in ("foo", "constants", "alignment"):
        with pytest.raises(ValueError, match=f"cannot sweep '{key}'; sweepable fields: b, "):
            sweep({key: [1.0]}, "spectator_period_ns", p)


def test_sweep_rejects(p):
    with pytest.raises(ValueError):
        sweep({}, "spectator_period_ns", p)
    with pytest.raises(ValueError):
        sweep({"b_ac": [1e-3]}, "nonsense_metric", p)
    assert "x_gate_ns" in SWEEP_METRICS
