import dataclasses
import functools
import importlib
import io
import math
import pathlib
import pkgutil
import re
import struct
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from _reference import (csv_reference, donor4_loop, execute_lab_reference, execute_loop,
                        lab_donor_reference, midpoint_expm_product, no_kernel,
                        rf_off_and_empty_segments, sequential_refine, su2_closed_form, su2_loop,
                        trace_loop, with_segment)
import donorsim
from donorsim import _kernels, _memo, analysis, propagator, spin_model
from donorsim.analysis import (frozen_nucleus_check, gate_fidelity, lab_realization,
                               rabi_probability)
from donorsim.params import DeviceParameters, PhysicalConstants, carrier_frequency, max_detuning
from donorsim.propagator import (
    EvolutionTrace,
    PulseSchedule,
    PulseSegment,
    _lab_donor_levels,
    concat_schedules,
    execute_schedule,
    propagate_constant,
    segment_hamiltonian,
    schedule_from_text,
    schedule_to_text,
    trace_evolution,
    trace_to_csv,
    validate_schedule_controls,
)
from donorsim.spin_model import (
    SX,
    SpinSystem,
    frame_rotation,
    rotating_hamiltonian,
    single_donor_driven,
    single_donor_static,
)
from donorsim.gates import (
    GateSpec,
    compile_gate,
    compose_parallel,
    interaction_coupling,
    synthesize,
)


def _schedule(segments, p, n=1, **kw):
    kw = {"b_ac": p.b_ac, "hbar": p.constants.hbar, "mu_b": p.constants.mu_b, **kw}
    return PulseSchedule(segments=tuple(segments), system=SpinSystem(n), **kw)


def test_propagate_identity(p):
    u = propagate_constant(np.zeros((4, 4), dtype=complex), 3e-9, p.constants.hbar)
    assert np.allclose(u, np.eye(4))


def test_propagate_pauli_pi_pulse(p):
    h = p.transverse_energy * SX
    t = math.pi * p.constants.hbar / (2.0 * p.transverse_energy)
    u = propagate_constant(h, t, p.constants.hbar)
    assert gate_fidelity(u, SX.astype(complex)) >= 1.0 - 1e-12


def test_propagate_matches_scipy_expm(p, rng):
    for dim in (2, 4, 8):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (m + m.conj().T) * 1e-26
        t = rng.uniform(0.0, 40e-9)
        u = propagate_constant(h, t, p.constants.hbar)
        ref = scipy.linalg.expm(-1j * h * t / p.constants.hbar)
        assert np.abs(u - ref).max() <= 1e-12
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12


def test_propagate_rejects(p):
    with pytest.raises(ValueError):
        propagate_constant(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-9)
    with pytest.raises(ValueError):
        propagate_constant(np.zeros((2, 2)), -1e-9)
    # a phase w t / hbar that overflows is named, not turned into NaN
    for t in (1e300, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"duration {t!r} s is too long")):
            propagate_constant(rotating_hamiltonian(SpinSystem(1), p.transverse_energy,
                                                    {0: 0.0}, {}, {}, p.constants.hbar),
                               t, p.constants.hbar)


def test_phase_bound_is_inclusive(p):
    """A phase of 2**33 rad passes, the next float past it (and NaN) fails."""
    bound = 2.0 ** 33
    for w in (bound, math.nextafter(bound, 0.0)):
        propagate_constant(np.diag([-w, w]), 1.0, hbar=1.0)
    for w in (math.nextafter(bound, math.inf), math.nan):
        with pytest.raises(ValueError, match=re.escape(
                "duration 1.0 s is too long: its propagator phase exceeds 2**33 rad")):
            propagator._check_phase(w, 1.0)
    with pytest.raises(ValueError, match="duration 1.0 s is too long"):
        propagate_constant(np.diag([-math.nextafter(bound, math.inf), 0.0]), 1.0, hbar=1.0)


@pytest.mark.parametrize("frame,rf_on", [("rotating", True), ("lab", True), ("lab", False)])
def test_huge_finite_phase_is_rejected(p, frame, rf_on):
    """A 1e250 s segment has a finite phase with no meaning: execution and traces
    name its duration instead of returning a unitary."""
    sched = _schedule([PulseSegment(1e-9), PulseSegment(1e250, rf_on=rf_on)], p, frame=frame,
                      carrier=carrier_frequency(p) if frame == "lab" else None)
    runs = [lambda: execute_schedule(sched)]
    if frame == "rotating":
        runs.append(lambda: trace_evolution(sched, "0"))
    for run in runs:
        with pytest.raises(ValueError, match=re.escape("duration 1e+250 s is too long")):
            run()


@pytest.mark.parametrize("rf_on", [True, False], ids=["rf_on", "rf_off"])
@pytest.mark.parametrize("check", ["lab", "oracle"])
def test_1e300_s_segment_fails_before_its_step_is_built(p, monkeypatch, check, rf_on):
    """A 1e300 s segment fails its phase check before its step is built and
    before any level runs, with no numpy warning: an rf-off lab step built
    first would warn in np.exp before the phase error."""
    long = PulseSegment(duration=1e300, detunings={0: -0.3 * max_detuning(p)}, rf_on=rf_on)
    sched = _schedule([PulseSegment(1e-9), long], p)
    run = {"lab": lambda: execute_schedule(lab_realization(sched, p)),
           "oracle": lambda: frozen_nucleus_check(sched, p)}[check]

    monkeypatch.setattr(_kernels, "su2_lab_levels", no_kernel)
    monkeypatch.setattr(_kernels, "donor4_strang_product", no_kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                "duration 1e+300 s is too long: its propagator phase exceeds 2**33 rad")):
            run()


def test_dipole_cnot_windows_stay_within_the_phase_bound(p):
    """The longest windows the package synthesizes, the dipole CNOT's at the
    widest separation the benchmark draws, pass the lab-frame phase check."""
    cnot = synthesize(GateSpec("cnot", (0, 1), mode="dipole", d=40e-9), p)
    lab = lab_realization(cnot.replace(dipole={}), p)
    w_ac = carrier_frequency(p)
    phases = [abs(0.5 * w_ac + seg.detunings.get(q, 0.0)) * seg.duration
              for seg in lab.segments for q in (0, 1)]
    assert 1e8 < max(phases) < 2.0 ** 33
    for q in (0, 1):
        _lab_donor_levels(lab, q)
    assert gate_fidelity(execute_schedule(cnot).unitary, cnot.declared_target) >= 1.0 - 1e-4


def test_rabi_populations_match_formula(p, rng):
    for _ in range(100):
        dw = rng.uniform(-max_detuning(p), max_detuning(p))
        t = rng.uniform(0.0, 80e-9)
        h = rotating_hamiltonian(SpinSystem(1), p.transverse_energy, {0: dw}, {}, {},
                                 p.constants.hbar)
        u = propagate_constant(h, t, p.constants.hbar)
        assert abs(abs(u[1, 0]) ** 2 - rabi_probability(t, dw, p.b_ac)) <= 1e-10


def test_execute_empty_schedule(p):
    res = execute_schedule(_schedule([], p, n=2))
    assert res.duration == 0.0
    assert np.allclose(res.unitary, np.eye(4))


def test_execute_composition(p, rng):
    def random_sched():
        segs = [PulseSegment(duration=rng.uniform(1e-10, 5e-9),
                             detunings={0: -rng.uniform(0, max_detuning(p))})
                for _ in range(3)]
        return _schedule(segs, p)

    s1, s2 = random_sched(), random_sched()
    u12 = execute_schedule(concat_schedules(s1, s2)).unitary
    u = execute_schedule(s2).unitary @ execute_schedule(s1).unitary
    assert np.abs(u12 - u).max() <= 1e-13


def _repeats_with_zero_and_rf_off(p):
    dw, j = -0.4 * max_detuning(p), interaction_coupling(1e-11, p)
    a = PulseSegment(3e-9, {0: dw})
    a_off = PulseSegment(3e-9, {0: dw}, rf_on=False)
    zero = PulseSegment(0.0, {1: dw})
    c = PulseSegment(3e-9, {0: dw}, {(0, 1): j})
    # same Hamiltonian as a under another key, and a's controls with another sign
    a_explicit = PulseSegment(3e-9, {0: dw, 1: 0.0})
    a_flipped = PulseSegment(3e-9, {0: -dw})
    segs = [zero, a, a_off, zero, a, a_off, c, a, zero, c, a_explicit, a_flipped, a, a_off]
    return _schedule(segs, p, n=2)


def _hamiltonian_key(seg):
    return (seg.rf_on, tuple(seg.detunings.items()), tuple(seg.couplings.items()))


@pytest.mark.parametrize("make", [
    pytest.param(lambda p: synthesize(GateSpec("y", (0,), theta=4.5), p, SpinSystem(2)),
                 id="multi_block_y"),
    pytest.param(lambda p: synthesize(GateSpec("cnot", (0, 1), mode="combined",
                                               j=interaction_coupling(1e-11, p), d=30e-9), p),
                 id="combined_cnot_dipole"),
    pytest.param(lambda p: compose_parallel([GateSpec("x", (0,), theta=1.0),
                                             GateSpec("y", (2,), theta=5.0)], p,
                                            SpinSystem(3)), id="parallel_padding"),
    pytest.param(_repeats_with_zero_and_rf_off, id="zero_duration_and_rf_off"),
    pytest.param(lambda p: synthesize(GateSpec("y", (1,), theta=5.0), p,
                                      SpinSystem(2, include_nuclei=True)),
                 id="nuclei"),
])
def test_execute_rotating_against_reference_loop(p, make):
    sched = make(p)
    reference = execute_loop(sched, segment_hamiltonian, propagate_constant)
    timed = [seg for seg in sched.segments if seg.duration > 0.0]
    hamiltonians = {_hamiltonian_key(seg) for seg in timed}
    distinct = {(seg.duration, *_hamiltonian_key(seg)) for seg in timed}
    assert len(distinct) < len(timed)
    _memo.clear()
    u = execute_schedule(sched).unitary
    assert propagator._eigensystem.cache_info().misses == len(hamiltonians)
    assert propagator._propagator.cache_info().misses == len(distinct)
    assert u.tobytes() == reference.tobytes()
    # with the rotating table cleared, the schedule takes every propagator
    # from the segment tables and diagonalizes nothing
    propagator._execute_rotating.cache_clear()
    assert execute_schedule(sched).unitary.tobytes() == reference.tobytes()
    assert propagator._execute_rotating.cache_info().misses == 1
    assert propagator._eigensystem.cache_info().misses == len(hamiltonians)
    assert propagator._propagator.cache_info().misses == len(distinct)
    assert propagator._propagator.cache_info().hits == 2 * len(timed) - len(distinct)


@st.composite
def _gate_cases(draw):
    """A gate spec and a system of 1-3 donors to synthesize it on, with nuclei on up to 2."""
    p = DeviceParameters()
    donors = draw(st.integers(1, 3))
    system = SpinSystem(donors, include_nuclei=donors < 3 and draw(st.booleans()))
    kind = draw(st.sampled_from(("x", "y", "z", "hadamard")
                                + (("cnot", "swap") if donors > 1 else ())))
    fields = {}
    if kind in ("cnot", "swap"):
        targets = tuple(draw(st.permutations(range(donors)))[:2])
    else:
        targets = (draw(st.integers(0, donors - 1)),)
    if kind in ("x", "y", "z"):
        fields["theta"] = draw(st.floats(0.05, 2.0 * math.pi, exclude_max=True))
    elif kind == "cnot":
        fields["mode"] = draw(st.sampled_from(("exchange", "dipole", "combined")))
    if fields.get("mode") != "dipole" and kind in ("cnot", "swap"):
        fields["j"] = draw(st.floats(1.0, 10.0)) * interaction_coupling(1e-11, p)
    if fields.get("mode") in ("dipole", "combined"):
        fields["d"] = draw(st.floats(20e-9, 40e-9))
    return GateSpec(kind, targets, **fields), system


def _memo_cases():
    """A synthesized gate, shared with the synthesis table."""
    p = DeviceParameters()
    return _gate_cases().map(lambda case: synthesize(case[0], p, case[1]))


def _counters():
    return propagator._eigensystem.cache_info(), propagator._propagator.cache_info()


@settings(max_examples=40, deadline=None)
@given(sched=_memo_cases())
def test_rotating_memo_matches_reference_loop(sched):
    """The first call after the rotating table is cleared, a hit and an equal
    copy's hit give the reference bits, each as a fresh writable array; a hit
    touches no segment table."""
    reference = execute_loop(sched, segment_hamiltonian, propagate_constant).tobytes()
    propagator._execute_rotating.cache_clear()
    first = execute_schedule(sched).unitary
    before = _counters()
    hit = execute_schedule(sched).unitary
    copied = execute_schedule(sched.replace()).unitary
    assert _counters() == before
    info = propagator._execute_rotating.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for u in (first, hit, copied):
        assert u.tobytes() == reference
        assert u.flags.writeable
    assert not np.shares_memory(first, hit)
    first[...] = 0.0
    hit[...] = np.nan
    assert execute_schedule(sched).unitary.tobytes() == reference
    with pytest.raises(ValueError, match="read-only"):
        propagator._execute_rotating(sched)[0, 0] = 0.0


def _key_variants(p):
    """Pairs of schedules that differ only in one input of the segment Hamiltonian."""
    dw, j = -0.4 * max_detuning(p), interaction_coupling(1e-11, p)
    segs = (PulseSegment(3e-9, {0: dw}), PulseSegment(2e-9, {1: dw}, {(0, 1): j}),
            PulseSegment(3e-9, {0: dw}, rf_on=False))
    base = _schedule(segs, p, n=2)
    three = _schedule([PulseSegment(3e-9, {0: dw}, {(0, 1): j, (1, 2): 0.37 * j}),
                       PulseSegment(3e-9, {0: dw}, {(1, 2): 0.37 * j, (0, 1): j})], p, n=3)
    d = 0.7 * j
    return {
        "b_ac": (base, base.replace(b_ac=1.5 * p.b_ac)),
        "hbar": (base, base.replace(hbar=1.01 * p.constants.hbar)),
        "dipole": (base.replace(dipole={(0, 1): d}), base.replace(dipole={(0, 1): 1.3 * d})),
        "nuclei": (base, base.replace(system=SpinSystem(2, include_nuclei=True))),
        "coupling_order": (three.replace(segments=three.segments[:1]),
                           three.replace(segments=three.segments[1:])),
        "dipole_order": (three.replace(dipole={(0, 1): d, (1, 2): 0.3 * d}),
                         three.replace(dipole={(1, 2): 0.3 * d, (0, 1): d})),
    }


@pytest.mark.parametrize("which", ["b_ac", "hbar", "dipole", "nuclei",
                                   "coupling_order", "dipole_order"])
def test_rotating_cache_key_is_complete(p, which):
    """Each schedule of a pair matches its own uncached result, in either order."""
    pair = _key_variants(p)[which]
    references = {id(sched): execute_loop(sched, segment_hamiltonian,
                                          propagate_constant).tobytes() for sched in pair}
    assert len(set(references.values())) == 2
    first, second = pair
    assert first != second and len({first, second}) == 2
    assert next(propagator._keyed_segments(first))[2] != \
        next(propagator._keyed_segments(second))[2]
    for order in (pair, pair[::-1]):
        _memo.clear()
        for sched in order:
            assert execute_schedule(sched).unitary.tobytes() == references[id(sched)]
        assert propagator._execute_rotating.cache_info().misses == 2


def test_rotating_caches_are_read_only_and_bounded(p):
    sched = synthesize(GateSpec("y", (0,), theta=4.5), p, SpinSystem(2))
    _, _, key = next(propagator._keyed_segments(sched))
    w, v = propagator._eigensystem(*key)
    step = propagator._propagator(*key, sched.segments[0].duration)
    for cached in (w, v, step):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
    # the executed unitary is a fresh array, not a cached one
    u = execute_schedule(sched.replace(segments=sched.segments[:1])).unitary
    u[0, 0] = 0.0
    assert step[0, 0] != 0.0


def _float32_twin_schedule(real) -> PulseSchedule:
    """A two-donor schedule whose every real control is real(x), x a float
    that float32 holds exactly."""
    seg = PulseSegment(duration=real(2.0**-30), detunings={0: real(-2.0**26)},
                       couplings={(0, 1): real(2.0**-83)})
    return PulseSchedule(segments=(seg,), b_ac=real(2.0**-10), system=SpinSystem(2),
                         carrier=real(2.0**36), rf_phase=real(0.5),
                         dipole={(0, 1): real(2.0**-84)}, mu_b=real(2.0**-76))


def test_float32_controls_are_stored_as_floats():
    """A segment or schedule given numpy float32 controls equals its float
    twin as a key, so it stores them as floats: the entries it fills are the
    twin's cold results, bit for bit."""
    twin = _float32_twin_schedule(float)
    _memo.clear()
    cold = execute_schedule(twin).unitary
    _memo.clear()
    single = _float32_twin_schedule(np.float32)
    assert single == twin
    seg = single.segments[0]
    assert {type(v) for v in (seg.duration, *seg.detunings.values(), *seg.couplings.values(),
                              single.b_ac, single.carrier, single.rf_phase, single.mu_b,
                              *single.dipole.values())} == {float}
    assert execute_schedule(single).unitary.tobytes() == cold.tobytes()
    assert execute_schedule(twin).unitary.tobytes() == cold.tobytes()


def _schedule_with(**controls) -> PulseSchedule:
    """A two-donor schedule with one segment, given controls overriding its own."""
    seg = {name: controls.pop(name) for name in ("duration", "detunings", "couplings")
           if name in controls}
    return PulseSchedule(segments=(PulseSegment(**{"duration": 1e-9, **seg}),),
                         **{"b_ac": 1e-3, "system": SpinSystem(2), **controls})


# (field named in the message, build with value v) of each way to give a float control
FLOAT_CONTROLS = {
    "segment duration": ("duration", lambda v: _schedule_with(duration=v)),
    "segment detuning": ("detuning", lambda v: _schedule_with(detunings={0: v})),
    "segment coupling": ("exchange coupling", lambda v: _schedule_with(couplings={(0, 1): v})),
    "schedule dipole": ("dipole coupling", lambda v: _schedule_with(dipole={(0, 1): v})),
    "schedule b_ac": ("b_ac", lambda v: _schedule_with(b_ac=v)),
    "schedule carrier": ("carrier", lambda v: _schedule_with(carrier=v)),
    "schedule rf_phase": ("rf_phase", lambda v: _schedule_with(rf_phase=v)),
    "schedule hbar": ("hbar", lambda v: _schedule_with(hbar=v)),
    "frame time": ("t", lambda v: frame_rotation(v, DeviceParameters(), SpinSystem(1))),
    "spec theta": ("theta", lambda v: GateSpec("x", (0,), theta=v)),
    "spec j": ("j", lambda v: GateSpec("swap", (0, 1), j=v)),
    "spec duration": ("duration", lambda v: GateSpec("idle", (0,), duration=v)),
    "device b": ("b", lambda v: DeviceParameters(b=v)),
    "device a_min": ("a_min", lambda v: DeviceParameters(a_min=v)),
    "constant mu_b": ("mu_b", lambda v: PhysicalConstants(mu_b=v)),
}


@pytest.mark.parametrize("bad", [True, np.bool_(False), "1e-9", 1j], ids=repr)
@pytest.mark.parametrize("name, build", FLOAT_CONTROLS.values(), ids=list(FLOAT_CONTROLS))
def test_float_controls_refuse_bools_and_non_numbers(name, build, bad):
    """A bool, a numpy bool or a value that is not a real number is a
    ValueError naming the field, not a float (True used to run as 1.0) nor a
    TypeError from the arithmetic that follows."""
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        build(bad)


def test_none_is_refused_only_where_a_float_field_allows_it():
    """None stays the 'not given' of a float | None field and is a ValueError
    naming any other float field."""
    assert DeviceParameters(a_min=None) == DeviceParameters()
    assert _schedule_with(carrier=None).carrier is None
    assert GateSpec("x", (0,), theta=1.0, j=None).j is None
    for name, build in (("duration", lambda: PulseSegment(duration=None)),
                        ("b_ac", lambda: _schedule_with(b_ac=None)),
                        ("b", lambda: DeviceParameters(b=None)),
                        ("hbar", lambda: PhysicalConstants(hbar=None))):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got None"):
            build()


def test_every_memo_table_is_registered_and_bounded():
    """Each memo table of the package is declared through _memo, so clear()
    reaches it and its bound is _memo.SIZE."""
    found = {}
    for info in pkgutil.iter_modules(donorsim.__path__):
        module = importlib.import_module(f"donorsim.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                found[id(value)] = f"{info.name}.{name}"
    registered = {id(memo) for memo in _memo.TABLES}
    assert sorted(found[key] for key in found.keys() - registered) == []
    assert found.keys() == registered
    assert len(_memo.TABLES) == 16
    assert all(memo.cache_info().maxsize == _memo.SIZE for memo in _memo.TABLES)
    _memo.clear()
    assert all(memo.cache_info().currsize == 0 for memo in _memo.TABLES)


def test_only_memo_turns_arrays_into_keys_or_freezes_them():
    """Arrays enter and leave memo tables only through _memo.array_key and
    key_array, and tables freeze what they keep only through _memo.read_only:
    no other module of the package builds a byte key, rebuilds an array from
    bytes or sets an array's writeable flag."""
    package = pathlib.Path(donorsim.__file__).parent
    found = [(path.name, word) for path in sorted(package.glob("*.py")) if path.name != "_memo.py"
             for word in (".tobytes(", "frombuffer", "flags.writeable", "import struct")
             if word in path.read_text()]
    assert found == []


def test_array_key_round_trips_bit_identical_arrays_only():
    """key_array rebuilds a read-only copy of the keyed array that a later
    change to the array does not reach; dtype, shape and every bit (the sign of
    a zero too) tell keys apart; six float64 scalars key on the 48 bytes
    struct.pack("6d") writes."""
    a = np.arange(6, dtype=complex).reshape(2, 3) * (1 - 1j)
    key = _memo.array_key(a)
    a[0, 0] = 7.0
    back = _memo.key_array(key)
    assert back.dtype == complex and back.shape == (2, 3) and not back.flags.writeable
    assert back.tobytes() == (np.arange(6, dtype=complex).reshape(2, 3) * (1 - 1j)).tobytes()
    assert _memo.array_key(a.reshape(3, 2)) != _memo.array_key(a)
    assert _memo.array_key(np.zeros(2)) != _memo.array_key(np.zeros(2, dtype=np.int64))
    assert _memo.array_key(np.array([0.0])) != _memo.array_key(np.array([-0.0]))
    scalars = (1.0545718176461565e-34, 1.5e8, -1.0, -0.0, 3.5e11, 1e-12)
    assert _memo.array_key(np.array(scalars))[2] == struct.pack("6d", *scalars)
    assert _memo.key_array(_memo.array_key(np.array(scalars))).tolist() == list(scalars)
    frozen = np.zeros(3)
    assert _memo.read_only(frozen) is frozen and not frozen.flags.writeable


def test_memo_stats_lists_every_table(p):
    """stats() reads the counters of every registered table, under its name."""
    for info in pkgutil.iter_modules(donorsim.__path__):
        importlib.import_module(f"donorsim.{info.name}")
    trace_evolution(synthesize(GateSpec("x", (0,), theta=1.0), p, SpinSystem(1)), "0",
                    samples=3)
    stats = _memo.stats()
    assert list(stats) == [memo.__qualname__ for memo in _memo.TABLES]
    assert "_trace" in stats
    for memo in _memo.TABLES:
        info = memo.cache_info()
        assert stats[memo.__qualname__] == {"hits": info.hits, "misses": info.misses,
                                            "currsize": info.currsize,
                                            "maxsize": _memo.SIZE}
    assert stats["_trace"]["currsize"] >= 1


@settings(max_examples=40, deadline=None)
@given(case=_gate_cases())
def test_memo_cold_and_warm_are_bit_identical(case):
    """Synthesis, rotating execution, compile_gate's grade and, for single-qubit
    gates, the oracle and lab execution give the same bits from cleared tables
    and from warm ones."""
    spec, system = case
    p = DeviceParameters()

    def run():
        sched = synthesize(spec, p, system)
        report = compile_gate(spec, p, system)
        bits = [repr(sched.segments), repr(sorted(sched.dipole.items())),
                sched.declared_target.tobytes(),
                execute_schedule(sched).unitary.tobytes(),
                report.fidelity.hex(),
                [(label, duration.hex()) for label, duration in report.step_durations],
                report.notes]
        if len(spec.targets) == 1 and not system.include_nuclei:
            bits.append([x.hex() for x in frozen_nucleus_check(sched, p)])
            lab = lab_realization(sched, p)
            bits.append(execute_schedule(lab, lab_tol=1e-6).unitary.tobytes())
        return bits

    _memo.clear()
    cold = run()
    assert run() == cold


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("carrier", [0.0, -3.5e11, math.inf, math.nan])
def test_schedule_rejects_non_positive_carrier(p, frame, carrier):
    with pytest.raises(ValueError, match="carrier must be finite and positive"):
        _schedule([PulseSegment(duration=1e-9)], p, frame=frame, carrier=carrier)


def test_concat_rejects_mismatch(p):
    s1 = _schedule([PulseSegment(duration=1e-9)], p, n=2)
    for s2, what in [(s1.replace(frame="lab", carrier=carrier_frequency(p)), "frame"),
                     (s1.replace(hbar=1.5 * s1.hbar), "hbar"),
                     (s1.replace(mu_b=1.1 * s1.mu_b), "mu_b"),
                     (s1.replace(dipole={(0, 1): 1e-30}), "dipole couplings")]:
        with pytest.raises(ValueError, match=f"^schedules disagree on {what}$"):
            concat_schedules(s1, s2)
    with pytest.raises(ValueError, match="^schedules act on different systems$"):
        concat_schedules(s1, s1.replace(system=SpinSystem(3)))


@pytest.mark.parametrize("frame,carrier,message", [
    ("dressed", None, "frame must be 'rotating' or 'lab'"),
    ("lab", None, "lab-frame schedules need the carrier frequency")])
def test_schedule_rejects_bad_frame(p, frame, carrier, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _schedule([PulseSegment(duration=1e-9)], p, frame=frame, carrier=carrier)


def test_segment_validation():
    with pytest.raises(ValueError):
        PulseSegment(duration=-1e-9)
    with pytest.raises(ValueError):
        PulseSegment(duration=1e-9, couplings={(0, 1): -1e-27})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            PulseSegment(duration=bad)
        with pytest.raises(ValueError):
            PulseSegment(duration=1e-9, detunings={0: bad})
        with pytest.raises(ValueError):
            PulseSegment(duration=1e-9, couplings={(0, 1): bad})


def test_segment_checks_hold_at_every_boundary(p):
    """A relabel skips the checks; building a segment, here or from a file, does not."""
    with pytest.raises(ValueError, match="must be finite"):
        PulseSegment(duration=math.nan)
    seg = PulseSegment(duration=1e-9, detunings={0: -1e8}, couplings={(1, 0): 1e-27})
    assert seg.couplings == {(0, 1): 1e-27}
    with pytest.raises(TypeError):
        seg.detunings[0] = math.nan
    header = "# donorsim schedule v1\nnum_donors = 2\n"
    for line, message in [("segment duration_ns=nan rf=on", "must be finite"),
                           ("segment duration_ns=-1 rf=on", "must be non-negative"),
                           ("segment duration_ns=1 j_uev=0-1:-1 rf=on", "must be non-negative")]:
        with pytest.raises(ValueError, match=f"^line 3: .*{message}"):
            schedule_from_text(header + line + "\n", p)


@pytest.mark.parametrize("field,bad,message", [
    ("rf_on", "off", "rf_on must be True or False, got 'off'"),
    ("rf_on", None, "rf_on must be True or False, got None"),
    ("label", None, "segment label must be a str, got None"),
    ("label", b"x", "segment label must be a str, got b'x'"),
    ("detunings", {1.0: -1e8}, "detuning key must be an integer, got 1.0"),
    ("detunings", {"0": -1e8}, "detuning key must be an integer, got '0'"),
    ("detunings", {True: -1e8}, "detuning key must be an integer, got True"),
    ("couplings", {(0.0, 1): 1e-27}, "exchange pair member must be an integer, got 0.0"),
    ("couplings", {(0, "1"): 1e-27}, "exchange pair member must be an integer, got '1'"),
    ("couplings", {1: 1e-27}, "exchange pair 1 must be a tuple of donor indices"),
])
def test_segment_rejects_what_it_would_misread(field, bad, message):
    """A string rf switch would read as on, a None label would break the
    schedule dump and a float donor index would dump a line the loader refuses,
    so each is a ValueError that names the field."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PulseSegment(duration=1e-9, **{field: bad})
    if field == "label":
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PulseSegment(duration=1e-9).with_label(bad)


def test_segment_stores_integer_indices_and_a_bool_switch(p):
    """numpy integers and bools are stored as int and bool, and the segment
    equals, executes and dumps as the one written with Python types."""
    seg = PulseSegment(1e-9, {np.int64(1): -1e8}, {(np.int32(1), np.int64(0)): 1e-27},
                       rf_on=np.bool_(True), label="s")
    plain = PulseSegment(1e-9, {1: -1e8}, {(0, 1): 1e-27}, rf_on=True, label="s")
    assert [type(q) for q in seg.detunings] == [int]
    assert [tuple(map(type, pair)) for pair in seg.couplings] == [(int, int)]
    assert type(seg.rf_on) is bool and seg == plain
    off = PulseSegment(1e-9, rf_on=0)
    assert off.rf_on is False
    sched, ref = (_schedule([s, off], p, n=2) for s in (seg, plain))
    assert execute_schedule(sched).unitary.tobytes() == execute_schedule(ref).unitary.tobytes()
    assert schedule_to_text(sched, p) == schedule_to_text(ref, p)
    with pytest.raises(ValueError, match=r"^dipole pair member must be an integer, got 1\.0$"):
        _schedule([off], p, n=2, dipole={(0, 1.0): 1e-30})


def test_segment_rejects_self_pair():
    with pytest.raises(ValueError, match="exchange pair 1-1 must name two different donors"):
        PulseSegment(duration=1e-9, couplings={(1, 1): 1e-27})


def test_schedule_checks_dipole_pairs(p):
    seg = PulseSegment(duration=1e-9)
    assert _schedule([seg], p, n=2, dipole={(1, 0): 1e-30}).dipole == {(0, 1): 1e-30}
    with pytest.raises(ValueError, match="dipole pair 0-0 must name two different donors"):
        _schedule([seg], p, n=2, dipole={(0, 0): 1e-30})
    with pytest.raises(ValueError, match="donor index 5 out of range"):
        _schedule([seg], p, n=2, dipole={(0, 5): 1e-30})


def test_pairs_given_twice_are_rejected(p):
    """A pair named in both orders would keep only the last value, so it is an error."""
    for pairs in ({(0, 1): 1e-27, (1, 0): 2e-27}, {(1, 2): 1e-27, (2, 1): 1e-27}):
        pair = "-".join(map(str, sorted(next(iter(pairs)))))
        with pytest.raises(ValueError, match=f"^exchange pair {pair} given twice$"):
            PulseSegment(duration=1e-9, couplings=pairs)
        with pytest.raises(ValueError, match=f"^dipole pair {pair} given twice$"):
            _schedule([PulseSegment(duration=1e-9)], p, n=3, dipole=pairs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-30])
def test_schedule_rejects_bad_dipole_values(p, bad):
    with pytest.raises(ValueError, match="dipole couplings must be finite and non-negative"):
        _schedule([PulseSegment(duration=1e-9)], p, n=2, dipole={(0, 1): bad})
    assert _schedule([PulseSegment(duration=1e-9)], p, n=2, dipole={(0, 1): 0.0}).dipole


@pytest.mark.parametrize("name", ["b_ac", "hbar", "mu_b"])
@pytest.mark.parametrize("bad", [0.0, -1e-3, math.inf, math.nan])
def test_schedule_rejects_non_positive_scales(p, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got"):
        _schedule([PulseSegment(duration=1e-9)], p, **{name: bad})


@pytest.mark.parametrize("b_ac,mu_b", [(1e-320, None), (1e-300, None), (1e-3, 1e-310),
                                      (1e300, 1e10)],
                         ids=["zero", "subnormal", "subnormal_mu_b", "infinite"])
def test_schedule_and_device_reject_a_drive_energy_that_is_not_normal(p, b_ac, mu_b):
    """mu_B * b_ac must be a normal positive float, though each factor is positive."""
    mu_b = p.constants.mu_b if mu_b is None else mu_b
    message = "^" + re.escape(f"b_ac = {b_ac!r} T is out of range: its drive energy mu_B * b_ac "
                              f"= {mu_b * b_ac!r} J is not a normal positive float") + "$"
    with pytest.raises(ValueError, match=message):
        _schedule([PulseSegment(duration=1e-9)], p, b_ac=b_ac, mu_b=mu_b)
    constants = dataclasses.replace(p.constants, mu_b=mu_b)
    with pytest.raises(ValueError, match=message):
        DeviceParameters(b=2.0 * b_ac, b_ac=b_ac, constants=constants)


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_schedule_rejects_non_finite_rf_phase(p, frame, bad):
    with pytest.raises(ValueError, match="^rf_phase must be finite, got"):
        _schedule([PulseSegment(duration=1e-9)], p, frame=frame,
                  carrier=carrier_frequency(p), rf_phase=bad)


def test_validate_schedule_controls(p):
    good = _schedule([PulseSegment(duration=1e-9, detunings={0: -0.9 * max_detuning(p)})], p)
    validate_schedule_controls(good, p)
    bad = _schedule([PulseSegment(duration=1e-9),
                     PulseSegment(duration=1e-9, detunings={0: -1.5 * max_detuning(p)})], p)
    with pytest.raises(ValueError, match="^segment 1: detuning .* on donor 0 exceeds"):
        validate_schedule_controls(bad, p)


# ---------------------------------------------------------------------------
# lab-frame integration
# ---------------------------------------------------------------------------

def test_lab_adaptive_default_tolerance(p):
    """The 1e-9 step-halving contract holds on a short lab segment."""
    seg = PulseSegment(duration=1.2e-9, detunings={0: -0.6 * max_detuning(p)})
    lab = _schedule([seg], p, frame="lab", carrier=carrier_frequency(p))
    u_lab = execute_schedule(lab, lab_tol=1e-9).unitary
    u_rot = execute_schedule(lab.replace(frame="rotating", carrier=None)).unitary
    mapped = frame_rotation(seg.duration, p, SpinSystem(1)) @ u_lab
    assert np.abs(mapped - u_rot).max() <= 5e-8
    assert np.abs(u_lab.conj().T @ u_lab - np.eye(2)).max() <= 1e-12


def test_lab_frame_gate_equivalence(p):
    """Synthesized gates agree between lab and rotating frames (criterion-9 style)."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    lab = sched.replace(frame="lab", carrier=carrier_frequency(p))
    u_lab = execute_schedule(lab, lab_tol=1e-6).unitary
    u_rot = execute_schedule(sched).unitary
    mapped = frame_rotation(sched.total_duration, p, SpinSystem(1)) @ u_lab
    assert 1.0 - gate_fidelity(mapped, u_rot) <= 1e-6


def test_lab_frame_rf_phase_turns_the_unitary_about_z(p):
    """A lab schedule at rf phase phi runs U(phi) = R U(0) R^dagger with
    R = exp(-i phi sigma_z^e / 2): the phase turns the drive axis about z.
    Both sides step on one grid, so they agree far below lab_tol."""
    sz = np.diag(spin_model.E_SZ).real
    one = SpinSystem(1)
    for sched in (synthesize(GateSpec("x", (0,), theta=math.pi), p, one),
                  synthesize(GateSpec("hadamard", (0,)), p, one)):
        lab = lab_realization(sched, p)
        u0 = execute_schedule(lab, lab_tol=1e-9).unitary
        for phase in (0.7, -2.1):
            r = np.exp(-0.5j * phase * sz)
            u = execute_schedule(lab.replace(rf_phase=phase), lab_tol=1e-9).unitary
            assert np.abs(u - r[:, None] * u0 * r.conj()).max() <= 1e-11
            assert np.abs(u - u0).max() > 0.1


@pytest.mark.parametrize("donors", [1, 2, 3])
def test_rotating_frame_rf_phase_turns_the_unitary_about_z(p, donors):
    """A rotating schedule at rf phase phi runs U(phi) = R U(0) R^dagger with
    R = prod_e exp(-i phi sigma_z^e / 2), as the lab frame does, so it still
    matches its frame-mapped lab twin at phi."""
    system = SpinSystem(donors)
    target = donors - 1
    sz = np.diag(spin_model.E_SZ).real
    for sched in (synthesize(GateSpec("x", (target,), theta=math.pi), p, system),
                  synthesize(GateSpec("hadamard", (target,)), p, system),
                  synthesize(GateSpec("y", (target,), theta=1.1), p, system)):
        u0 = execute_schedule(sched).unitary
        for phase in (0.7, -2.1):
            r = functools.reduce(np.kron, [np.exp(-0.5j * phase * sz)] * donors)
            turned = sched.replace(rf_phase=phase)
            u = execute_schedule(turned).unitary
            assert np.abs(u - r[:, None] * u0 * r.conj()).max() <= 1e-15
            assert np.abs(u - u0).max() > 0.1
            u_lab = execute_schedule(lab_realization(turned, p), lab_tol=1e-6).unitary
            mapped = frame_rotation(sched.total_duration, p, system) @ u_lab
            assert 1.0 - gate_fidelity(mapped, u) <= 1e-6


@pytest.mark.parametrize("donors", [2, 3])
def test_negated_detunings_and_phase_conjugate_the_unitary_by_sigma_x(p, donors):
    """Negating every detuning and the rf phase conjugates the rotating unitary
    by sigma_x on every electron: sigma_x keeps the drive's x part and flips its
    y part and every sigma_z, while J sigma.sigma and the z-aligned dipole term
    commute with it.  A sign slip in the rotating builder breaks the relation.
    The largest error measured is 9.98e-15, the exchange CNOT on three donors."""
    j = interaction_coupling(1e-11, p)
    system = SpinSystem(donors)
    target = donors - 1
    x = functools.reduce(np.kron, [SX] * donors)
    for spec in (GateSpec("x", (target,), theta=1.1), GateSpec("y", (target,), theta=2.0),
                 GateSpec("hadamard", (target,)), GateSpec("z", (target,), theta=0.3),
                 GateSpec("cnot", (0, 1), mode="exchange", j=j),
                 GateSpec("cnot", (0, 1), mode="dipole", d=30e-9),
                 GateSpec("cnot", (0, 1), mode="combined", j=j, d=30e-9),
                 GateSpec("swap", (0, target), j=j)):
        sched = synthesize(spec, p, system)
        mirrored = sched.replace(segments=tuple(
            PulseSegment(seg.duration, {q: -dw for q, dw in seg.detunings.items()},
                         seg.couplings, seg.rf_on, seg.label) for seg in sched.segments))
        for phase in (0.0, 0.7, -2.1):
            u = execute_schedule(sched.replace(rf_phase=phase)).unitary
            v = execute_schedule(mirrored.replace(rf_phase=-phase)).unitary
            assert np.abs(x @ u @ x - v).max() <= 1e-14, (spec, phase)


def test_time_reversal_turns_the_rotating_unitary_into_its_inverse(p):
    """Reversing the segments, negating every detuning and adding pi to the rf
    phase runs U^dagger: each segment's H(-dw, phi + pi) = -H(dw, phi), so its
    propagator is the inverse of the original's, and the reversed order
    undoes the product.  A product-order slip breaks it, which the sigma_x
    relation cannot see.  Exchange and dipole terms are left out: J and D are
    non-negative and cannot be negated.  Random schedules of 1-4 segments on
    1-3 donors, rf-off segments and any phase included; the largest error
    measured over these 200 is 2.46e-15."""
    rng = np.random.default_rng(20)
    kw = {"b_ac": p.b_ac, "hbar": p.constants.hbar, "mu_b": p.constants.mu_b}
    worst = 0.0
    for _ in range(200):
        system = SpinSystem(int(rng.integers(1, 4)))
        segments = [PulseSegment(float(rng.uniform(0.1, 40.0)) * 1e-9,
                                 {q: float(rng.uniform(-1.0, 1.0)) * max_detuning(p)
                                  for q in range(system.num_donors) if rng.integers(2)},
                                 rf_on=bool(rng.integers(2)))
                    for _ in range(int(rng.integers(1, 5)))]
        phase = float(rng.uniform(-math.pi, math.pi))
        u = execute_schedule(PulseSchedule(segments=tuple(segments), system=system,
                                           rf_phase=phase, **kw)).unitary
        reversed_segments = tuple(
            PulseSegment(seg.duration, {q: -dw for q, dw in seg.detunings.items()},
                         rf_on=seg.rf_on) for seg in reversed(segments))
        v = execute_schedule(PulseSchedule(segments=reversed_segments, system=system,
                                           rf_phase=phase + math.pi, **kw)).unitary
        worst = max(worst, np.abs(u.conj().T - v).max())
    assert worst <= 2.5e-15


def test_lab_convergence_error_reports_progress(p):
    """An unreachable lab_tol ends at the step ceiling, saying how close it got."""
    seg = PulseSegment(duration=0.3e-9, detunings={0: -0.4 * max_detuning(p)})
    lab = _schedule([seg], p, frame="lab", carrier=carrier_frequency(p))
    with pytest.raises(RuntimeError, match=r"last difference \S+ at 524288 steps"):
        execute_schedule(lab, lab_tol=1e-300)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_lab_rejects_bad_tolerance_up_front(p, monkeypatch, tol):
    """A tolerance that is not finite and positive fails before any level runs."""
    seg = PulseSegment(duration=1e-9, detunings={0: -0.4 * max_detuning(p)})
    lab = _schedule([seg], p, frame="lab", carrier=carrier_frequency(p))

    monkeypatch.setattr(_kernels, "su2_lab_product", no_kernel)
    monkeypatch.setattr(_kernels, "su2_lab_levels", no_kernel)
    with pytest.raises(ValueError, match=f"lab-frame integration tolerance must be finite "
                                         f"and positive, got {tol!r}"):
        execute_schedule(lab, lab_tol=tol)


def test_lab_frame_rejects_couplings(p):
    seg = PulseSegment(duration=1e-9, couplings={(0, 1): 1e-27})
    lab = _schedule([seg], p, n=2, frame="lab", carrier=carrier_frequency(p))
    with pytest.raises(NotImplementedError):
        execute_schedule(lab)


def _random_lab_schedule(p, rng, num_segments):
    dw_max = max_detuning(p)
    segments = [PulseSegment(duration=float(rng.uniform(0.2e-9, 2e-9)),
                             detunings={0: float(rng.uniform(-dw_max, dw_max))})
                for _ in range(num_segments)]
    return _schedule(segments, p, frame="lab", carrier=carrier_frequency(p))


def _two_donor_lab_schedule(p):
    dw = max_detuning(p)
    segments = [PulseSegment(duration=0.7e-9, detunings={0: -0.3 * dw, 1: 0.5 * dw}),
                PulseSegment(duration=0.4e-9, detunings={1: -0.8 * dw})]
    return _schedule(segments, p, n=2, frame="lab", carrier=carrier_frequency(p),
                     rf_phase=0.3)


def _rf_off_and_empty_lab_schedule(p):
    segments = rf_off_and_empty_segments(PulseSegment, max_detuning(p))
    return _schedule(segments, p, frame="lab", carrier=carrier_frequency(p))


@pytest.mark.parametrize("make,lab_tol", [
    pytest.param(lambda p, rng: lab_realization(
        synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1)), p), 1e-6, id="x_pi"),
    pytest.param(lambda p, rng: lab_realization(
        synthesize(GateSpec("x", (0,), theta=math.pi / 2), p, SpinSystem(1)), p), 1e-6,
                 id="x_half_pi"),
    pytest.param(lambda p, rng: lab_realization(
        synthesize(GateSpec("hadamard", (0,)), p, SpinSystem(1)), p), 1e-6, id="hadamard"),
    pytest.param(lambda p, rng: _random_lab_schedule(p, rng, 1), 1e-8, id="random_1_segment"),
    pytest.param(lambda p, rng: _random_lab_schedule(p, rng, 2), 1e-8, id="random_2_segments"),
    pytest.param(lambda p, rng: _random_lab_schedule(p, rng, 3), 1e-8, id="random_3_segments"),
    pytest.param(lambda p, rng: _two_donor_lab_schedule(p), 1e-8, id="two_donors"),
    pytest.param(lambda p, rng: _rf_off_and_empty_lab_schedule(p), 1e-8,
                 id="rf_off_and_zero_duration"),
])
def test_lab_refinement_against_reference_loop(p, rng, make, lab_tol):
    """Per-call setup and one stacked projection per level change no bit."""
    sched = make(p, rng)
    u = execute_schedule(sched, lab_tol=lab_tol).unitary
    assert np.array_equal(u, execute_lab_reference(sched, lab_tol, _kernels))
    level = _lab_donor_levels(sched, 0)
    for steps in (64, 128, 1024):
        assert np.array_equal(level([steps])[0], lab_donor_reference(sched, 0, steps, _kernels))


@st.composite
def _random_lab_schedules(draw, max_donors):
    """A random lab schedule: 1-3 segments on 1 to max_donors donors, some
    rf-off or of zero duration."""
    p = DeviceParameters()
    dw = max_detuning(p)
    num_donors = draw(st.integers(1, max_donors))
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        duration = draw(st.sampled_from([0.0, 0.05e-9]) | st.floats(0.1e-9, 1.5e-9))
        detunings = {q: draw(st.floats(-dw, dw)) for q in range(num_donors)
                     if draw(st.booleans())}
        segments.append(PulseSegment(duration=duration, detunings=detunings,
                                     rf_on=draw(st.booleans())))
    return _schedule(segments, p, n=num_donors, frame="lab", carrier=carrier_frequency(p),
                     rf_phase=draw(st.floats(-math.pi, math.pi)))


@st.composite
def _lab_block_cases(draw):
    """A random lab schedule on 1-2 donors and a random block of refinement levels."""
    sched = draw(_random_lab_schedules(2))
    block = sorted(draw(st.sets(st.sampled_from([64 << k for k in range(10)]),
                                min_size=1, max_size=6)))
    return sched, block


@settings(max_examples=40, deadline=None)
@given(case=_lab_block_cases(), lab_tol=st.sampled_from([1e-6, 1e-8]))
def test_lab_blocks_match_single_levels_and_the_sequential_loop(case, lab_tol):
    """Each level of a block has the bits of that level alone and of the
    per-segment reference stream, and the block refinement returns the
    sequential step-halving loop's unitary."""
    sched, block = case
    for donor in range(sched.system.num_donors):
        levels = _lab_donor_levels(sched, donor)
        stack = levels(block)
        assert stack.shape == (len(block), 2, 2)
        for steps, u in zip(block, stack):
            assert np.array_equal(u, levels([steps])[0])
            assert np.array_equal(u, lab_donor_reference(sched, donor, steps, _kernels))
    assert np.array_equal(execute_schedule(sched, lab_tol=lab_tol).unitary,
                          execute_lab_reference(sched, lab_tol, _kernels))


@settings(max_examples=30, deadline=None)
@given(sched=_random_lab_schedules(3), lab_tol=st.sampled_from([1e-6, 1e-8]))
def test_lab_memo_cold_and_warm_are_bit_identical(sched, lab_tol):
    """A lab result from a cleared table and the hit of an equal schedule
    have the same bits."""
    _memo.clear()
    cold = execute_schedule(sched, lab_tol=lab_tol).unitary
    warm = execute_schedule(sched.replace(), lab_tol=lab_tol).unitary
    info = propagator._lab_unitary.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert warm.tobytes() == cold.tobytes()


def test_lab_memo_returns_fresh_writable_unitaries(p):
    """Every call returns its own writable copy; mutating one leaves the
    read-only table entry, and so a later hit, unchanged."""
    sched = lab_realization(synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1)), p)
    _memo.clear()
    first = execute_schedule(sched, lab_tol=1e-6).unitary
    reference = first.tobytes()
    hit = execute_schedule(sched, lab_tol=1e-6).unitary
    assert propagator._lab_unitary.cache_info().hits == 1
    assert first.flags.writeable and hit.flags.writeable
    assert not np.shares_memory(first, hit)
    first[...] = 0.0
    hit[...] = np.nan
    assert execute_schedule(sched, lab_tol=1e-6).unitary.tobytes() == reference
    with pytest.raises(ValueError, match="read-only"):
        propagator._lab_unitary(sched, 1e-6)[0, 0] = 0.0


def _lab_memo_base(p):
    dw = max_detuning(p)
    segments = [PulseSegment(duration=0.7e-9, detunings={0: -0.3 * dw}),
                PulseSegment(duration=0.4e-9, detunings={0: 0.5 * dw}),
                PulseSegment(duration=0.3e-9, detunings={0: 0.1 * dw})]
    return _schedule(segments, p, frame="lab", carrier=carrier_frequency(p), rf_phase=0.3)


def _lab_key_variants(p):
    """The base schedule changed in one field lab execution reads."""
    base = _lab_memo_base(p)
    c = p.constants
    return {
        "carrier": base.replace(carrier=1.001 * base.carrier),
        "b_ac": base.replace(b_ac=1.5 * p.b_ac),
        "mu_b": base.replace(mu_b=1.01 * c.mu_b),
        "hbar": base.replace(hbar=1.01 * c.hbar),
        "rf_phase": base.replace(rf_phase=0.4),
        "duration": with_segment(base, 1, duration=0.5e-9),
        "detuning": with_segment(base, 1, detunings={0: 0.4 * max_detuning(p)}),
        "rf_on": with_segment(base, 1, rf_on=False),
        "segment_order": base.replace(segments=base.segments[::-1]),
    }


@pytest.mark.parametrize("which", ["carrier", "b_ac", "mu_b", "hbar", "rf_phase", "duration",
                                   "detuning", "rf_on", "segment_order", "lab_tol"])
def test_lab_memo_key_is_complete(p, which):
    """A schedule differing from another in one key field gets its own cold
    result, whichever of the two the table saw first."""
    base = (_lab_memo_base(p), 1e-8)
    other = (base[0], 1e-6) if which == "lab_tol" else (_lab_key_variants(p)[which], 1e-8)
    # the schedules are distinct keys, except for the lab_tol pair's one schedule
    assert (base[0] == other[0]) == (which == "lab_tol")
    assert len({base[0], other[0]}) == (1 if which == "lab_tol" else 2)
    cold = []
    for sched, lab_tol in (base, other):
        _memo.clear()
        cold.append(execute_schedule(sched, lab_tol=lab_tol).unitary.tobytes())
    assert cold[0] != cold[1]
    for order in ((0, 1), (1, 0)):
        _memo.clear()
        for i in order:
            sched, lab_tol = (base, other)[i]
            assert execute_schedule(sched, lab_tol=lab_tol).unitary.tobytes() == cold[i]
        assert propagator._lab_unitary.cache_info().misses == 2


def test_lab_memo_ignores_labels_and_declared_target(p):
    sched = lab_realization(synthesize(GateSpec("hadamard", (0,)), p, SpinSystem(1)), p)
    relabelled = sched.replace(segments=tuple(seg.with_label("other") for seg in sched.segments),
                               declared_target=None)
    _memo.clear()
    u = execute_schedule(sched, lab_tol=1e-6).unitary
    assert execute_schedule(relabelled, lab_tol=1e-6).unitary.tobytes() == u.tobytes()
    info = propagator._lab_unitary.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_schedules_compare_and_hash_by_their_controls(p):
    """Labels and declared_target are annotations: schedules that differ only
    in them are equal, hash equal, and are one memo key."""
    sched = synthesize(GateSpec("y", (0,), theta=4.5), p, SpinSystem(2))
    relabelled = sched.replace(segments=tuple(seg.with_label("other") for seg in sched.segments))
    retargeted = sched.replace(declared_target=np.eye(4, dtype=complex))
    untargeted = sched.replace(declared_target=None)
    for other in (relabelled, retargeted, untargeted):
        assert sched == other and other == sched
        assert hash(other) == hash(sched)
    assert len({sched, relabelled, retargeted, untargeted}) == 1
    assert sched not in (None, sched.segments)
    _memo.clear()
    u = execute_schedule(sched).unitary
    assert execute_schedule(retargeted).unitary.tobytes() == u.tobytes()
    info = propagator._execute_rotating.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_memo_clear_is_a_cold_start_for_a_held_schedule(p):
    """A schedule the caller still holds is computed again after
    _memo.clear(), rotating, lab and oracle alike, with the same bits."""
    sched = synthesize(GateSpec("y", (0,), theta=4.5), p, SpinSystem(1))
    lab = lab_realization(sched, p)
    runs = ((propagator._execute_rotating, lambda: execute_schedule(sched).unitary.tobytes()),
            (propagator._lab_unitary,
             lambda: execute_schedule(lab, lab_tol=1e-6).unitary.tobytes()),
            (analysis._oracle_check, lambda: [x.hex() for x in frozen_nucleus_check(sched, p)]))
    for table, run in runs:
        first = run()
        assert run() == first
        _memo.clear()
        assert run() == first
        info = table.cache_info()
        assert (info.misses, info.hits) == (1, 0)


def _lab_error_cases(p):
    """(schedule, lab_tol, exception, message) of each error lab execution raises."""
    base = _lab_memo_base(p)
    two = _two_donor_lab_schedule(p)
    long = base.replace(segments=(PulseSegment(duration=1e-3, detunings={0: 0.2e9}),))
    return {
        "nuclei": (base.replace(system=SpinSystem(1, include_nuclei=True)), 1e-8,
                   NotImplementedError, "covers electron-only systems"),
        "exchange": (two.replace(segments=(PulseSegment(0.5e-9, couplings={(0, 1): 1e-25}),)),
                     1e-8, NotImplementedError, "does not support exchange coupling"),
        "dipole": (two.replace(dipole={(0, 1): 1e-25}), 1e-8, NotImplementedError,
                   "does not support dipole coupling"),
        "zero_tol": (base, 0.0, ValueError, "tolerance must be finite and positive"),
        "nan_tol": (base, math.nan, ValueError, "tolerance must be finite and positive"),
        "not_converged": (long, 1e-9, propagator._NotConverged, "did not converge to 1e-09"),
    }


@pytest.mark.parametrize("which", ["nuclei", "exchange", "dipole", "zero_tol", "nan_tol",
                                   "not_converged"])
def test_lab_memo_stores_no_error(p, which):
    """An input lab execution rejects raises the same text on every call and
    adds no table entry."""
    sched, lab_tol, exc, message = _lab_error_cases(p)[which]
    _memo.clear()
    execute_schedule(_lab_memo_base(p), lab_tol=1e-8)
    texts = []
    for _ in range(2):
        with pytest.raises(exc, match=message) as info:
            execute_schedule(sched, lab_tol=lab_tol)
        texts.append(str(info.value))
    assert texts[0] == texts[1]
    info = propagator._lab_unitary.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 0, 3)


@settings(max_examples=60, deadline=None)
@given(detuning=st.floats(-3e9, 3e9), ax=st.sampled_from([0.0]) | st.floats(1e6, 3e8),
       phi0=st.floats(-math.pi, math.pi), t0=st.floats(0.0, 5e-9),
       duration=st.floats(1e-12, 3e-9),
       steps=st.lists(st.sampled_from([0, 1, 64, 128, 1024, 1 << 19]), min_size=1,
                      max_size=5))
def test_su2_levels_match_one_level_calls(detuning, ax, phi0, t0, duration, steps):
    """su2_lab_levels equals su2_lab_product level by level, and both equal
    the scalar closed form, bit for bit."""
    w_ac = 3.5e11
    az = -(0.5 * w_ac + detuning)
    ns = [n if n < 16 else int(math.ceil(duration * w_ac / (2.0 * math.pi) * n)) for n in steps]
    dts = [duration / max(n, 1) for n in ns]
    stack = _kernels.su2_lab_levels(az, ax, -w_ac, phi0, t0, dts, ns)
    for u, dt, n in zip(stack, dts, ns):
        one = _kernels.su2_lab_product(az, ax, -w_ac, phi0, t0, dt, n)
        assert u.tobytes() == one.tobytes()
        assert one.tobytes() == su2_closed_form(az, ax, -w_ac, phi0, t0, dt, n).tobytes()
    assert np.array_equal(_kernels.su2_lab_levels(0.0, 0.0, -w_ac, phi0, t0, dts, ns),
                          np.repeat(np.eye(2)[None], len(ns), axis=0))


def _outcome(refine, propagate, tol, ceiling):
    """(bytes of the returned array, None) or (None, the raised error's type and text)."""
    try:
        return refine(propagate, tol, ceiling, "scripted").tobytes(), None
    except (RuntimeError, ValueError) as exc:
        return None, (type(exc), str(exc))


def _scripted_levels(values, bad_level=None):
    """propagate(block) over 1x1 unitaries: level 64 * 2**j reads values[j]
    (the last value beyond the script); a block holding bad_level raises.
    Returns it with the list of blocks it was asked for."""
    requests = []

    def propagate(block):
        requests.append(list(block))
        if bad_level in block:
            raise ValueError(f"level {bad_level} failed")
        return np.array([[[complex(values[min((s // 64).bit_length() - 1, len(values) - 1)])]]
                         for s in block])
    return propagate, requests


# level values; consecutive differences give the step-halving differences
_SCRIPTS = {
    "first_pair": [0.0, 1e-9],
    "second_order": list(np.cumsum([0.0] + [1e-3 * 4.0 ** -k for k in range(20)])),
    "slow_first_order": list(np.cumsum([0.0] + [1e-3 * 2.0 ** -k for k in range(30)])),
    "fast_fourth_order": list(np.cumsum([0.0] + [1e-2 * 16.0 ** -k for k in range(12)])),
    "nan_then_recovers": [0.0, 1e-3, math.nan, 0.5, 0.5 + 1e-7],
    "nan_forever": [0.0, 1e-3, math.nan],
    "inf_then_recovers": [0.0, math.inf, 0.25, 0.25 + 1e-9],
    "stalls": [0.0, 1e-3, 2e-3] * 8,
}


@settings(max_examples=120, deadline=None)
@given(script=st.sampled_from(sorted(_SCRIPTS)),
       tol=st.sampled_from([1e-300, 1e-8, 1e-6, 1e-3]),
       ceiling=st.sampled_from([64, 128, 1 << 10, 1 << 16, 1 << 18]),
       bad=st.sampled_from([None, 256, 4096, 1 << 15]))
def test_refine_blocks_match_the_sequential_loop(script, tol, ceiling, bad):
    """Predicted blocks return the sequential loop's array or raise its error
    and text, ask for no level above 2 * ceiling and for every level the loop
    needs, and ask for a level twice only alone, after its block raised: a
    level that only a block asked for ahead of need never raises."""
    values = _SCRIPTS[script]
    blocks, requests = _scripted_levels(values, bad)
    sequential, seq_requests = _scripted_levels(values, bad)
    got = _outcome(propagator._refine, blocks, tol, ceiling)
    want = _outcome(functools.partial(sequential_refine, error=propagator._NotConverged),
                    lambda s: sequential([s])[0], tol, ceiling)
    assert got == want
    levels = [s for block in requests for s in block]
    assert requests[0] == [64, 128] and max(levels) <= 2 * ceiling
    assert sorted(set(levels)) == [64 << j for j in range(len(set(levels)))]
    assert {b[0] for b in seq_requests} <= set(levels)
    raised = {s for b in requests if bad in b and len(b) > 1 for s in b}
    for s in set(levels):
        assert levels.count(s) == 1 + (s in raised and [s] in requests)


def test_refine_predicts_the_levels_second_order_needs():
    """A second-order difference sequence converges in two blocks, each of
    them as long as the loop needs, and tol=1e-300 runs up to the ceiling in
    one more block."""
    propagate, requests = _scripted_levels(_SCRIPTS["second_order"])
    propagator._refine(propagate, 1e-6, 1 << 18, "scripted")
    # 1e-3 at (64, 128): ceil(log4(1e3)) = 5 more levels reach 1e-3 / 4**5 < 1e-6
    assert requests == [[64, 128], [256, 512, 1024, 2048, 4096]]
    propagate, requests = _scripted_levels(_SCRIPTS["second_order"])
    with pytest.raises(propagator._NotConverged, match="at 524288 steps"):
        propagator._refine(propagate, 1e-300, 1 << 18, "scripted")
    assert requests == [[64, 128], [64 << k for k in range(2, 14)]]


def test_refine_never_raises_at_a_level_it_asked_for_ahead_of_need():
    """A block that overshoots into a failing level is evaluated again one
    level at a time, up to the level the sequential loop returns."""
    propagate, requests = _scripted_levels(_SCRIPTS["fast_fourth_order"], bad_level=4096)
    u = propagator._refine(propagate, 1e-6, 1 << 18, "scripted")
    # 1e-2 at (64, 128) predicts 7 levels; 1e-2 / 16**4 < 1e-6 at (1024, 2048)
    assert requests == [[64, 128], [64 << k for k in range(2, 9)], [256], [512], [1024], [2048]]
    assert u.tobytes() == propagate([2048])[0].tobytes()


def test_su2_kernel_against_reference_loop(p):
    az, ax = -1.7e11, 1.1e8
    w = -carrier_frequency(p)
    u_kernel = _kernels.su2_lab_product(az, ax, w, 0.0, 0.0, 1e-14, 200000)
    u_loop = su2_loop(az, ax, w, 0.0, 0.0, 1e-14, 200000)
    assert np.abs(u_kernel - u_loop).max() <= 1e-10


@pytest.mark.parametrize("rf_on,nuclear_drive", [(False, False), (True, False), (True, True)],
                         ids=["rf_off", "rf_on", "rf_on_nuclear_drive"])
def test_donor4_kernel_against_reference_loop(p, rf_on, nuclear_drive):
    c = p.constants
    w_ac = carrier_frequency(p)
    dt = 2.0 * math.pi / w_ac / 128
    gx_e = p.transverse_energy / c.hbar if rf_on else 0.0
    # the nuclear rate scaled up 1e3-fold, to the electron's order, so that
    # its rotation shows well above roundoff
    gx_n = -1e3 * c.g_n * c.mu_n * p.b_ac / c.hbar if nuclear_drive else 0.0
    args = (single_donor_static(0.7 * p.a0, p), c.hbar, gx_e, -1.0, gx_n, w_ac, 0.4, 1.3e-9,
            dt, 3000)
    u_kernel = _kernels.donor4_strang_product(*args)
    u_loop = donor4_loop(*args)
    assert np.abs(u_kernel - u_loop).max() <= 1e-10


@pytest.mark.parametrize("include_nuclear_drive", [False, True],
                         ids=["electron_drive", "nuclear_drive"])
def test_donor4_kernel_against_the_dense_driven_builder(p, include_nuclear_drive):
    """The split-step kernel on the static Hamiltonian and the midpoint loop
    over the full driven Hamiltonian are two second-order discretizations of
    one evolution: over 40 carrier periods they differ by 3.0e-5 at 64 steps
    per period and by 16 times less at 256."""
    c = p.constants
    w_ac = carrier_frequency(p)
    a = 0.7 * p.a0
    gx_e = p.transverse_energy / c.hbar
    gx_n = -c.g_n * c.mu_n * p.b_ac / c.hbar if include_nuclear_drive else 0.0
    errs = []
    for steps_per_period in (64, 256):
        dt = 2.0 * math.pi / w_ac / steps_per_period
        n = 40 * steps_per_period
        u_kernel = _kernels.donor4_strang_product(single_donor_static(a, p), c.hbar, gx_e, -1.0,
                                                  gx_n, w_ac, 0.4, 0.0, dt, n)
        u_loop = midpoint_expm_product(
            lambda t: single_donor_driven(a, t, p, 0.4, include_nuclear_drive), dt, n, c.hbar)
        errs.append(np.abs(u_kernel - u_loop).max())
    assert errs[0] <= 3.02e-5 and errs[1] <= 1.89e-6
    assert 15.9 <= errs[0] / errs[1] <= 16.1


def test_donor4_kernel_rejects_non_commuting_e_half(p):
    """A failed commutator check raises on every call and is never memoized."""
    w_ac = carrier_frequency(p)
    dt = 2.0 * math.pi / w_ac / 128
    ax = p.transverse_energy / p.constants.hbar
    args = (single_donor_static(p.a0, p), p.constants.hbar, ax, 1.0, 0.0, w_ac, 0.0, 0.0, dt, 100)
    _memo.clear()
    # the hyperfine flip-flop conserves total physical S_z, i.e. phase sign -1 only
    for _ in range(2):
        with pytest.raises(ValueError, match="commute"):
            _kernels.donor4_strang_product(*args)
    info = _kernels._strang_power.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_donor4_kernel_of_no_steps_is_the_identity(p):
    """n = 0 gives the 4x4 identity without reading H_static: even one that
    would fail the commutator check reaches no table."""
    w_ac = carrier_frequency(p)
    dt = 2.0 * math.pi / w_ac / 128
    ax = p.transverse_energy / p.constants.hbar
    _memo.clear()
    u = _kernels.donor4_strang_product(single_donor_static(p.a0, p), p.constants.hbar, ax, 1.0,
                                       0.0, w_ac, 0.0, 0.0, dt, 0)
    assert u.dtype == complex and np.array_equal(u, np.eye(4))
    info = _kernels._strang_power.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_kernel_against_expm_oracle(p):
    az, ax, w = -1.76e11, 1.06e8, -3.52e11
    n = 40000
    dt = 2.5e-14
    u = _kernels.su2_lab_product(az, ax, w, 0.0, 0.0, dt, n)
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    ref = midpoint_expm_product(
        lambda t: az * z + ax * (math.cos(w * t) * x + math.sin(w * t) * y), dt, n)
    assert np.abs(u - ref).max() <= 1e-9


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_x_gate(p):
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    tr = trace_evolution(sched, "0", samples=301)
    assert np.abs(tr.populations.sum(axis=1) - 1.0).max() <= 1e-9
    assert tr.populations[-1][1] >= 1.0 - 1e-6
    # final sample equals the executed propagator applied to the start
    psi = execute_schedule(sched).unitary @ np.array([1.0, 0.0], dtype=complex)
    assert np.abs(tr.populations[-1] - np.abs(psi) ** 2).max() <= 1e-12


def test_trace_final_sample_follows_the_rf_phase(p):
    """At rf phase phi the last sample of a trace from a superposition is the
    executed R U(0) R^dagger applied to the start, not U(0)."""
    sched = synthesize(GateSpec("hadamard", (1,)), p, SpinSystem(2))
    psi0 = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    for phase in (0.7, -2.1):
        turned = sched.replace(rf_phase=phase)
        tr = trace_evolution(turned, psi0, samples=11)
        psi = execute_schedule(turned).unitary @ psi0
        assert np.abs(tr.populations[-1] - np.abs(psi) ** 2).max() <= 1e-12
        unturned = np.abs(execute_schedule(sched).unitary @ psi0) ** 2
        assert np.abs(tr.populations[-1] - unturned).max() > 0.1


def test_trace_zero_duration(p):
    tr = trace_evolution(_schedule([], p), "0")
    assert tr.times.shape == (1,)
    assert tr.populations[0][0] == 1.0


def test_trace_rejects(p):
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    with pytest.raises(ValueError):
        trace_evolution(sched, "0", samples=1)
    # a zero-duration trace has one row whatever the count, yet takes no count below 2
    for samples in (1, 0, -5):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            trace_evolution(_schedule([], p), "0", samples=samples)
    with pytest.raises(ValueError):
        trace_evolution(sched, np.array([0.5, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="^initial state has the wrong dimension$"):
        trace_evolution(sched, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(NotImplementedError):
        trace_evolution(sched.replace(frame="lab", carrier=carrier_frequency(p)), "0")
    # NaN fails the norm and row-sum checks instead of passing through them
    with pytest.raises(ValueError, match="normalized"):
        trace_evolution(sched, np.array([np.nan, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="sum to 1"):
        EvolutionTrace(times=np.zeros(2), populations=np.array([[1.0, 0.0], [np.nan, 0.0]]),
                       basis_labels=("0", "1"), initial_label="0")


def test_trace_csv_format(p):
    sched = synthesize(GateSpec("hadamard", (0,)), p, SpinSystem(1))
    tr = trace_evolution(sched, "0", samples=5)
    buf = io.StringIO()
    trace_to_csv(tr, buf, header={"b": p.b})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# b = 2.0"
    assert lines[1] == "time_ns,pop_0,pop_1"
    assert len(lines) == 2 + 5
    assert float(lines[-1].split(",")[1]) == pytest.approx(0.5, abs=1e-9)


def _basis(dim, index):
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def _interleaved_zero_segments(p):
    dw = 0.5 * max_detuning(p)
    segs = [PulseSegment(0.0), PulseSegment(3e-9, {0: dw}), PulseSegment(0.0),
            PulseSegment(0.0, {1: dw}), PulseSegment(2e-9, {1: -dw}, rf_on=False),
            PulseSegment(0.0), PulseSegment(5e-9), PulseSegment(0.0)]
    return _schedule(segs, p, n=2)


def _boundary_samples(p):
    # durations 1, 1, 2 ns at 5 samples: the samples at 1 ns and 2 ns sit exactly
    # on segment starts
    segs = [PulseSegment(1e-9), PulseSegment(1e-9, {0: 0.3 * max_detuning(p)}),
            PulseSegment(2e-9, rf_on=False)]
    return _schedule(segs, p)


_TRACE_CASES = [
    pytest.param(lambda p: synthesize(GateSpec("cnot", (0, 1), mode="exchange",
                                               j=3.0 * math.pi * p.constants.hbar / (8.0 * 1e-11),
                                               extended_correction=True), p),
                 "00", 1000, id="cnot_extended_1000"),
    pytest.param(_interleaved_zero_segments, "01", 97, id="zero_duration_segments"),
    pytest.param(lambda p: synthesize(GateSpec("hadamard", (0,)), p, SpinSystem(2)), "10", 2,
                 id="two_samples"),
    pytest.param(_boundary_samples, "0", 5, id="boundary_samples"),
    pytest.param(lambda p: synthesize(GateSpec("y", (1,), theta=1.0), p, SpinSystem(2)),
                 np.array([0.5, 0.5j, -0.5, 0.5 * np.exp(0.3j)]), 400, id="custom_initial"),
    pytest.param(lambda p: synthesize(GateSpec("x", (1,), theta=math.pi), p, SpinSystem(3)),
                 "010", 500, id="three_donors"),
]


@pytest.mark.parametrize("make,initial,samples", _TRACE_CASES)
def test_trace_against_reference_loop(p, make, initial, samples):
    sched = make(p)
    tr = trace_evolution(sched, initial, samples=samples)
    psi0 = (_basis(sched.system.dim, sched.system.basis_labels().index(initial))
            if isinstance(initial, str) else initial)
    times, pops = trace_loop(sched, psi0, samples, segment_hamiltonian)
    assert np.array_equal(tr.times, times)
    assert np.abs(tr.populations - pops).max() <= 1e-14


@pytest.mark.parametrize("make,initial,samples", _TRACE_CASES)
def test_trace_cached_eigensystems_match_per_segment_eigh(p, monkeypatch, make, initial,
                                                          samples):
    sched = make(p)
    hamiltonians = {_hamiltonian_key(seg) for seg in sched.segments if seg.duration > 0.0}
    _memo.clear()
    cold = trace_evolution(sched, initial, samples=samples)
    assert _trace_counts() == (0, 1)
    warm = trace_evolution(sched, initial, samples=samples)
    assert _trace_counts() == (1, 1)
    assert propagator._eigensystem.cache_info().misses == len(hamiltonians)
    # reference: the same sampling with a fresh eigh of each segment Hamiltonian,
    # from cleared tables so that it samples again instead of hitting cold's entry
    monkeypatch.setattr(propagator, "_keyed_segments", lambda schedule: (
        (start, seg, (schedule, seg)) for start, seg in propagator._timed_segments(schedule)))
    monkeypatch.setattr(propagator, "_eigensystem", lambda schedule, seg: np.linalg.eigh(
        segment_hamiltonian(schedule, seg)))
    _memo.clear()
    reference = trace_evolution(sched, initial, samples=samples)
    assert _trace_counts() == (0, 1)
    _memo.clear()
    for tr in (cold, warm):
        assert tr.times.tobytes() == reference.times.tobytes()
        assert tr.populations.tobytes() == reference.populations.tobytes()


def _trace_counts() -> tuple[int, int]:
    """(hits, misses) of the trace table."""
    counts = _memo.stats()["_trace"]
    return counts["hits"], counts["misses"]


def _csv_text(trace) -> str:
    buf = io.StringIO()
    trace_to_csv(trace, buf, header={})
    return buf.getvalue()


@pytest.mark.parametrize("make,initial,samples", _TRACE_CASES)
def test_trace_memo_cold_warm_and_cleared_are_bit_identical(p, make, initial, samples):
    """A hit returns the stored trace; a trace sampled again from cleared tables
    (of an equal copy of the schedule) has the same bits and CSV text; every
    trace's arrays are read-only."""
    sched = make(p)
    _memo.clear()
    cold = trace_evolution(sched, initial, samples=samples)
    warm = trace_evolution(sched, initial, samples=samples)
    _memo.clear()
    cleared = trace_evolution(sched.replace(), initial, samples=samples)
    assert warm is cold and cleared is not cold
    assert _trace_counts() == (0, 1)
    for tr in (cold, cleared):
        assert tr.times.tobytes() == cold.times.tobytes()
        assert tr.populations.tobytes() == cold.populations.tobytes()
        assert (tr.basis_labels, tr.initial_label) == (cold.basis_labels, cold.initial_label)
        assert _csv_text(tr) == _csv_text(cold) == csv_reference(cold, {})
        for array in (tr.times, tr.populations):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_trace_table_keeps_only_default_size_traces(p):
    """A trace of more than 1000 samples is computed on every call and never
    kept, with the same bits each time; a 1000-sample trace is kept."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(2))
    _memo.clear()
    info = propagator._trace.cache_info()
    long = trace_evolution(sched, "00", samples=1001)
    again = trace_evolution(sched, "00", samples=1001)
    assert propagator._trace.cache_info() == info
    assert again is not long
    assert again.times.tobytes() == long.times.tobytes()
    assert again.populations.tobytes() == long.populations.tobytes()
    kept = trace_evolution(sched, "00", samples=1000)
    assert trace_evolution(sched, "00", samples=1000) is kept
    assert _trace_counts() == (1, 1)


def test_trace_label_and_equal_vector_differ_only_in_initial_label(p):
    sched = synthesize(GateSpec("hadamard", (1,)), p, SpinSystem(2))
    labels = sched.system.basis_labels()
    _memo.clear()
    by_label = trace_evolution(sched, "01", samples=64)
    by_vector = trace_evolution(sched, _basis(sched.system.dim, labels.index("01")), samples=64)
    assert _trace_counts() == (0, 2)
    assert (by_label.initial_label, by_vector.initial_label) == ("01", "custom")
    assert by_label.basis_labels == by_vector.basis_labels
    assert by_label.times.tobytes() == by_vector.times.tobytes()
    assert by_label.populations.tobytes() == by_vector.populations.tobytes()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_trace_samples_must_be_an_integer(p, warm):
    """A float sample count raises TypeError from cleared tables and after the
    equal int count's trace is stored (2.0 hashes equal to 2); an integer
    count of another type shares the int's entry."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    _memo.clear()
    if warm:
        trace_evolution(sched, "0", samples=2)
    with pytest.raises(TypeError):
        trace_evolution(sched, "0", samples=2.0)
    trace = trace_evolution(sched, "0", samples=2)
    assert trace_evolution(sched, "0", samples=np.int64(2)) is trace
    assert _trace_counts() == (1 + warm, 1)


def test_trace_samples_past_the_cap_raise_before_the_lookup(p):
    """One sample more than the cap is a ValueError that computes and stores
    nothing (no count that would allocate is tried)."""
    sched = synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(1))
    _memo.clear()
    with pytest.raises(ValueError, match=f"at most {propagator._MAX_SAMPLES} trace samples, "
                                         f"got {propagator._MAX_SAMPLES + 1}"):
        trace_evolution(sched, "0", samples=propagator._MAX_SAMPLES + 1)
    assert _trace_counts() == (0, 0)


def test_trace_csv_matches_per_cell_format(p):
    sched = synthesize(GateSpec("hadamard", (0,)), p, SpinSystem(2))
    tr = trace_evolution(sched, "00", samples=50)
    pops = np.vstack([tr.populations,
                      [[1.0, 0.0, 0.0, 0.0], [1.0 - 1e-33, 1e-33, 0.0, 0.0],
                       [0.0, 2.3e-35, 1.0, 0.0], [0.25, 0.25, 0.25, 0.25]]])
    times = np.concatenate([tr.times, tr.times[-1] + np.arange(1, 5) * 1e-10])
    tr = EvolutionTrace(times, pops, tr.basis_labels, tr.initial_label)
    header = {"b": p.b, "b_ac": p.b_ac, "alignment": "z", "seed": 7}
    buf = io.StringIO()
    trace_to_csv(tr, buf, header=header)
    text = buf.getvalue()
    assert text == csv_reference(tr, header)
    assert ",1e-33," in text and ",2.3e-35," in text and ",1,0,0,0\n" in text


def test_trace_csv_ignores_later_changes_to_the_input_arrays():
    """A trace keeps copies of its arrays, so the CSV text it formats once
    stays that of the values it was built from."""
    times = np.linspace(0.0, 3e-9, 4)
    pops = np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.5], [0.0, 1.0]])
    expected = csv_reference(EvolutionTrace(times.copy(), pops.copy(), ("0", "1"), "0"), {})
    tr = EvolutionTrace(times, pops, ("0", "1"), "0")
    assert _csv_text(tr) == expected
    times[:] = 7.0
    pops[:] = 0.5
    assert _csv_text(tr) == expected


def test_trace_row_sum_guard():
    with pytest.raises(ValueError):
        EvolutionTrace(times=np.zeros(1), populations=np.array([[0.5, 0.4]]),
                       basis_labels=("0", "1"), initial_label="0")


def test_traces_compare_and_hash_by_identity():
    """Equal-valued traces are distinct objects: == and hash() neither raise
    nor look at the arrays."""
    def make():
        return EvolutionTrace(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1.0]]), ("0", "1"), "0")

    first, second = make(), make()
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2


# ---------------------------------------------------------------------------
# schedule file round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda p: synthesize(GateSpec("x", (0,), theta=math.pi), p, SpinSystem(2)),
    lambda p: synthesize(GateSpec("y", (1,), theta=math.pi), p, SpinSystem(2)),
])
def test_schedule_round_trip(p, make):
    sched = make(p)
    text = schedule_to_text(sched, p)
    back = schedule_from_text(text, p)
    assert len(back.segments) == len(sched.segments)
    assert back.system == sched.system
    assert back.b_ac == sched.b_ac
    for s0, s1 in zip(sched.segments, back.segments):
        assert s1.duration == pytest.approx(s0.duration, rel=1e-15)
        assert set(s1.detunings) == set(s0.detunings)
        for q in s0.detunings:
            assert s1.detunings[q] == pytest.approx(s0.detunings[q], rel=1e-9, abs=1e-3)
        assert s1.label == s0.label
    u0 = execute_schedule(sched).unitary
    u1 = execute_schedule(back).unitary
    assert gate_fidelity(u0, u1) >= 1.0 - 1e-12


def test_schedule_text_couplings(p):
    seg = PulseSegment(duration=2e-11, couplings={(0, 1): 2.5e-25}, rf_on=False,
                       label="swap interaction")
    sched = _schedule([seg], p, n=2)
    back = schedule_from_text(schedule_to_text(sched, p), p)
    assert back.segments[0].couplings[(0, 1)] == pytest.approx(2.5e-25, rel=1e-12)
    assert back.segments[0].rf_on is False


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_schedule_text_alignment_bounds_the_dipole_pairs(p, frame, axis):
    """A non-z file may hold zero dipole pairs only; the loader names the line.
    The writer's alignment is always z, the form of every dipole term."""
    head = f"frame = {frame}\nnum_donors = 2\nalignment = {axis}\n"
    zero = schedule_from_text(head + "dipole_uev = 0-1:0\nsegment duration_ns=1 rf=on\n", p)
    assert dict(zero.dipole) == {(0, 1): 0.0}
    with pytest.raises(ValueError, match=f"^line 4: dipole coupling requires z alignment, "
                                         f"got alignment = {axis}$"):
        schedule_from_text(head + "dipole_uev = 0-1:0.01\nsegment duration_ns=1 rf=on\n", p)
    assert "\nalignment = z\n" in schedule_to_text(zero, p)


def test_schedule_text_rejects_unknown(p):
    with pytest.raises(ValueError):
        schedule_from_text("bogus = 3\n", p)
    with pytest.raises(ValueError):
        schedule_from_text("segment duration_ns=1 zap=2 label=''\n", p)


def test_schedule_text_keeps_a_lab_carriers_detunings(p):
    """A file's carrier header, not the device's carrier, converts A/A0 back."""
    carrier = carrier_frequency(p) * (1.0 + 1e-6)
    dw = -0.4 * max_detuning(p)
    sched = _schedule([PulseSegment(duration=5e-9, detunings={0: dw}, label="tilt")], p,
                      frame="lab", carrier=carrier)
    back = schedule_from_text(schedule_to_text(sched, p), p)
    assert back.carrier == carrier
    assert back.segments[0].detunings[0] == pytest.approx(dw, rel=0.0, abs=1e-11 * max_detuning(p))
    assert np.abs(execute_schedule(back).unitary
                  - execute_schedule(sched).unitary).max() <= 1e-8


@st.composite
def _text_round_trip_cases(draw):
    """A synthesized gate on 1-3 donors, as drawn, or moved to the lab frame at a
    random carrier within 1e-5 (relative) of the device carrier; its first
    segment may carry a label that itself holds ' label=', quotes or any other
    text but a newline (which the file writes as a space)."""
    p = DeviceParameters()
    donors = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("x", "y", "z", "hadamard")
                                + (("cnot", "swap") if donors > 1 else ())))
    j = draw(st.floats(1.0, 10.0)) * interaction_coupling(1e-11, p)
    if kind in ("cnot", "swap"):
        targets = tuple(draw(st.permutations(range(donors)))[:2])
    else:
        targets = (draw(st.integers(0, donors - 1)),)
    fields = {}
    if kind in ("x", "y", "z"):
        fields["theta"] = draw(st.floats(-2.0 * math.pi, 2.0 * math.pi,
                                         exclude_min=True, exclude_max=True))
    elif kind == "cnot":
        fields["mode"] = draw(st.sampled_from(("exchange", "dipole", "combined")))
        if fields["mode"] != "dipole":
            fields["j"] = j
        if fields["mode"] != "exchange":
            fields["d"] = draw(st.floats(20e-9, 40e-9))
    elif kind == "swap":
        fields["j"] = j
    sched = synthesize(GateSpec(kind, targets, **fields), p, SpinSystem(donors))
    if sched.segments and draw(st.booleans()):
        label = draw(st.sampled_from(("x label=y", "a label='b'", " label= ", "label=\"'\""))
                     | st.text(max_size=16).filter(lambda text: "\n" not in text))
        first, *rest = sched.segments
        sched = sched.replace(segments=(first.with_label(label), *rest))
    if draw(st.booleans()):
        sched = sched.replace(frame="lab", rf_phase=draw(st.floats(-math.pi, math.pi)),
                              carrier=carrier_frequency(p)
                              * (1.0 + draw(st.floats(-1e-5, 1e-5))))
    return sched


@settings(max_examples=60, deadline=None)
@given(sched=_text_round_trip_cases())
def test_schedule_text_round_trip(p, sched):
    """Dumping and reloading keeps every control; execution agrees to 1e-10.

    A/A0 passes through hyperfine_for_detuning, whose cancellation limits the
    detunings to about 1e-12 of the bound, so execution can differ by a few
    1e-12 (3.3e-12 at worst over 3200 random gates), not 1e-12.
    """
    back = schedule_from_text(schedule_to_text(sched, p), p)
    for attr in ("frame", "b_ac", "system", "rf_phase", "carrier", "hbar", "mu_b"):
        assert getattr(back, attr) == getattr(sched, attr), attr
    assert back.dipole.keys() == sched.dipole.keys()
    for pair, d_val in sched.dipole.items():
        assert back.dipole[pair] == pytest.approx(d_val, rel=1e-15)
    assert [(s.label, s.rf_on) for s in back.segments] == [
        (s.label, s.rf_on) for s in sched.segments]
    bound = 1e-11 * max_detuning(p)
    for s0, s1 in zip(sched.segments, back.segments):
        assert s1.duration == pytest.approx(s0.duration, rel=1e-15, abs=0.0)
        assert s1.detunings.keys() == s0.detunings.keys()
        for q, dw in s0.detunings.items():
            assert abs(s1.detunings[q] - dw) <= bound
        assert s1.couplings.keys() == s0.couplings.keys()
        for pair, j in s0.couplings.items():
            assert s1.couplings[pair] == pytest.approx(j, rel=1e-15)
    rotating = [s.replace(frame="rotating") for s in (sched, back)]
    u0, u1 = (execute_schedule(s).unitary for s in rotating)
    assert np.abs(u1 - u0).max() <= 1e-10


def test_schedule_round_trip_cnot_modes(p):
    j = 3.0 * math.pi * p.constants.hbar / (8.0 * 1e-11)
    for sched in (synthesize(GateSpec("cnot", (0, 1), mode="exchange", j=j), p),
                  synthesize(GateSpec("cnot", (0, 1), mode="combined", j=j, d=23e-9), p)):
        back = schedule_from_text(schedule_to_text(sched, p), p)
        assert [s.rf_on for s in back.segments] == [s.rf_on for s in sched.segments]
        for pair, d_val in sched.dipole.items():
            assert back.dipole[pair] == pytest.approx(d_val, rel=1e-12)
        u0 = execute_schedule(sched).unitary
        u1 = execute_schedule(back).unitary
        assert gate_fidelity(u0, u1) >= 1.0 - 1e-10
