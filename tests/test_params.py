import math

import numpy as np
import pytest

from _reference import mp50, mp_detuning_map
from donorsim import params
from donorsim.params import (
    CONSTANTS,
    DeviceParameters,
    canonical_detuning_span,
    carrier_frequency,
    detuning,
    detuning_for_hyperfine,
    dipole_strength,
    exchange_dipole_crossover,
    exchange_strength,
    hyperfine_for_detuning,
    load_device_parameters,
    local_control_tradeoff,
    max_detuning,
    resonant_frequency,
)

# frozen from direct evaluation of the closed forms (independent of the package)
OMEGA_A0 = 352122135869.3808
DW_MAX_DEFAULT = 184054016.5814209
CANONICAL_SPAN = 367916260.05023193
J20_OVER_J30 = 285.1467318557543
J20_JOULE = 1.9545816628675454e-24
D30_JOULE = 3.1854472592592605e-31
PI_TIME_1E5 = 1.7862430517984666e-06
OFFRES_ERR_SPAN = 5.712920811972353e-06
FWHM_1E5 = 3517542.196093306


def test_constants_positive_and_frozen():
    c = CONSTANTS
    assert c.mu_b > 0 and c.hbar > 0 and c.g_n > 0
    with pytest.raises(Exception):
        c.mu_b = 1.0
    with pytest.raises(ValueError):
        params.PhysicalConstants(mu_b=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            params.PhysicalConstants(hbar=bad)


def test_device_defaults(p):
    assert p.a_min == pytest.approx(0.5 * p.a0, rel=1e-15)
    assert DeviceParameters(a0=2e-26).a_min == pytest.approx(1e-26, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"b_ac": 0.0},
        {"b_ac": 3.0},
        {"a_min": 3e-26},
        {"d": -1.0},
        {"eps_r": 0.5},
        {"alignment": "w"},
        {"d": math.inf},
        {"b": math.nan},
        {"a0": math.inf},
        {"a_min": math.nan},
        {"a_star": math.inf},
        {"eps_r": math.inf},
        {"b_ac": math.nan},
    ],
)
def test_device_validation(kwargs):
    with pytest.raises(ValueError):
        DeviceParameters(**kwargs)


def test_real_fields_are_stored_as_floats():
    """Numpy and integer inputs become Python floats, so equal parameter sets
    compute with the same types; a numpy infinity is no longer let through."""
    dev = DeviceParameters(b=np.int64(2), b_ac=np.float32(2.0**-10), a0=np.float64(2e-26))
    assert dev == DeviceParameters(b=2.0, b_ac=2.0**-10, a0=2e-26)
    for name in ("b", "b_ac", "a0", "a_min"):
        assert type(getattr(dev, name)) is float
    assert type(params.PhysicalConstants(hbar=np.float32(2.0**-112)).hbar) is float
    with pytest.raises(ValueError, match="b must be finite"):
        DeviceParameters(b=np.float32(math.inf))


def test_device_hash_is_stored_and_tracks_fields(p):
    """The hash is taken once; equal devices hash equal, replace() rehashes,
    and a pickled copy keeps an equal hash."""
    import pickle

    assert DeviceParameters() == p and hash(DeviceParameters()) == hash(p)
    changed = p.replace(b=1.5)
    assert changed != p
    assert hash(changed) == hash(DeviceParameters(b=1.5))
    assert hash(changed.replace(b=p.b)) == hash(p)
    assert changed.replace(b=p.b) == p
    assert "_hash" not in repr(p)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and hash(copy) == hash(p)


def test_resonant_frequency_zero_hyperfine(p):
    # both correction terms vanish at A = 0
    assert resonant_frequency(0.0, p) == pytest.approx(
        2.0 * p.constants.mu_b * p.b / p.constants.hbar, rel=1e-15
    )


def test_resonant_frequency_frozen_value(p):
    assert resonant_frequency(p.a0, p) == pytest.approx(OMEGA_A0, rel=1e-12)


def test_resonant_frequency_monotone(p):
    w = [resonant_frequency(a, p) for a in (0.0, 0.5 * p.a0, p.a0)]
    assert w[2] > w[1] > w[0]
    dense = [resonant_frequency(a, p) for a in np.linspace(0.0, p.a0, 513)]
    assert np.all(np.diff(dense) > 0.0)


def test_resonant_frequency_rejects_negative(p):
    with pytest.raises(ValueError):
        resonant_frequency(-1e-30, p)


def test_detuning_endpoints(p):
    assert detuning(p.a0, p) == 0.0
    assert detuning(p.a_min, p) == pytest.approx(-max_detuning(p), rel=1e-12)
    assert abs(detuning(p.a_min, p)) == pytest.approx(1.8e8, rel=0.03)
    for a in np.linspace(p.a_min, p.a0, 65):
        assert detuning(float(a), p) <= 0.0
    with pytest.raises(ValueError):
        detuning(p.a_min * 0.5, p)


def test_max_detuning_frozen(p):
    assert max_detuning(p) == pytest.approx(DW_MAX_DEFAULT, rel=1e-12)
    # single-step pi X rotations need sqrt(3) mu_B B_ac / hbar
    bound = math.sqrt(3.0) * p.constants.mu_b * p.b_ac / p.constants.hbar
    assert max_detuning(p) >= bound
    assert max_detuning(p.replace(a_min=p.a0)) == 0.0


def test_exceeds_max_detuning(p):
    bound = max_detuning(p)
    for dw in (0.0, bound, -bound, -bound * (1.0 + 0.5e-9)):
        assert not params.exceeds_max_detuning(dw, p)
    for dw in (bound * (1.0 + 2e-9), -1.01 * bound):
        assert params.exceeds_max_detuning(dw, p)
    zero_range = p.replace(a_min=p.a0)
    assert not params.exceeds_max_detuning(0.0, zero_range)
    assert params.exceeds_max_detuning(-1.0, zero_range)


def test_max_detuning_linearizes(p):
    # halving the tuning range halves dw_max to first order
    half_range = p.replace(a_min=0.75 * p.a0)
    ratio = max_detuning(half_range) / max_detuning(p)
    assert ratio == pytest.approx(0.5, rel=2e-3)


def test_canonical_span(p):
    assert canonical_detuning_span(p) == pytest.approx(CANONICAL_SPAN, rel=1e-12)


def test_hyperfine_inversion(p):
    """A -> detuning -> A over [0, 1.4 A0], at the device carrier and at one
    1e-6 relative off it; above A0 the offset is positive."""
    for carrier in (carrier_frequency(p), carrier_frequency(p) * (1.0 + 1e-6)):
        for a in np.linspace(0.0, 1.4 * p.a0, 29):
            dw = detuning_for_hyperfine(float(a), carrier, p)
            assert dw == resonant_frequency(float(a), p) - carrier
            back = hyperfine_for_detuning(dw, carrier, p)
            assert back == pytest.approx(float(a), abs=1e-38, rel=1e-12)


def test_detuning_map_pins(p):
    """The bound, the canonical span and the A/A0 a dump writes for X(pi)'s
    detuned step, bit for bit."""
    from donorsim import gates
    from donorsim.propagator import schedule_to_text

    assert max_detuning(p).hex() == "0x1.5f0e20129b000p+27"
    assert canonical_detuning_span(p).hex() == "0x1.5edf4e40cdc00p+28"
    sched = gates.synthesize(gates.GateSpec("x", (0,), theta=math.pi), p)
    dw = sched.segments[0].detunings[0]
    a_over_a0 = hyperfine_for_detuning(dw, carrier_frequency(p), p) / p.a0
    assert a_over_a0.hex() == "0x1.01c6fe6e30346p-1"
    assert f"a_over_a0=0:{a_over_a0:.17g} " in schedule_to_text(sched, p)


def test_detuning_map_against_mpmath(p):
    """Both directions of the map and max_detuning against 50-digit
    evaluations of the same quadratic on the same float inputs.  The bounds
    are today's measured errors, so a cancellation-free form has a number to
    beat."""
    mp = mp50()
    omega, hyperfine = mp_detuning_map(mp, p)
    dw_max = max_detuning(p)
    exact = abs(omega(mp.mpf(p.a_min)) - omega(mp.mpf(p.a0)))
    assert abs(dw_max - exact) / exact <= 2.2e-13
    for carrier in (carrier_frequency(p), carrier_frequency(p) * (1.0 + 1e-6)):
        for a in np.linspace(0.0, 1.4 * p.a0, 57):
            dw = detuning_for_hyperfine(float(a), carrier, p)
            assert abs(dw - (omega(mp.mpf(float(a))) - carrier)) <= 3.5e-13 * dw_max
        for dw in np.linspace(-dw_max, dw_max, 101):
            a = hyperfine_for_detuning(float(dw), carrier, p)
            assert abs(a - hyperfine(mp.mpf(carrier) + float(dw))) <= 1.8e-13 * p.a0


def test_exchange_strength(p):
    assert exchange_strength(0.0, p) == 0.0
    assert exchange_strength(20e-9, p) == pytest.approx(J20_JOULE, rel=1e-12)
    ratio = exchange_strength(20e-9, p) / exchange_strength(30e-9, p)
    assert ratio == pytest.approx(J20_OVER_J30, rel=1e-12)
    with pytest.raises(ValueError):
        exchange_strength(-1e-9, p)


def test_exchange_decreasing_beyond_peak(p):
    ds = np.linspace(1.2501 * p.a_star, 20 * p.a_star, 200)
    js = [exchange_strength(float(d), p) for d in ds]
    assert np.all(np.diff(js) < 0.0)
    # stationary point at 1.25 a*: numeric gradient changes sign there
    eps = 1e-14
    d0 = 1.25 * p.a_star
    left = exchange_strength(d0 - eps, p)
    right = exchange_strength(d0 + eps, p)
    center = exchange_strength(d0, p)
    assert center >= left and center >= right


def test_dipole_strength(p):
    d = 12e-9
    assert dipole_strength(2 * d, p) == pytest.approx(dipole_strength(d, p) / 8.0, rel=1e-12)
    assert dipole_strength(30e-9, p) == pytest.approx(D30_JOULE, rel=1e-12)
    with pytest.raises(ValueError):
        dipole_strength(0.0, p)


def test_dipole_strength_rejects_float_limits(p):
    # inf gave D = 0, 1e191 overflowed d**3, 1e-309 underflowed it to 0 and
    # 1e95 underflowed D to 0
    for d in (math.inf, math.nan, -30e-9, 0.0, -0.0, 1e191, 1e-309, 1e95):
        with pytest.raises(ValueError, match="finite non-zero dipole coupling"):
            dipole_strength(d, p)
    for d in (1e89, 1e-107):
        assert 0.0 < dipole_strength(d, p) < math.inf
    c = p.constants
    assert dipole_strength(30e-9, p) == c.mu_0 / (4.0 * math.pi) * c.mu_b**2 / (30e-9) ** 3


def test_exchange_dipole_crossover(p):
    d_star = exchange_dipole_crossover(p)
    assert exchange_strength(d_star * 1.01, p) < dipole_strength(d_star * 1.01, p)
    assert exchange_strength(d_star * 0.99, p) > dipole_strength(d_star * 0.99, p)
    # beyond the first 100 nm bracket too
    for a_star in (10e-9, 30e-9):
        dev = p.replace(a_star=a_star)
        d_star = exchange_dipole_crossover(dev)
        assert d_star > 100e-9
        below = math.nextafter(d_star, 0.0)
        assert exchange_strength(below, dev) > dipole_strength(below, dev)
        assert exchange_strength(d_star, dev) <= dipole_strength(d_star, dev)


def test_local_control_tradeoff(p):
    tr = local_control_tradeoff(1e-5, canonical_detuning_span(p))
    assert tr.pi_time == pytest.approx(PI_TIME_1E5, rel=1e-12)
    assert tr.pi_time == pytest.approx(1.7e-6, rel=0.06)  # published 1.7 us, its rounding
    assert tr.fwhm == pytest.approx(FWHM_1E5, rel=1e-12)
    assert tr.max_offres_error == pytest.approx(OFFRES_ERR_SPAN, rel=1e-12)
    assert tr.pi_time * tr.fwhm == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert local_control_tradeoff(1e-5, 0.0).max_offres_error == 1.0
    with pytest.raises(ValueError):
        local_control_tradeoff(0.0, 1e8)


def test_config_loader_defaults():
    assert load_device_parameters("") == DeviceParameters()


def test_config_loader_overrides():
    text = """
    # device overrides
    b = 1.5
    b_ac = 1.0e-3   # drive
    alignment = z
    a0 = 2.0e-26
    """
    p = load_device_parameters(text)
    assert p.b == 1.5 and p.b_ac == 1.0e-3 and p.a0 == 2.0e-26
    assert p.a_min == pytest.approx(1.0e-26)


@pytest.mark.parametrize("bad", ["bogus = 1", "b = 2\nb = 3", "b 2"])
def test_config_loader_rejects(bad):
    with pytest.raises(ValueError):
        load_device_parameters(bad)


def test_only_params_maps_hyperfine_to_frequency():
    """The detuning<->hyperfine map is the one A <-> detuning conversion: the
    schedule file, the oracle and synthesis bind no resonant_frequency, and
    the absolute-frequency inverse it replaced is gone.  (spin_model's lab
    Hamiltonian needs omega(A) against half the carrier, not a detuning.)"""
    from donorsim import analysis, gates, propagator

    assert not hasattr(params, "hyperfine_for_frequency")
    for module in (propagator, analysis, gates):
        assert not hasattr(module, "resonant_frequency"), module.__name__
