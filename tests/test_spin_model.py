import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from _reference import (electron_lab_midpoints, frame_rotation_reference,
                        gate_fidelity_reference, rotating_reference, stacked_expm_product)
from donorsim import _memo, spin_model
from donorsim.params import carrier_frequency, max_detuning
from donorsim.spin_model import (
    E_SX,
    E_SZ,
    SZ,
    SpinSystem,
    _register_ops,
    _z_turn,
    assert_hermitian,
    dipole_term,
    electron_pair_dot,
    electron_pauli,
    frame_rotation,
    hyperfine_dot,
    is_hermitian,
    pauli_on,
    rotating_hamiltonian,
    single_donor_driven,
    single_donor_static,
    single_electron_lab,
)


def test_spin_system_dimensions():
    assert SpinSystem(1).dim == 2
    assert SpinSystem(2).dim == 4
    assert SpinSystem(3).dim == 8
    assert SpinSystem(1, include_nuclei=True).dim == 4
    assert SpinSystem(2, include_nuclei=True).dim == 16
    with pytest.raises(ValueError):
        SpinSystem(4)
    with pytest.raises(ValueError):
        SpinSystem(3, include_nuclei=True)


def test_spin_system_checks_its_integer_and_its_flag():
    """An integral donor count is stored as int and the nuclei flag as bool;
    a float count (whose dim would be a float) or a flag other than True or
    False is a ValueError that names the field."""
    for n, nuclei in ((2, False), (np.int64(2), np.bool_(False)), (np.int32(2), 0)):
        system = SpinSystem(n, include_nuclei=nuclei)
        assert (type(system.num_donors), type(system.include_nuclei)) == (int, bool)
        assert system == SpinSystem(2) and type(system.dim) is int
    for bad in (2.0, "2", None, True):
        with pytest.raises(ValueError, match=f"^num_donors must be an integer, got {bad!r}$"):
            SpinSystem(bad)
    for bad in ("no", None, 2):
        with pytest.raises(ValueError,
                           match=f"^include_nuclei must be True or False, got {bad!r}$"):
            SpinSystem(1, include_nuclei=bad)


def test_basis_labels():
    assert SpinSystem(2).basis_labels() == ["00", "01", "10", "11"]
    assert SpinSystem(1, include_nuclei=True).basis_labels() == ["0u", "0d", "1u", "1d"]


def test_static_donor_zeeman_spectrum(p):
    c = p.constants
    h = single_donor_static(0.0, p)
    expected = sorted(
        s1 * c.mu_b * p.b + s2 * c.g_n * c.mu_n * p.b for s1 in (1, -1) for s2 in (1, -1)
    )
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), expected, rtol=1e-12)


def test_static_donor_level_ordering(p):
    # both |0,.>-type levels sit below both |1,.>-type levels
    h = single_donor_static(p.a0, p)
    w, v = np.linalg.eigh(h)
    dominant = [int(np.argmax(np.abs(v[:, k]))) for k in range(4)]
    labels = SpinSystem(1, include_nuclei=True).basis_labels()
    assert {labels[dominant[0]][0], labels[dominant[1]][0]} == {"0"}
    assert {labels[dominant[2]][0], labels[dominant[3]][0]} == {"1"}


def test_static_donor_stretched_state(p):
    # <up_e up_n| A sigma_e.sigma_n |up_e up_n> = +A  (basis index '1u' = 2)
    h = single_donor_static(p.a0, p) - single_donor_static(0.0, p)
    assert h[2, 2] == pytest.approx(p.a0, rel=1e-12)


def test_hyperfine_dot_spectrum():
    dot = hyperfine_dot(0, 1, 2)
    assert np.allclose(sorted(np.linalg.eigvalsh(dot)), [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_lab_hamiltonian_drive_scaling(p):
    # the transverse part is the drive: it vanishes with B_ac
    weak = p.replace(b_ac=1e-12)
    h = single_electron_lab(weak.a0, 0.4e-9, weak)
    off_diag = abs(h[0, 1]) + abs(h[1, 0])
    assert off_diag <= 2.0 * weak.constants.mu_b * 1e-12
    assert abs(h[0, 0]) > 1e6 * off_diag  # effectively a static diagonal operator


def test_lab_hamiltonian_periodicity(p):
    t = 0.37e-9
    period = 2.0 * math.pi / carrier_frequency(p)
    h1 = single_electron_lab(p.a0, t, p)
    h2 = single_electron_lab(p.a0, t + period, p)
    assert np.abs(h1 - h2).max() <= 1e-12 * np.abs(h1).max()


def test_lab_hamiltonian_z_coefficient(p):
    # at A = A0 the sigma_z^e coefficient is mu_B B + A0 plus the second-order shift
    h = single_electron_lab(p.a0, 0.0, p)
    z_coeff = 0.5 * np.trace(h @ E_SZ).real
    c = p.constants
    second_order = p.a0**2 / (c.mu_b * p.b + c.g_n * c.mu_n * p.b)
    assert z_coeff == pytest.approx(c.mu_b * p.b + p.a0 + second_order, rel=1e-12)
    transverse = 0.5 * np.trace(h @ E_SX).real
    assert transverse == pytest.approx(p.transverse_energy * math.cos(0.0), rel=1e-12)


def test_rotating_hamiltonian_resonant(p):
    h = rotating_hamiltonian(SpinSystem(1), p.transverse_energy, {0: 0.0}, {}, {},
                             p.constants.hbar)
    assert np.allclose(h, p.transverse_energy * E_SX)


def test_rotating_hamiltonian_axis_and_gap(p):
    dw = -0.5 * max_detuning(p)
    h = rotating_hamiltonian(SpinSystem(1), p.transverse_energy, {0: dw}, {}, {},
                             p.constants.hbar)
    z = 0.5 * np.trace(h @ E_SZ).real
    x = 0.5 * np.trace(h @ E_SX).real
    assert z / x == pytest.approx(p.constants.hbar * dw / p.transverse_energy, rel=1e-12)
    w = np.linalg.eigvalsh(h)
    omega = math.hypot(p.transverse_energy, p.constants.hbar * dw)
    assert w[1] - w[0] == pytest.approx(2.0 * omega, rel=1e-12)


ALL_SYSTEMS = [SpinSystem(n, nuclei)
               for n in (1, 2, 3) for nuclei in (False, True) if not (nuclei and n > 2)]


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def test_register_ops_match_per_term_builders():
    assert len(ALL_SYSTEMS) == 5
    for system in ALL_SYSTEMS:
        ops = _register_ops(system)
        n = system.num_sites
        sites = [system.electron_site(q) for q in range(system.num_donors)]
        assert [_bits(op) for op in ops.sx] == [_bits(pauli_on(E_SX, s, n)) for s in sites]
        assert [_bits(op) for op in ops.sz] == [_bits(pauli_on(E_SZ, s, n)) for s in sites]
        pairs = list(itertools.permutations(range(system.num_donors), 2))
        assert sorted(ops.exchange) == sorted(ops.dipole) == sorted(pairs)
        for a, b in pairs:
            assert _bits(ops.exchange[a, b]) == _bits(electron_pair_dot(sites[a], sites[b], n))
            assert _bits(ops.dipole[a, b]) == _bits(dipole_term(1.0, "z", n, sites[a], sites[b]))
        nuclei = sites if system.include_nuclei else []
        assert [_bits(op) for op in ops.nuclear_sz] == [_bits(pauli_on(SZ, s + 1, n))
                                                        for s in nuclei]
        assert [_bits(op) for op in ops.hyperfine] == [_bits(hyperfine_dot(s, s + 1, n))
                                                       for s in nuclei]
        assert _register_ops(SpinSystem(system.num_donors, system.include_nuclei)) is ops


def test_register_ops_are_read_only():
    ops = _register_ops(SpinSystem(2))
    nuclear = _register_ops(SpinSystem(1, include_nuclei=True))
    for op in (ops.sx[0], ops.sz[1], ops.exchange[0, 1], ops.dipole[1, 0],
               nuclear.nuclear_sz[0], nuclear.hyperfine[0]):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            op += 1.0
    with pytest.raises(TypeError):
        ops.exchange[0, 1] = np.zeros((4, 4))
    assert _bits(ops.sx[0]) == _bits(pauli_on(E_SX, 0, 2))


def test_rotating_hamiltonian_against_per_term_assembly(p, rng):
    hbar, dw_max = p.constants.hbar, max_detuning(p)
    for system in ALL_SYSTEMS:
        pairs = list(itertools.permutations(range(system.num_donors), 2))
        for _ in range(12):
            drive = p.transverse_energy * float(rng.choice([0.0, 1.0, rng.uniform(0.5, 2.0)]))
            detunings = {q: float(rng.choice([0.0, -0.0, rng.uniform(-dw_max, dw_max)]))
                         for q in range(system.num_donors) if rng.uniform() < 0.8}
            couplings = {pair: float(rng.choice([0.0, rng.uniform(0.0, 1e-23)]))
                         for pair in pairs if rng.uniform() < 0.5}
            dipole = {pair: float(rng.uniform(-1e-25, 1e-25)) for pair in pairs[:2]}
            args = (system, drive, detunings, couplings, dipole, hbar)
            reference = rotating_reference(spin_model, *args)
            assert _bits(rotating_hamiltonian(*args)) == _bits(reference)


def test_rotating_hamiltonian_rejects_bad_pairs(p):
    hbar = p.constants.hbar
    with pytest.raises(ValueError, match="donor index 2 out of range"):
        rotating_hamiltonian(SpinSystem(2), 0.0, {}, {(0, 2): 1e-24}, {}, hbar)
    with pytest.raises(ValueError, match="donor index -1 out of range"):
        rotating_hamiltonian(SpinSystem(2), 0.0, {}, {}, {(-1, 0): 1e-25}, hbar)
    with pytest.raises(ValueError, match="sites must be distinct"):
        rotating_hamiltonian(SpinSystem(2), 0.0, {}, {(1, 1): 1e-24}, {}, hbar)
    # a zero coefficient skips its term, as before, whatever the pair
    assert not rotating_hamiltonian(SpinSystem(2), 0.0, {}, {(1, 1): 0.0}, {}, hbar).any()


def test_two_electron_commutator(p):
    dot = electron_pair_dot(0, 1, 2)
    sys2 = SpinSystem(2)
    for dw in (0.0, -0.3 * max_detuning(p)):
        g = (p.transverse_energy * (electron_pauli(sys2, 0, "x") + electron_pauli(sys2, 1, "x"))
             + p.constants.hbar * dw * (electron_pauli(sys2, 0, "z") + electron_pauli(sys2, 1, "z")))
        comm = g @ dot - dot @ g
        assert np.abs(comm).max() <= 1e-12 * np.abs(g).max() * np.abs(dot).max()


def test_two_electron_decomposes_at_zero_coupling(p):
    hbar = p.constants.hbar
    h = rotating_hamiltonian(SpinSystem(2), p.transverse_energy, {0: 0.0, 1: 0.0},
                             {(0, 1): 0.0}, {}, hbar)
    single = rotating_hamiltonian(SpinSystem(1), p.transverse_energy, {0: 0.0}, {}, {}, hbar)
    expected = np.kron(single, np.eye(2)) + np.kron(np.eye(2), single)
    assert np.allclose(h, expected)


def test_pair_dot_spectrum():
    w = sorted(np.linalg.eigvalsh(electron_pair_dot(0, 1, 2)))
    assert np.allclose(w, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_dipole_term_traceless_and_commutators():
    for axis in ("x", "y", "z"):
        h = dipole_term(1.0, axis)
        assert abs(np.trace(h)) <= 1e-12
    sys2 = SpinSystem(2)
    sz_tot = electron_pauli(sys2, 0, "z") + electron_pauli(sys2, 1, "z")
    hz = dipole_term(1.0, "z")
    hx = dipole_term(1.0, "x")
    assert np.abs(hz @ sz_tot - sz_tot @ hz).max() <= 1e-12
    assert np.abs(hx @ sz_tot - sz_tot @ hx).max() > 1.0  # genuinely fails to commute
    with pytest.raises(ValueError, match="^alignment must be a unit axis 'x', 'y' or 'z'$"):
        dipole_term(1.0, "w")


def test_zz_x_commutator_identity():
    sys2 = SpinSystem(2)
    zz = electron_pauli(sys2, 0, "z") @ electron_pauli(sys2, 1, "z")
    sx = electron_pauli(sys2, 0, "x") + electron_pauli(sys2, 1, "x")
    lhs = zz @ sx - sx @ zz
    rhs = 2.0j * (electron_pauli(sys2, 0, "y") @ electron_pauli(sys2, 1, "z")
                  + electron_pauli(sys2, 0, "z") @ electron_pauli(sys2, 1, "y"))
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_rotating_full_limits(p):
    sys2, omega0, hbar = SpinSystem(2), p.transverse_energy, p.constants.hbar
    h_far = rotating_hamiltonian(sys2, omega0, {0: 0.0, 1: 0.0}, {(0, 1): 1e-27},
                                 {(0, 1): 1e-40}, hbar)
    h_bare = rotating_hamiltonian(sys2, omega0, {0: 0.0, 1: 0.0}, {(0, 1): 1e-27}, {}, hbar)
    assert np.abs(h_far - h_bare).max() <= 8e-40
    # with J = 0 the coupling structure is set solely by D
    drive = rotating_hamiltonian(sys2, omega0, {0: 0.0, 1: 0.0}, {(0, 1): 0.0}, {}, hbar)
    for d_coupling in (1e-30, 3e-30):
        h = rotating_hamiltonian(sys2, omega0, {0: 0.0, 1: 0.0}, {(0, 1): 0.0},
                                 {(0, 1): d_coupling}, hbar) - drive
        assert np.allclose(h, dipole_term(d_coupling, "z"))
    dot_jd = electron_pair_dot(0, 1, 2)
    sx = electron_pauli(sys2, 0, "x") + electron_pauli(sys2, 1, "x")
    assert np.abs(sx @ dot_jd - dot_jd @ sx).max() <= 1e-12


def test_builders_hermitian(p):
    omega0, hbar = p.transverse_energy, p.constants.hbar
    for h in (
        single_donor_static(p.a0, p),
        single_donor_driven(p.a0, 0.9e-9, p, include_nuclear_drive=True),
        single_electron_lab(0.7 * p.a0, 1.1e-9, p, rf_phase=0.4),
        rotating_hamiltonian(SpinSystem(1), omega0, {0: -1e8}, {}, {}, hbar),
        rotating_hamiltonian(SpinSystem(2), omega0, {0: -1e8, 1: -5e7}, {(0, 1): 2e-27}, {},
                             hbar),
        rotating_hamiltonian(SpinSystem(2), omega0, {0: 0.0, 1: 0.0}, {(0, 1): 1e-27},
                             {(0, 1): 1e-30}, hbar),
    ):
        assert is_hermitian(h)
    with pytest.raises(ValueError, match="^operator must be a square matrix$"):
        assert_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^operator is not Hermitian within tolerance$"):
        assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_frame_map_identity_and_norm(p, rng):
    sys1 = SpinSystem(1)
    assert np.allclose(frame_rotation(0.0, p, sys1), np.eye(2))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    mapped = frame_rotation(1.3e-9, p, SpinSystem(2)) @ psi
    assert abs(np.linalg.norm(mapped) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        frame_rotation(0.0, p, SpinSystem(1)) @ psi


def test_frame_map_skips_nuclei(p):
    r = frame_rotation(0.8e-9, p, SpinSystem(1, include_nuclei=True))
    # nuclear sub-block is untouched: r = diag(a, a, b, b)
    assert r[0, 0] == r[1, 1] and r[2, 2] == r[3, 3]
    assert r[0, 0] != r[2, 2]


@pytest.mark.parametrize("system", [SpinSystem(1), SpinSystem(2), SpinSystem(3),
                                    SpinSystem(1, include_nuclei=True)],
                         ids=["one", "two", "three", "one_with_nucleus"])
def test_frame_map_hit_is_bitwise_a_cold_build(p, system):
    """From cleared tables, the stored R(t) and the hit that returns it are
    bit for bit the matrix built without the table."""
    t = 1.3e-9
    _memo.clear()
    cold = frame_rotation(t, p, system)
    warm = frame_rotation(t, p, system)
    assert spin_model._frame_rotation.cache_info()[:2] == (1, 1)
    built = spin_model._frame_rotation.__wrapped__(t, p, system)
    assert cold.tobytes() == warm.tobytes() == built.tobytes()
    assert cold.shape == warm.shape == (system.dim, system.dim)


# Largest |R(t) - frame_rotation_reference| over the test's 2002 times in
# [0, 1 us]: 2.48e-16 at two donors and 5.82e-11 at three.  The sum of the
# sigma_z^e diagonals and the Kronecker product of per-electron phases round
# omega_ac t differently; one donor, with or without its nucleus, is exact.
_FRAME_MAP_SHIFT = {1: 0.0, 2: 2.5e-16, 3: 6e-11}


@pytest.mark.parametrize("system", [SpinSystem(1), SpinSystem(1, include_nuclei=True),
                                    SpinSystem(2), SpinSystem(2, include_nuclei=True),
                                    SpinSystem(3)],
                         ids=["one", "one_with_nucleus", "two", "two_with_nuclei", "three"])
def test_frame_map_is_the_z_turn_at_minus_carrier_time(p, system):
    """R(t) is bit for bit np.diag(_z_turn(system, -omega_ac t)) on every
    register, and matches the per-site Kronecker product: exactly for one
    donor, within the rounding of omega_ac t for two and three."""
    w_ac = carrier_frequency(p)
    bound = _FRAME_MAP_SHIFT[system.num_donors]
    for t in [0.0, 1e-6, *np.random.default_rng(0).uniform(0.0, 1e-6, 2000)]:
        r = frame_rotation(t, p, system)
        assert r.tobytes() == np.diag(_z_turn(system, -w_ac * t)).tobytes()
        reference = frame_rotation_reference(t, p, system)
        if bound == 0.0:
            assert np.array_equal(r, reference)
        else:
            assert np.abs(r - reference).max() <= bound


def test_frame_map_returns_a_writable_copy(p):
    """Writing into a returned R(t) changes neither the table's read-only
    entry nor the next call's result."""
    system = SpinSystem(2)
    first = frame_rotation(0.7e-9, p, system)
    expected = first.copy()
    first[:] = 0.0
    second = frame_rotation(0.7e-9, p, system)
    assert second is not first and second.flags.writeable
    assert second.tobytes() == expected.tobytes()
    assert not spin_model._frame_rotation(0.7e-9, p, system).flags.writeable


def test_lab_frame_equivalence_against_expm(p, rng):
    """Midpoint-stepped lab evolution (scipy expm oracle), frame-mapped, matches
    the rotating-frame propagator built from the detuning."""
    from donorsim.params import hyperfine_for_detuning

    w_ac = carrier_frequency(p)
    for _ in range(6):
        dw = rng.uniform(-max_detuning(p), 0.0)
        a = hyperfine_for_detuning(dw, w_ac, p)
        t_final = rng.uniform(0.3e-9, 2.0e-9)
        n = int(t_final * w_ac / (2.0 * math.pi) * 300)
        dt = t_final / n
        hs = electron_lab_midpoints(a, p, dt, n)
        for k in [*range(0, n, 64), n - 1]:
            assert np.array_equal(hs[k], single_electron_lab(a, (k + 0.5) * dt, p))
        u = stacked_expm_product(hs, dt, p.constants.hbar)
        h_rot = rotating_hamiltonian(SpinSystem(1), p.transverse_energy, {0: dw}, {}, {},
                                     p.constants.hbar)
        u_rot = scipy.linalg.expm(-1j * h_rot * t_final / p.constants.hbar)
        mapped = frame_rotation(t_final, p, SpinSystem(1)) @ u
        assert 1.0 - gate_fidelity_reference(mapped, u_rot) <= 1e-8
        # phase-exact, not just fidelity-exact (no dropped scalar offsets)
        assert np.abs(mapped - u_rot).max() <= 1e-4
