"""Hilbert spaces, spin operators and the donor-spin Hamiltonians in both frames.

Tensor ordering is fixed throughout the package as

    electron_1 (x) [nucleus_1] (x) electron_2 (x) [nucleus_2] (x) ...

Basis convention: electron sites are indexed in the *logical* order
(|0> = spin-down ground state first, |1> = spin-up second), so gate matrices
are the standard ones.  In this representation the electron spin operators are

    sigma_x^e = X,   sigma_y^e = -Y,   sigma_z^e = -Z,

where X, Y, Z are the ordinary Pauli matrices.  A consequence worth noting:
biasing an A-gate lowers the resonance (physical detuning dw <= 0) and tilts
the rotating-frame rotation axis toward +z in matrix space, which is the tilt
the Hadamard and Y constructions need.  Nuclear sites keep the spin order
(up = index 0, down = index 1); the nucleus is initialized up (its ground
state).  All Hamiltonians are dense complex matrices in J; propagators are
exp(-i H t / hbar).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import _memo
from .params import (DeviceParameters, _as_float, _flag, _integer, carrier_frequency,
                     resonant_frequency)

__all__ = [
    "SX",
    "SY",
    "SZ",
    "ID2",
    "SpinSystem",
    "embed",
    "pauli_on",
    "electron_pauli",
    "is_hermitian",
    "assert_hermitian",
    "single_donor_static",
    "single_donor_driven",
    "single_electron_lab",
    "rotating_hamiltonian",
    "dipole_term",
    "electron_pair_dot",
    "hyperfine_dot",
    "frame_rotation",
]

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# read-only complex identities of every register size (0 to 4 sites), shared by
# embed, the unitarity check and the products that start from the identity
_IDENTITIES = {n: _memo.read_only(np.eye(n, dtype=complex)) for n in (1, 2, 4, 8, 16)}


def _identity(n: int) -> np.ndarray:
    """The n x n complex identity: a shared read-only one for a register size,
    a fresh one for any other n."""
    eye = _IDENTITIES.get(n)
    return np.eye(n, dtype=complex) if eye is None else eye


# electron spin operators in the logical basis (|0> = spin-down first)
E_SX, E_SY, E_SZ = SX, -SY, -SZ
_E_AXIS = {"x": E_SX, "y": E_SY, "z": E_SZ}


@dataclass(frozen=True)
class SpinSystem:
    """Hilbert-space descriptor.

    num_donors donors, each contributing one electron spin and, when
    include_nuclei (True or False) is set, one 31P nuclear spin.
    """

    num_donors: int = 1
    include_nuclei: bool = False

    def __post_init__(self):
        if type(self.num_donors) is not int:
            object.__setattr__(self, "num_donors", _integer(self.num_donors, "num_donors"))
        if self.include_nuclei is not False and self.include_nuclei is not True:
            object.__setattr__(self, "include_nuclei", _flag(self.include_nuclei, "include_nuclei"))
        if not 1 <= self.num_donors <= 3:
            raise ValueError("num_donors must be 1, 2 or 3")
        if self.include_nuclei and self.num_donors > 2:
            raise ValueError("nuclear spins supported for at most 2 donors")

    @property
    def sites_per_donor(self) -> int:
        return 2 if self.include_nuclei else 1

    @property
    def num_sites(self) -> int:
        return self.num_donors * self.sites_per_donor

    @property
    def dim(self) -> int:
        return 2**self.num_sites

    def electron_site(self, donor: int) -> int:
        if not 0 <= donor < self.num_donors:
            raise ValueError(f"donor index {donor} out of range")
        return donor * self.sites_per_donor

    def basis_labels(self) -> list[str]:
        """Basis-state labels: electrons as 0/1 (logical), nuclei as u/d."""
        labels = [""]
        for site in range(self.num_sites):
            nuclear = self.include_nuclei and site % 2 == 1
            chars = ("u", "d") if nuclear else ("0", "1")
            labels = [lab + c for lab in labels for c in chars]
        return labels


def embed(op: np.ndarray, sites: tuple[int, ...], num_sites: int) -> np.ndarray:
    """Place a 2^k x 2^k operator on the ordered `sites`, identity on every other site.

    sites[0] carries the most significant qubit of op's index, so
    embed(np.kron(a, b), (s, t), n) acts as a on site s and b on site t.
    """
    rest = [s for s in range(num_sites) if s not in sites]
    k, m = len(sites), len(rest)
    if k + m != num_sites or op.shape != (2**k, 2**k):
        raise ValueError("sites must be distinct, in range and match the operator size")
    # one leg per site: op rows, op columns, identity rows, identity columns
    full = np.multiply.outer(op, _identity(2**m)).reshape((2,) * (2 * num_sites))
    order = list(sites) + rest
    rows = [i if i < k else k + i for i in map(order.index, range(num_sites))]
    cols = [r + (k if r < k else m) for r in rows]
    return full.transpose(rows + cols).reshape(2**num_sites, 2**num_sites)


def pauli_on(op: np.ndarray, site: int, num_sites: int) -> np.ndarray:
    """Embed a single-site operator at `site` in the num_sites tensor product."""
    return embed(op, (site,), num_sites)


def electron_pauli(system: SpinSystem, donor: int, axis: str) -> np.ndarray:
    """Spin operator sigma_axis of a donor electron, embedded in the full space."""
    return pauli_on(_E_AXIS[axis], system.electron_site(donor), system.num_sites)


def _assert_numeric(m: np.ndarray) -> None:
    """ValueError unless m holds integers, reals or complex numbers: a bool or
    non-numeric matrix is refused by name, not left to numpy's TypeError."""
    if m.dtype.kind not in "iufc":
        raise ValueError(f"expected a numeric matrix, got a {m.dtype.name} one")


def is_hermitian(h: np.ndarray) -> bool:
    """Whether max|h - h^dag| <= 1e-12 max|h|; a bool or non-numeric h is a ValueError."""
    _assert_numeric(h)
    scale = max(np.maximum.reduce(np.abs(h), axis=None), 1e-300)
    return bool(np.maximum.reduce(np.abs(h - h.conj().T), axis=None) <= 1e-12 * scale)


def assert_hermitian(h: np.ndarray) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("operator must be a square matrix")
    if not is_hermitian(h):
        raise ValueError("operator is not Hermitian within tolerance")


# sigma . sigma on two sites, summed in x, y, z order
_PAIR_DOT = np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ)
_HYPERFINE_DOT = np.kron(E_SX, SX) + np.kron(E_SY, SY) + np.kron(E_SZ, SZ)


def _dipole_pair(alignment: str) -> np.ndarray:
    """sigma.sigma - 3 (sigma.n)(sigma.n) on two electron sites, n the unit axis."""
    axis_op = _E_AXIS[alignment]
    return _PAIR_DOT - 3.0 * np.kron(axis_op, axis_op)


def electron_pair_dot(site_a: int, site_b: int, num_sites: int) -> np.ndarray:
    """sigma_a . sigma_b for two electron sites.

    Both sites carry the flipped (logical) representation, so the matrix is the
    plain XX + YY + ZZ.
    """
    return embed(_PAIR_DOT, (site_a, site_b), num_sites)


def hyperfine_dot(e_site: int, n_site: int, num_sites: int) -> np.ndarray:
    """sigma_e . sigma_n between an electron (logical basis) and a nucleus (spin basis)."""
    return embed(_HYPERFINE_DOT, (e_site, n_site), num_sites)


# ---------------------------------------------------------------------------
# single-donor Hamiltonians
# ---------------------------------------------------------------------------

def single_donor_static(a: float, p: DeviceParameters) -> np.ndarray:
    """Static donor Hamiltonian on electron (x) nucleus (4-dim), no drive.

    mu_B B sigma_z^e - g_n mu_n B sigma_z^n + A sigma_e . sigma_n

    The three operators come from `_register_ops`, the cached basis
    `rotating_hamiltonian` sums, so the sum is bit for bit the per-term one.

    A is taken signed, for the frozen-nucleus oracle's reading of a detuning
    (see params.hyperfine_for_detuning).
    """
    if not math.isfinite(a):
        raise ValueError("hyperfine energy must be finite")
    c = p.constants
    ops = _register_ops(_NUCLEAR_DONOR)
    h = c.mu_b * p.b * ops.sz[0]
    h -= c.g_n * c.mu_n * p.b * ops.nuclear_sz[0]
    h += a * ops.hyperfine[0]
    return h


def _drive_phases(t: float, p: DeviceParameters, rf_phase: float) -> tuple[float, float]:
    theta = carrier_frequency(p) * t + rf_phase
    return np.cos(theta), np.sin(theta)


def _electron_drive(t: float, p: DeviceParameters, rf_phase: float) -> np.ndarray:
    """Co-rotating transverse drive mu_B B_ac (sx cos(th) + sy sin(th)), 2-dim."""
    cth, sth = _drive_phases(t, p, rf_phase)
    return p.transverse_energy * (cth * E_SX + sth * E_SY)


def single_electron_lab(a: float, t: float, p: DeviceParameters, rf_phase: float = 0.0) -> np.ndarray:
    """Driven single-electron lab-frame Hamiltonian (2-dim, time dependent).

    The z coefficient is hbar*(omega(A) - omega_ac/2) on sigma_z^e; mapping by
    the rotating frame exp(i omega_ac t sigma_z^e / 2) then reproduces the
    rotating-frame operator hbar*dw*sigma_z^e + mu_B*B_ac*sigma_x^e exactly (no
    residual scalar offset: every term here is traceless).  At A = A0 the z
    coefficient is mu_B B + A plus the second-order hyperfine shift.
    """
    c = p.constants
    z_coeff = c.hbar * (resonant_frequency(a, p) - 0.5 * carrier_frequency(p))
    return z_coeff * E_SZ + _electron_drive(t, p, rf_phase)


def single_donor_driven(
    a: float,
    t: float,
    p: DeviceParameters,
    rf_phase: float = 0.0,
    include_nuclear_drive: bool = False,
) -> np.ndarray:
    """Full donor Hamiltonian (4-dim): static part plus the RF drive.

    The drive couples to the electron spin only by default; the nuclear Rabi
    rate is ~1e-3 of the electron's, so the optional nuclear term exists only
    for sensitivity studies.
    """
    h = single_donor_static(a, p)
    cth, sth = _drive_phases(t, p, rf_phase)
    h += p.transverse_energy * (cth * pauli_on(E_SX, 0, 2) + sth * pauli_on(E_SY, 0, 2))
    if include_nuclear_drive:
        c = p.constants
        h -= c.g_n * c.mu_n * p.b_ac * (cth * pauli_on(SX, 1, 2) + sth * pauli_on(SY, 1, 2))
    return h


# ---------------------------------------------------------------------------
# rotating-frame Hamiltonians
# ---------------------------------------------------------------------------

class _RegisterOps(NamedTuple):
    """The Hamiltonian operators of one SpinSystem, embedded and read-only."""

    sx: tuple[np.ndarray, ...]                            # sigma_x^e per donor
    sz: tuple[np.ndarray, ...]                            # sigma_z^e per donor
    exchange: Mapping[tuple[int, int], np.ndarray]        # s.s per ordered donor pair
    dipole: Mapping[tuple[int, int], np.ndarray]          # s.s - 3 sz sz, likewise
    nuclear_sz: tuple[np.ndarray, ...]                    # sigma_z^n per donor, if nuclei
    hyperfine: tuple[np.ndarray, ...]                     # sigma_e.sigma_n, likewise


@_memo.table
def _register_ops(system: SpinSystem) -> _RegisterOps:
    """The operator basis both Hamiltonian assemblies and _z_turn sum, built once per system.

    At most 5 systems exist (1-3 donors, nuclei for at most 2), so the cache
    stays small.  Each operator is exactly what pauli_on, electron_pair_dot,
    dipole_term("z") and hyperfine_dot return (embed only moves entries), so
    sums over it are bit for bit the per-term sums.
    """
    n = system.num_sites
    sites = [system.electron_site(q) for q in range(system.num_donors)]
    nuclei = sites if system.include_nuclei else []
    pairs = list(itertools.permutations(range(system.num_donors), 2))
    dipole_z = _dipole_pair("z")
    return _RegisterOps(
        sx=tuple(_memo.read_only(pauli_on(E_SX, s, n)) for s in sites),
        sz=tuple(_memo.read_only(pauli_on(E_SZ, s, n)) for s in sites),
        exchange=MappingProxyType({
            (a, b): _memo.read_only(electron_pair_dot(sites[a], sites[b], n)) for a, b in pairs}),
        dipole=MappingProxyType({
            (a, b): _memo.read_only(embed(dipole_z, (sites[a], sites[b]), n)) for a, b in pairs}),
        nuclear_sz=tuple(_memo.read_only(pauli_on(SZ, s + 1, n)) for s in nuclei),
        hyperfine=tuple(_memo.read_only(hyperfine_dot(s, s + 1, n)) for s in nuclei),
    )


# the register of single_donor_static: one electron (x) its nucleus
_NUCLEAR_DONOR = SpinSystem(1, include_nuclei=True)


def _pair_op(table: Mapping[tuple[int, int], np.ndarray], system: SpinSystem,
             qa: int, qb: int) -> np.ndarray:
    op = table.get((qa, qb))
    if op is None:
        # the errors the per-term builders raise: the donor range, then embed's
        system.electron_site(qa)
        system.electron_site(qb)
        raise ValueError("sites must be distinct, in range and match the operator size")
    return op


def rotating_hamiltonian(
    system: SpinSystem,
    drive: float,
    detunings: Mapping[int, float],
    couplings: Mapping[tuple[int, int], float],
    dipole: Mapping[tuple[int, int], float],
    hbar: float,
) -> np.ndarray:
    """Rotating-frame register Hamiltonian, the one assembly of its terms:

    sum_q (drive sx_q + hbar dw_q sz_q) + sum_pairs J s.s + sum_pairs D (s.s - 3 sz sz)

    drive is mu_B B_ac (0 while gated off), detunings map donors to dw (rad/s),
    couplings and dipole map donor pairs to J and D (J).  The dipole form holds
    only for z-aligned donors, which the device and the schedule loader check.
    Each term is a coefficient times an operator of the system's cached basis.

    A single driven electron's rotation axis satisfies
    tan(phi) = hbar*dw / (mu_B B_ac) in spin axes, and its eigenvalue gap is
    2*Omega with Omega^2 = (mu_B B_ac)^2 + hbar^2 dw^2.
    """
    ops = _register_ops(system)
    h = np.zeros((system.dim, system.dim), dtype=complex)
    for donor in range(system.num_donors):
        if drive:
            h += drive * ops.sx[donor]
        dw = detunings.get(donor, 0.0)
        if dw:
            h += hbar * dw * ops.sz[donor]
    for (qa, qb), j in couplings.items():
        if j:
            h += j * _pair_op(ops.exchange, system, qa, qb)
    for (qa, qb), d in dipole.items():
        if d:
            h += d * _pair_op(ops.dipole, system, qa, qb)
    return h


def dipole_term(d_coupling: float, alignment: str, num_sites: int = 2,
                site_a: int = 0, site_b: int = 1) -> np.ndarray:
    """Dipole-dipole operator D (sigma.sigma - 3 (sigma.n)(sigma.n)) for unit axis n.

    For z alignment this becomes D (sigma.sigma - 3 sz sz), which commutes
    with sz1 + sz2 so the rotating frame stays valid; x/y alignments do not.
    """
    if alignment not in _E_AXIS:
        raise ValueError("alignment must be a unit axis 'x', 'y' or 'z'")
    return d_coupling * embed(_dipole_pair(alignment), (site_a, site_b), num_sites)


# ---------------------------------------------------------------------------
# frame transformation
# ---------------------------------------------------------------------------

def _z_turn(system: SpinSystem, angle: float) -> np.ndarray:
    """Diagonal of prod_e exp(-i angle sigma_z^e / 2), the register's one electron z-turn.

    sigma_z^e = -Z on every electron site; nuclei are untouched.  Every
    electron feels one drive at carrier omega_ac and phase phi, so R(t) of
    frame_rotation is the turn at -omega_ac t, and a drive at phi is the
    phase-0 drive turned by the turn T at phi: a rotating schedule runs
    T U(0) T^dagger.  The SU(2) kernel's (-omega_ac, -rf_phase) on Z and the
    4-dim kernel's phase_sign_e = -1 on Z_e are this turn in their own bases.
    """
    sz = sum(np.diag(op).real for op in _register_ops(system).sz)
    return np.exp(-0.5j * angle * sz)


def frame_rotation(t: float, p: DeviceParameters, system: SpinSystem) -> np.ndarray:
    """R(t) = prod_e exp(i omega_ac t sigma_z^e / 2): lab -> rotating frame map.

    R(t) is _z_turn at -omega_ac t, so nuclear sites are untouched.  A lab-frame
    state psi maps into the rotating frame as R(t) @ psi, and a propagator
    U(0 -> t) as R(t) @ U, since R(0) is the identity.

    Verification maps the same few gate durations again and again, so the
    matrix is built once per (t, p, system) while the `_frame_rotation`
    table holds it, t stored as a Python float (see params._as_float); each
    call returns a fresh, writable copy.  A t that is not finite, or whose
    phase omega_ac t is not, is a ValueError naming t (a NaN t, never equal
    to itself, is refused before it could take an entry).
    """
    t = _as_float(t, "t")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return _frame_rotation(t, p, system).copy()


@_memo.table
def _frame_rotation(t: float, p: DeviceParameters, system: SpinSystem) -> np.ndarray:
    """Read-only R(t) of frame_rotation."""
    phase = carrier_frequency(p) * t
    if not math.isfinite(phase):
        raise ValueError(f"t = {t!r} s turns the frame through a non-finite phase")
    return _memo.read_only(np.diag(_z_turn(system, -phase)))
