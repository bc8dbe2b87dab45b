"""Physical constants, device parameters and the closed-form coupling formulas.

Everything downstream (Hamiltonians, schedules, gate timings) is derived from
the quantities defined here.  All values are SI: energies in J, times in s,
frequencies in rad/s, fields in T, lengths in m.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace

from . import _memo

__all__ = [
    "PhysicalConstants",
    "DeviceParameters",
    "LocalControlTradeoff",
    "CONSTANTS",
    "InfeasibleDetuningError",
    "DipoleAlignmentError",
    "resonant_frequency",
    "carrier_frequency",
    "detuning",
    "max_detuning",
    "exceeds_max_detuning",
    "canonical_detuning_span",
    "hyperfine_for_detuning",
    "detuning_for_hyperfine",
    "exchange_strength",
    "exchange_peak_separation",
    "dipole_strength",
    "exchange_dipole_crossover",
    "local_control_tradeoff",
    "load_device_parameters",
]


class InfeasibleDetuningError(ValueError):
    """Raised when a requested rotation needs a detuning outside the tunable range."""


class DipoleAlignmentError(ValueError):
    """Raised when a dipole term is asked of a device whose donors are not z-aligned."""


@_memo.table
def _float_fields(cls) -> tuple[tuple[str, bool], ...]:
    """(name, whether None is allowed) of each float field of dataclass cls."""
    return tuple((f.name, f.type == "float | None") for f in fields(cls)
                 if f.type in ("float", "float | None"))


def _as_float(value, name: str) -> float:
    """value as a Python float, so equal inputs also compute with the same types
    (a numpy float32 would make float32 arithmetic) and equal memo keys stand
    for bit-identical results; a bool, a numpy bool or anything that is not a
    real number is a ValueError naming the field."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _store_floats(obj) -> None:
    """Store the value of each float field of a frozen dataclass as a Python
    float through _as_float; None stays only where the field is float | None."""
    for name, optional in _float_fields(type(obj)):
        value = getattr(obj, name)
        if type(value) is not float and not (optional and value is None):
            object.__setattr__(obj, name, _as_float(value, name))


def _integer(value, name: str) -> int:
    """value as a Python int; a float, a bool or any other non-integer is a
    ValueError naming the field."""
    if type(value) is int:
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _flag(value, name: str) -> bool:
    """value as a bool; anything but True or False is a ValueError naming the field."""
    if value not in (False, True):
        raise ValueError(f"{name} must be True or False, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants (SI).  Fixed at construction, never mutated.

    Defaults follow the Si:P conventions: g_n is the 31P nuclear g-factor.
    """

    mu_b: float = 9.2740e-24     # Bohr magneton, J/T
    hbar: float = 1.0546e-34     # Planck constant over 2 pi, J*s
    mu_n: float = 5.0508e-27     # nuclear magneton, J/T
    g_n: float = 2.2632          # 31P nuclear g-factor
    mu_0: float = 4.0e-7 * math.pi  # vacuum permeability, T*m/A
    e_charge: float = 1.602176634e-19  # elementary charge, C
    eps_0: float = 8.8541878128e-12    # vacuum permittivity, F/m

    def __post_init__(self):
        _store_floats(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"constant {f.name} must be finite and strictly positive")


CONSTANTS = PhysicalConstants()
_UEV = 1.602176634e-25  # 1 micro-eV in J


def _check_drive_energy(b_ac: float, mu_b: float) -> float:
    """b_ac, unless its drive energy mu_B * b_ac is not a normal positive float:
    every gate timing divides by it, and a subnormal one has lost its digits."""
    energy = mu_b * b_ac
    if not sys.float_info.min <= energy < math.inf:
        raise ValueError(f"b_ac = {b_ac!r} T is out of range: its drive energy "
                         f"mu_B * b_ac = {energy!r} J is not a normal positive float")
    return b_ac


@dataclass(frozen=True)
class DeviceParameters:
    """Device knobs for the globally controlled donor electron-spin machine.

    Parameters
    ----------
    b : static field strength, T
    b_ac : rotating drive amplitude, T
    a0 : unbiased hyperfine energy, J
    a_min : minimum hyperfine energy reachable under full gate bias, J
    d : donor separation, m
    a_star : effective Bohr radius, m
    eps_r : relative dielectric constant
    alignment : donor-axis unit vector relative to the static field ('x'|'y'|'z')
    """

    b: float = 2.0
    b_ac: float = 1.2e-3
    a0: float = 1.938e-26            # 1.21e-7 eV
    a_min: float | None = None       # defaults to a0/2 (50% tuning range)
    d: float = 20e-9
    a_star: float = 3.0e-9
    eps_r: float = 11.7
    alignment: str = "z"
    constants: PhysicalConstants = field(default=CONSTANTS)

    def __post_init__(self):
        _store_floats(self)
        if self.a_min is None:
            object.__setattr__(self, "a_min", 0.5 * self.a0)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if not 0.0 < self.b_ac < self.b:
            raise ValueError("require 0 < b_ac < b")
        _check_drive_energy(self.b_ac, self.constants.mu_b)
        if not 0.0 <= self.a_min <= self.a0:
            raise ValueError("require 0 <= a_min <= a0")
        if self.d <= 0.0 or self.a_star <= 0.0:
            raise ValueError("d and a_star must be positive")
        if self.eps_r < 1.0:
            raise ValueError("eps_r must be >= 1")
        if self.alignment not in ("x", "y", "z"):
            raise ValueError("alignment must be one of 'x', 'y', 'z'")
        # hashed once, since every gate, propagator and oracle cache lookup
        # hashes the device; the alignment enters as its axis index, not as a
        # str (whose hash differs between processes), so a pickled copy's
        # stored hash stays valid
        values = tuple(getattr(self, f.name) for f in fields(self) if f.name != "alignment")
        object.__setattr__(self, "_hash", hash((values, "xyz".index(self.alignment))))

    def __hash__(self) -> int:
        return self._hash

    @property
    def transverse_energy(self) -> float:
        """mu_B * B_ac: energy scale of the resonant drive, J."""
        return self.constants.mu_b * self.b_ac

    def replace(self, **kwargs) -> "DeviceParameters":
        return replace(self, **kwargs)


def _zeeman_denominator(p: DeviceParameters) -> float:
    c = p.constants
    return c.mu_b * p.b + c.g_n * c.mu_n * p.b


def resonant_frequency(a: float, p: DeviceParameters) -> float:
    """Electron resonance omega(A) in rad/s, to second order in the hyperfine energy.

    omega(A) = 2 (mu_B B + A + A^2 / (mu_B B + g_n mu_n B)) / hbar, strictly
    increasing in A.
    """
    if a < 0.0:
        raise ValueError("hyperfine energy must be non-negative")
    c = p.constants
    return 2.0 * (c.mu_b * p.b + a + a * a / _zeeman_denominator(p)) / c.hbar


def carrier_frequency(p: DeviceParameters) -> float:
    """Drive frequency omega_ac, fixed at the unbiased resonance omega(A0)."""
    return resonant_frequency(p.a0, p)


def hyperfine_for_detuning(dw: float, carrier: float, p: DeviceParameters) -> float:
    """A with omega(A) = carrier + dw, on the positive branch of the quadratic.

    With detuning_for_hyperfine, the one map between the A-gate's control A
    and a detuning dw (generator hbar*dw*sigma_z^e in the rotating frame).
    The bound, the schedule file and the lab Hamiltonian read dw as the
    resonance offset; the frozen-nucleus oracle reads it as the full level
    splitting shift, asking for hyperfine_for_detuning(2 dw, carrier, p),
    whose A dips just below 0 near -max_detuning.
    """
    omega = carrier + dw
    c = p.constants
    den = _zeeman_denominator(p)
    const = c.mu_b * p.b - omega * c.hbar / 2.0
    disc = 1.0 - 4.0 * const / den
    if disc < 0.0:
        raise ValueError("frequency below the zero-hyperfine resonance")
    return 0.5 * den * (math.sqrt(disc) - 1.0)


def detuning_for_hyperfine(a: float, carrier: float, p: DeviceParameters) -> float:
    """omega(A) - carrier: the inverse of hyperfine_for_detuning."""
    return resonant_frequency(a, p) - carrier


def detuning(a: float, p: DeviceParameters) -> float:
    """Detuning omega(A) - omega_ac for a physically biased hyperfine value.

    Biasing only lowers A, so the result is <= 0 and vanishes at A = A0.
    """
    if not p.a_min <= a <= p.a0:
        raise ValueError(f"hyperfine energy {a} outside tunable range [{p.a_min}, {p.a0}]")
    return detuning_for_hyperfine(a, carrier_frequency(p), p)


def max_detuning(p: DeviceParameters) -> float:
    """|omega(A_min) - omega(A0)|: the feasibility bound for all schedule synthesis."""
    return abs(detuning_for_hyperfine(p.a_min, carrier_frequency(p), p))


def exceeds_max_detuning(dw: float, p: DeviceParameters) -> bool:
    """Whether |dw| lies beyond max_detuning(p), allowing 1e-9 relative rounding slack."""
    return abs(dw) > max_detuning(p) * (1.0 + 1e-9)


def canonical_detuning_span(p: DeviceParameters) -> float:
    """Full span omega(A0) - omega(0) used by the canonical (locally controlled) scheme.

    There the carrier sits at omega(0) and unbiased qubits are parked a full
    hyperfine shift off resonance.
    """
    return carrier_frequency(p) - resonant_frequency(0.0, p)


def exchange_strength(d: float, p: DeviceParameters) -> float:
    """Herring-Flicker exchange coupling J(d) in J (energy convention, SI).

    J(d) = 1.6 (e^2 / (4 pi eps_0 eps_r a*)) (d/a*)^(5/2) exp(-2 d/a*).
    Vanishes at d = 0 and decays exponentially at large separation.
    """
    if d < 0.0:
        raise ValueError("separation must be non-negative")
    c = p.constants
    coulomb = c.e_charge**2 / (4.0 * math.pi * c.eps_0 * p.eps_r * p.a_star)
    x = d / p.a_star
    return 1.6 * coulomb * x**2.5 * math.exp(-2.0 * x)


def exchange_peak_separation(p: DeviceParameters) -> float:
    """Separation maximizing J(d): the stationary point d = (5/4) a*."""
    return 1.25 * p.a_star


def dipole_strength(d: float, p: DeviceParameters) -> float:
    """Magnetic dipole-dipole coupling D(d) = (mu_0 / 4 pi) mu_B^2 / d^3, in J."""
    c = p.constants
    try:
        strength = c.mu_0 / (4.0 * math.pi) * c.mu_b**2 / d**3
    except (OverflowError, ZeroDivisionError):   # d**3 overflows, or underflows to 0
        strength = 0.0
    # also rejects d <= 0, nan and inf, and a D that underflows to 0
    if not 0.0 < strength < math.inf:
        raise ValueError(f"separation must be positive and give a finite non-zero "
                         f"dipole coupling, got {d!r} m")
    return strength


def exchange_dipole_crossover(p: DeviceParameters) -> float:
    """Smallest separation beyond the exchange peak where J(d) < D(d) (bisection).

    Beyond this point the 1/d^3 dipole coupling dominates the exponentially
    dying exchange.  The search brackets it below 100 nm first, and doubles
    that bound while J still reaches D there; J falls as exp(-2 d/a*) and D
    only as d^-3, so the doubling ends.
    """
    lo = exchange_peak_separation(p)
    if exchange_strength(lo, p) <= dipole_strength(lo, p):
        return lo
    hi = 100e-9
    while exchange_strength(hi, p) >= dipole_strength(hi, p):
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if exchange_strength(mid, p) > dipole_strength(mid, p):
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class LocalControlTradeoff:
    """Figures of merit of the canonical locally-controlled scheme."""

    fwhm: float                # resonance full width half maximum, rad/s
    max_offres_error: float    # peak excitation probability of a parked qubit
    pi_time: float             # resonant pi-pulse duration, s


def local_control_tradeoff(
    b_ac: float,
    delta_omega: float,
    constants: PhysicalConstants = CONSTANTS,
) -> LocalControlTradeoff:
    """Trade-off between addressing error and gate speed for local control.

    fwhm = 4 mu_B B_ac / hbar; the off-resonance error is the Rabi envelope
    (mu_B B_ac / Omega)^2 at the parked detuning; pi_time = pi hbar / (2 mu_B B_ac).
    Note pi_time * fwhm = 2 pi identically.
    """
    if b_ac <= 0.0:
        raise ValueError("b_ac must be positive")
    c = constants
    transverse = c.mu_b * b_ac
    omega_sq = transverse**2 + (c.hbar * delta_omega) ** 2
    return LocalControlTradeoff(
        fwhm=4.0 * transverse / c.hbar,
        max_offres_error=transverse**2 / omega_sq,
        pi_time=math.pi * c.hbar / (2.0 * transverse),
    )


_CONFIG_FIELDS = ("b", "b_ac", "a0", "a_min", "d", "a_star", "eps_r", "alignment")


def load_device_parameters(text: str) -> DeviceParameters:
    """Parse a flat key-value config ("key = value" lines, '#' comments, SI units).

    Every field is optional and falls back to the documented default; unknown
    keys are an error.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = val if key == "alignment" else float(val)
        except ValueError:
            raise ValueError(f"config line {lineno}: {key} must be a number, "
                             f"got {val!r}") from None
    return DeviceParameters(**values)
