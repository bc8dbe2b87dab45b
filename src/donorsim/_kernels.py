"""Hot numeric kernels: midpoint-rule time-stepping for lab-frame propagation.

Kernel conventions (natural units, rates in rad/s):

    su2:    H(t)/hbar = az*Z + ax*(X cos(w t + phi0) + Y sin(w t + phi0))
    donor4: H(t) = H_static + drive(t), stepped by a second-order Strang split
            around the midpoint-time drive, drive(t) the tensor product of
            closed-form 2x2 transverse rotations on electron and nucleus.

The drive is purely co-rotating, so step k is a z-rotation conjugate of the
zero-phase step M: M_k = P(th_k) M P(-th_k) with th_k = th_0 + k*delta and
delta = w*dt.  The n-step product therefore collapses exactly to

    P(th_0 + n*delta) (P(-delta) M)^n P(-th_0),

which both kernels evaluate in closed form instead of stepping: the same
discretization (and the same dt^2 error) at O(1) cost for SU(2) and O(log n)
for the 4-dim step.  Both callers, the lab frame and the frozen-nucleus
oracle, run through one segment walk and level driver,
`propagator._lab_levels`; each caller only hands it a `segment_step` that
gives a segment's kernel (or, for an rf-off lab segment, its free
precession).  The driver evaluates a block of refinement levels (steps per
carrier period) at once: the refinement loop `propagator._refine` asks for
64 and 128 first, then for the further levels the dt^2 error predicts from
the last step-halving difference.  The SU(2) kernel takes a block whole:
`su2_lab_levels` returns one segment's stacked n-step products at every
(dt, n) of the block, each level's scalars computed on their own
(`su2_lab_product` is its one-level form).  The 4-dim kernel is called once
per segment and level.  The driver re-unitarizes every segment product of
the block in one stacked `nearest_unitary` call and forms the time-ordered
products as stacked matmuls, each matrix still projected and multiplied on
its own.  So a level has the same bits in any block, and since the loop
still compares the levels pair by pair in order, it returns the array, and
raises the error text, of evaluating one level at a time.

Global control repeats pulses (identical tilted half-revolutions and
resonant pi pulses within and across gates), so the 4-dim kernel takes the
static Hamiltonian itself and memoizes everything that follows from it:
`_strang_power`, a `_memo` table, keeps the 128 most recent n-step powers
(P(-delta) M)^n, keyed with `_memo.array_key` on H_static and on the doubles
(hbar, gx_e, phase_sign_e, gx_n, omega, dt), and on n.  A miss computes, from
the key alone, H_static's eigensystem, the half-step propagator, the
commutator check and the power, so a hit has the bits of a recomputation and
a failed check is never stored.  Only the key and the telescope (which
depends on t0 and chi) are computed on every call.  Both callers also
memoize their results on the schedule (`propagator._lab_unitary`,
`analysis._oracle_check`), so a schedule verified again in the same process
makes no kernel call at all.
"""

from __future__ import annotations

import math

import numpy as np

from . import _memo

__all__ = ["su2_lab_levels", "su2_lab_product", "donor4_strang_product", "nearest_unitary"]

# max-norm of [half-step propagator, generator of P] above which the closed form is invalid
_COMMUTATOR_TOL = 1e-12
_SU2_GEN = np.array([1.0, -1.0])  # diagonal of Z
# diagonals of Z (x) 1 and 1 (x) Z on electron (x) nucleus
_DONOR4_GEN_E = np.array([1.0, 1.0, -1.0, -1.0])
_DONOR4_GEN_N = np.array([1.0, -1.0, 1.0, -1.0])


def nearest_unitary(m: np.ndarray) -> np.ndarray:
    """Polar projection onto the unitary group (removes accumulated roundoff).

    Takes one matrix or a stack of them; each matrix is projected on its own.
    """
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _telescope(power, gen, th0, th_end):
    """P(th_end) power P(-th0), with P(th) = exp(-i th diag(gen) / 2).

    th0 and th_end are floats for one power, (L, 1) arrays for a stack of L.
    """
    return (np.exp(-0.5j * th_end * gen)[..., :, None] * power
            * np.exp(0.5j * th0 * gen)[..., None, :])


def _rot2(angle: float) -> np.ndarray:
    """exp(-i angle X): the zero-phase transverse rotation."""
    c, s = math.cos(angle), -1j * math.sin(angle)
    return np.array([[c, s], [s, c]])


def su2_lab_levels(az, ax, omega, phi0, t0, dts, ns):
    """Stacked su2_lab_product of one segment at each level (dts[i], ns[i]).

    The power of P(-delta) M = a0 - i v.sigma is taken in angle form,
    cos(n beta) - i sin(n beta) v.sigma / |v| with beta = atan2(|v|, a0), so
    its roundoff does not grow with n.  Each level's scalars are computed
    alone, and n = 0 (or a zero rate) gives the exact identity.
    """
    w = math.hypot(az, ax)
    if w == 0.0:
        return np.repeat(np.eye(2, dtype=complex)[None], len(ns), axis=0)
    nz, nt = az / w, ax / w
    powers, th0, th_end = [], [], []
    for dt, n in zip(dts, ns):
        th0.append(omega * (t0 + 0.5 * dt) + phi0)
        th_end.append(omega * (t0 + (n + 0.5) * dt) + phi0)
        if n == 0:
            powers.append(np.eye(2))
            continue
        ca, sa = math.cos(w * dt), math.sin(w * dt)
        c, s = math.cos(0.5 * omega * dt), math.sin(0.5 * omega * dt)
        a0 = c * ca + s * sa * nz
        vx, vy, vz = c * sa * nt, -s * sa * nt, c * sa * nz - s * ca
        norm = math.sqrt(vx * vx + vy * vy + vz * vz)
        beta = math.atan2(norm, a0)
        cb = math.cos(n * beta)
        sb = math.sin(n * beta) / norm if norm > 0.0 else 0.0
        powers.append([[cb - 1j * sb * vz, -sb * (vy + 1j * vx)],
                       [sb * (vy - 1j * vx), cb + 1j * sb * vz]])
    out = _telescope(np.array(powers), _SU2_GEN, np.array(th0)[:, None],
                     np.array(th_end)[:, None])
    for i, n in enumerate(ns):
        if n == 0:
            out[i] = np.eye(2)
    return out


def su2_lab_product(az, ax, omega, phi0, t0, dt, n):
    """Ordered product of n midpoint-step SU(2) propagators (see module docstring):
    su2_lab_levels at the one level (dt, n)."""
    return su2_lab_levels(az, ax, omega, phi0, t0, (dt,), (n,))[0]


def donor4_strang_product(h_static, hbar, gx_e, phase_sign_e, gx_n, omega, chi, t0, dt, n):
    """Second-order split-step product for the driven 4-dim donor Hamiltonian.

    Each step is S drive(t_mid) S with the half-step static propagator
    S = exp(-i H_static dt / (2 hbar)), all of it computed and memoized in
    `_strang_power` from (H_static, the scalars, n).  The closed form needs S
    to commute with exp(-i th (phase_sign_e Z_e + Z_n) / 2), the z-rotation
    the drive phase applies (total physical S_z at phase_sign_e = -1);
    ValueError otherwise.  n = 0 gives the identity without looking at
    H_static.
    """
    if n == 0:
        return np.eye(4, dtype=complex)
    power = _strang_power(_memo.array_key(np.asarray(h_static, dtype=complex)),
                          _memo.array_key(np.array([hbar, gx_e, phase_sign_e, gx_n, omega, dt])),
                          int(n))
    return _telescope(power, phase_sign_e * _DONOR4_GEN_E + _DONOR4_GEN_N,
                      omega * (t0 + 0.5 * dt) + chi, omega * (t0 + (n + 0.5) * dt) + chi)


@_memo.table
def _strang_power(h_key: tuple, scalars_key: tuple, n: int) -> np.ndarray:
    """(P(-delta) M)^n of donor4_strang_product, read-only, from its cache key:
    the array_keys of the complex H_static and of the float64 scalars (hbar,
    gx_e, phase_sign_e, gx_n, omega, dt)."""
    h_static = _memo.key_array(h_key)
    hbar, gx_e, phase_sign_e, gx_n, omega, dt = _memo.key_array(scalars_key).tolist()
    w, v = np.linalg.eigh(h_static)
    half = (v * np.exp(-1j * w * (dt / (2.0 * hbar)))) @ v.conj().T
    gen = phase_sign_e * _DONOR4_GEN_E + _DONOR4_GEN_N
    if np.abs(half * (gen[None, :] - gen[:, None])).max() > _COMMUTATOR_TOL:
        raise ValueError("the static Hamiltonian does not commute with the drive's z-rotation")
    # rot_e (x) rot_n as one outer product, the multiplications np.kron makes
    drive = (_rot2(gx_e * dt)[:, None, :, None] * _rot2(gx_n * dt)[None, :, None, :]).reshape(4, 4)
    step = half @ drive @ half
    return _memo.read_only(
        np.linalg.matrix_power(np.exp(0.5j * omega * dt * gen)[:, None] * step, n))
