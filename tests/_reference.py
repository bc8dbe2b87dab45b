"""Every independent reference the tests and benchmarks/bench_kernels.py
compare against, written once.

From donorsim this imports params alone: a reference that checks the
package's assembly bit for bit takes the package's builders or kernels as
arguments from its test.  A loop and a `*_reference` formula of one quantity
stay apart: the loop checks the value, the formula the former bits.
"""

import dataclasses
import functools
import math

import numpy as np

from donorsim.params import carrier_frequency, hyperfine_for_detuning, resonant_frequency


def haar(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# embedding and grading
# ---------------------------------------------------------------------------

def merge_bits(gate_idx, spec_idx, sites, spec_sites, n):
    """The n-site basis index spelling gate_idx at sites and spec_idx at spec_sites."""
    bits = [0] * n
    for pos, s in enumerate(sites):
        bits[s] = (gate_idx >> (len(sites) - 1 - pos)) & 1
    for pos, s in enumerate(spec_sites):
        bits[s] = (spec_idx >> (len(spec_sites) - 1 - pos)) & 1
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def embed_loop(gate, sites, n):
    """Reference embedding: each gate entry written at every spectator index."""
    rest = [s for s in range(n) if s not in sites]
    dim_g = 2 ** len(sites)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for gate_row in range(dim_g):
        for gate_col in range(dim_g):
            amp = gate[gate_row, gate_col]
            if amp == 0.0:
                continue
            for spec in range(2 ** len(rest)):
                out[merge_bits(gate_row, spec, sites, rest, n),
                    merge_bits(gate_col, spec, sites, rest, n)] += amp
    return out


def spectator_fidelity_loop(u, gate, targets, system):
    """Contract the target legs of u against conj(gate) index by index."""
    n = system.num_sites
    sites = [system.electron_site(q) for q in targets]
    spec_sites = [s for s in range(n) if s not in sites]
    k, m = len(sites), len(spec_sites)
    dim_s = 2**m
    block = np.zeros((dim_s, dim_s), dtype=complex)
    for grow in range(2**k):
        for gcol in range(2**k):
            weight = np.conj(gate[grow, gcol])
            if weight == 0.0:
                continue
            for srow in range(dim_s):
                for scol in range(dim_s):
                    row = merge_bits(grow, srow, sites, spec_sites, n)
                    col = merge_bits(gcol, scol, sites, spec_sites, n)
                    block[srow, scol] += weight * u[row, col]
    block /= 2**k
    scale = math.sqrt(max(np.trace(block.conj().T @ block).real / dim_s, 1e-300))
    return float(abs(np.trace(block)) / (dim_s * scale))


# The grading formulas as first written (np.eye per call, np.trace and
# np.tensordot): the rewritten ones must give their bits.
def assert_unitary_reference(u, tol=1e-10):
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= tol:
        raise ValueError("matrix is not unitary within tolerance")


def unitarity_deviation_reference(u):
    """max|U^dag U - I| with 1 taken off the diagonal in place, as first written."""
    dev = u.conj().T @ u
    dev.flat[:: len(dev) + 1] -= 1
    return float(np.abs(dev).max())


def is_hermitian_reference(h):
    """The Hermiticity test as first written, through ndarray.max."""
    scale = max(np.abs(h).max(), 1e-300)
    return bool(np.abs(h - h.conj().T).max() <= 1e-12 * scale)


def gate_fidelity_reference(u, v):
    return float(abs(np.trace(u.conj().T @ v)) / u.shape[0])


def spectator_fidelity_reference(u, gate, targets, system):
    n = system.num_sites
    sites = [system.electron_site(q) for q in targets]
    rest = [s for s in range(n) if s not in sites]
    dim_g, dim_s = 2 ** len(sites), 2 ** len(rest)
    order = sites + rest
    legs = u.reshape((2,) * (2 * n)).transpose(order + [n + s for s in order])
    legs = legs.reshape(dim_g, dim_s, dim_g, dim_s)
    block = np.tensordot(np.conj(gate), legs, axes=([0, 1], [0, 2])) / dim_g
    scale = math.sqrt(max(np.trace(block.conj().T @ block).real / dim_s, 1e-300))
    return float(abs(np.trace(block)) / (dim_s * scale))


# ---------------------------------------------------------------------------
# rotating frame: assembly, execution, traces
# ---------------------------------------------------------------------------

def rotating_reference(terms, system, drive, detunings, couplings, dipole, hbar):
    """Per-term assembly by terms' (spin_model's) builders, every operator
    embedded on the spot (the former loop)."""
    n = system.num_sites
    h = np.zeros((system.dim, system.dim), dtype=complex)
    for donor in range(system.num_donors):
        site = system.electron_site(donor)
        if drive:
            h += drive * terms.pauli_on(terms.E_SX, site, n)
        dw = detunings.get(donor, 0.0)
        if dw:
            h += hbar * dw * terms.pauli_on(terms.E_SZ, site, n)
    for (qa, qb), j in couplings.items():
        if j:
            h += j * terms.electron_pair_dot(system.electron_site(qa),
                                             system.electron_site(qb), n)
    for (qa, qb), d in dipole.items():
        if d:
            h += terms.dipole_term(d, "z", n, system.electron_site(qa),
                                   system.electron_site(qb))
    return h


def execute_loop(schedule, hamiltonian, propagate):
    """One propagator per timed segment, nothing reused (the former loop)."""
    u = np.eye(schedule.system.dim, dtype=complex)
    for seg in schedule.segments:
        if seg.duration == 0.0:
            continue
        u = propagate(hamiltonian(schedule, seg), seg.duration, schedule.hbar) @ u
    return u


def trace_loop(schedule, psi0, samples, hamiltonian):
    """Per-sample populations, stepping segment by segment (the former loop)."""
    total = schedule.total_duration
    eigs, starts, t_acc = [], [], 0.0
    for seg in schedule.segments:
        if seg.duration == 0.0:
            continue
        eigs.append(np.linalg.eigh(hamiltonian(schedule, seg)))
        starts.append(t_acc)
        t_acc += seg.duration
    times = np.linspace(0.0, total, samples)
    pops = np.empty((samples, schedule.system.dim))
    seg_idx, psi_seg_start = 0, psi0
    for i, t in enumerate(times):
        while seg_idx + 1 < len(starts) and t >= starts[seg_idx + 1] - 1e-18 * total:
            w, v = eigs[seg_idx]
            dt_full = starts[seg_idx + 1] - starts[seg_idx]
            phases = np.exp(-1j * w * (dt_full / schedule.hbar))
            psi_seg_start = v @ (phases * (v.conj().T @ psi_seg_start))
            seg_idx += 1
        w, v = eigs[seg_idx]
        phases = np.exp(-1j * w * ((t - starts[seg_idx]) / schedule.hbar))
        pops[i] = np.abs(v @ (phases * (v.conj().T @ psi_seg_start))) ** 2
    return times, pops


def csv_reference(trace, header):
    lines = [f"# {key} = {val}\n" for key, val in header.items()]
    lines.append("time_ns," + ",".join(f"pop_{lab}" for lab in trace.basis_labels) + "\n")
    for t, row in zip(trace.times, trace.populations):
        lines.append(",".join([f"{t * 1e9:.12g}"] + [f"{x:.12g}" for x in row]) + "\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# lab-frame stepping
# ---------------------------------------------------------------------------

def su2_closed_form(az, ax, omega, phi0, t0, dt, n):
    """The one-level closed form in scalar arithmetic, telescope included."""
    w = math.hypot(az, ax)
    if w == 0.0 or n == 0:
        return np.eye(2, dtype=complex)
    ca, sa = math.cos(w * dt), math.sin(w * dt)
    nz, nt = az / w, ax / w
    c, s = math.cos(0.5 * omega * dt), math.sin(0.5 * omega * dt)
    a0 = c * ca + s * sa * nz
    vx, vy, vz = c * sa * nt, -s * sa * nt, c * sa * nz - s * ca
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    beta = math.atan2(norm, a0)
    cb = math.cos(n * beta)
    sb = math.sin(n * beta) / norm if norm > 0.0 else 0.0
    power = np.array([[cb - 1j * sb * vz, -sb * (vy + 1j * vx)],
                      [sb * (vy - 1j * vx), cb + 1j * sb * vz]])
    th0 = omega * (t0 + 0.5 * dt) + phi0
    th_end = omega * (t0 + (n + 0.5) * dt) + phi0
    gen = np.array([1.0, -1.0])
    return np.exp(-0.5j * th_end * gen)[:, None] * power * np.exp(0.5j * th0 * gen)[None, :]


def su2_loop(az, ax, omega, phi0, t0, dt, n):
    """Step-by-step midpoint product, one closed-form 2x2 step at a time."""
    w = math.hypot(az, ax)
    ca, sa = math.cos(w * dt), math.sin(w * dt)
    nz, nt = az / w, ax / w
    u = np.eye(2, dtype=complex)
    for k in range(n):
        th = omega * (t0 + (k + 0.5) * dt) + phi0
        off = -1j * sa * nt * complex(math.cos(th), math.sin(th))
        u = np.array([[ca - 1j * sa * nz, -off.conjugate()],
                      [off, ca + 1j * sa * nz]]) @ u
    return u


def rot2(angle, th):
    """exp(-i angle (X cos th + Y sin th))."""
    c, s = math.cos(angle), -1j * math.sin(angle)
    return np.array([[c, s * complex(math.cos(th), -math.sin(th))],
                     [s * complex(math.cos(th), math.sin(th)), c]])


def donor4_loop(h_static, hbar, gx_e, phase_sign_e, gx_n, omega, chi, t0, dt, n):
    """Step-by-step Strang product: e_half, midpoint-time drive, e_half."""
    w, v = np.linalg.eigh(h_static)
    e_half = (v * np.exp(-1j * w * (dt / (2.0 * hbar)))) @ v.conj().T
    u = np.eye(4, dtype=complex)
    for k in range(n):
        th = omega * (t0 + (k + 0.5) * dt) + chi
        mid = np.kron(rot2(gx_e * dt, phase_sign_e * th), rot2(gx_n * dt, th))
        u = (e_half @ (mid @ e_half)) @ u
    return u


def midpoint_expm_product(hamiltonian, dt, n, hbar=1.0):
    """Product of exp(-i H(t_k) dt / hbar), t_k = (k + 1/2) dt, k < n, from
    one stacked expm."""
    return stacked_expm_product(np.array([hamiltonian((k + 0.5) * dt) for k in range(n)]),
                                dt, hbar)


def stacked_expm_product(hs, dt, hbar=1.0):
    """Product of exp(-i hs[k] dt / hbar) over the stack, first k rightmost,
    from one stacked expm."""
    import scipy.linalg   # here: bench_kernels.py imports this module without scipy

    u = np.eye(hs.shape[-1], dtype=complex)
    for step in scipy.linalg.expm(-1j * (dt / hbar) * hs):
        u = step @ u
    return u


def electron_lab_midpoints(a, p, dt, n):
    """The driven single-electron lab Hamiltonians H(t_k), t_k = (k + 1/2) dt,
    k < n, as one (n, 2, 2) stack: hbar (omega(A) - omega_ac / 2) on the
    electron's sigma_z = diag(-1, 1) and the co-rotating drive
    mu_B B_ac e^(+-i omega_ac t) off the diagonal."""
    z = p.constants.hbar * (resonant_frequency(a, p) - 0.5 * carrier_frequency(p))
    th = carrier_frequency(p) * ((np.arange(n) + 0.5) * dt)
    hs = np.zeros((n, 2, 2), dtype=complex)
    hs[:, 0, 0], hs[:, 1, 1] = -z, z
    hs[:, 0, 1] = p.transverse_energy * (np.cos(th) + 1j * np.sin(th))
    hs[:, 1, 0] = hs[:, 0, 1].conj()
    return hs


def frame_rotation_reference(t, p, system):
    """R(t) as the Kronecker product of one diagonal per site: each electron's
    exp(-i phase Z) with phase = omega_ac t / 2 (sigma_z^e = -Z), the identity
    on each nucleus."""
    phase = 0.5 * carrier_frequency(p) * t
    single = np.diag([np.exp(-1j * phase), np.exp(1j * phase)])
    sites = [single, np.eye(2)] if system.include_nuclei else [single]
    return functools.reduce(np.kron, sites * system.num_donors)


def lab_walk(schedule, carrier, dim, steps_per_period, segment_step):
    """Product of each timed segment's segment_step(seg, t0, dt, n), at least
    16 steps of dt from global time t0, set up again per segment."""
    period = 2.0 * math.pi / carrier
    u = np.eye(dim, dtype=complex)
    t0 = 0.0
    for seg in schedule.segments:
        if seg.duration > 0.0:
            n = max(int(math.ceil(seg.duration / period * steps_per_period)), 16)
            u = segment_step(seg, t0, seg.duration / n, n) @ u
        t0 += seg.duration
    return u


def lab_donor_reference(schedule, donor, steps_per_period, kernels):
    """One donor's lab-frame stream, set up again and projected per segment."""
    w_ac = schedule.carrier
    ax = schedule.transverse_energy / schedule.hbar

    def step(seg, t0, dt, n):
        az = -(0.5 * w_ac + seg.detunings.get(donor, 0.0))
        if seg.rf_on:
            return kernels.nearest_unitary(
                kernels.su2_lab_product(az, ax, -w_ac, -schedule.rf_phase, t0, dt, n))
        phase = az * seg.duration
        return np.diag([np.exp(-1j * phase), np.exp(1j * phase)])

    return lab_walk(schedule, w_ac, 2, steps_per_period, step)


def oracle_donor_reference(schedule, donor, p, steps_per_period, include_nuclear_drive,
                           kernels, static):
    """The oracle's stream with the static Hamiltonian and projection per
    segment; it reads dw as the transition 2 dw off the carrier."""
    c = p.constants
    w_ac = carrier_frequency(p)
    gx_e = p.transverse_energy / c.hbar
    gx_n = -c.g_n * c.mu_n * p.b_ac / c.hbar if include_nuclear_drive else 0.0

    def step(seg, t0, dt, n):
        a_phys = hyperfine_for_detuning(2.0 * seg.detunings.get(donor, 0.0), w_ac, p)
        return kernels.nearest_unitary(kernels.donor4_strang_product(
            static(a_phys, p), c.hbar, gx_e if seg.rf_on else 0.0, -1.0,
            gx_n if seg.rf_on else 0.0, w_ac, schedule.rf_phase, t0, dt, n))

    return lab_walk(schedule, w_ac, 4, steps_per_period, step)


def sequential_refine(level, tol, ceiling, what="reference", error=RuntimeError):
    """The step-halving loop that evaluates one level at a time."""
    steps = 64
    coarse = level(steps)
    while True:
        fine = level(2 * steps)
        diff = np.abs(fine - coarse).max()
        if diff <= tol:
            return fine
        steps *= 2
        coarse = fine
        if steps > ceiling:
            raise error(
                f"{what} did not converge to {tol} in max-norm: last "
                f"difference {diff:.3e} at {steps} steps per carrier period"
            )


def execute_lab_reference(schedule, lab_tol, kernels):
    """Step-halving loop over the kron assembly of the per-donor streams."""
    def assemble(steps_per_period):
        u = np.array([[1.0 + 0.0j]])
        for donor in range(schedule.system.num_donors):
            u = np.kron(u, lab_donor_reference(schedule, donor, steps_per_period, kernels))
        return u

    return sequential_refine(assemble, lab_tol, 1 << 18)


def oracle_reference(schedule, donor, p, tol, include_nuclear_drive, kernels, static):
    """Step-halving loop over the oracle's per-segment stream."""
    return sequential_refine(
        lambda steps: oracle_donor_reference(schedule, donor, p, steps, include_nuclear_drive,
                                             kernels, static),
        tol, 1 << 16)


# ---------------------------------------------------------------------------
# fixtures shared by test modules
# ---------------------------------------------------------------------------

def no_kernel(*args):
    """A kernel monkeypatched in where no refinement level may run."""
    raise AssertionError("a refinement level ran")


def table_j(p, step_ns=0.01):
    return 3.0 * math.pi * p.constants.hbar / (8.0 * step_ns * 1e-9)


def cnot_steps(sched):
    """[label, duration] of each CNOT step before the correction, summing the
    segments whose labels start with the same 'step N'."""
    grouped = []
    for seg in sched.segments[:-1]:
        key = " ".join(seg.label.split()[:2])
        if grouped and grouped[-1][0] == key:
            grouped[-1][1] += seg.duration
        else:
            grouped.append([key, seg.duration])
    return grouped


def with_segment(sched, i, **changes):
    """sched with segment i rebuilt with changes."""
    segments = list(sched.segments)
    segments[i] = dataclasses.replace(segments[i], **changes)
    return sched.replace(segments=tuple(segments))


# (duration, detuning / max_detuning or None, rf_on) of each segment
_RF_OFF_AND_EMPTY = ((0.0, 0.2, True), (0.5e-9, -0.6, True), (0.3e-9, 0.4, False),
                     (0.0, None, False), (0.8e-9, 0.1, True), (0.2e-9, None, False))


def rf_off_and_empty_segments(segment, dw_max, non_positive=False):
    """Six PulseSegments, two of zero duration and three rf-off; the
    rotating-frame twin (non_positive) stays within the device bound."""
    return tuple(
        segment(duration=t, rf_on=rf_on,
                detunings={} if f is None else {0: (-abs(f) if non_positive else f) * dw_max})
        for t, f, rf_on in _RF_OFF_AND_EMPTY)


# ---------------------------------------------------------------------------
# 50-digit closed forms
# ---------------------------------------------------------------------------

def mp50():
    """A private 50-digit mpmath context, not the global one; skips the
    calling test where mpmath is absent."""
    import pytest

    mp = pytest.importorskip("mpmath").MPContext()
    mp.dps = 50
    return mp


def mp_detuning_map(mp, p):
    """(omega(A), hyperfine(w)): the donor's resonance at hyperfine A and its
    inverse, the quadratic of params' map, at mp's precision on p's floats."""
    c = p.constants
    zeeman = mp.mpf(c.mu_b) * mp.mpf(p.b)
    den = zeeman + mp.mpf(c.g_n) * mp.mpf(c.mu_n) * mp.mpf(p.b)

    def omega(a):
        return 2 * (zeeman + a + a * a / den) / mp.mpf(c.hbar)

    def hyperfine(w):
        const = zeeman - w * mp.mpf(c.hbar) / 2
        return den / 2 * (mp.sqrt(1 - 4 * const / den) - 1)

    return omega, hyperfine


def mp_table_durations(mp, p, j):
    """Each step and the total of Tables II-VI, in seconds, on a device where
    X(pi) is one step and each wrap count is the default device's.

    T = pi hbar / (mu_B B_ac) is the spectator period.  X(pi) is a speed-2
    revolution and a resonant pi, T/2 each; a tilted half-revolution at
    tilt phi lasts T cos(phi) / 2 (phi = pi/4 for Y(pi) and the Hadamard);
    a correction completes the spectators' revolution plus k wraps: Y k = 1,
    H and Z k = 0, the extended CNOT k = 1.  The CNOT's interaction steps
    last tau = 3 pi hbar / (8 j) each, with the drive on.
    """
    c = p.constants
    t = mp.pi * mp.mpf(c.hbar) / (mp.mpf(c.mu_b) * mp.mpf(p.b_ac))
    tau = 3 * mp.pi * mp.mpf(c.hbar) / (8 * mp.mpf(j))
    r = 1 / mp.sqrt(2)
    h_pulse = t * r / 2
    return {
        "II": [t / 2, t / 2, t],
        "III": [t * (1 + r), t * (2 - r), 3 * t],
        "IV": [h_pulse, t - h_pulse, t],
        "V": [h_pulse, t / 2, h_pulse, t * (mp.mpf(3) / 2 - r), 2 * t],
        "VI": [t, tau, t / 2, tau, t / 2, t / 4, t, t * mp.mpf(7) / 4 - 2 * tau, 5 * t],
    }
