"""Seeded operation streams for the donorsim benchmark workloads.

Each workload is an indexed stream of operations: ``op(i)`` is a pure function
of the workload's seed and ``i``, so two commits given the same seed do the
same work in the same order.  Every operation checks its own result and
returns an ``Outcome`` listing what failed, plus a digest of the numbers it
produced (used to show that tracing changes no result).

Operations call donorsim only through module attributes (``gates.compile_gate``,
``propagator.execute_schedule``, ...), which is where the tracer wraps them.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from donorsim import analysis, cli, gates, propagator, spin_model
from donorsim.params import DeviceParameters, carrier_frequency, max_detuning

# The CLI's default `gate --threshold`; compile grades gate and spectator
# fidelity against it.
FIDELITY_MIN = 1.0 - 1e-4

# `validate`'s own bounds for the lab-frame and nuclear checks.
RANDOM_LAB_TOL = 1e-8          # frame_equivalence_random: lab_tol and max infidelity
GATE_LAB_TOL = 1e-6            # lab_tol for the gate realizations
GATE_INFIDELITY_MAX = 1e-6
GATE_MAXNORM_MAX = 1e-4
FLIP_MAX = 1e-4                # frozen_nucleus: nuclear flip probability
FDEV_MAX = 1e-3                # frozen_nucleus: electron fidelity deviation

_UEV = 1.602176634e-25


@dataclass(frozen=True)
class Outcome:
    failures: tuple[str, ...]
    digest: bytes
    bytes_out: int = 0


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Outcome]


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(struct.pack("<d", float(part)))
    return h.digest()


def table_vi_coupling(p: DeviceParameters) -> float:
    """Exchange J of Table VI: 3*pi/8 interaction pulses of 0.01 ns."""
    return 3.0 * math.pi * p.constants.hbar / (8.0 * 1e-11)


# ---------------------------------------------------------------------------
# compile: synthesize, execute and grade rotating-frame gates
# ---------------------------------------------------------------------------

RANDOM_KINDS = ("x", "y", "z", "hadamard", "cnot_exchange", "cnot_dipole",
                "cnot_combined", "swap", "parallel")


class CompileWorkload:
    """Even ops cycle through a fixed catalog; odd ops draw fresh random gates.

    The catalog is Table II-VI's gates on 2 and 3 donors, so it repeats every
    18 catalog ops.  Random op j has kind RANDOM_KINDS[j % 9] on 2 or 3 donors
    (alternating every 9 ops; parallel always uses 3) with theta in (0, 2*pi),
    J in [1, 10] x Table VI's J and d in [20, 40] nm drawn from a generator
    seeded by (seed, j), so no random op repeats.
    """

    stop_every = 1
    trace_ops = 360
    reference_parts = ("dense",)

    def __init__(self, seed: int):
        self.seed = seed
        self.p = DeviceParameters()
        j6 = table_vi_coupling(self.p)
        gate_list = [
            ("x", dict(theta=math.pi)),
            ("x", dict(theta=math.pi / 2)),
            ("y", dict(theta=math.pi)),
            ("z", dict(theta=math.pi)),
            ("hadamard", {}),
            ("cnot", dict(mode="exchange", j=j6)),
            ("cnot", dict(mode="dipole", d=30e-9)),
            ("cnot", dict(mode="combined", j=j6, d=30e-9)),
            ("swap", dict(j=j6)),
        ]
        self.catalog = []
        for donors, single, pair in ((2, (0,), (0, 1)), (3, (1,), (1, 2))):
            for kind, kw in gate_list:
                targets = pair if kind in ("cnot", "swap") else single
                self.catalog.append((gates.GateSpec(kind, targets, **kw), donors))

    def op(self, i: int) -> Op:
        if i % 2 == 0:
            spec, donors = self.catalog[(i // 2) % len(self.catalog)]
            return self._gate_op(f"catalog {spec.kind} n={donors}", spec, donors)
        j = i // 2
        kind = RANDOM_KINDS[j % len(RANDOM_KINDS)]
        donors = 3 if kind == "parallel" else 2 + (j // len(RANDOM_KINDS)) % 2
        rng = np.random.default_rng([self.seed, j])
        if kind == "parallel":
            return self._parallel_op(rng)
        j6 = table_vi_coupling(self.p)
        if kind in ("x", "y", "z", "hadamard"):
            target = (int(rng.integers(donors)),)
            theta = rng.uniform(0.0, 2.0 * math.pi) if kind != "hadamard" else None
            spec = gates.GateSpec(kind, target, theta=theta)
        else:
            pair = tuple(int(q) for q in rng.choice(donors, size=2, replace=False))
            j = rng.uniform(1.0, 10.0) * j6
            d = rng.uniform(20e-9, 40e-9)
            if kind == "swap":
                spec = gates.GateSpec("swap", pair, j=j)
            else:
                mode = kind.split("_")[1]
                spec = gates.GateSpec("cnot", pair, mode=mode,
                                      j=None if mode == "dipole" else j,
                                      d=None if mode == "exchange" else d)
        return self._gate_op(f"random {kind} n={donors}", spec, donors)

    def _gate_op(self, label: str, spec: "gates.GateSpec", donors: int) -> Op:
        p = self.p

        def run() -> Outcome:
            system = spin_model.SpinSystem(donors)
            report = gates.compile_gate(spec, p, system)
            spectator = analysis.spectator_fidelity(
                report.achieved, gates.ideal_unitary(spec), spec.targets, system)
            return _graded(spec, report.fidelity, spectator,
                           _digest(report.achieved, report.fidelity, spectator))

        return Op(label, run)

    def _parallel_op(self, rng: np.random.Generator) -> Op:
        p = self.p
        qubits = sorted(int(q) for q in rng.choice(3, size=2, replace=False))
        specs = []
        for q in qubits:
            kind = ("x", "y", "z", "hadamard")[int(rng.integers(4))]
            theta = rng.uniform(0.0, 2.0 * math.pi) if kind != "hadamard" else None
            specs.append(gates.GateSpec(kind, (q,), theta=theta))

        def run() -> Outcome:
            system = spin_model.SpinSystem(3)
            schedule = gates.compose_parallel(specs, p, system)
            u = propagator.execute_schedule(schedule).unitary
            fidelity = analysis.gate_fidelity(u, schedule.declared_target)
            ideal = np.kron(gates.ideal_unitary(specs[0]), gates.ideal_unitary(specs[1]))
            spectator = analysis.spectator_fidelity(u, ideal, tuple(qubits), system)
            return _graded(specs, fidelity, spectator, _digest(u, fidelity, spectator))

        return Op("random parallel n=3", run)


def _graded(spec, fidelity: float, spectator: float, digest: bytes) -> Outcome:
    failures = []
    if not fidelity >= FIDELITY_MIN:
        failures.append(f"{spec}: gate fidelity {fidelity:.3e} < {FIDELITY_MIN}")
    if not spectator >= FIDELITY_MIN:
        failures.append(f"{spec}: spectator fidelity {spectator:.3e} < {FIDELITY_MIN}")
    return Outcome(tuple(failures), digest)


# ---------------------------------------------------------------------------
# session: a fixed CLI session replayed through cli.main
# ---------------------------------------------------------------------------

class SessionWorkload:
    """A fixed list of CLI commands, replayed in order, outputs under workdir.

    The seed picks the gate parameters and the sweep grid once per run; every
    replay of a command must exit 0 and write exactly the bytes of its first
    execution in the run.
    """

    stop_every = 1
    reference_parts = ("dense", "text")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        p = DeviceParameters()
        theta = {kind: f"{rng.uniform(0.0, 2.0 * math.pi):.6f}" for kind in ("x", "y", "z")}
        j_uev = [f"{rng.uniform(1.0, 10.0) * table_vi_coupling(p) / _UEV:.6f}" for _ in range(2)]
        d_nm = f"{rng.uniform(20.0, 40.0):.6f}"
        sweep_d = ",".join(f"{d:.6e}" for d in sorted(rng.uniform(20e-9, 40e-9, 4)))

        self.commands: list[tuple[str, list[str], list[str]]] = []  # label, argv, outputs

        def add(label: str, fmt: str, args: list[str], trace: bool = False) -> str:
            stem = os.path.join(workdir, f"{len(self.commands):02d}")
            argv = ["--format", fmt, "--out", stem + ".out"] + args
            outputs = [stem + ".out"]
            if trace:
                outputs.append(stem + ".trace.csv")
                argv += ["--samples", "1000", "--trace", outputs[-1]]
            self.commands.append((label, argv, outputs))
            return outputs[0]

        for which in ("I", "II", "III", "IV", "V", "VI"):
            for fmt in ("text", "csv", "json"):
                add(f"table {which} {fmt}", fmt, ["table", which])
        for kind in ("x", "y", "z"):
            add(f"gate {kind}", "json", ["gate", "--gate", kind, "--theta", theta[kind]],
                trace=True)
        add("gate cnot", "json",
            ["gate", "--gate", "cnot", "--mode", "exchange", "--j-uev", j_uev[0]], trace=True)
        dumped = add("schedule dump cnot", "text",
                     ["schedule", "dump", "--gate", "cnot", "--mode", "combined",
                      "--j-uev", j_uev[1], "--d-nm", d_nm])
        add("schedule load", "text", ["schedule", "load", dumped])
        add("sweep cnot_combined_ns", "csv",
            ["sweep", "--metric", "cnot_combined_ns", "--param", f"d={sweep_d}"])
        self.trace_ops = 16 * len(self.commands)
        self.reference: dict[int, bytes] = {}

    def op(self, i: int) -> Op:
        idx = i % len(self.commands)
        label, argv, outputs = self.commands[idx]

        def run() -> Outcome:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            failures = []
            if code != 0:
                failures.append(f"{label}: exit code {code}")
            data = b""
            for path in outputs:
                with open(path, "rb") as fh:
                    data += fh.read()
            first = self.reference.setdefault(idx, data)
            if data != first:
                failures.append(f"{label}: output differs from its first execution")
            return Outcome(tuple(failures), _digest(data), len(data))

        return Op(label, run)


# ---------------------------------------------------------------------------
# lab_verify: lab-frame and electron (x) nucleus verification, one donor
# ---------------------------------------------------------------------------

LAB_ROUND = ("oracle hadamard", "random set", "lab x(pi)", "oracle x(theta)",
             "lab x(pi/2)", "oracle y(theta)", "lab hadamard")
# Segment boundaries of the random set: schedules of 1, 2, 2 and 3 segments.
SET_SEGMENTS = (0, 1, 3, 5, 8)


class LabVerifyWorkload:
    """Rounds of seven single-donor verifications, as `validate` runs them.

    Per round: three frozen-nucleus oracle checks (H, X(theta), Y(theta)),
    the lab-frame realizations of X(pi), X(pi/2) and H at lab_tol 1e-6, and
    one set of four random lab schedules with 1, 2, 2 and 3 segments at
    lab_tol 1e-8.  The set's eight segment durations take one value from each
    eighth of 0.2-2 ns in random order, so each duration is uniform on
    0.2-2 ns while the set's total work barely moves with the seed.  With
    eight segments the set outweighs each gate realization, so the round's
    median op is always a fixed gate.  Round r draws its values from a
    generator seeded by (seed, r).  The timed phase ends on a round boundary.
    """

    stop_every = len(LAB_ROUND)
    trace_ops = len(LAB_ROUND)
    reference_parts = ("vector",)

    def __init__(self, seed: int):
        self.seed = seed
        self.p = DeviceParameters()
        one = spin_model.SpinSystem(1)
        self.fixed = {
            "lab x(pi)": gates.synth_x(math.pi, 0, self.p, one),
            "lab x(pi/2)": gates.synth_x(math.pi / 2, 0, self.p, one),
            "lab hadamard": gates.synth_hadamard(0, self.p, one),
            "oracle hadamard": gates.synth_hadamard(0, self.p, one),
        }

    def _round_draws(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        strata = (np.arange(SET_SEGMENTS[-1]) + rng.uniform(size=SET_SEGMENTS[-1]))
        rng.shuffle(strata)
        durations = (0.2 + 1.8 * strata / SET_SEGMENTS[-1]) * 1e-9
        dw_max = max_detuning(self.p)
        detunings = rng.uniform(-dw_max, dw_max, size=SET_SEGMENTS[-1])
        theta_x, theta_y = rng.uniform(0.0, 2.0 * math.pi, size=2)
        return durations, detunings, theta_x, theta_y

    def op(self, i: int) -> Op:
        label = LAB_ROUND[i % len(LAB_ROUND)]
        p = self.p
        one = spin_model.SpinSystem(1)
        if label in ("lab x(pi)", "lab x(pi/2)", "lab hadamard"):
            return Op(label, lambda: self._gate_lab(label, self.fixed[label]))
        if label == "oracle hadamard":
            return Op(label, lambda: self._oracle(label, self.fixed[label]))
        durations, detunings, theta_x, theta_y = self._round_draws(i // len(LAB_ROUND))
        if label == "oracle x(theta)":
            return Op(label, lambda: self._oracle(
                f"oracle x({theta_x:.6f})", gates.synth_x(theta_x, 0, p, one)))
        if label == "oracle y(theta)":
            return Op(label, lambda: self._oracle(
                f"oracle y({theta_y:.6f})", gates.synth_y(theta_y, 0, p, one)))
        schedules = []
        for lo, hi in zip(SET_SEGMENTS, SET_SEGMENTS[1:]):
            segments = tuple(
                propagator.PulseSegment(duration=float(durations[k]),
                                        detunings={0: float(detunings[k])})
                for k in range(lo, hi))
            schedules.append(propagator.PulseSchedule(
                segments=segments, b_ac=p.b_ac, system=one, frame="lab",
                carrier=carrier_frequency(p), hbar=p.constants.hbar,
                mu_b=p.constants.mu_b))
        return Op(label, lambda: self._random_set(schedules))

    def _frame_check(self, lab, rotating, lab_tol: float):
        u_lab = propagator.execute_schedule(lab, lab_tol=lab_tol).unitary
        u_rot = propagator.execute_schedule(rotating).unitary
        u_map = spin_model.frame_rotation(lab.total_duration, self.p, lab.system) @ u_lab
        infidelity = 1.0 - analysis.gate_fidelity(u_map, u_rot)
        return infidelity, float(np.abs(u_map - u_rot).max()), u_map

    def _random_set(self, schedules) -> Outcome:
        failures, parts = [], []
        for lab in schedules:
            rotating = lab.replace(frame="rotating", carrier=None)
            infidelity, _, u_map = self._frame_check(lab, rotating, RANDOM_LAB_TOL)
            parts += [u_map, infidelity]
            if not infidelity <= RANDOM_LAB_TOL:
                durs = ", ".join(f"{s.duration * 1e9:.4f}" for s in lab.segments)
                failures.append(f"random schedule [{durs}] ns: infidelity "
                                f"{infidelity:.3e} > {RANDOM_LAB_TOL}")
        return Outcome(tuple(failures), _digest(*parts))

    def _gate_lab(self, label: str, schedule) -> Outcome:
        lab = analysis.lab_realization(schedule, self.p)
        infidelity, norm, u_map = self._frame_check(lab, schedule, GATE_LAB_TOL)
        failures = []
        if not infidelity <= GATE_INFIDELITY_MAX:
            failures.append(f"{label}: infidelity {infidelity:.3e} > {GATE_INFIDELITY_MAX}")
        if not norm <= GATE_MAXNORM_MAX:
            failures.append(f"{label}: max-norm {norm:.3e} > {GATE_MAXNORM_MAX}")
        return Outcome(tuple(failures), _digest(u_map, infidelity, norm))

    def _oracle(self, label: str, schedule) -> Outcome:
        flip, fdev = analysis.frozen_nucleus_check(schedule, self.p)
        failures = []
        if not flip <= FLIP_MAX:
            failures.append(f"{label}: nuclear flip {flip:.3e} > {FLIP_MAX}")
        if not fdev <= FDEV_MAX:
            failures.append(f"{label}: electron deviation {fdev:.3e} > {FDEV_MAX}")
        return Outcome(tuple(failures), _digest(flip, fdev))


def make_workload(name: str, seed: int, workdir: str):
    if name == "compile":
        return CompileWorkload(seed)
    if name == "session":
        return SessionWorkload(seed, workdir)
    if name == "lab_verify":
        return LabVerifyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
