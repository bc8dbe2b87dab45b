"""Digest every result of one benchmark workload's op stream, one line per op.

    python benchmarks/digest.py compile 1 2 3 --ops 700
    python benchmarks/digest.py lab_verify 1 301 --ops 700
    python benchmarks/digest.py session 1 3 7 11 301 302 303 2024
    python benchmarks/digest.py session-warm 1 3
    python benchmarks/digest.py validate 7
    python benchmarks/digest.py gates 1 2 3
    python benchmarks/digest.py cli-gates 1 2
    python benchmarks/digest.py configs 7
    python benchmarks/digest.py configs-warm 7
    python benchmarks/digest.py sweep 1 2
    python benchmarks/digest.py cli-outputs 7

For each seed, builds the workload from `perfbench/workloads.py` (read, not
changed), runs its ops in order and prints one line per op:

    compile, lab_verify:  <seed> <index> <failures> <digest> <label>
    session, session-warm, validate:
                          <seed> <index> <exit code> <sha256 of its outputs> <label>
    gates:                <seed> <index> <sha256 of its fingerprint> <label>
    cli-gates, configs, configs-warm, sweep, cli-outputs:
                          <seed> <index> <exit code> <sha256 of its result> <label>

compile and lab_verify run their first N ops (--ops, default 700) and print
the op's own digest: for compile the executed unitary with its gate and
spectator fidelities; for lab_verify the frame-mapped lab unitaries with their
infidelities and max-norm errors, or the oracle's nuclear flip probability
and electron deviation.  session runs every command of its fixed list once
through `donorsim.cli.main` in a fresh temporary directory and hashes the
`--out` file followed by the `--trace` CSV, if the command writes one; it
takes no --ops.  Each seed starts from cleared memo tables (`_memo.clear()`),
so session is a cold run; session-warm replays the same list twice in one
process and prints only the second pass, whose every command can be answered
from the memo tables, so diffing the two shows a memo hit that writes other
bytes than a cold run.  validate is not a benchmark workload: it runs `donorsim
validate --seed <seed>` through `cli.main` once in text and once in json and
hashes each output file.  gates is not a workload either: it synthesizes
one seeded list of gate requests, every kind and every cnot mode with each
combination of extended_correction and x_conjugation (flags the compile
stream never sets), and hashes each schedule's segments and labels, its
dipole couplings, its declared target and its executed unitary, then its
`compile_gate` report (fidelity bits, step durations, notes) twice and once
more after `_memo.clear()`, so a memo that changed a grade would show.
cli-gates is not a workload either: it runs `donorsim gate` and `donorsim
schedule dump` through `cli.main` for every gate kind, every cnot mode setting
(none given, or each mode) and every subset of the gate options --theta,
--target, --control, --j-uev, --d-nm, --duration-ns, --extended-correction and
--interaction-step-ns, with option values drawn from the seed, and hashes each
run's exit code, its stderr and its stdout, so a change to which requests are
accepted, to an error message or to an output byte would show.  configs is
not a workload either: for each device config of a fixed list (the default,
a_min = 1.2e-26, a_min = 1.5e-26 and alignment = x) it runs `donorsim table`
I to VI, `validate --seed <seed>` and `schedule dump` of an x gate and a
dipole cnot through `cli.main` and hashes each run like cli-gates, so a
change that moves a non-default output would show, and on which config.
configs-warm runs the same list twice in one process and prints only the
second pass, as session-warm does, so diffing it against configs shows a memo
hit that writes other bytes than a cold run on any of the four devices, a
request that exits 2 included.
sweep is not a workload either: it runs `donorsim sweep` through `cli.main`
for every metric of `analysis.SWEEP_METRICS` and every field of
`analysis.SWEEP_FIELDS`, in text, csv and json, over seeded grids of the
field around its default whose points reach devices where synthesis is
infeasible or a value is out of range, and hashes each run like cli-gates.
cli-outputs is not a workload either: it runs `table`, `sweep`, `schedule
dump`, `schedule load`, `validate`, `gate` and `gate --trace` with `--seed
<seed>` through `cli.main` to each destination: stdout, a new `--out` file,
an existing longer `--out` file, `--out /dev/null` and an `--out` in a
missing directory, and `gate --trace` once more to each with a `--trace` in a
missing directory.  It hashes each run like cli-gates, with the temporary
directory's path masked in stderr, followed by whether each output file
exists and its bytes, so a change to how a command's outputs are opened,
written or left behind would show.
The package is imported from this checkout's `src`, so running the script in
two checkouts and diffing the results shows whether they compute and write
the same bits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from donorsim import _memo, analysis, cli, gates, propagator  # noqa: E402
from donorsim.params import DeviceParameters  # noqa: E402
from donorsim.spin_model import SpinSystem  # noqa: E402
from workloads import CompileWorkload, LabVerifyWorkload, SessionWorkload  # noqa: E402


def op_digests(workload_class, seed: int, ops: int):
    """Yield (index, failure count, digest hex, label) for each of the first ops ops."""
    workload = workload_class(seed)
    for idx in range(ops):
        op = workload.op(idx)
        outcome = op.run()
        yield idx, len(outcome.failures), outcome.digest.hex(), op.label


def validate_commands(seed: int, workdir: str) -> list:
    """(label, argv, outputs) of `donorsim validate` in text and in json."""
    commands = []
    for fmt in ("text", "json"):
        path = os.path.join(workdir, f"validate.{fmt}")
        commands.append((f"validate {fmt}", ["--format", fmt, "--seed", str(seed),
                                             "--out", path, "validate"], [path]))
    return commands


def cli_digests(make_commands, seed: int, passes: int = 1):
    """Yield (index, exit code, sha256 hex, label) for each command of
    make_commands(seed, workdir), run in order in a fresh temporary workdir
    from cleared memo tables; with passes > 1 the list is run that many times
    and only the last pass is yielded."""
    _memo.clear()
    with tempfile.TemporaryDirectory() as workdir:
        commands = make_commands(seed, workdir)
        for _ in range(passes - 1):
            for _, argv, _ in commands:
                cli.main(list(argv))
        for idx, (label, argv, outputs) in enumerate(commands):
            code = cli.main(list(argv))
            h = hashlib.sha256()
            for path in outputs:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            yield idx, code, h.hexdigest(), label


def gate_requests(seed: int):
    """Yield (label, spec, system or None) of the seeded gate requests, in a fixed order."""
    p = DeviceParameters()
    rng = np.random.default_rng([seed])
    j_table = gates.interaction_coupling(1e-11, p)

    def system(donors: int):
        return SpinSystem(donors) if rng.integers(2) else None

    for kind in ("x", "y", "z", "hadamard"):
        donors = int(rng.integers(1, 4))
        target = int(rng.integers(donors))
        theta = float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi)) if kind != "hadamard" else None
        spec = gates.GateSpec(kind, (target,), theta=theta)
        yield f"{kind} {target} theta={theta!r}", spec, system(donors)
    periods = int(rng.integers(4))
    spec = gates.GateSpec("idle", (0,), duration=periods * gates.spectator_period(p))
    yield f"idle {periods} periods", spec, system(1)
    donors = int(rng.integers(2, 4))
    pair = tuple(int(q) for q in rng.choice(donors, size=2, replace=False))
    j = float(rng.uniform(1.0, 10.0)) * j_table
    yield f"swap {pair} j={j!r}", gates.GateSpec("swap", pair, j=j), system(donors)
    for mode in ("exchange", "dipole", "combined"):
        for extended in (False, True):
            for x_conjugation in (True, False):
                donors = int(rng.integers(2, 4))
                control, target = (int(q) for q in rng.choice(donors, size=2, replace=False))
                j = None if mode == "dipole" else float(rng.uniform(1.0, 10.0)) * j_table
                d = None if mode == "exchange" else float(rng.uniform(20e-9, 40e-9))
                spec = gates.GateSpec("cnot", (control, target), mode=mode, j=j, d=d,
                                      extended_correction=extended,
                                      x_conjugation=x_conjugation)
                yield (f"cnot {mode} ({control}, {target}) j={j!r} d={d!r} "
                       f"extended_correction={extended} x_conjugation={x_conjugation}"), \
                    spec, system(donors)


def report_fingerprint(report) -> bytes:
    """The grade of a compile_gate report: fidelity bits, step durations, notes."""
    return repr((report.fidelity.hex(),
                 [(label, duration.hex()) for label, duration in report.step_durations],
                 report.notes)).encode()


def gate_digests(seed: int):
    """Yield (index, sha256 hex, label) of each seeded gate request's schedule
    and compile_gate reports."""
    p = DeviceParameters()
    for idx, (label, spec, system) in enumerate(gate_requests(seed)):
        sched = gates.synthesize(spec, p, system)
        h = hashlib.sha256()
        for seg in sched.segments:
            h.update(repr((seg.duration.hex(), [(q, v.hex()) for q, v in seg.detunings.items()],
                           [(pair, v.hex()) for pair, v in seg.couplings.items()],
                           seg.rf_on, seg.label)).encode())
        h.update(repr([(pair, v.hex()) for pair, v in sched.dipole.items()]).encode())
        h.update(repr((sched.system.num_donors, sched.system.include_nuclei)).encode())
        h.update(sched.declared_target.tobytes())
        h.update(propagator.execute_schedule(sched).unitary.tobytes())
        for _ in range(2):
            h.update(report_fingerprint(gates.compile_gate(spec, p, system)))
        _memo.clear()
        h.update(report_fingerprint(gates.compile_gate(spec, p, system)))
        yield idx, h.hexdigest(), f"n={sched.system.num_donors} {label}"


def gate_option_values(seed: int) -> dict:
    """The argv of each gate option, with its value drawn from the seed."""
    rng = np.random.default_rng([seed])
    period_ns = gates.spectator_period(DeviceParameters()) * 1e9
    return {
        "theta": ["--theta", repr(float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi)))],
        "target": ["--target", str(int(rng.integers(3)))],
        "control": ["--control", str(int(rng.integers(3)))],
        "j_uev": ["--j-uev", repr(float(rng.uniform(1.0, 100.0)))],
        "d_nm": ["--d-nm", repr(float(rng.uniform(20.0, 40.0)))],
        "duration_ns": ["--duration-ns", repr(int(rng.integers(4)) * period_ns)],
        "extended_correction": ["--extended-correction"],
        "interaction_step_ns": ["--interaction-step-ns", repr(float(rng.uniform(0.005, 0.05)))],
    }


def captured_run(argv: list, workdir: str | None = None, files=()) -> tuple[int, str]:
    """Exit code and sha256 hex of the exit code, stderr and stdout of
    cli.main(argv), then of whether each of files (relative to workdir)
    exists and its bytes; workdir reads as <workdir> in stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue().replace(workdir, "<workdir>") if workdir else err.getvalue()
    h = hashlib.sha256(f"{code}\n{stderr}".encode())
    h.update(out.getvalue().encode())
    for name in files:
        path = os.path.join(workdir, name)
        exists = os.path.exists(path)
        h.update(f"\n{name} {exists}\n".encode())
        if exists:
            with open(path, "rb") as fh:
                h.update(fh.read())
    return code, h.hexdigest()


def cli_gate_digests(seed: int):
    """Yield (index, exit code, sha256 hex, label) of `gate` and `schedule dump`
    over every kind, cnot mode setting and subset of the seeded gate options."""
    options = gate_option_values(seed)
    idx = 0
    # fixed lists, not gates.GATE_KINDS, so that two checkouts run the same grid
    for kind in ("x", "y", "z", "hadamard", "cnot", "swap", "idle"):
        for mode in (None, "exchange", "dipole", "combined"):
            for r in range(len(options) + 1):
                for given in itertools.combinations(options, r):
                    flags = ["--gate", kind] + (["--mode", mode] if mode else [])
                    flags += [arg for name in given for arg in options[name]]
                    for command in (["gate"], ["schedule", "dump"]):
                        code, digest = captured_run(command + flags)
                        yield idx, code, digest, " ".join(command + flags)
                        idx += 1


# device config files of the configs mode, "" for the default device
DEVICE_CONFIGS = ("", "a_min = 1.2e-26\n", "a_min = 1.5e-26\n", "alignment = x\n")


def config_digests(seed: int, passes: int = 1):
    """Yield (index, exit code, sha256 hex, label) of the tables, validate and
    two schedule dumps on each device config, from cleared memo tables; with
    passes > 1 the list is run that many times and only the last pass is yielded."""
    commands = [["table", which] for which in ("I", "II", "III", "IV", "V", "VI")]
    commands += [["--seed", str(seed), "validate"], ["schedule", "dump", "--gate", "x"],
                 ["schedule", "dump", "--gate", "cnot", "--mode", "dipole"]]
    _memo.clear()
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "device.cfg")
        for last in [False] * (passes - 1) + [True]:
            idx = 0
            for config in DEVICE_CONFIGS:
                with open(path, "w") as fh:
                    fh.write(config)
                flags = ["--config", path] if config else []
                for command in commands:
                    code, digest = captured_run(flags + command)
                    if last:
                        yield (idx, code, digest,
                               f"{config.strip() or 'default'}: {' '.join(command)}")
                    idx += 1


def sweep_grids(seed: int) -> dict:
    """field: its sweep grids, drawn from the seed as factors of the field's
    default: three points within [0.9, 1.1], then one point in each of
    [1/4, 1/2], [1/2, 2] and [2, 4], each its own grid, so a point that fails
    hides no other."""
    rng = np.random.default_rng([seed])
    p = DeviceParameters()
    bands = [(0.9, 1.1)] * 3 + [(0.25, 0.5), (0.5, 2.0), (2.0, 4.0)]
    grids = {}
    for field in analysis.SWEEP_FIELDS:
        values = [repr(getattr(p, field) * float(np.exp(rng.uniform(np.log(lo), np.log(hi)))))
                  for lo, hi in bands]
        grids[field] = [",".join(values[:3]), *values[3:]]
    return grids


def sweep_digests(seed: int):
    """Yield (index, exit code, sha256 hex, label) of `sweep` over every metric,
    field, seeded grid and output format, from cleared memo tables."""
    grids = sweep_grids(seed)
    _memo.clear()
    idx = 0
    for metric in sorted(analysis.SWEEP_METRICS):
        for field, field_grids in grids.items():
            for values in field_grids:
                for fmt in ("text", "csv", "json"):
                    argv = ["--format", fmt, "sweep", "--metric", metric,
                            "--param", f"{field}={values}"]
                    code, digest = captured_run(argv)
                    yield idx, code, digest, " ".join(argv)
                    idx += 1


# the commands of the cli-outputs mode; {sched} is an x gate's schedule file
# and {trace} the --trace path
OUTPUT_COMMANDS = {
    "table": ["table", "II"],
    "sweep": ["sweep", "--metric", "spectator_period_ns", "--param", "b_ac=0.0006,0.0012"],
    "schedule dump": ["schedule", "dump", "--gate", "cnot", "--mode", "dipole"],
    "schedule load": ["schedule", "load", "{sched}"],
    "validate": ["validate"],
    "gate": ["gate", "--gate", "x"],
    "gate --trace": ["gate", "--gate", "hadamard", "--trace", "{trace}"],
}

# destination: its --out relative to the workdir, None for stdout
OUTPUT_DESTINATIONS = {"stdout": None, "new file": "new.out", "longer file": "old.out",
                       "device": os.devnull, "missing directory": "missing/x.out"}

# every file a cli-outputs run may write, relative to the workdir
OUTPUT_FILES = ("new.out", "old.out", "trace.csv", "missing/x.out", "missing/t.csv")


def output_digests(seed: int):
    """Yield (index, exit code, sha256 hex, label) of each command of
    OUTPUT_COMMANDS to each destination, from cleared memo tables; before each
    run new.out and trace.csv do not exist and old.out is longer than any output."""
    runs = [(f"{name} > {dest}", name, dest, "trace.csv")
            for name in OUTPUT_COMMANDS for dest in OUTPUT_DESTINATIONS]
    runs += [(f"gate --trace missing/t.csv > {dest}", "gate --trace", dest, "missing/t.csv")
             for dest in OUTPUT_DESTINATIONS]
    _memo.clear()
    with tempfile.TemporaryDirectory() as workdir:
        sched = os.path.join(workdir, "x.sched")
        assert cli.main(["--out", sched, "schedule", "dump", "--gate", "x"]) == 0
        for idx, (label, name, dest, trace) in enumerate(runs):
            for stale in ("new.out", "trace.csv"):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(os.path.join(workdir, stale))
            with open(os.path.join(workdir, "old.out"), "wb") as fh:
                fh.write(b"#" * 200_000 + b"\n")
            argv = ["--seed", str(seed)]
            if OUTPUT_DESTINATIONS[dest]:
                argv += ["--out", os.path.join(workdir, OUTPUT_DESTINATIONS[dest])]
            argv += [a.format(sched=sched, trace=os.path.join(workdir, trace))
                     for a in OUTPUT_COMMANDS[name]]
            code, digest = captured_run(argv, workdir, OUTPUT_FILES)
            yield idx, code, digest, label


OP_WORKLOADS = {"compile": CompileWorkload, "lab_verify": LabVerifyWorkload}


def session_commands(seed: int, workdir: str) -> list:
    return SessionWorkload(seed, workdir).commands


# modes that hash each run's exit code, stderr and stdout
CAPTURED_MODES = {"cli-gates": cli_gate_digests, "configs": config_digests,
                  "configs-warm": lambda seed: config_digests(seed, passes=2),
                  "sweep": sweep_digests, "cli-outputs": output_digests}

# mode: (command list, passes per seed)
CLI_MODES = {"session": (session_commands, 1), "session-warm": (session_commands, 2),
             "validate": (validate_commands, 1)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("workload", choices=[*OP_WORKLOADS, *CLI_MODES, "gates",
                                             *CAPTURED_MODES])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--ops", type=int,
                        help="ops per seed, in the workload's order (default 700; "
                             "compile and lab_verify only)")
    args = parser.parse_args(argv)
    if args.workload not in OP_WORKLOADS and args.ops is not None:
        parser.error(f"--ops does not apply to {args.workload}: "
                     f"it runs its fixed list")
    if args.workload == "gates":
        for seed in args.seeds:
            for idx, digest, label in gate_digests(seed):
                print(f"{seed} {idx:02d} {digest} {label}")
        return 0
    if args.workload in CAPTURED_MODES:
        digests = CAPTURED_MODES[args.workload]
        for seed in args.seeds:
            for idx, code, digest, label in digests(seed):
                print(f"{seed} {idx:05d} {code} {digest} {label}")
        return 0
    if args.workload in CLI_MODES:
        make_commands, passes = CLI_MODES[args.workload]
        for seed in args.seeds:
            for idx, code, digest, label in cli_digests(make_commands, seed, passes):
                print(f"{seed} {idx:02d} {code} {digest} {label}")
        return 0
    ops = 700 if args.ops is None else args.ops
    if ops < 0:
        parser.error("--ops must be non-negative")
    for seed in args.seeds:
        for idx, failures, digest, label in op_digests(OP_WORKLOADS[args.workload], seed, ops):
            print(f"{seed} {idx:04d} {failures} {digest} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
