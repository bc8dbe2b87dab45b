"""Command-line front end: compile, simulate, verify and export.

Commands: gate, table, sweep, schedule (dump/load), validate.  Global flags
--config/--format/--seed/--out; every output embeds the resolved parameter set
so runs are auditable, and identical configs produce byte-identical output.
Each command computes its outputs and returns them; `main` writes them all
through `_write`.
"""

from __future__ import annotations

import argparse
import io
import json
import locale
import math
import os
import stat
import sys
from dataclasses import dataclass

from . import _memo, analysis, gates
from .params import _CONFIG_FIELDS, _UEV, DeviceParameters, load_device_parameters
from .propagator import (
    _MAX_KEPT_SAMPLES,
    _NotConverged,
    execute_schedule,
    schedule_from_text,
    schedule_to_text,
    trace_evolution,
    trace_to_csv,
)
from .spin_model import SpinSystem
from .validate import run_validation

__all__ = ["main", "RunConfig", "REFERENCE_TIMINGS_NS", "REFERENCE_TIMESCALES"]

# Published reference timings (ns) the synthesizer is validated against.
REFERENCE_TIMINGS_NS = {
    "II": [("step 1 (detuned revolution)", 14.8), ("step 2 (resonant rotation)", 14.8),
           ("overall X", 29.7)],
    "III": [("step 1 (y block)", 50.7), ("step 2 (correction)", 38.3),
            ("overall Y", 89.0)],
    "IV": [("step 1 (tilted pulse)", 10.5), ("step 2 (correction)", 19.2),
           ("overall Hadamard", 29.7)],
    "V": [("step 1 (hadamard)", 10.5), ("step 2 (resonant rotation)", 14.8),
          ("step 3 (hadamard)", 10.5), ("step 4 (correction)", 23.5),
          ("overall Z", 59.4)],
    "VI": [("step 1 (H x I)", 29.7), ("step 2 (interaction)", 0.01),
           ("step 3 (X x I)", 14.8), ("step 4 (interaction)", 0.01),
           ("step 5 (X x I)", 14.8), ("step 6 (pi/2 pair)", 7.4),
           ("step 7 (H x I)", 29.7), ("step 8 (correction)", 51.9),
           ("overall CNOT", 148.4)],
}

# scheme -> (T_X, T2/T_X, T_CNOT, T2/T_CNOT); None marks order-of-magnitude notes
REFERENCE_TIMESCALES = {
    "e-spin (local control)": (2e-6, 3e4, None, None),
    "e-spin (global control)": (30e-9, 2e6, 148e-9, 6e5),
}


@dataclass(frozen=True)
class RunConfig:
    device: DeviceParameters
    seed: int
    fmt: str

    def as_dict(self) -> dict:
        return {**{key: getattr(self.device, key) for key in _CONFIG_FIELDS},
                "seed": self.seed, "format": self.fmt}


def _open_outputs(paths: list[str]) -> list[int]:
    """Open every path for writing before any byte is written, or none.

    open(path, "w") empties an existing file as it opens it, which frees the
    file's blocks only for the write to allocate them again; these opens keep
    them, and _rewrite cuts the file once written.  A new file's mode and the
    error on a path that cannot be opened are open(path, "w")'s.  If a path
    cannot be opened, the files opened before it are closed unwritten and
    those this call created are removed.
    """
    fds, created = [], []
    try:
        for path in paths:
            try:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
            except FileExistsError:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
    except OSError:
        for fd in fds:
            os.close(fd)
        for path in created:
            os.unlink(path)
        raise
    return fds


def _rewrite(fd: int, text: str) -> None:
    """Write text over the file open at fd from its start, then close it.

    A regular file is cut where the written bytes end: after a complete write
    that leaves exactly the text, and after a write that raises, the partial
    file a truncating write leaves.  A device such as /dev/null is not cut.
    Only a process killed mid-write can leave the old file's tail behind.
    """
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _write(outputs: list[tuple[str | None, str]]) -> None:
    """Write each (path, text) of outputs in order, to stdout where path is None.

    Every path is opened before any byte is written, so a path that cannot be
    opened leaves stdout empty and every file as it was; a write that raises
    closes the files after it unwritten.
    """
    fds = iter(_open_outputs([path for path, _ in outputs if path]))
    try:
        for path, text in outputs:
            if path:
                _rewrite(next(fds), text)
            else:
                sys.stdout.write(text)
    finally:
        for fd in fds:
            os.close(fd)


def _fmt_num(x) -> str:
    if x is None:
        return "-"
    return f"{x:.12g}"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_fmt_num) + "\n"


def _audit_lines(cfg: RunConfig) -> str:
    return "".join(f"# {k} = {v}\n" for k, v in sorted(cfg.as_dict().items()))


def _render_rows(rows: list[dict], columns: list[str], cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        return _json({"config": cfg.as_dict(), "rows": rows})
    lines = [_audit_lines(cfg)]
    if cfg.fmt == "csv":
        lines.append(",".join(columns) + "\n")
        for row in rows:
            lines.append(",".join(_fmt_num(row.get(c)) if not isinstance(row.get(c), str)
                                  else row[c] for c in columns) + "\n")
    else:
        widths = [max(len(c), 14) for c in columns]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)) + "\n")
        for row in rows:
            cells = []
            for c, w in zip(columns, widths):
                val = row.get(c)
                cells.append((val if isinstance(val, str) else _fmt_num(val)).ljust(w))
            lines.append("  ".join(cells).rstrip() + "\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# rendered requests
# ---------------------------------------------------------------------------

@_memo.table
def _rendered(render, cfg: RunConfig, zero_signs: tuple, *request) -> tuple:
    """render(cfg, *request): the exit code and output texts of one `table` or
    `gate` request, computed once per key while the table holds it; an error
    raised while rendering is not kept, so it raises again on every call.

    zero_signs, the sign of each zero float that reaches the output, only keys
    the entry: -0.0 == 0.0, in a float and in a GateSpec, so two requests that
    print differently would share it.  No output path is part of a key: main
    writes every output on every call.
    """
    return render(cfg, *request)


def _request(render, cfg: RunConfig, floats: tuple, *request, keep: bool = True) -> tuple:
    """_rendered(render, cfg, ...) keyed on the sign of each zero among floats
    (the request's floats that reach the output, None for one not given) and
    the config's a0 and a_min; with keep False it is rendered without being kept."""
    signs = tuple(math.copysign(1.0, v)
                  for v in (cfg.device.a0, cfg.device.a_min, *floats) if v == 0.0)
    return (_rendered if keep else _rendered.__wrapped__)(render, cfg, signs, *request)


# ---------------------------------------------------------------------------
# gate command
# ---------------------------------------------------------------------------

# Each gate option and the gates.GATE_KINDS field it sets, in the order they are checked.
_GATE_OPTIONS = {"theta": "theta", "target": "target", "control": "control", "mode": "mode",
                 "j_uev": "j", "d_nm": "d", "extended_correction": "extended_correction",
                 "duration_ns": "duration", "interaction_step_ns": "interaction_step"}


def _build_spec(args, p: DeviceParameters) -> gates.GateSpec:
    """The requested GateSpec, taking gates.GATE_KINDS' defaults for used fields not
    given; an option the gate would ignore is an error with the reason."""
    row = gates.GATE_KINDS[args.gate]
    mode, uses, what = row.usage(args.gate, args.mode)
    if args.j_uev is not None:
        uses = set(uses) - {"interaction_step"}  # a given J is not picked from a step
    value = dict(row.defaults)
    for option, name in _GATE_OPTIONS.items():
        if getattr(args, option) is not None:
            if name not in uses:
                raise ValueError(f"--{option.replace('_', '-')} does not apply to {what}: "
                                 f"{gates.UNUSED_REASONS[name]}")
            value[name] = getattr(args, option)
    if args.target is None and value.get("control") == value["target"]:
        value["target"] = row.defaults["control"]
    j = d = duration = None
    if "j" in uses:
        j = (args.j_uev * _UEV if args.j_uev is not None
             else gates.interaction_coupling(value["interaction_step"] * 1e-9, p))
    if "d" in uses:
        d = args.d_nm * 1e-9 if args.d_nm is not None else p.d
    if "duration" in uses:
        duration = value["duration"] * 1e-9
    return gates.GateSpec(args.gate, tuple(value[name] for name in row.targets),
                          theta=value.get("theta"), mode=mode, j=j, d=d, duration=duration,
                          extended_correction=bool(args.extended_correction))


def _requested_system(args) -> SpinSystem | None:
    """The --qubits system, or None for the gate's default one."""
    return None if args.qubits is None else SpinSystem(num_donors=args.qubits)


def _cmd_gate(args, cfg: RunConfig) -> tuple:
    if not math.isfinite(args.threshold):
        raise ValueError(f"threshold must be finite, got {args.threshold}")
    if not args.trace:
        for name in ("initial", "samples"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} does not apply without --trace: "
                                 f"only the population trace uses it")
    spec = _build_spec(args, cfg.device)
    request = (spec, _requested_system(args), args.threshold)
    floats = (spec.theta, args.threshold)
    if not args.trace:
        return _request(_gate_outputs, cfg, floats, *request, None)
    samples = 1000 if args.samples is None else args.samples
    # a trace the `_trace` table would not keep is not kept here either
    code, report, csv = _request(_gate_outputs, cfg, floats, *request, (args.initial, samples),
                                 keep=samples <= _MAX_KEPT_SAMPLES)
    return code, report, (args.trace, csv)


def _gate_outputs(cfg: RunConfig, spec: gates.GateSpec, system: SpinSystem | None,
                  threshold: float, trace: tuple | None) -> tuple:
    """(exit code, JSON report) of one gate request; with trace, its (initial
    label or None, samples), the population-trace CSV is a third item."""
    report = gates.compile_gate(spec, cfg.device, system=system)
    payload = {
        "config": cfg.as_dict(),
        "gate": {"kind": spec.kind, "targets": list(spec.targets), "theta": spec.theta,
                 "mode": spec.mode, "j_uev": None if spec.j is None else spec.j / _UEV,
                 "d_nm": None if spec.d is None else spec.d * 1e9},
        "fidelity": report.fidelity,
        "threshold": threshold,
        "passed": bool(report.fidelity >= threshold),
        "total_duration_ns": report.schedule.total_duration * 1e9,
        "steps": [{"label": lab, "duration_ns": dur * 1e9}
                  for lab, dur in report.step_durations],
        "notes": report.notes,
    }
    code = 0 if payload["passed"] else 1
    if trace is None:
        return code, _json(payload)
    initial, samples = trace
    evolution = trace_evolution(report.schedule,
                                initial or "0" * report.schedule.system.num_sites,
                                samples=samples)
    csv = io.StringIO()
    trace_to_csv(evolution, csv, header=cfg.as_dict())
    return code, _json(payload), csv.getvalue()


# ---------------------------------------------------------------------------
# table command
# ---------------------------------------------------------------------------

def _table_rows(which: str, p: DeviceParameters) -> tuple[list[dict], list[str]]:
    if which == "I":
        rows = []
        for row in analysis.timescale_table(p):
            ref = REFERENCE_TIMESCALES[row.scheme]
            rows.append({
                "scheme": row.scheme,
                "t_x": _fmt_num(row.t_x), "t_x_ref": _fmt_num(ref[0]),
                "t2_over_tx": _fmt_num(row.t2_over_tx), "t2_over_tx_ref": _fmt_num(ref[1]),
                "t_cnot": _fmt_num(row.t_cnot) if row.t_cnot else "O(10 us)",
                "t_cnot_ref": _fmt_num(ref[2]) if ref[2] else "O(10 us)",
                "t2_over_tcnot": _fmt_num(row.t2_over_tcnot) if row.t2_over_tcnot else "O(1e3)",
                "t2_over_tcnot_ref": _fmt_num(ref[3]) if ref[3] else "O(1e3)",
            })
        cols = ["scheme", "t_x", "t_x_ref", "t2_over_tx", "t2_over_tx_ref",
                "t_cnot", "t_cnot_ref", "t2_over_tcnot", "t2_over_tcnot_ref"]
        return rows, cols

    spec_of, step_of = gates.TABLE_GATES[which]
    sched = gates.synthesize(spec_of(p), p)
    steps: dict = {}
    for i, seg in enumerate(sched.segments):
        key = step_of(i, seg.label)
        steps[key] = steps.get(key, 0.0) + seg.duration
    refs = REFERENCE_TIMINGS_NS[which]
    if len(steps) + 1 != len(refs):
        raise ValueError(f"table {which}: the gate has {len(steps)} steps, "
                         f"the published table {len(refs) - 1}")
    values_ns = [s * 1e9 for s in steps.values()] + [sched.total_duration * 1e9]
    rows = [{"step": label, "computed_ns": val, "reference_ns": ref,
             "rel_dev": abs(val - ref) / ref} for (label, ref), val in zip(refs, values_ns)]
    return rows, ["step", "computed_ns", "reference_ns", "rel_dev"]


def _table_outputs(cfg: RunConfig, which: str) -> tuple:
    return 0, _render_rows(*_table_rows(which, cfg.device), cfg)


def _cmd_table(args, cfg: RunConfig) -> tuple:
    return _request(_table_outputs, cfg, (), args.which)


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def _cmd_sweep(args, cfg: RunConfig) -> tuple:
    grid = {}
    for item in args.param:
        key, _, values = item.partition("=")
        if not values:
            raise ValueError(f"bad --param {item!r}; expected name=v1,v2,...")
        if key in grid:
            raise ValueError(f"--param {key} given more than once")
        grid[key] = [float(v) for v in values.split(",")]
    rows = analysis.sweep(grid, args.metric, cfg.device)
    return 0, _render_rows(rows, list(grid.keys()) + [args.metric], cfg)


# ---------------------------------------------------------------------------
# schedule command
# ---------------------------------------------------------------------------

def _cmd_schedule(args, cfg: RunConfig) -> tuple:
    p = cfg.device
    if args.action == "dump":
        spec = _build_spec(args, p)
        sched = gates.synthesize(spec, p, _requested_system(args))
        return 0, _audit_lines(cfg) + schedule_to_text(sched, p)
    with open(args.file) as fh:
        sched = schedule_from_text(fh.read(), p)
    result = execute_schedule(sched)
    payload = {
        "config": cfg.as_dict(),
        "segments": [{"label": seg.label, "duration_ns": seg.duration * 1e9}
                     for seg in sched.segments],
        "total_duration_ns": result.duration * 1e9,
        "unitarity_deviation": analysis._unitarity_deviation(result.unitary),
    }
    return 0, _json(payload)


def _cmd_validate(args, cfg: RunConfig) -> tuple:
    results = run_validation(cfg.device, seed=cfg.seed)
    lines = [_audit_lines(cfg)]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0, "".join(lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_gate_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gate", required=True, choices=list(gates.GATE_KINDS))
    sub.add_argument("--theta", type=float, help="rotation angle in rad (default pi)")
    sub.add_argument("--target", type=int, help="target qubit index (default 0)")
    sub.add_argument("--control", type=int, help="control qubit for cnot (default 0)")
    sub.add_argument("--mode", choices=list(dict.fromkeys(
        mode for row in gates.GATE_KINDS.values() for mode in row.modes if mode)))
    sub.add_argument("--j-uev", type=float, help="exchange coupling in ueV")
    sub.add_argument("--d-nm", type=float, help="donor separation in nm")
    sub.add_argument("--interaction-step-ns", type=float,
                     help="interaction step used to pick J when --j-uev is absent "
                          "(default 0.01)")
    sub.add_argument("--duration-ns", type=float, help="idle duration (default 0)")
    sub.add_argument("--qubits", type=int, help="system size (default: targets only)")
    sub.add_argument("--extended-correction", action="store_true", default=None,
                     help="add one extra spectator wrap to the final cnot correction")


@_memo.table
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.

    Reuse is safe: parse_args returns a fresh Namespace on every call and no
    argument has a mutable default (--param appends to a new list).
    """
    parser = argparse.ArgumentParser(
        prog="donorsim",
        description="Pulse compiler and simulator for globally controlled "
                    "donor electron-spin qubits.",
    )
    parser.add_argument("--config", help="device parameter file (flat key = value)")
    parser.add_argument("--format", default="text", choices=["text", "csv", "json"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", help="output path (default stdout)")
    subs = parser.add_subparsers(dest="command", required=True)

    gate = subs.add_parser("gate", help="synthesize, simulate and grade one gate")
    _add_gate_flags(gate)
    gate.add_argument("--threshold", type=float, default=1.0 - 1e-4)
    gate.add_argument("--trace", help="write a population-trace CSV here")
    gate.add_argument("--initial", help="initial basis label for the trace")
    gate.add_argument("--samples", type=int, help="trace samples (default 1000)")
    gate.set_defaults(func=_cmd_gate)

    table = subs.add_parser("table", help="regenerate a reference timing table")
    table.add_argument("which", choices=["I", "II", "III", "IV", "V", "VI"])
    table.set_defaults(func=_cmd_table)

    sweep_p = subs.add_parser("sweep", help="evaluate a metric over a parameter grid")
    sweep_p.add_argument("--metric", required=True, choices=sorted(analysis.SWEEP_METRICS))
    sweep_p.add_argument("--param", action="append", required=True,
                         metavar="name=v1,v2,...")
    sweep_p.set_defaults(func=_cmd_sweep)

    sched = subs.add_parser("schedule", help="dump or load schedule files")
    sched_sub = sched.add_subparsers(dest="action", required=True)
    dump = sched_sub.add_parser("dump", help="synthesize a gate and write its schedule")
    _add_gate_flags(dump)
    dump.set_defaults(func=_cmd_schedule, action="dump")
    load = sched_sub.add_parser("load", help="load a schedule file and execute it")
    load.add_argument("file")
    load.set_defaults(func=_cmd_schedule, action="load")

    val = subs.add_parser("validate", help="run the full invariant suite")
    val.set_defaults(func=_cmd_validate)
    return parser


# the device of every request without --config, built once per process: it is
# frozen, and each memo key that holds it then compares it by identity first
_DEFAULT_DEVICE = DeviceParameters()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the one place where bad input (files, values, infeasible or unsupported
    # requests, a schedule whose refinement does not converge) becomes a
    # one-line message and exit code 2; InfeasibleDetuningError is a ValueError
    try:
        if args.config:
            with open(args.config) as fh:
                device = load_device_parameters(fh.read())
        else:
            device = _DEFAULT_DEVICE
        code, text, *extra = args.func(args, RunConfig(device, args.seed, args.format))
        _write([(args.out, text), *extra])
        return code
    except (OSError, ValueError, NotImplementedError, _NotConverged) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
