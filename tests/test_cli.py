import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import re
import stat
import time

import pytest
from hypothesis import given, settings, strategies as st

from _reference import mp50, mp_table_durations
from donorsim import _memo, cli, validate
from donorsim.cli import REFERENCE_TIMINGS_NS, _build_spec, build_parser, main
from donorsim.gates import GATE_KINDS, interaction_coupling
from donorsim.params import _UEV, DeviceParameters


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gate_x_identity(capsys):
    code, out = run_cli(capsys, "gate", "--gate", "x", "--theta", "0")
    payload = json.loads(out)
    assert code == 0
    assert payload["total_duration_ns"] == 0.0
    assert payload["steps"] == []
    assert payload["fidelity"] == 1.0


def test_gate_cnot_modes(capsys):
    code, out = run_cli(capsys, "gate", "--gate", "cnot", "--mode", "exchange")
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert payload["total_duration_ns"] == pytest.approx(118.8, rel=0.01)
    code, out = run_cli(capsys, "gate", "--gate", "cnot", "--mode", "exchange",
                        "--extended-correction")
    payload = json.loads(out)
    assert payload["total_duration_ns"] == pytest.approx(148.4, rel=0.01)
    assert payload["steps"][-1]["duration_ns"] == pytest.approx(51.9, rel=0.01)


def test_gate_report_embeds_config(capsys):
    code, out = run_cli(capsys, "gate", "--gate", "hadamard")
    payload = json.loads(out)
    assert payload["config"]["b_ac"] == 1.2e-3
    assert payload["config"]["seed"] == 7


def test_gate_trace(tmp_path, capsys):
    trace = tmp_path / "h.csv"
    code, _ = run_cli(capsys, "gate", "--gate", "hadamard", "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("time_ns")][0]
    assert header == "time_ns,pop_0,pop_1"
    final = lines[-1].split(",")
    assert float(final[2]) == pytest.approx(0.5, abs=1e-9)


def test_requests_without_config_share_one_device(tmp_path, monkeypatch, capsys):
    """Every request without --config gets the one default device built per
    process; each --config request gets a device of its own, even an equal one."""
    devices = []
    monkeypatch.setattr(cli, "_rendered",
                        lambda render, cfg, signs, *request: devices.append(cfg.device)
                        or (0, ""))
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("")
    for argv in (["table", "II"], ["--format", "json", "table", "III"],
                 ["--config", str(cfgfile), "table", "II"],
                 ["--config", str(cfgfile), "table", "II"]):
        assert main(argv) == 0
    assert devices[0] is devices[1] and devices[0] == DeviceParameters()
    assert devices[2] == devices[0] and devices[2] is not devices[0]
    assert devices[3] is not devices[2]


def test_gate_infeasible_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("a_min = 1.938e-26\n")
    code = main(["--config", str(cfgfile), "gate", "--gate", "hadamard"])
    assert code == 2
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("which,total_ref", [("II", 29.7), ("IV", 29.7), ("V", 59.4)])
def test_tables_within_one_percent(capsys, which, total_ref):
    code, out = run_cli(capsys, "--format", "json", "table", which)
    payload = json.loads(out)
    assert code == 0
    for row in payload["rows"]:
        assert float(row["rel_dev"]) <= 0.01
    assert float(payload["rows"][-1]["reference_ns"]) == total_ref


@pytest.mark.parametrize("a_min,which,steps_ns,total_ns", [
    # X(pi) in two sub-steps of two segments each
    ("1.2e-26", "II", [2 * 22.328038, 2 * 7.4426794], 59.541435),
    # Y(pi) in two blocks of four segments, then the correction
    ("1.5e-26", "III", [4 * 13.752278 + 4 * 14.885359, 93.844474], 208.39502),
])
def test_tables_sum_sub_steps(tmp_path, capsys, a_min, which, steps_ns, total_ns):
    """A published step split into sub-steps sums them; the overall row is
    the gate's whole duration."""
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text(f"a_min = {a_min}\n")
    code, out = run_cli(capsys, "--config", str(cfgfile), "--format", "json", "table", which)
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == len(steps_ns) + 1
    values = [float(row["computed_ns"]) for row in rows]
    assert values == pytest.approx(steps_ns + [total_ns], rel=1e-7)
    assert sum(values[:-1]) == pytest.approx(values[-1], rel=1e-12)


def test_cnot_splits_x_on_a_weak_device(tmp_path, capsys):
    """Where the one-step X(pi) on the control needs more detuning than the
    device has, the CNOT builds it from the sub-steps an X gate uses: Tables I
    and VI print, and every cnot mode passes the default threshold."""
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("a_min = 1.2e-26\n")
    cfg = ("--config", str(cfgfile))
    code, out = run_cli(capsys, *cfg, "--format", "json", "table", "VI")
    rows = json.loads(out)["rows"]
    assert code == 0
    # steps 3 and 5: X(pi) in two sub-steps, each a whole spectator period
    values = [float(row["computed_ns"]) for row in rows]
    assert [values[2], values[4], values[-1]] == pytest.approx([59.541435, 59.541435, 238.16574],
                                                               rel=1e-7)
    code, out = run_cli(capsys, *cfg, "table", "I")
    assert code == 0
    for mode in ("exchange", "dipole", "combined"):
        code, out = run_cli(capsys, *cfg, "gate", "--gate", "cnot", "--mode", mode)
        assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("args,segments,total_ns,fidelity", [
    (["--gate", "hadamard"], 11, 267.93645777, 1.0),
    (["--gate", "z"], 22, 357.24861036, 1.0),
    (["--gate", "cnot", "--mode", "exchange"], 38, 774.03865578, 0.99999554569),
    (["--gate", "cnot", "--mode", "dipole"], 38, 231903.18057, 0.99998824454),
    (["--gate", "cnot", "--mode", "combined", "--d-nm", "30"], 38, 774.05865578, 0.99999897412),
])
def test_hadamard_splits_on_a_weak_device(tmp_path, capsys, args, segments, total_ns, fidelity):
    """Where the one-pulse Hadamard needs more detuning than the device has,
    it runs as Y(pi/2) then X(pi): the Hadamard, Z and every CNOT mode pass
    the default threshold."""
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("a_min = 1.5e-26\n")
    code, out = run_cli(capsys, "--config", str(cfgfile), "gate", *args)
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert len(payload["steps"]) == segments
    assert payload["total_duration_ns"] == pytest.approx(total_ns, rel=1e-9)
    assert payload["fidelity"] == pytest.approx(fidelity, abs=1e-11)
    if args[1] == "cnot":
        labels = [step["label"] for step in payload["steps"]]
        for step in (1, 7):
            hadamard = [label for label in labels if label.startswith(f"step {step} ")]
            assert hadamard == [f"step {step} hadamard pulse"] * 10 + [
                f"step {step} hadamard correction"]


@pytest.mark.parametrize("which,steps", [("IV", 11), ("V", 22)])
def test_one_pulse_tables_reject_the_split_hadamard(tmp_path, capsys, which, steps):
    """Tables IV and V time the one-pulse Hadamard, so a device that needs
    the split one has more steps than the published table."""
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("a_min = 1.5e-26\n")
    assert main(["--config", str(cfgfile), "table", which]) == 2
    published = len(REFERENCE_TIMINGS_NS[which]) - 1
    assert capsys.readouterr().err == (f"table failed: table {which}: the gate has {steps} "
                                       f"steps, the published table {published}\n")


@pytest.mark.parametrize("kind,theta,a_min,steps", [("x", "6", "1.9378062e-26", 15679048),
                                                     ("y", "1", "1.937999999998062e-26",
                                                      72039264177)],
                         ids=["x_at_0.9999_a0", "y_at_1-1e-12_a0"])
def test_split_rotation_past_the_cap_exits_2_at_once(tmp_path, capsys, kind, theta, a_min, steps):
    """A tuning range so narrow that X or Y would split into more than 2**16
    sub-steps is refused before a segment is built (X(6) at a_min = 0.9999 a0
    would have 3.1e7 segments)."""
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text(f"a_min = {a_min}\n")
    start = time.perf_counter()
    assert main(["--config", str(cfgfile), "gate", "--gate", kind, "--theta", theta]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (f"gate failed: {kind.upper()}({theta}) needs {steps} "
                                       f"sub-steps on this device's tuning range, more than "
                                       f"the cap of 65536\n")


@pytest.mark.parametrize("a_min", [None, "1.2e-26", "1.5e-26"])
def test_table_one_times_the_gates_of_tables_two_and_six(tmp_path, capsys, a_min):
    """Table I's global t_x and t_cnot are the overall rows of Tables II and VI."""
    cfg = ()
    if a_min is not None:
        cfgfile = tmp_path / "dev.cfg"
        cfgfile.write_text(f"a_min = {a_min}\n")
        cfg = ("--config", str(cfgfile))
    rows = {}
    for which in ("I", "II", "VI"):
        code, out = run_cli(capsys, *cfg, "--format", "json", "table", which)
        assert code == 0
        rows[which] = json.loads(out)["rows"]
    (glob,) = [row for row in rows["I"] if row["scheme"] == "e-spin (global control)"]
    assert float(glob["t_x"]) * 1e9 == pytest.approx(rows["II"][-1]["computed_ns"], rel=1e-11)
    assert float(glob["t_cnot"]) * 1e9 == pytest.approx(rows["VI"][-1]["computed_ns"],
                                                        rel=1e-11)


def test_table_one(capsys):
    code, out = run_cli(capsys, "--format", "json", "table", "I")
    payload = json.loads(out)
    assert code == 0
    schemes = [r["scheme"] for r in payload["rows"]]
    assert schemes == ["e-spin (local control)", "e-spin (global control)"]


def test_table_six_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "table", "VI")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "step,computed_ns,reference_ns,rel_dev"
    assert len(rows) == 1 + 9


# the largest relative error of a table's computed_ns against its 50-digit
# closed form, as measured (at most 1.3 ulp)
_TABLE_ERRORS = {"II": 3.0e-17, "III": 1.1e-16, "IV": 1.3e-16, "V": 1.7e-16, "VI": 1.8e-16}


@pytest.mark.parametrize("which", sorted(_TABLE_ERRORS))
def test_table_durations_against_mpmath(capsys, p, which):
    """Each step and total of Tables II-VI on the default device agrees with
    its closed form in terms of the spectator period, at 50 digits."""
    exact = mp_table_durations(mp50(), p, interaction_coupling(1e-11, p))[which]
    code, out = run_cli(capsys, "--format", "json", "table", which)
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == len(exact)
    for row, want in zip(rows, exact):
        want_ns = want * 10**9
        assert abs(row["computed_ns"] - want_ns) / want_ns <= _TABLE_ERRORS[which], row["step"]


def test_outputs_deterministic(capsys):
    _, out1 = run_cli(capsys, "--format", "csv", "table", "II")
    _, out2 = run_cli(capsys, "--format", "csv", "table", "II")
    assert out1 == out2
    _, g1 = run_cli(capsys, "gate", "--gate", "y", "--theta", "1.0")
    _, g2 = run_cli(capsys, "gate", "--gate", "y", "--theta", "1.0")
    assert g1 == g2


def test_sweep_command(capsys):
    code, out = run_cli(capsys, "--format", "json", "sweep",
                        "--metric", "spectator_period_ns",
                        "--param", "b_ac=0.0006,0.0012")
    payload = json.loads(out)
    assert code == 0
    vals = [float(r["spectator_period_ns"]) for r in payload["rows"]]
    assert vals[0] == pytest.approx(2 * vals[1], rel=1e-12)


@pytest.mark.parametrize("param", ["a_min=1.6666918461074218e-26",
                                   "b_ac=0.0034850460491305853"])
def test_sweep_times_the_split_hadamard_past_four_correction_wraps(capsys, param):
    """Devices whose split Hadamard's correction first fits past four wraps
    time it, as they time the Z gate."""
    for metric in ("hadamard_ns", "z_gate_ns"):
        code, out = run_cli(capsys, "--format", "json", "sweep", "--metric", metric,
                            "--param", param)
        assert code == 0, metric
        assert json.loads(out)["rows"][0][metric] > 0.0


@pytest.mark.parametrize("config", ["", "a_min = 1.2e-26\nb_ac = 1.1e-3\n"])
def test_gate_config_block_reruns_byte_identically(tmp_path, capsys, config):
    """The device keys of a gate report's config block, written back as a
    --config file, reproduce the report byte for byte: runs are auditable."""
    from donorsim.params import _CONFIG_FIELDS

    first_cfg = tmp_path / "first.cfg"
    first_cfg.write_text(config)
    argv = ["--format", "json", "gate", "--gate", "hadamard"]
    code, out = run_cli(capsys, "--config", str(first_cfg), *argv)
    assert code == 0
    block = json.loads(out)["config"]
    audit = tmp_path / "audit.cfg"
    audit.write_text("".join(f"{key} = {block[key]}\n" for key in _CONFIG_FIELDS))
    code, again = run_cli(capsys, "--config", str(audit), *argv)
    assert code == 0 and again == out


def test_schedule_dump_and_load(tmp_path, capsys):
    path = tmp_path / "x.sched"
    code, out = run_cli(capsys, "--out", str(path), "schedule", "dump",
                        "--gate", "x", "--theta", str(math.pi))
    assert code == 0
    text = path.read_text()
    assert "segment duration_ns=" in text
    code, out = run_cli(capsys, "schedule", "load", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["total_duration_ns"] == pytest.approx(29.7707, rel=1e-4)
    assert float(payload["unitarity_deviation"]) <= 1e-12


def test_validate_command(capsys):
    code, out = run_cli(capsys, "validate")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_validate_reports_a_crashing_check_and_runs_the_rest(capsys, monkeypatch):
    """A check that raises is a FAIL line naming the exception, the checks
    after it still run, and validate exits 1."""
    def crash(p, rng):
        raise ValueError("no such invariant")

    checks = [validate.CHECKS[0], ("test.crash", crash), validate.CHECKS[1]]
    monkeypatch.setattr(validate, "CHECKS", checks)
    code, out = run_cli(capsys, "validate")
    assert code == 1
    results = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert [line.split(":")[0] for line in results] == [
        f"PASS {checks[0][0]}", "FAIL test.crash", f"PASS {checks[2][0]}"]
    assert "FAIL test.crash: ValueError: no such invariant" in results
    assert out.endswith("\n2/3 checks passed\n")


def test_validate_high_drive_decomposes(tmp_path, capsys):
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("b_ac = 5e-3\n")
    code, out = run_cli(capsys, "--config", str(cfgfile), "validate")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("axis", ["x", "y"])
def test_validate_passes_on_misaligned_devices(tmp_path, capsys, axis):
    """A device whose donors are not z-aligned refuses dipole-coupled gates,
    and validate counts that refusal as a pass.  The Hamiltonian builders
    check builds the z-form pair on any device: the refusal is the gate's."""
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text(f"alignment = {axis}\n")
    code, out = run_cli(capsys, "--config", str(cfgfile), "validate")
    assert code == 0
    assert out.endswith("23/23 checks passed\n")
    assert out.count("correctly rejected as misaligned") == 1
    assert ("PASS gates.dipole_refocus: correctly rejected as misaligned: "
            "dipole-coupled gates need z-aligned donors\n") in out
    assert "PASS spin_model.hermitian_builders: 8 builders Hermitian to 1e-12 relative\n" in out


def test_validate_rejects_a_negative_seed(capsys):
    assert main(["--seed", "-1", "validate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validate failed: seed must be a non-negative integer, got -1\n"
    # the other commands draw no random numbers and take any seed
    code, out = run_cli(capsys, "--seed", "-1", "--format", "json", "table", "II")
    assert code == 0 and json.loads(out)["config"]["seed"] == -1


def test_validate_zero_range_rejections(tmp_path, capsys):
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("a_min = 1.938e-26\n")
    code, out = run_cli(capsys, "--config", str(cfgfile), "validate")
    assert code == 0
    assert "correctly rejected" in out


_SCHEDULE_HEADER = "# donorsim schedule v1\nnum_donors = 1\n"


@pytest.mark.parametrize("argv,files,message", [
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment a_over_a0=0:0.9 rf=on\n"}, "line 3",
                 id="missing_duration"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 a_over_a0=0:0.1 rf=on\n"},
                 "exceeds", id="a_out_of_range"),
    pytest.param(["schedule", "load", "{tmp}/absent.sched"], {}, "absent.sched",
                 id="missing_file"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "frame = lab\nnum_donors = 1\nsegment duration_ns=1000000 "
                             "a_over_a0=0:0.9 rf=on label='long'\n"},
                 "schedule failed: lab-frame integration did not converge to 1e-09",
                 id="lab_refinement_does_not_converge"),
    pytest.param(["--config", "{tmp}/dev.cfg", "table", "II"], {"dev.cfg": "b_ac = abc\n"},
                 "b_ac", id="non_numeric_config"),
    # mu_B * b_ac underflows to 0.0 (or a subnormal), which the gate builders divided by
    *(pytest.param(["--config", "{tmp}/dev.cfg", *argv], {"dev.cfg": "b_ac = 1e-320\n"},
                   f"{argv[0]} failed: b_ac = 1e-320 T is out of range: its drive energy "
                   f"mu_B * b_ac = 0.0 J is not a normal positive float",
                   id=f"underflowing_b_ac_{name}")
      for name, argv in [("x", ["gate", "--gate", "x"]), ("y", ["gate", "--gate", "y"]),
                         ("z", ["gate", "--gate", "z"]),
                         ("hadamard", ["gate", "--gate", "hadamard"]),
                         ("combined_cnot", ["gate", "--gate", "cnot", "--mode", "combined"]),
                         ("table_I", ["table", "I"])]),
    pytest.param(["--config", "{tmp}/dev.cfg", "gate", "--gate", "x"],
                 {"dev.cfg": "b_ac = 1e-300\n"},
                 "mu_B * b_ac = 1e-323 J is not a normal positive float", id="subnormal_b_ac"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\nalignment = x\ndipole_uev = 0-1:0.01\n"
                             "segment duration_ns=1 rf=on\n"},
                 "schedule failed: line 3: dipole coupling requires z alignment, "
                 "got alignment = x", id="x_aligned_dipole"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "frame = lab\nnum_donors = 2\nalignment = x\n"
                             "dipole_uev = 0-1:0.01\nsegment duration_ns=1 rf=on\n"},
                 "schedule failed: line 4: dipole coupling requires z alignment, "
                 "got alignment = x", id="x_aligned_lab_dipole"),
    pytest.param(["sweep", "--metric", "spectator_period_ns", "--param", "b_ac=abc"], {},
                 "'abc'", id="non_numeric_sweep"),
    pytest.param(["sweep", "--metric", "x_gate_ns", "--param", "b_ac"], {},
                 "sweep failed: bad --param 'b_ac'; expected name=v1,v2,...",
                 id="sweep_param_without_values"),
    pytest.param(["sweep", "--metric", "x_gate_ns", "--param", "b_ac=1e-3",
                  "--param", "b_ac=2e-3"], {},
                 "sweep failed: --param b_ac given more than once", id="sweep_param_repeated"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1e300 rf=on\n"},
                 "schedule failed: duration 1.0000000000000001e+291 s is too long",
                 id="load_non_finite_phase"),
    pytest.param(["gate", "--gate", "idle", "--duration-ns", "1e300"], {},
                 "gate failed: duration 1.0000000000000001e+291 s is too long",
                 id="idle_non_finite_phase"),
    # finite phases far past 2**33 rad, in lab free precession and in the rotating frame
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "frame = lab\nsegment duration_ns=1e300 rf=off\n"},
                 "schedule failed: duration 1.0000000000000001e+291 s is too long: "
                 "its propagator phase exceeds 2**33 rad", id="load_lab_huge_phase"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1e259 rf=on\n"},
                 "schedule failed: duration 1e+250 s is too long: "
                 "its propagator phase exceeds 2**33 rad", id="load_rotating_huge_phase"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "frame = lab\ninclude_nuclei = true\n"
                             "segment duration_ns=1 rf=on\n"}, "electron-only",
                 id="lab_frame_with_nuclei"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 rf=of\n"},
                 "line 3: rf must be 'on' or 'off'", id="rf_typo"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "include_nuclei = True\n"
                             "segment duration_ns=1 rf=on\n"},
                 "line 3: include_nuclei must be one of 'true', 'false', got 'True'",
                 id="include_nuclei_not_bool"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "frame = Lab\nsegment duration_ns=1 rf=on\n"},
                 "line 3: frame must be one of 'rotating', 'lab', got 'Lab'", id="frame_typo"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "alignment = w\nsegment duration_ns=1 rf=on\n"},
                 "line 3: alignment must be one of 'x', 'y', 'z', got 'w'",
                 id="alignment_typo"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = two\nsegment duration_ns=1 rf=on\n"},
                 "line 1: invalid literal for int() with base 10: 'two'", id="num_donors_not_int"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "# donorsim schedule v1\nnum_donors = 4\n"
                             "segment duration_ns=1 rf=on\n"},
                 "line 2: num_donors must be 1, 2 or 3", id="num_donors_out_of_range"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "rf_phase = inf\nsegment duration_ns=1 rf=on\n"},
                 "line 3: rf_phase must be finite, got 'inf'", id="non_finite_header"),
    # a zero carrier divided 2 pi / w_ac; a negative one put every level on the step floor
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "frame = lab\ncarrier = 0\n"
                             "segment duration_ns=1 rf=on\n"},
                 "schedule failed: line 4: carrier must be finite and positive, got '0'",
                 id="lab_zero_carrier"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "frame = lab\ncarrier = -3.5e11\n"
                             "segment duration_ns=1 rf=on\n"},
                 "schedule failed: line 4: carrier must be finite and positive, got '-3.5e11'",
                 id="lab_negative_carrier"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 rf=on\n"
                             "segment duration_ns=1 a_over_a0=1:0.9 rf=on\n"},
                 "line 4: donor index 1 out of range", id="segment_detuning_donor_out_of_range"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\nsegment duration_ns=1 j_uev=0-2:1 rf=on\n"},
                 "line 2: donor index 2 out of range", id="segment_coupling_donor_out_of_range"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "frame = rotating\nframe = lab\n"
                             "segment duration_ns=1 rf=on\n"},
                 "schedule failed: line 4: frame given twice (first on line 3)",
                 id="header_key_twice"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 rf=on rf=off\n"},
                 "schedule failed: line 3: segment field 'rf' given twice",
                 id="segment_field_twice"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 rf=on label='a' "
                                                "label='b'\n"},
                 "schedule failed: line 3: segment field 'label' given twice",
                 id="segment_label_twice"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 rf=on label=b'x'\n"},
                 "schedule failed: line 3: bad label literal", id="bytes_label"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 rf=on label='''x\n"},
                 "schedule failed: line 3: bad label literal", id="unterminated_label"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 rf=on label=x\n"},
                 "schedule failed: line 3: bad label literal", id="label_not_a_literal"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 a_over_a0=0:0.9,0:0.8 "
                                                "rf=on\n"},
                 "schedule failed: line 3: donor 0 named twice in a_over_a0",
                 id="a_over_a0_donor_twice"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\nsegment duration_ns=1 rf=on\n"
                             "segment duration_ns=1 j_uev=0-1:1,1-0:2 rf=on\n"},
                 "schedule failed: line 3: exchange pair 0-1 given twice",
                 id="exchange_pair_twice_reversed"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\nsegment duration_ns=1 j_uev=1-0:1,1-0:1 rf=on\n"},
                 "schedule failed: line 2: exchange pair 0-1 given twice",
                 id="exchange_pair_twice"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 3\ndipole_uev = 2-1:0.01,0-1:0.01,1-2:0.02\n"
                             "segment duration_ns=1 rf=on\n"},
                 "schedule failed: line 2: dipole pair 1-2 given twice",
                 id="dipole_pair_twice_reversed"),
    # the reversed repeat is refused before the negative value it carries is checked
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\ndipole_uev = 0-1:-3,1-0:0.01\n"
                             "segment duration_ns=1 rf=on\n"},
                 "schedule failed: line 2: dipole pair 0-1 given twice",
                 id="dipole_pair_twice_reversed_before_negative"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "b_ac = -1e-3\nsegment duration_ns=1 rf=on\n"},
                 "schedule failed: line 3: b_ac must be finite and positive, got '-1e-3'",
                 id="negative_b_ac"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "b_ac = 0\nsegment duration_ns=1 rf=on\n"},
                 "schedule failed: line 3: b_ac must be finite and positive, got '0'",
                 id="zero_b_ac"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "b_ac = 1e-320\nsegment duration_ns=1 rf=on\n"},
                 "schedule failed: line 3: b_ac = 1e-320 T is out of range: its drive energy "
                 "mu_B * b_ac = 0.0 J is not a normal positive float", id="underflowing_b_ac"),
    # header values are range-checked where they are read, so the error names their line
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "b_ac = nan\nsegment duration_ns=1 rf=on\n"},
                 "schedule failed: line 3: b_ac must be finite and positive, got 'nan'",
                 id="nan_b_ac"),
    # a rotating-frame carrier sets the A/A0 reference; a negative one had surfaced
    # as the first segment's detuning past the device bound
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "carrier = -5\n"
                             "segment duration_ns=1 a_over_a0=0:0.9 rf=on\n"},
                 "schedule failed: line 3: carrier must be finite and positive, got '-5'",
                 id="rotating_negative_carrier"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\ndipole_uev = 0-1:-3\nsegment duration_ns=1 rf=on\n"},
                 "schedule failed: line 2: dipole couplings must be finite and non-negative",
                 id="negative_dipole"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\ndipole_uev = 0-1:inf\nsegment duration_ns=1 rf=on\n"},
                 "schedule failed: line 2: dipole couplings must be finite and non-negative",
                 id="infinite_dipole"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": _SCHEDULE_HEADER + "segment duration_ns=1 rf=on\n"
                             "segment duration_ns=1 a_over_a0=0:0.1 rf=on\n"},
                 "schedule failed: line 4: detuning -3.311592e+08 on donor 0 exceeds the "
                 "device bound", id="detuning_out_of_bound_names_its_line"),
    pytest.param(["gate", "--gate", "cnot", "--interaction-step-ns", "0"], {},
                 "interaction step must be positive and finite",
                 id="cnot_zero_interaction_step"),
    pytest.param(["schedule", "dump", "--gate", "swap", "--interaction-step-ns", "-1"], {},
                 "interaction step must be positive and finite",
                 id="swap_negative_interaction_step"),
    pytest.param(["gate", "--gate", "swap", "--interaction-step-ns", "nan"], {},
                 "interaction step must be positive and finite", id="swap_nan_interaction_step"),
    pytest.param(["gate", "--gate", "idle", "--duration-ns", "inf"], {},
                 "idle needs a finite non-negative duration", id="idle_infinite_duration"),
    pytest.param(["gate", "--gate", "idle", "--duration-ns", "nan"], {},
                 "idle needs a finite non-negative duration", id="idle_nan_duration"),
    pytest.param(["sweep", "--metric", "spectator_period_ns", "--param", "foo=1"], {},
                 "cannot sweep 'foo'; sweepable fields: b, b_ac, a0, a_min, d, a_star, eps_r",
                 id="sweep_unknown_field"),
    pytest.param(["sweep", "--metric", "spectator_period_ns", "--param", "constants=1"], {},
                 "cannot sweep 'constants'", id="sweep_non_numeric_field"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\ndipole_uev = 0-5:0.01\n"
                             "segment duration_ns=1 rf=on\n"},
                 "line 2: donor index 5 out of range", id="dipole_donor_out_of_range"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\ndipole_uev = 0-0:0.01\n"
                             "segment duration_ns=1 rf=on\n"},
                 "line 2: dipole pair 0-0 must name two different donors", id="dipole_self_pair"),
    pytest.param(["schedule", "load", "{tmp}/s.sched"],
                 {"s.sched": "num_donors = 2\nsegment duration_ns=1 rf=on\n"
                             "segment duration_ns=1 j_uev=1-1:1 rf=on\n"},
                 "line 3: exchange pair 1-1 must name two different donors",
                 id="segment_exchange_self_pair"),
    pytest.param(["gate", "--gate", "x", "--qubits", "0"], {},
                 "num_donors must be 1, 2 or 3", id="gate_zero_qubits"),
    pytest.param(["schedule", "dump", "--gate", "hadamard", "--qubits", "0"], {},
                 "num_donors must be 1, 2 or 3", id="dump_zero_qubits"),
    pytest.param(["gate", "--gate", "x", "--threshold", "nan"], {},
                 "threshold must be finite, got nan", id="threshold_nan"),
    pytest.param(["gate", "--gate", "x", "--threshold", "inf"], {},
                 "threshold must be finite, got inf", id="threshold_infinite"),
    pytest.param(["gate", "--gate", "idle", "--target", "2", "--duration-ns", "0"], {},
                 "--target does not apply to idle", id="idle_with_target"),
    pytest.param(["schedule", "dump", "--gate", "idle", "--target", "0"], {},
                 "--target does not apply to idle", id="dump_idle_with_target"),
    pytest.param(["gate", "--gate", "swap", "--d-nm", "30"], {},
                 "--d-nm does not apply to swap", id="swap_with_separation"),
    pytest.param(["schedule", "dump", "--gate", "swap", "--d-nm", "30"], {},
                 "--d-nm does not apply to swap", id="dump_swap_with_separation"),
    pytest.param(["gate", "--gate", "cnot", "--mode", "dipole", "--d-nm", "inf"], {},
                 "give a finite non-zero dipole coupling, got inf m",
                 id="dipole_cnot_infinite_separation"),
    pytest.param(["gate", "--gate", "cnot", "--mode", "combined", "--d-nm", "inf"], {},
                 "give a finite non-zero dipole coupling, got inf m",
                 id="combined_cnot_infinite_separation"),
    pytest.param(["gate", "--gate", "cnot", "--j-uev", "nan"], {},
                 "exchange mode needs a positive coupling j", id="exchange_cnot_nan_coupling"),
    pytest.param(["gate", "--gate", "cnot", "--j-uev", "inf"], {},
                 "exchange mode needs a positive coupling j", id="exchange_cnot_infinite_coupling"),
    pytest.param(["gate", "--gate", "cnot", "--mode", "combined", "--j-uev", "inf", "--d-nm",
                  "20"], {}, "combined mode needs positive j and d",
                 id="combined_cnot_infinite_coupling"),
    pytest.param(["schedule", "dump", "--gate", "cnot", "--mode", "combined", "--j-uev", "nan"],
                 {}, "combined mode needs positive j and d", id="dump_combined_cnot_nan_coupling"),
    pytest.param(["gate", "--gate", "swap", "--j-uev", "nan"], {},
                 "swap needs a positive exchange coupling", id="swap_nan_coupling"),
    pytest.param(["schedule", "dump", "--gate", "swap", "--j-uev", "inf"], {},
                 "swap needs a positive exchange coupling", id="dump_swap_infinite_coupling"),
    pytest.param(["gate", "--gate", "cnot", "--mode", "dipole", "--d-nm", "1e200"], {},
                 "got 1e+191 m", id="dipole_cnot_cube_overflows"),
    pytest.param(["gate", "--gate", "cnot", "--mode", "combined", "--j-uev", "5",
                  "--d-nm", "1e104"], {}, "got 1e+95 m", id="combined_cnot_coupling_underflows"),
    pytest.param(["schedule", "dump", "--gate", "cnot", "--mode", "dipole", "--d-nm", "1e-300"],
                 {}, "got 1e-309 m", id="dipole_cnot_cube_underflows"),
    pytest.param(["sweep", "--metric", "dipole_uev", "--param", "d=1e-300"], {},
                 "give a finite non-zero dipole coupling, got 1e-300 m",
                 id="sweep_dipole_cube_underflows"),
    pytest.param(["gate", "--gate", "hadamard", "--theta", "1"], {},
                 "--theta does not apply to hadamard: only x, y and z take an angle",
                 id="hadamard_with_theta"),
    pytest.param(["gate", "--gate", "cnot", "--theta", "1"], {},
                 "--theta does not apply to cnot in exchange mode", id="cnot_with_theta"),
    pytest.param(["schedule", "dump", "--gate", "swap", "--theta", "1"], {},
                 "--theta does not apply to swap", id="dump_swap_with_theta"),
    pytest.param(["gate", "--gate", "idle", "--theta", "1"], {},
                 "--theta does not apply to idle", id="idle_with_theta"),
    pytest.param(["gate", "--gate", "x", "--control", "1"], {},
                 "--control does not apply to x: only cnot and swap have a control",
                 id="x_with_control"),
    pytest.param(["gate", "--gate", "idle", "--control", "0"], {},
                 "--control does not apply to idle", id="idle_with_control"),
    pytest.param(["gate", "--gate", "swap", "--mode", "exchange"], {},
                 "--mode does not apply to swap: only cnot has a coupling mode",
                 id="swap_with_mode"),
    pytest.param(["schedule", "dump", "--gate", "y", "--mode", "dipole"], {},
                 "--mode does not apply to y", id="dump_y_with_mode"),
    pytest.param(["gate", "--gate", "cnot", "--mode", "dipole", "--j-uev", "5"], {},
                 "--j-uev does not apply to cnot in dipole mode", id="dipole_cnot_with_exchange"),
    pytest.param(["gate", "--gate", "z", "--j-uev", "5"], {},
                 "--j-uev does not apply to z", id="z_with_exchange"),
    pytest.param(["gate", "--gate", "cnot", "--mode", "exchange", "--d-nm", "30"], {},
                 "--d-nm does not apply to cnot in exchange mode",
                 id="exchange_cnot_with_separation"),
    pytest.param(["schedule", "dump", "--gate", "cnot", "--d-nm", "30"], {},
                 "--d-nm does not apply to cnot in exchange mode",
                 id="dump_default_cnot_with_separation"),
    pytest.param(["gate", "--gate", "hadamard", "--d-nm", "30"], {},
                 "--d-nm does not apply to hadamard", id="hadamard_with_separation"),
    pytest.param(["gate", "--gate", "x", "--extended-correction"], {},
                 "--extended-correction does not apply to x: only cnot has a final correction",
                 id="x_with_extended_correction"),
    pytest.param(["schedule", "dump", "--gate", "swap", "--extended-correction"], {},
                 "--extended-correction does not apply to swap",
                 id="dump_swap_with_extended_correction"),
    pytest.param(["gate", "--gate", "x", "--duration-ns", "5"], {},
                 "--duration-ns does not apply to x: only idle takes a duration",
                 id="x_with_duration"),
    pytest.param(["schedule", "dump", "--gate", "cnot", "--duration-ns", "0"], {},
                 "--duration-ns does not apply to cnot in exchange mode",
                 id="dump_cnot_with_duration"),
    pytest.param(["gate", "--gate", "x", "--interaction-step-ns", "3"], {},
                 "--interaction-step-ns does not apply to x", id="x_with_interaction_step"),
    pytest.param(["gate", "--gate", "cnot", "--mode", "dipole", "--interaction-step-ns", "3"],
                 {}, "--interaction-step-ns does not apply to cnot in dipole mode",
                 id="dipole_cnot_with_interaction_step"),
    pytest.param(["gate", "--gate", "cnot", "--j-uev", "5", "--interaction-step-ns", "3"], {},
                 "--interaction-step-ns does not apply to cnot in exchange mode: only swap "
                 "and exchange or combined cnot without --j-uev pick J from it",
                 id="cnot_with_coupling_and_interaction_step"),
    pytest.param(["schedule", "dump", "--gate", "swap", "--j-uev", "5",
                  "--interaction-step-ns", "3"], {},
                 "--interaction-step-ns does not apply to swap",
                 id="dump_swap_with_coupling_and_interaction_step"),
    pytest.param(["gate", "--gate", "x", "--samples", "10"], {},
                 "--samples does not apply without --trace", id="samples_without_trace"),
    pytest.param(["gate", "--gate", "x", "--initial", "0"], {},
                 "--initial does not apply without --trace", id="initial_without_trace"),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, files, message):
    """Bad files and values end in one stderr line and exit 2, not a traceback."""
    for fname, text in files.items():
        (tmp_path / fname).write_text(text)
    code = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err


def test_trace_samples_past_the_cap_exit_2(tmp_path, capsys):
    """A --samples count one past the trace cap ends in one stderr line and
    exit 2, and neither the report nor the trace is written."""
    out, trace = tmp_path / "x.json", tmp_path / "x.csv"
    code = main(["--out", str(out), "gate", "--gate", "x", "--trace", str(trace),
                 "--samples", "1000001"])
    assert code == 2
    assert capsys.readouterr().err == \
        "gate failed: at most 1000000 trace samples, got 1000001\n"
    assert not out.exists() and not trace.exists()


@pytest.mark.parametrize("argv", [
    ["gate", "--gate", "cnot", "--extended-correction"],
    ["gate", "--gate", "cnot", "--mode", "combined", "--interaction-step-ns", "0.02"],
    ["gate", "--gate", "swap", "--interaction-step-ns", "0.02"],
    ["gate", "--gate", "idle", "--duration-ns", "0"],
    ["schedule", "dump", "--gate", "idle", "--duration-ns", "0"],
    ["gate", "--gate", "x", "--samples", "1000", "--initial", "1", "--trace", "{tmp}/x.csv"],
    ["gate", "--gate", "cnot", "--mode", "dipole", "--d-nm", "40", "--trace", "{tmp}/c.csv"],
], ids=["cnot_extended", "combined_step", "swap_step", "idle_duration", "dump_idle_duration",
        "trace_options", "dipole_cnot_long_windows"])
def test_gate_options_in_use_are_accepted(tmp_path, capsys, argv):
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == 0 and capsys.readouterr().err == ""


def test_option_defaults_match_explicit_values(tmp_path, capsys):
    """The defaults applied inside equal the values they stand for, byte for byte."""
    traces = [tmp_path / "a.csv", tmp_path / "b.csv"]
    run_cli(capsys, "gate", "--gate", "x", "--trace", str(traces[0]))
    run_cli(capsys, "gate", "--gate", "x", "--trace", str(traces[1]), "--samples", "1000")
    assert traces[0].read_bytes() == traces[1].read_bytes()
    rows = [ln for ln in traces[0].read_text().splitlines() if ln[:1].isdigit()]
    assert len(rows) == 1000
    for implicit, explicit in [
        (["gate", "--gate", "cnot"], ["--interaction-step-ns", "0.01"]),
        (["gate", "--gate", "swap"], ["--interaction-step-ns", "0.01"]),
        (["gate", "--gate", "idle"], ["--duration-ns", "0"]),
        # a pair's target that would default onto the given control takes 0
        (["gate", "--gate", "cnot", "--control", "1"], ["--target", "0"]),
        (["gate", "--gate", "swap", "--control", "1"], ["--target", "0"]),
        (["schedule", "dump", "--gate", "cnot", "--mode", "combined"],
         ["--interaction-step-ns", "0.01"]),
    ]:
        assert run_cli(capsys, *implicit) == run_cli(capsys, *implicit, *explicit)


def test_gate_trace_bytes_repeat_across_memo_hits(tmp_path):
    """A repeated `gate --trace` writes the bytes of its first run: after a
    --config run in between whose trace is the same (a `_trace` hit) under
    another header, and from cleared memo tables.  The repeat itself is a
    `_rendered` hit, so it asks `_trace` nothing."""
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("d = 3e-8\n")

    def run(*config) -> tuple[bytes, bytes]:
        out, trace = tmp_path / "x.json", tmp_path / "x.csv"
        argv = [*config, "--out", str(out), "gate", "--gate", "x", "--trace", str(trace)]
        assert main(argv) == 0
        return out.read_bytes(), trace.read_bytes()

    _memo.clear()
    first = run()
    assert run() == first
    _, trace = run("--config", str(cfgfile))
    assert _memo.stats()["_rendered"]["hits"] == 1
    assert _memo.stats()["_trace"]["hits"] == 1
    assert trace != first[1] and b"# d = 3e-08\n" in trace
    assert trace.split(b"time_ns,")[1] == first[1].split(b"time_ns,")[1]
    assert run() == first
    _memo.clear()
    assert run() == first


def test_table_bytes_repeat_across_memo_hits(capsys):
    """Every table in every format writes the bytes of its first run when it
    is repeated (one `_rendered` hit per repeat) and from cleared memo tables."""
    requests = [(fmt, which) for which in ("I", "II", "III", "IV", "V", "VI")
                for fmt in ("text", "csv", "json")]

    def run_all() -> list:
        return [run_cli(capsys, "--format", fmt, "table", which) for fmt, which in requests]

    _memo.clear()
    first = run_all()
    assert all(code == 0 for code, _ in first)
    assert _memo.stats()["_rendered"]["hits"] == 0
    assert run_all() == first
    assert _memo.stats()["_rendered"]["hits"] == len(requests)
    _memo.clear()
    assert run_all() == first


def test_infeasible_table_exits_2_on_every_request(tmp_path, capsys):
    """A table that is infeasible on a device stores no entry, so a repeat
    exits 2 with the same message."""
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text("a_min = 1.5e-26\n")
    _memo.clear()
    for _ in range(2):
        assert main(["--config", str(cfgfile), "table", "IV"]) == 2
        assert capsys.readouterr() == ("", "table failed: table IV: the gate has 11 steps, "
                                           "the published table 2\n")
    assert _memo.stats()["_rendered"]["currsize"] == 0


def _gate_run(tmp_path, capsys, *flags, out="x.json", trace=None) -> tuple:
    """(exit code, stdout, stderr, report bytes, trace bytes or None) of one
    `gate` request that writes its report to out and, given, its trace to trace."""
    argv = ["--out", str(tmp_path / out), "gate", *flags]
    if trace:
        argv += ["--trace", str(tmp_path / trace)]
    code = main(argv)
    captured = capsys.readouterr()
    report = (tmp_path / out).read_bytes() if code in (0, 1) else None
    traced = (tmp_path / trace).read_bytes() if trace and code in (0, 1) else None
    return code, captured.out, captured.err, report, traced


@pytest.mark.parametrize("first, second", [
    (["--gate", "x", "--theta", "-0"], ["--gate", "x", "--theta", "0"]),
    (["--gate", "x", "--threshold", "-0"], ["--gate", "x", "--threshold", "0"]),
    (["--gate", "y", "--theta", "-0", "--threshold", "-0"],
     ["--gate", "y", "--theta", "0", "--threshold", "0"]),
], ids=["theta", "threshold", "both"])
@pytest.mark.parametrize("traced", [False, True], ids=["report", "trace"])
def test_gate_memo_tells_signed_zeros_apart(tmp_path, capsys, first, second, traced):
    """-0.0 == 0.0 as a float and in a GateSpec, but the report prints the
    sign, so each request in one process prints what it prints from cleared
    tables."""
    trace = "x.csv" if traced else None
    cold = {}
    for flags in (first, second):
        _memo.clear()
        cold[tuple(flags)] = _gate_run(tmp_path, capsys, *flags, trace=trace)
    assert b": -0.0" in cold[tuple(first)][3]
    assert cold[tuple(first)][3] != cold[tuple(second)][3]
    _memo.clear()
    for flags in (first, second, first, second):
        assert _gate_run(tmp_path, capsys, *flags, trace=trace) == cold[tuple(flags)]


@pytest.mark.parametrize("flags", [["--initial", "zz"], ["--samples", "1"]],
                         ids=["unknown_initial", "one_sample"])
def test_gate_request_that_fails_rendering_keeps_no_entry(tmp_path, capsys, flags):
    """An error raised while rendering raises again on every call and is not kept."""
    _memo.clear()
    runs = [_gate_run(tmp_path, capsys, "--gate", "x", *flags, trace="x.csv")
            for _ in range(3)]
    assert runs[0][0] == 2 and runs[0][2].startswith("gate failed: ")
    assert runs.count(runs[0]) == 3
    assert _memo.stats()["_rendered"]["currsize"] == 0


def test_gate_trace_past_the_kept_bound_keeps_no_entry(tmp_path, capsys):
    """A trace of more than 1000 samples is rendered without being kept, and
    writes what it writes from cleared tables."""
    _memo.clear()
    first = _gate_run(tmp_path, capsys, "--gate", "x", "--samples", "1001", trace="x.csv")
    assert first[0] == 0 and first[4].count(b"\n") > 1001
    assert _gate_run(tmp_path, capsys, "--gate", "x", "--samples", "1001",
                     trace="x.csv") == first
    assert _memo.stats()["_rendered"]["currsize"] == 0
    assert _gate_run(tmp_path, capsys, "--gate", "x", "--samples", "1000",
                     trace="x.csv")[0] == 0
    assert _memo.stats()["_rendered"]["currsize"] == 1


def test_gate_requests_differing_in_paths_share_one_entry(tmp_path, capsys):
    """--out and --trace paths are not part of the key: two requests that
    differ only there share one entry, and each writes its own files with the
    same bytes."""
    flags = ["--gate", "cnot", "--mode", "exchange", "--j-uev", "77.5"]
    _memo.clear()
    a = _gate_run(tmp_path, capsys, *flags, out="a.json", trace="a.csv")
    b = _gate_run(tmp_path, capsys, *flags, out="b.json", trace="b.csv")
    assert a[0] == 0 and a == b
    assert _memo.stats()["_rendered"]["currsize"] == 1
    assert _memo.stats()["_rendered"]["hits"] == 1
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_table_memo_tells_signed_zeros_apart(tmp_path, capsys):
    """a_min = -0.0 equals a_min = 0.0 as a device, but its audit line prints
    the sign, so the two configs do not share a table entry."""
    outputs = {}
    for value in ("0.0", "-0.0"):
        cfgfile = tmp_path / f"{value}.cfg"
        cfgfile.write_text(f"a_min = {value}\n")
        _memo.clear()
        outputs[value] = run_cli(capsys, "--config", str(cfgfile), "table", "II")
        assert f"# a_min = {value}\n" in outputs[value][1]
    for value in ("0.0", "-0.0", "0.0"):
        assert run_cli(capsys, "--config", str(tmp_path / f"{value}.cfg"), "table",
                       "II") == outputs[value]


@pytest.mark.parametrize("kind, flags", [
    ("x", ["--initial", "zz"]),
    ("x", ["--samples", "1"]),
    ("idle", ["--samples", "-5"]),
], ids=["unknown_initial", "one_sample", "idle_negative_samples"])
def test_gate_trace_fails_before_writing(tmp_path, capsys, kind, flags):
    """A zero-duration trace has one row whatever the count, and still takes
    --samples below 2 as an error."""
    out, trace = tmp_path / "x.json", tmp_path / "x.csv"
    code = main(["--out", str(out), "gate", "--gate", kind, "--trace", str(trace)] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert not out.exists() and not trace.exists()
    code = main(["gate", "--gate", kind, "--trace", str(trace)] + flags)
    assert code == 2 and capsys.readouterr().out == ""


def test_rewriting_longer_outputs_leaves_exactly_the_new_bytes(tmp_path, capsys):
    """--out and --trace overwrite an existing file in place, and a shorter new
    output leaves none of the old file's tail."""
    fresh, old = tmp_path / "fresh", tmp_path / "old"

    def run(where):
        where.mkdir(exist_ok=True)
        assert main(["--out", str(where / "t.txt"), "table", "II"]) == 0
        assert main(["--out", str(where / "g.json"), "gate", "--gate", "x",
                     "--samples", "10", "--trace", str(where / "g.csv")]) == 0

    run(fresh)
    old.mkdir()
    for name in ("t.txt", "g.json", "g.csv"):
        (old / name).write_bytes(b"#" * 200_000 + b"\n")
    run(old)
    for name in ("t.txt", "g.json", "g.csv"):
        assert (old / name).read_bytes() == (fresh / name).read_bytes()
    assert capsys.readouterr() == ("", "")


# one run of each command; {tmp} is the test's directory, where x.sched holds a
# schedule for `schedule load`, and {trace} the --trace path
_COMMANDS = {
    "table": ["table", "II"],
    "sweep": ["sweep", "--metric", "spectator_period_ns", "--param", "b_ac=0.0006,0.0012"],
    "dump": ["schedule", "dump", "--gate", "x"],
    "load": ["schedule", "load", "{tmp}/x.sched"],
    "validate": ["validate"],
    "gate": ["gate", "--gate", "x"],
    "gate_trace": ["gate", "--gate", "hadamard", "--samples", "10", "--trace", "{trace}"],
}


def _command(tmp_path, name: str, trace: str) -> list[str]:
    """The argv of _COMMANDS[name], with its schedule file written to tmp_path."""
    assert main(["--out", str(tmp_path / "x.sched"), "schedule", "dump", "--gate", "x"]) == 0
    return [a.format(tmp=tmp_path, trace=trace) for a in _COMMANDS[name]]


@pytest.mark.parametrize("out, name", [
    *(pytest.param(os.devnull, name, id=f"{name}_out")
      for name in _COMMANDS if name != "gate_trace"),
    pytest.param(os.devnull, "gate_trace", id="gate_out_and_trace"),
    pytest.param(None, "gate_trace", id="gate_trace"),
])
def test_outputs_to_a_device_exit_0(tmp_path, capsys, out, name):
    """A device that cannot be truncated takes the output as open(path, "w") would."""
    argv = _command(tmp_path, name, os.devnull)
    assert main((["--out", out] if out else []) + argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_out_in_a_missing_directory_exits_2(tmp_path, capsys, name):
    """The error line of an --out that cannot be opened is open(path, "w")'s,
    and no other output is written (test_unwritable_trace_writes_no_report
    checks --trace)."""
    argv = _command(tmp_path, name, str(tmp_path / "x.csv"))
    before = sorted(tmp_path.iterdir())
    target = tmp_path / "missing" / "x.out"
    assert main(["--out", str(target)] + argv) == 2
    assert capsys.readouterr() == (
        "", f"{argv[0]} failed: [Errno 2] No such file or directory: '{target}'\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_output_files_get_the_umask_mode(tmp_path, capsys, umask):
    out, trace = tmp_path / "x.json", tmp_path / "x.csv"
    old = os.umask(umask)
    try:
        code = main(["--out", str(out), "gate", "--gate", "x", "--trace", str(trace)])
    finally:
        os.umask(old)
    assert code == 0
    for path in (out, trace):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_out_and_trace_at_one_path_end_with_the_trace(tmp_path, capsys):
    both, trace = tmp_path / "both.csv", tmp_path / "x.csv"
    assert main(["gate", "--gate", "x", "--trace", str(trace)]) == 0
    report = capsys.readouterr().out
    for samples in ("1000", "2"):  # a trace longer, then shorter, than the report
        assert main(["gate", "--gate", "x", "--samples", samples, "--trace", str(trace)]) == 0
        assert main(["--out", str(both), "gate", "--gate", "x", "--samples", samples,
                     "--trace", str(both)]) == 0
        assert both.read_bytes() == trace.read_bytes()
    assert len(trace.read_bytes()) < len(report)
    assert capsys.readouterr().out == 2 * report


def test_unwritable_trace_writes_no_report(tmp_path, capsys):
    """Every output is opened before any byte is written: a --trace that cannot
    be opened leaves stdout empty, an existing --out file as it was, and no new
    --out file."""
    bad = tmp_path / "missing" / "t.csv"
    message = f"gate failed: [Errno 2] No such file or directory: '{bad}'\n"
    assert main(["gate", "--gate", "x", "--trace", str(bad)]) == 2
    assert capsys.readouterr() == ("", message)

    out = tmp_path / "r.json"
    assert main(["--out", str(out), "gate", "--gate", "x", "--trace", str(bad)]) == 2
    assert capsys.readouterr() == ("", message) and not out.exists()
    out.write_bytes(b"old report\n")
    assert main(["--out", str(out), "gate", "--gate", "x", "--trace", str(bad)]) == 2
    assert capsys.readouterr() == ("", message)
    assert out.read_bytes() == b"old report\n"


def test_unwritable_out_writes_no_trace(tmp_path, capsys):
    """An --out that cannot be opened leaves no new --trace file and an
    existing one as it was."""
    bad, trace = tmp_path / "missing" / "r.json", tmp_path / "t.csv"
    message = f"gate failed: [Errno 2] No such file or directory: '{bad}'\n"
    argv = ["--out", str(bad), "gate", "--gate", "x", "--trace", str(trace)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message) and not trace.exists()
    trace.write_bytes(b"old trace\n")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)
    assert trace.read_bytes() == b"old trace\n"


def test_a_write_that_fails_leaves_the_partial_file(tmp_path, capsys, monkeypatch):
    """A write that raises partway leaves the bytes written so far and none of
    the old file's tail, as a truncating write would."""
    out = tmp_path / "t.txt"
    assert main(["--out", str(out), "table", "II"]) == 0
    new = out.read_bytes()
    out.write_bytes(b"#" * 2 * len(new))
    real_write = os.write

    def write_then_fail(fd, data):
        if len(data) == len(new):
            return real_write(fd, data[:100])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", write_then_fail)
    assert main(["--out", str(out), "table", "II"]) == 2
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "table failed: [Errno 28] No space left on device\n")
    assert out.read_bytes() == new[:100]


def test_a_write_that_fails_leaves_later_outputs_as_they_were(tmp_path, capsys, monkeypatch):
    """A write that raises closes the outputs after it unwritten, so an
    existing --trace file keeps its old bytes."""
    out, trace = tmp_path / "r.json", tmp_path / "t.csv"
    trace.write_bytes(b"old trace\n")

    def fail(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", fail)
    assert main(["--out", str(out), "gate", "--gate", "x", "--trace", str(trace)]) == 2
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "gate failed: [Errno 28] No space left on device\n")
    assert out.read_bytes() == b"" and trace.read_bytes() == b"old trace\n"


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    for grid in ("0.0006,0.0012", "0.0009"):
        code, out = run_cli(capsys, "--format", "json", "sweep",
                            "--metric", "spectator_period_ns", "--param", f"b_ac={grid}")
        assert code == 0
        assert [r["b_ac"] for r in json.loads(out)["rows"]] == [float(v) for v in grid.split(",")]

    sched = tmp_path / "x.sched"
    code, out = run_cli(capsys, "--out", str(sched), "schedule", "dump", "--gate", "x")
    assert code == 0 and out == "" and sched.read_text().count("segment ") == 2
    code, out = run_cli(capsys, "schedule", "load", str(sched))
    assert code == 0 and len(json.loads(out)["segments"]) == 2

    trace = tmp_path / "h.csv"
    code, out = run_cli(capsys, "gate", "--gate", "hadamard", "--trace", str(trace))
    assert code == 0 and trace.exists()
    trace.unlink()
    code, out = run_cli(capsys, "gate", "--gate", "hadamard")
    assert code == 0 and not trace.exists()
    assert not list(tmp_path.glob("*.csv"))

    with pytest.raises(SystemExit) as exc:
        main(["gate", "--gate", "w"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, _ = run_cli(capsys, "table", "II")
    assert code == 0


# Each gate option with the value it is given and the GateSpec field it sets;
# --interaction-step-ns sets j as --j-uev does, so giving both is a conflict.
_GATE_OPTIONS = {
    "theta": (["--theta", "1"], "theta", 1.0),
    "target": (["--target", "1"], "targets", 1),
    "control": (["--control", "2"], "targets", 2),
    "j_uev": (["--j-uev", "5"], "j", 5.0 * _UEV),
    "d_nm": (["--d-nm", "30"], "d", 30e-9),
    "duration_ns": (["--duration-ns", "0"], "duration", 0.0),
    "extended_correction": (["--extended-correction"], "extended_correction", True),
    "interaction_step_ns": (["--interaction-step-ns", "0.02"], "j", None),
}


def _spec_accepts(kind, mode, given, p):
    """Whether GateSpec accepts the request: the spec the CLI builds for the bare
    kind (and cnot mode), with every given option written into the field it sets.

    --control and --target fill the kind's target slots; an option with no slot
    on the kind (an idle has none: its one target is ignored) adds a target.
    """
    bare = ["schedule", "dump", "--gate", kind] + (["--mode", mode] if kind == "cnot" and mode
                                                   else [])
    base = _build_spec(build_parser().parse_args(bare), p)
    slots = {"cnot": ("control", "target"), "swap": ("control", "target"),
             "idle": ()}.get(kind, ("target",))
    targets = list(base.targets)
    for name in ("control", "target"):
        if name in given:
            if name in slots:
                targets[slots.index(name)] = _GATE_OPTIONS[name][2]
            else:
                targets.append(_GATE_OPTIONS[name][2])
    fields = {"targets": tuple(targets)}
    if mode is not None:
        fields["mode"] = mode
    for name in given:
        _, field, value = _GATE_OPTIONS[name]
        if field == "targets":
            continue
        if name == "interaction_step_ns":
            value = interaction_coupling(0.02e-9, p)
        if field in fields:
            return False
        fields[field] = value
    try:
        dataclasses.replace(base, **fields)
    except ValueError:
        return False
    return True


def test_cli_accepts_exactly_what_gate_spec_accepts(capsys, p):
    """Over every kind, cnot mode setting and set of given gate options, `schedule
    dump` exits 0 exactly when GateSpec accepts the spec built from the request,
    and exits 2 with one stderr line otherwise."""
    parser = build_parser()
    dump = parser._subparsers._group_actions[0].choices["schedule"]
    dump = dump._subparsers._group_actions[0].choices["dump"]
    choices = {action.dest: tuple(action.choices) for action in dump._actions
               if action.dest in ("gate", "mode")}
    assert choices == {"gate": tuple(GATE_KINDS), "mode": tuple(GATE_KINDS["cnot"].modes)}
    disagreements = []
    for kind in choices["gate"]:
        for mode in (None, *choices["mode"]):
            for r in range(len(_GATE_OPTIONS) + 1):
                for given in itertools.combinations(_GATE_OPTIONS, r):
                    argv = ["schedule", "dump", "--gate", kind]
                    argv += ["--mode", mode] if mode else []
                    for name in given:
                        argv += _GATE_OPTIONS[name][0]
                    code = main(argv)
                    err = capsys.readouterr().err
                    assert code in (0, 2) and len(err.splitlines()) == (code == 2)
                    if (code == 0) != _spec_accepts(kind, mode, given, p):
                        disagreements.append((argv, code))
    assert disagreements == []


# Values the boundary fuzz writes into config and schedule files: in range,
# out of range, not finite, not numbers, and drive amplitudes whose energy
# mu_B * b_ac is subnormal or zero although b_ac itself is positive.
_FUZZ_VALUES = ("1.2e-3", "5e-3", "2e-4", "1e-320", "5e-324", "1e-300", "0", "-1e-3", "1e-6",
                "2.2e-308", "1e300", "nan", "inf", "-inf", "abc", "2", "30e-9", "1.938e-26", "-0")
_CONFIG_KEYS = ("b", "b_ac", "a0", "a_min", "d", "a_star", "eps_r", "alignment")
_FUZZ_COMMANDS = (["gate", "--gate", "x"], ["gate", "--gate", "y"], ["gate", "--gate", "z"],
                  ["gate", "--gate", "hadamard"], ["gate", "--gate", "swap"],
                  ["gate", "--gate", "cnot", "--mode", "combined"],
                  ["gate", "--gate", "cnot", "--mode", "dipole"],
                  ["table", "I"], ["table", "III"], ["table", "VI"],
                  ["schedule", "dump", "--gate", "y", "--theta", "1"])


def _run_bounded(argv):
    """(exit code, stdout) of cli.main; it must exit 0 or 2 and write no NaN or
    Infinity, and exit 2 with exactly one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    assert len(err.getvalue().splitlines()) == (code == 2), err.getvalue()
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(config=st.dictionaries(st.sampled_from(_CONFIG_KEYS),
                              st.sampled_from(_FUZZ_VALUES + ("x", "z")), max_size=3),
       command=st.sampled_from(_FUZZ_COMMANDS),
       edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_FUZZ_VALUES)),
                      max_size=3))
def test_config_and_schedule_files_exit_0_or_2(tmp_path_factory, config, command, edits):
    """A generated config file, and a dumped combined-CNOT schedule with some of
    its numbers replaced, end in exit 0 or 2: no exception escapes and no JSON
    output holds NaN or Infinity."""
    tmp = tmp_path_factory.getbasetemp()
    cfg = tmp / "fuzz.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    _run_bounded(["--format", "json", "--config", str(cfg), *command])

    code, text = _run_bounded(["schedule", "dump", "--gate", "cnot", "--mode", "combined"])
    assert code == 0
    numbers = list(re.finditer(r"(?<![\w.-])-?\d[\w.+-]*", text))
    for index, value in edits:
        match = numbers[index % len(numbers)]
        text = text[:match.start()] + value + text[match.end():]
        numbers = list(re.finditer(r"(?<![\w.-])-?\d[\w.+-]*", text))
    sched = tmp / "fuzz.sched"
    sched.write_text(text)
    _run_bounded(["--format", "json", "schedule", "load", str(sched)])
