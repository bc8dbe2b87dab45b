"""Time the closed-form lab-frame stepping kernels against step-by-step loops.

Both kernels evaluate the n-step midpoint (SU(2)) and Strang (4-dim donor)
products in closed form.  This script times them on the workloads that
dominate real runs, the SU(2) stream behind frame-equivalence checks and the
4-dim stream behind the frozen-nucleus oracle, next to a plain Python loop
over the same steps, and prints the max-norm difference between the two.
The donor kernel takes the static Hamiltonian and hbar and memoizes the
n-step power (with the eigensystem and half-step propagator behind it), so
its closed-form time is taken with every memo table cleared (`_memo.clear()`)
before every repeat, and the time of a cache hit (the same call again) is
printed on a line of its own.  The step loop builds the half-step propagator
itself.  The two loops are `su2_loop` and `donor4_loop` of the test suite's
reference module, tests/_reference.py.

A last section times the refinement driver (`propagator._refine` over the
level driver `_lab_levels`) on three runs: `execute_schedule` of the lab-frame
X(pi) at lab_tol 1e-6, a fixed 3-segment lab schedule at 1e-8, and
`frozen_nucleus_check` of Y(pi).  Each is timed with every memo table cleared
before every repeat, and again as a memo hit (the same call again, answered
from `propagator._lab_unitary` or `analysis._oracle_check`).  For each
it prints the levels a cold run evaluates, the levels a sequential
step-halving loop needs (up to the level returned) and the number of blocks
asked for.

A grading section times `analysis.gate_fidelity` and
`analysis.spectator_fidelity` on the gates the benchmark streams grade: the
catalog's X(pi) and exchange CNOT on 2 and 3 donors, graded against their
declared and ideal targets, and the frame-mapped lab X(pi) on 1 donor against
its rotating-frame unitary.  Each is timed cold (every memo table cleared
before every repeat, so the cost of a miss, key included, stays visible)
and as a hit (the same arrays again, answered from `analysis._gate_fidelity`
or `analysis._spectator_fidelity`).

Usage: python benchmarks/bench_kernels.py [--steps N]
"""

import argparse
import pathlib
import sys
import time

import numpy as np

from donorsim import DeviceParameters, _memo, analysis, propagator
from donorsim._kernels import donor4_strang_product, su2_lab_product
from donorsim.gates import GateSpec, ideal_unitary, interaction_coupling, synthesize
from donorsim.params import carrier_frequency, max_detuning
from donorsim.spin_model import SpinSystem, frame_rotation, single_donor_static

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from _reference import donor4_loop, su2_loop  # noqa: E402


def _time(fn, *args, repeats=3, before=None):
    """Best time of `repeats` calls, each after before() when it is given."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _report(name, n, fast, loop, hit=None):
    (t_fast, u_fast), (t_loop, u_loop) = fast, loop
    print(f"{name}, {n} steps:")
    print(f"  closed form : {t_fast * 1e3:.3f} ms")
    if hit is not None:
        print(f"  cache hit   : {hit[0] * 1e3:.3f} ms")
    print(f"  step loop   : {t_loop:.3f} s  ({t_loop / n * 1e9:.0f} ns/step)")
    print(f"  max-norm difference {np.abs(u_fast - u_loop).max():.1e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=200_000)
    args = parser.parse_args()
    n = args.steps

    p = DeviceParameters()
    w_ac = carrier_frequency(p)
    dt = 2.0 * np.pi / w_ac / 200.0
    az = -(0.5 * w_ac - 1.2e8)
    ax = p.transverse_energy / p.constants.hbar

    su2_args = (az, ax, -w_ac, 0.0, 0.0, dt, n)
    _report("su2 midpoint stream", n, _time(su2_lab_product, *su2_args),
            _time(su2_loop, *su2_args, repeats=1))

    m = max(n // 20, 1000)
    d4_args = (single_donor_static(p.a0, p), p.constants.hbar, ax, -1.0, 0.0, w_ac, 0.0, 0.0,
               dt, m)
    cold = _time(donor4_strang_product, *d4_args, before=_memo.clear)
    hit = _time(donor4_strang_product, *d4_args)
    _report("donor 4-dim split-step stream", m, cold, _time(donor4_loop, *d4_args, repeats=1),
            hit)
    _report_refinements(p)
    _report_grading(p)


def _level_traffic(run):
    """(levels evaluated, levels a sequential loop needs, blocks) of the one
    refinement run() makes, recorded by wrapping the refinement driver."""
    refine = propagator._refine
    blocks, returned = [], []

    def recording(propagate, tol, ceiling, what):
        asked = {}

        def levels(block):
            blocks.append(list(block))
            out = propagate(block)
            asked.update(zip(block, out))
            return out

        u = refine(levels, tol, ceiling, what)
        returned.append(next(s for s, v in asked.items() if np.array_equal(v, u)))
        return u

    propagator._refine = analysis._refine = recording
    try:
        _memo.clear()
        run()
    finally:
        propagator._refine = analysis._refine = refine
    # the sequential loop evaluates 64, 128, ..., the level returned
    return len({s for b in blocks for s in b}), returned[0].bit_length() - 6, len(blocks)


def _report_refinements(p):
    one = SpinSystem(1)
    x_lab = analysis.lab_realization(synthesize(GateSpec("x", (0,), theta=np.pi), p, one), p)
    dw = max_detuning(p)
    three = x_lab.replace(segments=tuple(
        propagator.PulseSegment(duration=t, detunings={0: f * dw})
        for t, f in ((0.7e-9, -0.6), (1.3e-9, 0.2), (0.4e-9, 0.9))), declared_target=None)
    y = synthesize(GateSpec("y", (0,), theta=np.pi), p, one)
    runs = (
        ("lab X(pi), lab_tol 1e-6", lambda: propagator.execute_schedule(x_lab, lab_tol=1e-6)),
        ("3-segment lab schedule, lab_tol 1e-8",
         lambda: propagator.execute_schedule(three, lab_tol=1e-8)),
        ("frozen-nucleus Y(pi)", lambda: analysis.frozen_nucleus_check(y, p)),
    )
    print("refinement driver (best of 50; cold: memo tables cleared before every repeat):")
    for name, run in runs:
        cold, _ = _time(run, repeats=50, before=_memo.clear)
        hit, _ = _time(run, repeats=50)
        evaluated, needed, blocks = _level_traffic(run)
        print(f"  {name}: cold {cold * 1e6:.0f} us, memo hit {hit * 1e6:.1f} us; "
              f"{evaluated} levels evaluated in {blocks} blocks, "
              f"{needed} needed by a sequential loop")


def _report_grading(p):
    j = interaction_coupling(1e-11, p)
    cases = []
    for donors, single, pair in ((2, (0,), (0, 1)), (3, (1,), (1, 2))):
        system = SpinSystem(donors)
        for spec in (GateSpec("x", single, theta=np.pi),
                     GateSpec("cnot", pair, mode="exchange", j=j)):
            sched = synthesize(spec, p, system)
            u = propagator.execute_schedule(sched).unitary
            cases.append((f"{spec.kind} on {donors} donors", u, sched.declared_target,
                          (u, ideal_unitary(spec), spec.targets, system)))
    one = SpinSystem(1)
    x = synthesize(GateSpec("x", (0,), theta=np.pi), p, one)
    lab = analysis.lab_realization(x, p)
    u_map = frame_rotation(lab.total_duration, p, one) @ propagator.execute_schedule(
        lab, lab_tol=1e-6).unitary
    cases.append(("lab x on 1 donor", u_map, propagator.execute_schedule(x).unitary, None))
    print("grading (best of 200; cold: memo tables cleared before every repeat):")
    for name, u, target, spectator in cases:
        line = f"  {name} ({u.shape[0]}x{u.shape[0]}):"
        for what, fn, args in (("gate_fidelity", analysis.gate_fidelity, (u, target)),
                               ("spectator_fidelity", analysis.spectator_fidelity, spectator)):
            if args is not None:
                cold, _ = _time(fn, *args, repeats=200, before=_memo.clear)
                hit, _ = _time(fn, *args, repeats=200)
                line += f" {what} cold {cold * 1e6:.1f} us, hit {hit * 1e6:.1f} us;"
        print(line.rstrip(";"))


if __name__ == "__main__":
    main()
