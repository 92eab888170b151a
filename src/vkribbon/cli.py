"""Command-line entry points.

    vkribbon SUBCOMMAND SCENARIO [--out DIR] [--quiet]

Subcommands: simulate-1d, simulate-2d, tau-study, reduce-study,
commute-study, gamma-check, slope-check, decouple-check, report.

Every subcommand but ``report`` writes ``manifest.txt`` with its planned
outputs before it runs, then the outputs, then prints one summary line
unless ``--quiet``; ``report`` summarises such a run directory, given by
``--out``, in place of the scenario, or as the scenario's output directory.

Exit codes: 0 success; 64 usage error; 65 scenario errors;
3 hypothesis requirement violated; 2 solver failure (message carries the
step index); 1 anything else.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .config import ScenarioError, load_scenario
from .flow import StepFailure, run_trajectory
from .io import save_plate_state, save_ribbon_state, write_ledger, write_manifest
from .plate import PlateSystem, RecoveryInputs, build_recovery
from .ribbon import RibbonSystem
from .studies import (
    HypothesisError,
    commutativity_report,
    decoupling_checks,
    epsilon_study,
    gamma_check,
    slope_consistency,
    tau_study,
)

USAGE = __doc__


def _ribbon(sc) -> RibbonSystem:
    return RibbonSystem(sc.mesh1(), sc.material, sc.boundary, sc.forces)


def _energies(traj) -> str:
    return f"energy {traj.reports[0].energy:.6e} -> {traj.reports[-1].energy:.6e}"


def _simulate_1d(sc, out):
    system = _ribbon(sc)
    u0 = system.interpolate(*sc.initial)
    traj = run_trajectory(system, u0, sc.tau, sc.T, sc.solver)
    write_ledger(os.path.join(out, "ledger.csv"), traj, system)
    save_ribbon_state(os.path.join(out, "state_final.snap"), system.state(traj.states[-1]))
    return f"{traj.n_steps} steps, {_energies(traj)}"


def _simulate_2d(sc, out):
    eps = sc.epsilon_list[0]
    ribbon = _ribbon(sc)
    plate = PlateSystem(sc.mesh2(), eps, sc.material, sc.boundary, sc.forces)
    u0_1d = ribbon.interpolate(*sc.initial)
    u0 = build_recovery(plate, RecoveryInputs(ribbon.state(u0_1d), sc.cutoff_width))
    traj = run_trajectory(plate, u0, sc.tau, sc.T, sc.solver)
    write_ledger(os.path.join(out, "ledger.csv"), traj, plate)
    save_plate_state(os.path.join(out, "state_final.snap"), plate.state(traj.states[-1]))
    return f"eps={eps}, {traj.n_steps} steps, {_energies(traj)}"


def _tau_study(sc, out):
    system = _ribbon(sc)
    rep = tau_study(system, system.interpolate(*sc.initial), sc.tau_list, sc.T, sc.solver)
    rep.write_csv(os.path.join(out, "tau_study.csv"))
    return f"residual order {rep.summary['residual_order']:.3f}"


def _reduce_study(sc, out):
    rep = epsilon_study(sc)
    rep.write_csv(os.path.join(out, "reduce_study.csv"))
    gaps = ", ".join(f"{e:g}: {g:.3e}" for e, g in rep.summary["initial_energy_gap"].items())
    return f"initial energy gap per eps {{{gaps}}}"


def _commute_study(sc, out):
    rep = commutativity_report(sc)
    rep.write_csv(os.path.join(out, "commute_study.csv"))
    return f"largest path discrepancy {rep.column('path_discrepancy').max():.3e}"


def _gamma_check(sc, out):
    targets = {"configured": sc.initial, "twist_only": ((0.0,), (0.0,), (0.0,), sc.initial[3])}
    rep = gamma_check(
        sc.material, targets, sc.epsilon_list, sc.mesh1(), sc.mesh2(), sc.boundary,
        sc.cutoff_width,
    )
    rep.write_csv(os.path.join(out, "gamma_check.csv"))
    return f"orders {rep.summary['orders']}"


def _slope_check(sc, out):
    system = _ribbon(sc)
    u0 = system.interpolate(*sc.initial)
    rep = slope_consistency(system, run_trajectory(system, u0, sc.tau, sc.T, sc.solver))
    rep.write_csv(os.path.join(out, "slope_check.csv"))
    return f"final ratio {rep.summary['final_ratio']:.6f}"


def _decouple_check(sc, out):
    rep = decoupling_checks(sc.material, sc.mesh1(), sc.tau, sc.T, sc.solver)
    rep.write_csv(os.path.join(out, "decouple_check.csv"))
    return str(rep.summary)


# subcommand -> (planned outputs, run(scenario, out_dir) -> summary line); the
# runs look the package functions up at call time, so patching this module's
# names (as the benchmark's tracer does) reaches them
COMMANDS = {
    "simulate-1d": (("ledger.csv", "state_final.snap"), _simulate_1d),
    "simulate-2d": (("ledger.csv", "state_final.snap"), _simulate_2d),
    "tau-study": (("tau_study.csv",), _tau_study),
    "reduce-study": (("reduce_study.csv",), _reduce_study),
    "commute-study": (("commute_study.csv",), _commute_study),
    "gamma-check": (("gamma_check.csv",), _gamma_check),
    "slope-check": (("slope_check.csv",), _slope_check),
    "decouple-check": (("decouple_check.csv",), _decouple_check),
}


def report(out_dir) -> int:
    """Print the manifest of the run in ``out_dir`` and the size of each output."""
    manifest = os.path.join(out_dir, "manifest.txt")
    if not os.path.exists(manifest):
        print(f"report: no manifest at {manifest}", file=sys.stderr)
        return 1
    with open(manifest) as f:
        lines = f.read().splitlines()
    print(f"# manifest: {manifest}")
    for ln in lines:
        if not ln.startswith("config."):
            print(ln)
    for ln in lines:
        if ln.startswith("output = "):
            name = ln.split(" = ", 1)[1]
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path) as f:
                    rows = f.read().splitlines()
                print(f"{name}: {max(len(rows) - 1, 0)} rows, header: {rows[0] if rows else ''}")
            else:
                print(f"{name}: MISSING")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    sub = argv[0]
    if sub not in COMMANDS and sub != "report":
        print(f"unknown subcommand {sub!r}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 64

    parser = argparse.ArgumentParser(prog=f"vkribbon {sub}")
    parser.add_argument(
        "scenario", help="path to the scenario configuration file (report: or a run directory)"
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quiet", action="store_true")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 means solver failure here
        return 64 if exc.code else 0

    # a run directory is reported from its manifest alone; the scenario
    # only supplies the default output directory
    if sub == "report":
        if args.out is None and os.path.isdir(args.scenario):
            args.out = args.scenario
        if args.out is not None:
            return report(args.out)
        if not os.path.exists(args.scenario):
            print(f"report: no run directory or scenario at {args.scenario}", file=sys.stderr)
            print(parser.format_usage(), end="", file=sys.stderr)
            return 64
    try:
        scenario = load_scenario(args.scenario)
    except FileNotFoundError:
        print(f"scenario file not found: {args.scenario}", file=sys.stderr)
        return 65
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 65

    out_dir = args.out or scenario.out_dir
    if sub == "report":
        return report(out_dir)
    outputs, run = COMMANDS[sub]
    try:
        os.makedirs(out_dir, exist_ok=True)
        write_manifest(
            os.path.join(out_dir, "manifest.txt"),
            scenario,
            outputs,
            __version__,
            time.time(),
        )
        summary = run(scenario, out_dir)
    except HypothesisError as exc:
        print(f"hypothesis requirement: {exc}", file=sys.stderr)
        return 3
    except StepFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"{sub}: {summary}")
    return 0

