"""Self-test of the benchmark's checks.

Each check gets a clean output it must pass and a deliberately corrupted
one it must catch: a trip that exits early, a lane over capacity, a left
turn discharging on red, and a vehicle dropped from the count.  The
free-flow trip check must also pass every trip of a Syn-Light max-pressure
run, so that it is not vacuous, and the turning-demand generator must give
resolvable routes and the same files for the same seed.

    python3 perfbench/selftest.py      # from the root of a source checkout
"""

from __future__ import annotations

import filecmp
import os
import sys
from pathlib import Path

import checks


def _caught(problems: list[str], what: str, out: list[str]) -> None:
    if not problems:
        out.append(f"{what} was not caught")


def run(work_dir: Path) -> list[str]:
    """Every way the checks misbehaved; empty when all corruptions are caught."""
    from gridlight.control import ControllerConfig
    from gridlight.experiment import ExperimentConfig, build_network, run_single
    from gridlight.flows import load_flow_file
    from gridlight.roadnet import load_roadnet

    import workloads

    syn_light_expected = 12 * workloads.departures(0, workloads.HORIZON - 1, 20)
    out: list[str] = []
    run_dir = work_dir / "syn-light-maxpressure"
    config = ExperimentConfig(controller=ControllerConfig(kind="maxpressure"), seeds=(0,))
    result = run_single(config, 0, out_dir=str(run_dir))
    net = build_network(config)
    world = result.world

    # clean output passes every check
    trips = checks.trip_check(world.vehicles, net.lanes)
    if trips.attempted == 0 or trips.failed:
        out.append(f"Syn-Light max-pressure: {trips.failed} of {trips.attempted} trips beat free flow")
    clean = checks.episode_problems(result, syn_light_expected, config.horizon)
    clean += checks.file_problems(str(run_dir), net, config.yellow)
    out += [f"clean Syn-Light run flagged: {p}" for p in clean]

    # a trip that exits early
    veh = next(v for v in world.vehicles if v.exited_at is not None)
    saved = veh.exited_at
    veh.exited_at = veh.entered_at + 1
    if checks.trip_check(world.vehicles, net.lanes).failed != trips.failed + 1:
        out.append("an early exit was not caught")
    veh.exited_at = saved

    # a vehicle dropped from the count
    dropped = world.vehicles.pop()
    _caught(checks.episode_problems(result, syn_light_expected, config.horizon), "a dropped vehicle", out)
    world.vehicles.append(dropped)

    tel_rows = list(checks.read_telemetry_rows(str(run_dir / "telemetry.csv")))
    decisions = checks.read_decision_rows(str(run_dir / "decisions.csv"))

    # a lane over capacity
    t, iid, phase, mode, occ, dis = tel_rows[len(tel_rows) // 2]
    cap = checks.lane_capacity(net.lanes[net.intersection(iid).incoming_lanes[1]].length)
    bad = list(tel_rows)
    bad[len(tel_rows) // 2] = (t, iid, phase, mode, (occ[0], cap + 1) + occ[2:], dis)
    _caught(checks.telemetry_problems(bad, net, decisions, config.yellow), "a lane over capacity", out)

    # a west left turn discharging during the yellow after a switch
    switch = next(d for d in decisions if d[4])
    idx = next(k for k, r in enumerate(tel_rows) if r[0] == switch[0] and r[1] == switch[1])
    t, iid, phase, mode, occ, dis = tel_rows[idx]
    bad = list(tel_rows)
    bad[idx] = (t, iid, phase, mode, occ, (dis[0] + 1,) + dis[1:])
    _caught(checks.telemetry_problems(bad, net, decisions, config.yellow), "a left turn on yellow", out)
    # ... and during another phase's green
    other = next(d for d in decisions if d[2] in (0, 1, 3) and not d[4])
    idx = next(k for k, r in enumerate(tel_rows) if r[0] == other[0] and r[1] == other[1])
    t, iid, phase, mode, occ, dis = tel_rows[idx]
    bad = list(tel_rows)
    bad[idx] = (t, iid, phase, mode, occ, (dis[0] + 1,) + dis[1:])
    _caught(checks.telemetry_problems(bad, net, decisions, config.yellow), "a left turn on red", out)

    # the turning-demand generator: resolvable routes, same files for the same seed
    a = workloads.write_turning_inputs(str(work_dir / "demand-a"), 4, 4, seed=7)
    b = workloads.write_turning_inputs(str(work_dir / "demand-b"), 4, 4, seed=7)
    c = workloads.write_turning_inputs(str(work_dir / "demand-c"), 4, 4, seed=8)
    for x, y in ((a[0], b[0]), (a[1], b[1])):
        if not filecmp.cmp(x, y, shallow=False):
            out.append(f"seed 7 gave two different {os.path.basename(x)} files")
    if filecmp.cmp(a[1], c[1], shallow=False):
        out.append("seeds 7 and 8 gave the same flow file")
    try:
        flows = load_flow_file(a[1], load_roadnet(a[0]))
    except ValueError as exc:
        out.append(f"generated demand does not load: {exc}")
    else:
        if len(flows) != len(a[2]):
            out.append(f"{len(flows)} of {len(a[2])} generated flows loaded")
    return out


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    problems = run(root / ".perfbench-out" / "selftest")
    for p in problems:
        print(f"selftest: FAILED: {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
