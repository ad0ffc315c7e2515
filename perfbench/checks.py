"""Checks of the program's outputs, computed by the benchmark itself.

Nothing here calls back into the simulator to decide whether an output is
right: the formulas (free-flow travel time, lane capacity, the four-phase
table, PRCOL, pressure, platoon clearance, the Q-network forward pass) are
re-implemented from the paper.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# the paper's kinematics: 2 m/s^2 up to 40 km/h, 5 m vehicles, 2.5 m gaps
ACCEL = 2.0
MAX_SPEED = 40.0 / 3.6
VEHICLE_LENGTH = 5.0
MIN_GAP = 2.5
HEADWAY = VEHICLE_LENGTH + MIN_GAP
GREEN_MIN, GREEN_MAX = 10, 20

#: a trip may beat free flow by at most one tick per stop line it crosses
#: (vehicles cross mid-tick) plus this much float rounding
FREE_FLOW_TOLERANCE = 1e-6

APPROACHES = ("W", "E", "N", "S")
TURNS = ("left", "straight", "right")
#: phase -> the (approach, turn) pairs it serves; right turns are never red
PHASE_TABLE = {
    0: (("W", "straight"), ("E", "straight")),
    1: (("N", "straight"), ("S", "straight")),
    2: (("W", "left"), ("E", "left")),
    3: (("N", "left"), ("S", "left")),
}
_PHASE_OF = {pair: phase for phase, pairs in PHASE_TABLE.items() for pair in pairs}
LANE_COLUMNS = tuple(f"{a.lower()}_{t[0]}" for a in APPROACHES for t in TURNS)
TELEMETRY_HEADER = ["time", "intersection", "phase", "mode"] + [
    f"{kind}_{c}" for kind in ("n", "d") for c in LANE_COLUMNS
]
DECISIONS_HEADER = [
    "time", "intersection", "phase", "green_duration", "switched", "ideal_npass",
    "actual_discharged",
] + [f"q_{c}" for c in LANE_COLUMNS]

MAX_REPORTED = 5  # problems listed per check before the rest are counted


class Problems:
    """Collects at most MAX_REPORTED messages and counts the rest."""

    def __init__(self) -> None:
        self.items: list[str] = []
        self.extra = 0

    def add(self, msg: str) -> None:
        if len(self.items) < MAX_REPORTED:
            self.items.append(msg)
        else:
            self.extra += 1

    def result(self) -> list[str]:
        return self.items + ([f"... and {self.extra} more"] if self.extra else [])


# ---------------------------------------------------------------- kinematics


def lane_capacity(length: float) -> int:
    """Vehicles that fit on a lane standing at the minimum gap."""
    return int(math.floor(length / HEADWAY + 1e-9))


def clearance_time(n: int) -> float:
    """Seconds for a standing platoon of n vehicles to clear the stop line."""
    if n <= 0:
        return 0.0
    dist = (n - 1) * HEADWAY + VEHICLE_LENGTH
    accel_dist = MAX_SPEED**2 / (2.0 * ACCEL)
    if dist <= accel_dist:
        return math.sqrt(2.0 * dist / ACCEL)
    return MAX_SPEED / ACCEL + (dist - accel_dist) / MAX_SPEED


def dynamic_green(n_pass_max: int) -> tuple[int, ...]:
    """Acceptable dynamic greens: the clamped ceiling, either side of rounding."""
    t = clearance_time(n_pass_max)
    return tuple(
        sorted({min(max(math.ceil(t + d), GREEN_MIN), GREEN_MAX) for d in (-1e-9, 1e-9)})
    )


# -------------------------------------------------------------------- trips


@dataclass
class TripStats:
    """Free-flow check over the trips that ended inside the horizon."""

    attempted: int = 0
    failed: int = 0
    worst_early_s: float = 0.0  # largest free-flow time minus travel time
    worst_route_s: float = 0.0  # free-flow time of that trip's route

    def add(self, other: "TripStats") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        if other.worst_early_s > self.worst_early_s:
            self.worst_early_s = other.worst_early_s
            self.worst_route_s = other.worst_route_s


def trip_check(vehicles: Iterable, lanes: dict) -> TripStats:
    """Count finished trips that beat free flow.

    A trip's free-flow time is the sum over the lanes it drives of lane
    length over lane speed.  It fails when its travel time is shorter than
    that, less one tick per stop line crossed, less a rounding tolerance.
    """
    stats = TripStats()
    per_route: dict[int, tuple[object, float, int]] = {}
    for veh in vehicles:
        if veh.exited_at is None:
            continue
        stats.attempted += 1
        route = veh.route
        cached = per_route.get(id(route))
        if cached is None:
            lane_ids = [route[0].in_lane] + [m.out_lane for m in route] if route else [veh.lane_id]
            free = sum(lanes[lid].length / lanes[lid].max_speed for lid in lane_ids)
            cached = per_route[id(route)] = (route, free, len(route))
        _, free, crossings = cached
        travel = veh.exited_at - veh.entered_at
        if travel < free - crossings - FREE_FLOW_TOLERANCE:
            stats.failed += 1
            if free - travel > stats.worst_early_s:
                stats.worst_early_s = free - travel
                stats.worst_route_s = free
    return stats


def episode_problems(result, expected_generated: int, horizon: int) -> list[str]:
    """Counts, conservation, recomputed metrics, budgets and losses of one episode."""
    p = Problems()
    world, metrics = result.world, result.metrics
    vehicles = world.vehicles
    if metrics.generated != expected_generated:
        p.add(f"generated {metrics.generated} != {expected_generated} spawn events before the horizon")
    if len(vehicles) != expected_generated:
        p.add(f"{len(vehicles)} vehicles recorded, {expected_generated} expected")

    by_status: dict[str, int] = {}
    total_tt = 0.0
    for veh in vehicles:
        by_status[veh.status] = by_status.get(veh.status, 0) + 1
        end = veh.exited_at if veh.exited_at is not None else horizon
        total_tt += end - veh.entered_at
    completed = by_status.get("exited", 0)
    on_network = by_status.get("moving", 0) + by_status.get("queued", 0)
    buffered = by_status.get("buffered", 0)
    if completed + on_network + buffered != metrics.generated:
        p.add(
            f"conservation: {completed} completed + {on_network} on network + "
            f"{buffered} buffered != {metrics.generated} generated"
        )
    if on_network != world.on_network_count() or buffered != world.buffered_count():
        p.add(
            f"status recount ({on_network} on network, {buffered} buffered) disagrees with the "
            f"lanes ({world.on_network_count()}) and buffers ({world.buffered_count()})"
        )
    if completed != metrics.throughput:
        p.add(f"throughput {metrics.throughput} != {completed} exited vehicles")
    att = total_tt / len(vehicles) if vehicles else 0.0
    if not math.isclose(att, metrics.average_travel_time, rel_tol=1e-12, abs_tol=1e-9):
        p.add(f"average_travel_time {metrics.average_travel_time} != recomputed {att}")

    for problem in budget_problems(
        (rec.time, rec.intersection, rec.ideal_npass, rec.actual_discharged)
        for rec in result.decisions
    ):
        p.add(problem)
    bad_losses = sum(1 for x in result.losses if not math.isfinite(x))
    if bad_losses:
        p.add(f"{bad_losses} non-finite training losses")
    return p.result()


def budget_problems(decisions: Iterable[tuple[int, str, int, int | None]]) -> list[str]:
    """No closed decision may discharge more than its ideal n_pass."""
    p = Problems()
    for time, iid, ideal, actual in decisions:
        if actual is not None and actual > ideal:
            p.add(f"decision at t={time} {iid}: discharged {actual} > ideal_npass {ideal}")
    return p.result()


# -------------------------------------------------------- telemetry surfaces


def read_telemetry_rows(path: str) -> Iterator[tuple]:
    """(time, intersection, phase, mode, occupancies[12], discharges[12])."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != TELEMETRY_HEADER:
            raise ValueError(f"{path}: unexpected telemetry header")
        for row in reader:
            yield (
                int(row[0]), row[1], int(row[2]), row[3],
                tuple(map(int, row[4:16])), tuple(map(int, row[16:28])),
            )


def step_rows(steps: Sequence, net) -> Iterator[tuple]:
    """The same rows as :func:`read_telemetry_rows`, from in-memory steps."""
    inters = [(i.id, i.incoming_lanes, [m.id for m in i.movements]) for i in net.intersections]
    for step in steps:
        occ = step.lane_occupancy
        for iid, lanes, mids in inters:
            phase, mode = step.signals[iid]
            yield (
                step.time, iid, phase, mode,
                tuple(occ[lane] for lane in lanes),
                tuple(step.discharged.get(mid, 0) for mid in mids),
            )


def read_decision_rows(path: str) -> list[tuple]:
    """(time, intersection, phase, green, switched, ideal, actual or None, counts[12])."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != DECISIONS_HEADER:
            raise ValueError(f"{path}: unexpected decisions header")
        for row in reader:
            rows.append(
                (
                    int(row[0]), row[1], int(row[2]), int(row[3]), row[4] == "1",
                    int(row[5]), None if row[6] == "" else int(row[6]),
                    tuple(map(int, row[7:19])),
                )
            )
    return rows


def record_rows(records: Sequence) -> list[tuple]:
    """Decision rows from in-memory decision records."""
    return [
        (r.time, r.intersection, r.phase, r.green_duration, r.switched, r.ideal_npass,
         r.actual_discharged, tuple(r.counts))
        for r in records
    ]


def telemetry_problems(rows: Iterable[tuple], net, decisions: Sequence[tuple], yellow: int) -> list[str]:
    """Lane capacity and signal legality, in one pass over the telemetry rows.

    No incoming-lane occupancy may exceed the lane's capacity.  Straight
    and left movements discharge only on their own green: the signal
    timeline is rebuilt from the decision log alone, where a decision that
    changes the phase buys ``yellow`` seconds of yellow and then its green,
    and one that keeps the phase extends the green at once.  Every
    intersection starts on phase 0.  Right turns may discharge at any time.
    """
    caps = {
        i.id: tuple(lane_capacity(net.lanes[lane].length) for lane in i.incoming_lanes)
        for i in net.intersections
    }
    p = Problems()
    timeline: dict[str, list[tuple[int, int, int, int]]] = {}
    current: dict[str, int] = {}
    for time, iid, phase, green, switched, *_ in decisions:
        changes = phase != current.get(iid, 0)
        if changes != switched:
            p.add(f"decision at t={time} {iid}: switched={switched} but the phase change says {changes}")
        current[iid] = phase
        y = yellow if changes else 0
        # (decision time, green start, green end exclusive, phase)
        timeline.setdefault(iid, []).append((time, time + y, time + y + green, phase))
    cursor = {iid: 0 for iid in timeline}
    for time, iid, _phase, _mode, occ, dis in rows:
        for k, (n, cap) in enumerate(zip(occ, caps[iid])):
            if n > cap:
                p.add(f"t={time} {iid} lane n_{LANE_COLUMNS[k]}: {n} vehicles > capacity {cap}")
        plan = timeline.get(iid)
        if not plan:
            p.add(f"t={time} {iid}: no decision was ever made")
            continue
        k = cursor[iid]
        while k + 1 < len(plan) and plan[k + 1][0] <= time:
            k += 1
        cursor[iid] = k
        start, green_from, green_to, phase = plan[k]
        if time < start or time >= green_to:
            p.add(f"t={time} {iid}: no decision covers this tick")
            continue
        in_yellow = time < green_from
        for col, n in enumerate(dis):
            if n == 0:
                continue
            approach, turn = APPROACHES[col // 3], TURNS[col % 3]
            if turn == "right":
                continue
            if in_yellow or _PHASE_OF[(approach, turn)] != phase:
                state = "yellow" if in_yellow else f"phase {phase} green"
                p.add(f"t={time} {iid}: {n} discharged on {approach} {turn} during {state}")
    return p.result()


def file_problems(out_dir: str, net, yellow: int) -> list[str]:
    """Capacity, signal and budget checks over a run's telemetry and decisions files."""
    decisions = read_decision_rows(os.path.join(out_dir, "decisions.csv"))
    rows = read_telemetry_rows(os.path.join(out_dir, "telemetry.csv"))
    problems = telemetry_problems(rows, net, decisions, yellow)
    problems += budget_problems((d[0], d[1], d[5], d[6]) for d in decisions)
    return problems


def memory_problems(result, net, yellow: int) -> list[str]:
    """The same checks over an episode kept in memory (no files written)."""
    if result.steps is None:
        return []
    return telemetry_problems(step_rows(result.steps, net), net, record_rows(result.decisions), yellow)


# ------------------------------------------------------------------ digests


def artifact_digest(path: str) -> str:
    """SHA-256 of a file; of the stored arrays for .npz (zip entries carry timestamps)."""
    h = hashlib.sha256()
    if path.endswith(".npz"):
        with np.load(path) as data:
            for name in sorted(data.files):
                arr = data[name]
                h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -------------------------------------------------------- decision formulas


def movement_counts(world, inter) -> dict[tuple[str, str], tuple[int, int, int]]:
    """(approach, turn) -> (n_in, n_out, n_max) read from lane occupancies."""
    counts = {}
    for m in inter.movements:
        _, approach, turn = m.id.split(":")
        n_max = lane_capacity(world.net.lanes[m.out_lane].length)
        counts[(approach, turn)] = (
            world.occupancy(m.in_lane), world.occupancy(m.out_lane), n_max,
        )
    return counts


def _argmax_set(scores: dict[int, float]) -> set[int]:
    top = max(scores.values())
    return {k for k, v in scores.items() if v >= top - 1e-9 * max(1.0, abs(top))}


def prcol_decision_problem(counts, phase: int, green: int) -> str | None:
    """Greedy PRCOL: argmax of sum n_in (1 - n_out / n_max); dynamic green."""
    scores = {
        k: sum(counts[pair][0] * (1.0 - counts[pair][1] / counts[pair][2]) for pair in pairs)
        for k, pairs in PHASE_TABLE.items()
    }
    if phase not in _argmax_set(scores):
        return f"phase {phase} is not a PRCOL argmax of {scores}"
    worst = max(min(counts[pair][0], counts[pair][2] - counts[pair][1]) for pair in PHASE_TABLE[phase])
    if green not in dynamic_green(worst):
        return f"green {green} s for max n_pass {worst}, expected {dynamic_green(worst)}"
    return None


def maxpressure_decision_problem(counts, phase: int) -> str | None:
    """Max-pressure: argmax of sum (n_in - n_out)."""
    scores = {
        k: float(sum(counts[pair][0] - counts[pair][1] for pair in pairs))
        for k, pairs in PHASE_TABLE.items()
    }
    if phase not in _argmax_set(scores):
        return f"phase {phase} is not a max-pressure argmax of {scores}"
    return None


def load_weights(path: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) per layer from a checkpoint file."""
    with np.load(path) as data:
        n_layers = len(data["layer_sizes"]) - 1
        return [(data[f"w{i}"], data[f"b{i}"]) for i in range(n_layers)]


def q_values(layers: list[tuple[np.ndarray, np.ndarray]], state: np.ndarray) -> np.ndarray:
    """Rectifier network forward pass, linear output."""
    h = np.asarray(state, dtype=float)
    for i, (w, b) in enumerate(layers):
        h = w @ h + b
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def greedy_problem(layers, state: np.ndarray, phase: int) -> str | None:
    q = q_values(layers, state)
    if phase not in _argmax_set(dict(enumerate(q.tolist()))):
        return f"phase {phase} is not the argmax of Q = {q.tolist()}"
    return None


def training_problems(out_dir: str, run) -> list[str]:
    """Finite learning curve and losses; checkpoints reload bit for bit."""
    p = Problems()
    with open(os.path.join(out_dir, "learning_curve.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(run.curve):
        p.add(f"learning_curve.csv has {len(rows)} rows for {len(run.curve)} episodes")
    for row in rows:
        for key in ("epsilon", "avg_travel_time", "mean_loss"):
            if not math.isfinite(float(row[key])):
                p.add(f"episode {row['episode']}: {key} = {row[key]}")
    for name, net in (("checkpoint_final.npz", run.final_net), ("checkpoint_best.npz", run.best_net)):
        stored = load_weights(os.path.join(out_dir, name))
        if len(stored) != len(net.weights):
            p.add(f"{name}: {len(stored)} layers, the network has {len(net.weights)}")
            continue
        for i, ((w, b), w_net, b_net) in enumerate(zip(stored, net.weights, net.biases)):
            for kind, a, ref in (("weights", w, w_net), ("biases", b, b_net)):
                if a.dtype != ref.dtype or a.shape != ref.shape or a.tobytes() != ref.tobytes():
                    p.add(f"{name}: layer {i} {kind} differ from the returned network")
                elif not np.isfinite(a).all():
                    p.add(f"{name}: layer {i} {kind} are not finite")
    return p.result()
