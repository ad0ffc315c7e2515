"""Traffic demand: synthetic generators, flow files, arrival statistics.

A :class:`FlowSpec` describes one periodic stream of identical vehicles
(route over roads, start/end window, headway); expanding a list of specs
yields the :class:`Schedule` the engine spawns from: every departure's
time and route index as arrays, and the distinct routes once.

The two synthetic demand patterns target the 3x3 grid with uniform 300 m
lanes: a light pattern with one vehicle per entry every 20 s, and a heavy
rush-hour pattern that alternates a 2 s headway between the NS and WE
corridors in four 900 s periods.  All synthetic traffic drives straight
through the grid.

Flow files are a JSON subset of the CityFlow flow list; see
:func:`save_flow_file` for the schema.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .network import RoadNetwork, Turn, resolve_route
from .roadnet import _load_json, _positive

__all__ = [
    "MAX_FLOW_EVENTS",
    "VEHICLE_FIELDS",
    "FlowSpec",
    "Schedule",
    "straight_route",
    "syn_light_flows",
    "syn_heavy_flows",
    "expand_flows",
    "gen_syn_light",
    "gen_syn_heavy",
    "save_flow_file",
    "load_flow_file",
]


#: Most departures before the horizon a flow file may describe in total; a
#: file over it is rejected before any departure is expanded, so a tiny interval
#: cannot exhaust memory.
MAX_FLOW_EVENTS = 1_000_000


@dataclass(frozen=True)
class FlowSpec:
    """One periodic vehicle stream.

    Vehicles depart at ``start, start + interval, ...`` up to and including
    ``end``.  ``vehicle`` optionally carries kinematic overrides
    (length / minGap / maxSpeed / acceleration) from a flow file.
    """

    route: tuple[str, ...]  # road ids, entry road first
    start: int
    end: int
    interval: float
    vehicle: Optional[dict] = field(default=None, compare=True)

    def __post_init__(self) -> None:
        if not 0 < self.interval < math.inf:
            raise ValueError(f"flow interval must be finite and > 0, got {self.interval}")
        if self.start > self.end:
            raise ValueError("flow start must be <= end")

    def departures(self, until: float = math.inf) -> int:
        """How many departures :func:`expand_flows` builds for the stream before ``until``.

        Closed form: the window over the interval, moved to the first ``k``
        whose ``start + k * interval`` fails the expansion's own test, as
        float rounding in that sum may shift it.  A count past 2**53, more
        than any schedule holds, is the window over the interval alone.
        """
        start, end, interval = self.start, self.end, self.interval

        def departs(k: int) -> bool:
            t = start + k * interval
            return t <= end and t < until

        estimate = (min(until, end) - start) / interval
        if not estimate < 2**53:
            return int(min(estimate, 2.0**63))
        # departs(k) for every k < lo, and not departs(hi)
        lo = hi = int(estimate) if estimate > 0 else 0
        step = 1
        while departs(hi):
            lo, hi, step = hi + 1, hi + step, 2 * step
        step = 1
        while lo > 0 and not departs(lo - 1):
            hi, lo, step = lo - 1, max(0, lo - step), 2 * step
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if departs(mid) else (lo, mid)
        return hi


class Schedule:
    """A scenario's departures held as arrays, the timeline the engine spawns from.

    ``times`` is every departure's tick (int64, at least 0, in time order)
    and ``route_index`` its route's position in ``routes``, the distinct
    routes in first-use order.  The constructor sorts the departures by time
    once, stably, so departures at equal times keep the order they were
    given in; both arrays are then read-only.
    """

    __slots__ = ("times", "route_index", "routes")

    def __init__(self, times: np.ndarray, route_index: np.ndarray, routes: tuple[tuple[str, ...], ...]):
        order = np.argsort(times, kind="stable")
        self.times = np.asarray(times, np.int64)[order]
        self.route_index = np.asarray(route_index, np.intp)[order]
        if len(self.times) and self.times[0] < 0:
            raise ValueError(f"departure times must be >= 0, got {self.times[0]}")
        self.times.flags.writeable = self.route_index.flags.writeable = False
        self.routes = routes

    def __len__(self) -> int:
        return len(self.times)


def straight_route(net: RoadNetwork, entry_road_id: str) -> tuple[str, ...]:
    """Follow straight movements from an entry road until the boundary."""
    roads = [net.roads[entry_road_id]]
    intersection_ids = {i.id for i in net.intersections}
    while roads[-1].end in intersection_ids:
        inter = net.intersection(roads[-1].end)
        here = roads[-1]
        nxt = None
        for m in inter.movements:
            if m.turn is Turn.STRAIGHT and m.in_lane in here.lane_ids:
                nxt = net.road_of_lane(m.out_lane)
                break
        if nxt is None:
            raise ValueError(f"no straight continuation from road {here.id}")
        roads.append(nxt)
    return tuple(r.id for r in roads)


def _require_grid(net: RoadNetwork, rows: int, cols: int, what: str) -> None:
    if net.grid_shape is not None and net.grid_shape != (rows, cols):
        raise ValueError(
            f"{what} expects a {rows}x{cols} grid, got {net.grid_shape[0]}x{net.grid_shape[1]}"
        )


def _entry_roads_by_side(net: RoadNetwork) -> dict[str, list[str]]:
    sides: dict[str, list[str]] = {"w": [], "e": [], "n": [], "s": []}
    for road_id, side in net.entry_roads:
        sides[side].append(road_id)
    return sides


def _straight_flows(
    net: RoadNetwork,
    sides: Iterable[str],
    start: int,
    end: int,
    interval: float,
) -> list[FlowSpec]:
    by_side = _entry_roads_by_side(net)
    flows = []
    for side in sides:
        for road_id in by_side[side]:
            flows.append(FlowSpec(route=straight_route(net, road_id), start=start, end=end, interval=interval))
    return flows


def syn_light_flows(net: RoadNetwork, horizon: int = 3600) -> list[FlowSpec]:
    """Light uniform demand: every entry spawns one vehicle per 20 s."""
    _require_grid(net, 3, 3, "syn-light")
    return _straight_flows(net, "wens", 0, horizon - 1, 20)


def syn_heavy_flows(net: RoadNetwork, horizon: int = 3600) -> list[FlowSpec]:
    """Rush-hour demand in four 900 s periods.

    Periods 1 and 3 load every entry at a 10 s headway; period 2 drops the
    NS/SN headway to 2 s, period 4 does the same for WE/EW, the other axis
    staying at 10 s.
    """
    _require_grid(net, 3, 3, "syn-heavy")
    if horizon != 3600:
        raise ValueError("syn-heavy is defined on a 3600 s horizon")
    flows: list[FlowSpec] = []
    flows += _straight_flows(net, "wens", 0, 899, 10)
    flows += _straight_flows(net, "ns", 900, 1799, 2)
    flows += _straight_flows(net, "we", 900, 1799, 10)
    flows += _straight_flows(net, "wens", 1800, 2699, 10)
    flows += _straight_flows(net, "we", 2700, 3599, 2)
    flows += _straight_flows(net, "ns", 2700, 3599, 10)
    return flows


def expand_flows(flows: Iterable[FlowSpec], until: float = math.inf) -> Schedule:
    """Expand periodic flows into the schedule of their departures.

    Departure ``k`` of a flow leaves at ``int(start + k * interval)``, for
    every ``k`` whose sum is at most ``end`` and before ``until`` (a run's
    horizon; later departures would never spawn and are not built).
    Departures at equal times keep the order of their flows.
    """
    routes: dict[tuple[str, ...], int] = {}
    times = [np.zeros(0, np.int64)]
    index = [np.zeros(0, np.intp)]
    for flow in flows:
        n = flow.departures(until)
        if not n:
            continue
        if flow.start + (n - 1) * flow.interval >= 2**63:
            raise ValueError(f"flow departures run past 2**63 s: {flow.start} + {n - 1} x {flow.interval}")
        times.append((flow.start + np.arange(n) * flow.interval).astype(np.int64))
        index.append(np.full(n, routes.setdefault(flow.route, len(routes)), np.intp))
    return Schedule(np.concatenate(times), np.concatenate(index), tuple(routes))


def gen_syn_light(net: RoadNetwork, horizon: int = 3600) -> Schedule:
    """All departures of the light synthetic pattern (2160 on 3600 s)."""
    return expand_flows(syn_light_flows(net, horizon))


def gen_syn_heavy(net: RoadNetwork, horizon: int = 3600) -> Schedule:
    """All departures of the heavy synthetic pattern (8640 on 3600 s)."""
    return expand_flows(syn_heavy_flows(net, horizon))


def save_flow_file(flows: Iterable[FlowSpec], path: str) -> None:
    """Write flows as a JSON array of records.

    Each record is ``{"vehicle": {...}?, "route": [road ids],
    "interval": s, "startTime": s, "endTime": s}``; vehicles depart at
    startTime, startTime + interval, ... while not past endTime.
    """
    records = []
    for flow in flows:
        rec: dict = {
            "route": list(flow.route),
            "interval": flow.interval,
            "startTime": flow.start,
            "endTime": flow.end,
        }
        if flow.vehicle is not None:
            rec["vehicle"] = flow.vehicle
        records.append(rec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


#: Each flow-file ``vehicle`` key, and the ``KinematicParams`` field it sets.
VEHICLE_FIELDS = {"length": "vehicle_length", "minGap": "min_gap", "maxSpeed": "max_speed", "acceleration": "accel"}


def _whole_seconds(key: str, value) -> int:
    """``value`` as an int if it is a whole number of seconds >= 0 within float range."""
    if not isinstance(value, bool) and isinstance(value, (int, float)) and 0 <= value <= sys.float_info.max:
        if float(value).is_integer():
            return int(value)
    raise ValueError(f"{key} must be a whole number >= 0, got {value!r}")


def load_flow_file(path: str, net: RoadNetwork, until: float = math.inf) -> list[FlowSpec]:
    """Read a flow file, resolving every route against the network.

    ``interval`` and the ``vehicle`` fields must be JSON numbers, finite
    and > 0, and every record with a non-empty ``vehicle`` map must carry
    the same one: the engine models one vehicle type.  Raises
    ``ValueError`` naming the record index for malformed records and the
    offending id for unresolvable roads, and when the records describe
    more than :data:`MAX_FLOW_EVENTS` departures before ``until`` (a run's
    horizon) in total.
    """
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a JSON array of flow records")
    flows: list[FlowSpec] = []
    departures = 0
    first_vehicle: Optional[tuple[int, dict]] = None
    for idx, rec in enumerate(doc):
        try:
            route = rec["route"]
            if not isinstance(route, list) or not all(isinstance(road, str) for road in route):
                raise TypeError(f"route must be a list of road ids, got {route!r}")
            route = tuple(route)
            interval = _positive("interval", rec["interval"])
            start = _whole_seconds("startTime", rec["startTime"])
            end = _whole_seconds("endTime", rec["endTime"])
            vehicle = rec.get("vehicle")
            if vehicle is not None:
                if not isinstance(vehicle, dict):
                    raise TypeError(f"vehicle must be an object, got {vehicle!r}")
                vehicle = {k: _positive(f"vehicle {k}", v) for k, v in vehicle.items() if k in VEHICLE_FIELDS}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed flow record #{idx}: {exc}") from exc
        if vehicle:
            if first_vehicle is None:
                first_vehicle = (idx, vehicle)
            elif vehicle != first_vehicle[1]:
                raise ValueError(
                    f"{path}: flow record #{idx} has vehicle {vehicle} but record #{first_vehicle[0]} "
                    f"has {first_vehicle[1]}; the engine models one vehicle type"
                )
        try:
            resolve_route(net, route)
            flow = FlowSpec(route=route, start=start, end=end, interval=interval, vehicle=vehicle)
        except KeyError as exc:
            raise ValueError(f"{path}: flow record #{idx}: {exc.args[0]}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: flow record #{idx}: {exc}") from exc
        departures += flow.departures(until)
        if departures > MAX_FLOW_EVENTS:
            raise ValueError(
                f"{path}: flow record #{idx} brings the file to {departures:.4g} departures, "
                f"over the limit of {MAX_FLOW_EVENTS}"
            )
        flows.append(flow)
    return flows

