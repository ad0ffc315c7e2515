"""Static road-network model.

A network is a set of intersections connected by directed roads, each road
carrying three lanes (left / straight / right by the turn they feed at the
downstream stop line).  Every intersection has four approaches (W, E, N, S),
twelve traffic movements (approach x turn) and four signal phases pairing
the non-conflicting straight and left movements; right turns are permitted
at all times.

Everything here is immutable after construction and safe to share between
concurrently running simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

__all__ = [
    "Turn",
    "APPROACHES",
    "TURNS",
    "Lane",
    "Road",
    "Movement",
    "Phase",
    "Intersection",
    "RoadNetwork",
    "lane_capacity",
    "standard_phase_table",
    "movement_column",
    "assemble_network",
    "build_grid",
    "validate",
    "turn_between",
    "resolve_route",
]


class Turn(str, Enum):
    LEFT = "left"
    STRAIGHT = "straight"
    RIGHT = "right"


#: Canonical approach order used for observations, movements and telemetry.
APPROACHES = ("W", "E", "N", "S")
TURNS = (Turn.LEFT, Turn.STRAIGHT, Turn.RIGHT)

# Compass heading of travel -> approach label at the downstream intersection
# (traffic heading east arrives on the intersection's west approach).
_HEADING_TO_APPROACH = {"E": "W", "W": "E", "S": "N", "N": "S"}

# heading after turning left / right from a given heading of travel
_LEFT_OF = {"E": "N", "N": "W", "W": "S", "S": "E"}
_RIGHT_OF = {"E": "S", "S": "W", "W": "N", "N": "E"}


@dataclass(frozen=True)
class Lane:
    """One directed lane: identifier, geometry and vehicle capacity."""

    id: str
    length: float  # meters
    max_speed: float  # m/s
    capacity: int  # vehicles that fit when fully queued

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"lane {self.id}: length must be > 0")
        if self.capacity < 1:
            raise ValueError(f"lane {self.id}: capacity must be >= 1")


@dataclass(frozen=True)
class Road:
    """Directed road between two nodes, carrying three lanes.

    ``heading`` is the compass direction of travel; ``lane_ids`` are ordered
    (left, straight, right) by the turn each lane feeds downstream.
    """

    id: str
    start: str
    end: str
    heading: str  # one of N/S/E/W
    length: float
    max_speed: float
    lane_ids: tuple[str, str, str]

    def lane_for_turn(self, turn: Turn) -> str:
        return self.lane_ids[TURNS.index(turn)]


@dataclass(frozen=True)
class Movement:
    """A route through an intersection from one lane to another."""

    id: str
    in_lane: str
    out_lane: str
    turn: Turn


@dataclass(frozen=True)
class Phase:
    """A set of non-conflicting movements granted green together."""

    id: int
    movements: tuple[str, ...]


@dataclass(frozen=True)
class Intersection:
    """Signalized junction: 12 in/out lanes, 12 movements, 4 phases.

    ``incoming_lanes`` / ``outgoing_lanes`` and ``movements`` follow the
    canonical order (W, E, N, S) x (left, straight, right).  ``always_green``
    holds the four right-turn movement ids.
    """

    id: str
    incoming_lanes: tuple[str, ...]
    outgoing_lanes: tuple[str, ...]
    movements: tuple[Movement, ...]
    phases: tuple[Phase, ...]
    always_green: frozenset[str]

    def movement(self, movement_id: str) -> Movement:
        for m in self.movements:
            if m.id == movement_id:
                return m
        raise KeyError(movement_id)


@dataclass
class RoadNetwork:
    """Registry of intersections, roads and lanes plus boundary hookups."""

    intersections: list[Intersection] = field(default_factory=list)
    roads: dict[str, Road] = field(default_factory=dict)
    lanes: dict[str, Lane] = field(default_factory=dict)
    boundary_entries: list[tuple[str, str]] = field(default_factory=list)  # (lane, side)
    boundary_exits: list[str] = field(default_factory=list)  # lane ids
    grid_shape: Optional[tuple[int, int]] = None  # (rows, cols) when grid-built
    node_positions: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_id = {i.id: i for i in self.intersections}
        self._movements = {
            m.id: m for i in self.intersections for m in i.movements
        }
        self._lane_road = {
            lane_id: road for road in self.roads.values() for lane_id in road.lane_ids
        }

    def intersection(self, intersection_id: str) -> Intersection:
        return self._by_id[intersection_id]

    def movement(self, movement_id: str) -> Movement:
        return self._movements[movement_id]

    def road_of_lane(self, lane_id: str) -> Road:
        return self._lane_road[lane_id]

    @property
    def entry_roads(self) -> list[tuple[str, str]]:
        """Distinct (road id, side) pairs among the boundary entries."""
        seen: list[tuple[str, str]] = []
        for lane_id, side in self.boundary_entries:
            pair = (self.road_of_lane(lane_id).id, side)
            if pair not in seen:
                seen.append(pair)
        return seen


def lane_capacity(length: float, l_v: float, l_g: float) -> int:
    """Vehicles of length ``l_v`` with minimum gap ``l_g`` that fit on ``length``."""
    if not 0 < length < math.inf or l_v <= 0 or l_g <= 0:
        raise ValueError("lane length must be finite and > 0, vehicle length and gap > 0")
    # tolerant floor: exact ratios like 300 / 7.5 must not fall prey to float dust
    return int(math.floor(length / (l_v + l_g) + 1e-9))


def standard_phase_table() -> tuple[tuple[tuple[str, Turn], ...], ...]:
    """The four-phase scheme as (approach, turn) pairs.

    Phase 0 pairs the opposing W/E straights, phase 1 the N/S straights,
    phase 2 the W/E lefts, phase 3 the N/S lefts.  Right turns are excluded
    because they are permitted at all times.
    """
    return (
        (("W", Turn.STRAIGHT), ("E", Turn.STRAIGHT)),
        (("N", Turn.STRAIGHT), ("S", Turn.STRAIGHT)),
        (("W", Turn.LEFT), ("E", Turn.LEFT)),
        (("N", Turn.LEFT), ("S", Turn.LEFT)),
    )


def movement_column(approach: str, turn: Turn) -> int:
    """Position of an (approach, turn) movement in the canonical order."""
    return APPROACHES.index(approach) * len(TURNS) + TURNS.index(turn)


def turn_between(heading_in: str, heading_out: str) -> Turn:
    """Turn type implied by the headings before and after an intersection."""
    if heading_in == heading_out:
        return Turn.STRAIGHT
    if _LEFT_OF[heading_in] == heading_out:
        return Turn.LEFT
    if _RIGHT_OF[heading_in] == heading_out:
        return Turn.RIGHT
    raise ValueError(f"no movement from heading {heading_in} to {heading_out}")


def _movement_id(intersection_id: str, approach: str, turn: Turn) -> str:
    return f"{intersection_id}:{approach}:{turn.value}"


def _make_intersection(
    intersection_id: str,
    incoming: dict[str, Road],
    outgoing: dict[str, Road],
) -> Intersection:
    """Assemble movements and phases for one junction.

    ``incoming`` / ``outgoing`` map approach labels (W/E/N/S) to the road
    arriving from, respectively leaving toward, that side.
    """
    in_lanes: list[str] = []
    out_lanes: list[str] = []
    movements: list[Movement] = []
    for approach in APPROACHES:
        road_in = incoming[approach]
        heading = road_in.heading
        for turn in TURNS:
            if turn is Turn.STRAIGHT:
                heading_out = heading
            elif turn is Turn.LEFT:
                heading_out = _LEFT_OF[heading]
            else:
                heading_out = _RIGHT_OF[heading]
            road_out = outgoing[heading_out]
            movements.append(
                Movement(
                    id=_movement_id(intersection_id, approach, turn),
                    in_lane=road_in.lane_for_turn(turn),
                    out_lane=road_out.lane_for_turn(turn),
                    turn=turn,
                )
            )
        in_lanes.extend(road_in.lane_ids)
    for approach in APPROACHES:
        out_lanes.extend(outgoing[approach].lane_ids)

    phases = tuple(
        Phase(
            id=k,
            movements=tuple(
                _movement_id(intersection_id, approach, turn) for approach, turn in pair
            ),
        )
        for k, pair in enumerate(standard_phase_table())
    )
    always_green = frozenset(
        m.id for m in movements if m.turn is Turn.RIGHT
    )
    return Intersection(
        id=intersection_id,
        incoming_lanes=tuple(in_lanes),
        outgoing_lanes=tuple(out_lanes),
        movements=tuple(movements),
        phases=phases,
        always_green=always_green,
    )


def _heading(p0: tuple[float, float], p1: tuple[float, float]) -> str:
    """Compass heading of travel from ``p0`` to ``p1`` (y grows northward)."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if abs(dx) >= abs(dy):
        return "E" if dx >= 0 else "W"
    return "N" if dy > 0 else "S"


def assemble_network(
    positions: dict[str, tuple[float, float]],
    virtual: set[str],
    roads: Iterable[tuple[str, str, str, float, float]],
    *,
    l_v: float,
    l_g: float,
    grid_shape: Optional[tuple[int, int]] = None,
) -> RoadNetwork:
    """Build a network from node positions, boundary nodes and road records.

    ``positions`` maps every node id to its (x, y), in node order;
    ``virtual`` holds the boundary nodes; each road record is ``(id, start,
    end, length, max_speed)``.  A road's heading comes from its endpoint
    positions and its three lanes hold :func:`lane_capacity` vehicles.
    Intersections follow node order, boundary entries and exits road order.
    An entry's side is the ``<side>`` of a ``b_<side>_<k>`` start node, or
    else the side its heading enters the network from.  Raises
    ``ValueError`` when two roads share an approach or a node that is not
    virtual is not a full 4-way junction.
    """
    built: dict[str, Road] = {}
    lanes: dict[str, Lane] = {}
    for road_id, start, end, length, max_speed in roads:
        lane_ids = tuple(f"{road_id}_{i}" for i in range(3))
        heading = _heading(positions[start], positions[end])
        built[road_id] = Road(road_id, start, end, heading, length, max_speed, lane_ids)  # type: ignore[arg-type]
        cap = lane_capacity(length, l_v, l_g)
        for lane_id in lane_ids:
            lanes[lane_id] = Lane(id=lane_id, length=length, max_speed=max_speed, capacity=cap)

    incoming: dict[str, dict[str, Road]] = {}
    outgoing: dict[str, dict[str, Road]] = {}
    entries: list[tuple[str, str]] = []
    exits: list[str] = []
    for road in built.values():
        for node, buckets, approach, how in (
            (road.end, incoming, _HEADING_TO_APPROACH[road.heading], "arriving from"),
            (road.start, outgoing, road.heading, "leaving toward"),
        ):
            if node in virtual:
                continue
            bucket = buckets.setdefault(node, {})
            if approach in bucket:
                raise ValueError(f"intersection {node} has two roads {how} {approach}")
            bucket[approach] = road
        if road.start in virtual:
            named = road.start.split("_")[1] if road.start.startswith("b_") else None
            side = named if named in ("w", "e", "n", "s") else _HEADING_TO_APPROACH[road.heading].lower()
            entries.extend((lane_id, side) for lane_id in road.lane_ids)
        if road.end in virtual:
            exits.extend(road.lane_ids)

    intersections: list[Intersection] = []
    for node in positions:
        if node in virtual:
            continue
        inc, out = incoming.get(node, {}), outgoing.get(node, {})
        if len(inc) != 4 or len(out) != 4:
            raise ValueError(f"intersection {node} is not a full 4-way junction")
        intersections.append(_make_intersection(node, inc, out))

    return RoadNetwork(
        intersections=intersections,
        roads=built,
        lanes=lanes,
        boundary_entries=entries,
        boundary_exits=exits,
        grid_shape=grid_shape,
        node_positions=positions,
    )


def build_grid(
    rows: int,
    cols: int,
    we_length: float,
    ns_length: float,
    l_v: float = 5.0,
    l_g: float = 2.5,
    max_speed: float = 40.0 / 3.6,
) -> RoadNetwork:
    """Build a rows x cols signalized grid.

    Horizontal (WE-direction) road segments are ``we_length`` meters long,
    vertical (NS-direction) segments ``ns_length``.  Every road carries three
    lanes whose capacity comes from :func:`lane_capacity`.  Boundary nodes on
    all four sides provide entry and exit roads.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least 1 row and 1 column")
    if we_length <= 0 or ns_length <= 0:
        raise ValueError("lane lengths must be > 0")

    def node(r: int, c: int) -> str:
        if 0 <= r < rows and 0 <= c < cols:
            return f"i_{r}_{c}"
        if c < 0:
            return f"b_w_{r}"
        if c >= cols:
            return f"b_e_{r}"
        if r < 0:
            return f"b_n_{c}"
        return f"b_s_{c}"

    positions = {
        node(r, c): (c * we_length, -r * ns_length)
        for r in range(-1, rows + 1)
        for c in range(-1, cols + 1)
        if not (r in (-1, rows) and c in (-1, cols))  # no corner nodes
    }
    # E/W pairs row by row, then S/N pairs column by column, boundary stubs included
    segments = [(node(r, c), node(r, c + 1), we_length) for r in range(rows) for c in range(-1, cols)]
    segments += [(node(r, c), node(r + 1, c), ns_length) for c in range(cols) for r in range(-1, rows)]
    roads = [
        (f"rd__{frm}__{to}", frm, to, length, max_speed)
        for a, b, length in segments
        for frm, to in ((a, b), (b, a))
    ]
    virtual = {n for n in positions if n.startswith("b_")}
    return assemble_network(positions, virtual, roads, l_v=l_v, l_g=l_g, grid_shape=(rows, cols))


def resolve_route(net: RoadNetwork, road_ids: list[str] | tuple[str, ...]) -> tuple[str, list[Movement]]:
    """Turn a road sequence into (entry lane, movement chain).

    The route must start on a boundary-entry road, end on a boundary-exit
    road, and consecutive roads must meet at a real intersection.  The entry
    lane is the lane of the first road that feeds the first movement's turn
    (the straight lane for a single-road route).
    """
    if not road_ids:
        raise ValueError("route is empty")
    for road_id in road_ids:
        if road_id not in net.roads:
            raise KeyError(f"route references unknown road {road_id!r}")
    roads = [net.roads[r] for r in road_ids]
    intersection_ids = {i.id for i in net.intersections}
    if roads[-1].end in intersection_ids:
        raise ValueError(
            f"route must end at a boundary exit, but road {roads[-1].id} ends at {roads[-1].end}"
        )
    movements: list[Movement] = []
    for here, nxt in zip(roads, roads[1:]):
        if here.end != nxt.start:
            raise ValueError(f"roads {here.id} and {nxt.id} are not connected")
        if here.end not in intersection_ids:
            raise ValueError(f"route passes through non-intersection node {here.end}")
        turn = turn_between(here.heading, nxt.heading)
        approach = _HEADING_TO_APPROACH[here.heading]
        movements.append(net.intersection(here.end).movement(_movement_id(here.end, approach, turn)))
    if movements:
        entry_lane = movements[0].in_lane
    else:
        entry_lane = roads[0].lane_for_turn(Turn.STRAIGHT)
    return entry_lane, movements


def validate(net: RoadNetwork) -> list[str]:
    """Check every structural invariant; returns all violations found.

    An empty list means the network is well formed.  Violations are data,
    not exceptions: callers decide whether to fault.
    """
    problems: list[str] = []
    table = standard_phase_table()

    for lane_id, lane in net.lanes.items():
        if lane.id != lane_id:
            problems.append(f"lane {lane_id}: registry key mismatch")

    for inter in net.intersections:
        prefix = f"intersection {inter.id}"
        if len(inter.movements) != 12:
            problems.append(f"{prefix}: movement count != 12")
        if len(inter.phases) != 4:
            problems.append(f"{prefix}: phase count != 4")
        if len(inter.incoming_lanes) != 12 or len(inter.outgoing_lanes) != 12:
            problems.append(f"{prefix}: lane bundle size != 12")

        seen_pairs = set()
        movement_ids = set()
        for m in inter.movements:
            movement_ids.add(m.id)
            if m.in_lane == m.out_lane:
                problems.append(f"{prefix}: movement {m.id} loops onto its own lane")
            for lane_id in (m.in_lane, m.out_lane):
                if lane_id not in net.lanes:
                    problems.append(
                        f"{prefix}: movement {m.id} dangling lane reference {lane_id}"
                    )
            key = (m.in_lane, m.turn)
            if key in seen_pairs:
                problems.append(f"{prefix}: duplicate (in_lane, turn) {key}")
            seen_pairs.add(key)

        rights = {m.id for m in inter.movements if m.turn is Turn.RIGHT}
        if inter.always_green != rights:
            problems.append(f"{prefix}: always_green is not the 4 right turns")

        in_phase: list[str] = []
        for phase in inter.phases:
            if len(phase.movements) != 2:
                problems.append(f"{prefix} phase {phase.id}: movement count != 2")
                continue
            members = []
            for mid in phase.movements:
                if mid not in movement_ids:
                    problems.append(
                        f"{prefix} phase {phase.id}: unknown movement {mid}"
                    )
                else:
                    members.append(inter.movement(mid))
            if len(members) == 2:
                a, b = members
                if Turn.RIGHT in (a.turn, b.turn):
                    problems.append(
                        f"{prefix} phase {phase.id}: contains a right turn"
                    )
                elif a.turn != b.turn:
                    problems.append(
                        f"{prefix} phase {phase.id}: conflicting movement pair"
                    )
                else:
                    # non-conflicting = same turn type from opposing approaches
                    appr = {m.id.split(":")[1] for m in members}
                    if appr not in ({"W", "E"}, {"N", "S"}):
                        problems.append(
                            f"{prefix} phase {phase.id}: conflicting movement pair"
                        )
            in_phase.extend(phase.movements)
        non_right = {m.id for m in inter.movements if m.turn is not Turn.RIGHT}
        if len(in_phase) == 8 and (set(in_phase) != non_right or len(set(in_phase)) != 8):
            problems.append(f"{prefix}: phases do not partition the 8 controlled movements")
        # the engine reads counts by canonical position: phase k serves the
        # movements of table row k, and incoming lane j feeds movement j
        if len(inter.movements) == 12 and len(inter.phases) == 4:
            for phase, pair in zip(inter.phases, table):
                served = tuple(inter.movements[movement_column(a, t)].id for a, t in pair)
                if phase.movements != served:
                    problems.append(f"{prefix} phase {phase.id}: not the standard movements {served}")
        if inter.incoming_lanes != tuple(m.in_lane for m in inter.movements):
            problems.append(f"{prefix}: incoming lanes are not the movements' lanes in order")

    # boundary / connectivity checks
    for lane_id, side in net.boundary_entries:
        if lane_id not in net.lanes:
            problems.append(f"boundary entry {lane_id}: unknown lane")
        if side not in ("w", "e", "n", "s"):
            problems.append(f"boundary entry {lane_id}: bad side {side!r}")
    for lane_id in net.boundary_exits:
        if lane_id not in net.lanes:
            problems.append(f"boundary exit {lane_id}: unknown lane")

    in_lanes_used: dict[str, set[str]] = {}
    out_lanes_used: dict[str, set[str]] = {}
    for inter in net.intersections:
        for m in inter.movements:
            in_lanes_used.setdefault(m.in_lane, set()).add(inter.id)
            out_lanes_used.setdefault(m.out_lane, set()).add(inter.id)
    entry_lanes = {lane_id for lane_id, _ in net.boundary_entries}
    exit_lanes = set(net.boundary_exits)
    for lane_id in net.lanes:
        consumers = in_lanes_used.get(lane_id, set())
        producers = out_lanes_used.get(lane_id, set())
        if len(consumers) > 1:
            problems.append(f"lane {lane_id}: feeds more than one intersection")
        if len(producers) > 1:
            problems.append(f"lane {lane_id}: fed by more than one intersection")
        if not consumers and lane_id not in exit_lanes:
            problems.append(f"lane {lane_id}: dead end (no downstream, not an exit)")
        if not producers and lane_id not in entry_lanes:
            problems.append(f"lane {lane_id}: orphan (no upstream, not an entry)")

    return problems
