"""Static road-network model.

A network is a set of intersections connected by directed roads, each road
carrying three lanes (left / straight / right by the turn they feed at the
downstream stop line).  Every intersection has four approaches (W, E, N, S),
twelve traffic movements (approach x turn) and four signal phases pairing
the non-conflicting straight and left movements; right turns are permitted
at all times.

The four-phase scheme is stated once, in :func:`standard_phase_table`, and
read everywhere else as :data:`PHASE_COLUMNS`: the positions in the
canonical movement order of the two movements each phase grants.  Every
network comes from :func:`assemble_network`, which builds each
intersection's twelve movements in that canonical order, so a network is
well formed by construction.

Everything here is immutable after construction and safe to share between
concurrently running simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "Turn",
    "APPROACHES",
    "TURNS",
    "Lane",
    "Road",
    "Movement",
    "Intersection",
    "RoadNetwork",
    "lane_capacity",
    "standard_phase_table",
    "movement_column",
    "PHASE_COLUMNS",
    "assemble_network",
    "build_grid",
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
class Intersection:
    """Signalized junction with 12 movements in the canonical order
    (W, E, N, S) x (left, straight, right).

    Phase ``k`` grants the movements at ``PHASE_COLUMNS[k]``; the four right
    turns are always green.
    """

    id: str
    movements: tuple[Movement, ...]

    @property
    def incoming_lanes(self) -> tuple[str, ...]:
        """The movements' incoming lanes, in canonical order."""
        return tuple(m.in_lane for m in self.movements)


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
        self._lane_road = {
            lane_id: road for road in self.roads.values() for lane_id in road.lane_ids
        }

    def intersection(self, intersection_id: str) -> Intersection:
        return self._by_id[intersection_id]

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
    ratio = length / (l_v + l_g)
    if ratio > np.iinfo(np.int64).max:  # the engine keeps counts as int64
        raise ValueError(f"a {length} m lane holds more vehicles than a count can store")
    # tolerant floor: exact ratios like 300 / 7.5 must not fall prey to float dust
    return int(math.floor(ratio + 1e-9))


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


#: Row ``k``: the positions in the canonical movement order of the two
#: movements phase ``k`` grants (read-only).
PHASE_COLUMNS = np.array([[movement_column(a, t) for a, t in pair] for pair in standard_phase_table()])
PHASE_COLUMNS.flags.writeable = False


def _movement_id(intersection_id: str, approach: str, turn: Turn) -> str:
    return f"{intersection_id}:{approach}:{turn.value}"


def _make_intersection(
    intersection_id: str,
    incoming: dict[str, Road],
    outgoing: dict[str, Road],
) -> Intersection:
    """Assemble the 12 movements of one junction in canonical order.

    ``incoming`` / ``outgoing`` map approach labels (W/E/N/S) to the road
    arriving from, respectively leaving toward, that side.
    """
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
    return Intersection(id=intersection_id, movements=tuple(movements))


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
    else the side its heading enters the network from.

    Each road's three lanes are filed under its one end and its one start,
    every non-virtual node needs four incoming and four outgoing roads, and
    its movements are built from those in canonical order, so no lane can
    dangle, feed or be fed by two junctions, dead-end or be orphaned.
    Raises ``ValueError`` for what input can still get wrong: no node that
    is not virtual, a road that starts and ends at the same node, two roads
    sharing an approach, or a node that is not virtual and not a full 4-way
    junction.
    """
    if all(node in virtual for node in positions):
        raise ValueError("network has no intersection")
    built: dict[str, Road] = {}
    lanes: dict[str, Lane] = {}
    for road_id, start, end, length, max_speed in roads:
        if start == end:
            raise ValueError(f"road {road_id} starts and ends at {start}")
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
    road, and each road must reach the next through a movement of the real
    intersection between them.  The entry lane is the first road's lane that
    feeds the first movement (the straight lane for a single-road route).
    """
    if not road_ids:
        raise ValueError("route is empty")
    for road_id in road_ids:
        if road_id not in net.roads:
            raise KeyError(f"route references unknown road {road_id!r}")
    roads = [net.roads[r] for r in road_ids]
    intersection_ids = net._by_id
    if roads[0].start in intersection_ids:
        raise ValueError(f"route must start at a boundary entry, but road {roads[0].id} starts at {roads[0].start}")
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
        for m in net.intersection(here.end).movements:
            if m.in_lane in here.lane_ids and m.out_lane in nxt.lane_ids:
                movements.append(m)
                break
        else:
            raise ValueError(f"no movement from road {here.id} to road {nxt.id}")
    if movements:
        entry_lane = movements[0].in_lane
    else:
        entry_lane = roads[0].lane_for_turn(Turn.STRAIGHT)
    return entry_lane, movements
