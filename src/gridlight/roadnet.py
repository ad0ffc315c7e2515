"""Road-network file I/O.

Reads and writes a CityFlow-compatible subset of the roadnet JSON format:
intersections carry an id, a position and a ``virtual`` flag (virtual nodes
are the network boundary); roads carry id, endpoints, length, lane count and
speed limit.  Any other CityFlow field is ignored with a warning, one
warning per field name.  Every real intersection must be a standard 4-way
junction with three lanes per approach; anything else is rejected.
"""

from __future__ import annotations

import json
import logging
import math
from typing import Any

from .network import RoadNetwork, assemble_network

__all__ = ["load_roadnet", "save_roadnet"]

log = logging.getLogger(__name__)

_INTERSECTION_KEYS = {"id", "point", "virtual"}
_ROAD_KEYS = {"id", "startIntersection", "endIntersection", "length", "maxSpeed", "lanes", "points"}


class RoadnetFormatError(ValueError):
    """Raised when a roadnet file cannot be mapped onto the network model."""


def _warn_ignored(record: dict[str, Any], known: set[str], seen: set[str], where: str) -> None:
    for key in record:
        if key not in known and key not in seen:
            seen.add(key)
            log.warning("ignoring unsupported roadnet field %r (%s)", key, where)


def load_roadnet(path: str, l_v: float = 5.0, l_g: float = 2.5) -> RoadNetwork:
    """Load a roadnet JSON file and map it onto a :class:`RoadNetwork`.

    Lane capacities are derived from each road's length and the given
    vehicle length / minimum gap.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "intersections" not in doc or "roads" not in doc:
        raise RoadnetFormatError(f"{path}: expected object with intersections and roads")

    seen_ignored: set[str] = set()
    positions: dict[str, tuple[float, float]] = {}
    virtual: set[str] = set()
    for rec in doc["intersections"]:
        _warn_ignored(rec, _INTERSECTION_KEYS, seen_ignored, "intersection")
        try:
            node_id = rec["id"]
            point = (float(rec["point"]["x"]), float(rec["point"]["y"]))
        except (KeyError, TypeError) as exc:
            raise RoadnetFormatError(f"{path}: malformed intersection record: {rec!r}") from exc
        if node_id in positions:
            raise RoadnetFormatError(f"{path}: repeated intersection id {node_id}")
        positions[node_id] = point
        if rec.get("virtual", False):
            virtual.add(node_id)

    roads: list[tuple[str, str, str, float, float]] = []
    road_ids: set[str] = set()
    for rec in doc["roads"]:
        _warn_ignored(rec, _ROAD_KEYS, seen_ignored, "road")
        try:
            road_id = rec["id"]
            start, end = rec["startIntersection"], rec["endIntersection"]
        except KeyError as exc:
            raise RoadnetFormatError(f"{path}: malformed road record: {rec!r}") from exc
        if road_id in road_ids:
            raise RoadnetFormatError(f"{path}: repeated road id {road_id}")
        road_ids.add(road_id)
        for node_id in (start, end):
            if node_id not in positions:
                raise RoadnetFormatError(
                    f"{path}: road {road_id} references unknown intersection {node_id}"
                )
        lane_spec = rec.get("lanes", 3)
        n_lanes = len(lane_spec) if isinstance(lane_spec, list) else int(lane_spec)
        if n_lanes != 3:
            raise RoadnetFormatError(
                f"{path}: road {road_id} has {n_lanes} lanes; exactly 3 are supported"
            )
        if "maxSpeed" in rec:
            max_speed = float(rec["maxSpeed"])
        elif isinstance(lane_spec, list) and lane_spec and "maxSpeed" in lane_spec[0]:
            max_speed = float(lane_spec[0]["maxSpeed"])
        else:
            max_speed = 40.0 / 3.6
        if "length" in rec:
            length = float(rec["length"])
        else:
            p0, p1 = positions[start], positions[end]
            length = math.dist(p0, p1)
        if not 0 < length < math.inf:
            raise RoadnetFormatError(f"{path}: road {road_id} length must be finite and > 0, got {length}")
        roads.append((road_id, start, end, length, max_speed))

    try:
        return assemble_network(positions, virtual, roads, l_v=l_v, l_g=l_g)
    except ValueError as exc:
        raise RoadnetFormatError(f"{path}: {exc}") from exc


def save_roadnet(net: RoadNetwork, path: str) -> None:
    """Write the network in the roadnet JSON subset read by :func:`load_roadnet`."""
    intersection_ids = {i.id for i in net.intersections}
    node_ids = list(net.node_positions)
    doc = {
        "intersections": [
            {
                "id": node_id,
                "point": {
                    "x": net.node_positions[node_id][0],
                    "y": net.node_positions[node_id][1],
                },
                "virtual": node_id not in intersection_ids,
            }
            for node_id in node_ids
        ],
        "roads": [
            {
                "id": road.id,
                "startIntersection": road.start,
                "endIntersection": road.end,
                "length": road.length,
                "maxSpeed": road.max_speed,
                "lanes": 3,
            }
            for road in net.roads.values()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
