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


def _finite(value: Any) -> float | None:
    """``value`` as a float when it is a finite JSON number, else ``None``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        return None
    return number if math.isfinite(number) else None


def _positive(what: str, value: Any) -> float:
    """``value`` as a float when it is a finite JSON number > 0, else raises ``ValueError``."""
    number = _finite(value)
    if number is None or number <= 0:
        raise ValueError(f"{what} must be a finite number > 0, got {value!r}")
    return number


def _load_json(path: str, error: type[ValueError] = ValueError) -> Any:
    """The JSON document in ``path``; a file that is not UTF-8 JSON raises ``error`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: {exc}") from exc


def load_roadnet(path: str, l_v: float = 5.0, l_g: float = 2.5) -> RoadNetwork:
    """Load a roadnet JSON file and map it onto a :class:`RoadNetwork`.

    Lane capacities are derived from each road's length and the given
    vehicle length / minimum gap.  Every fault raises a one-line
    :class:`RoadnetFormatError` naming the file and the record.
    """
    doc = _load_json(path, RoadnetFormatError)
    if not isinstance(doc, dict) or "intersections" not in doc or "roads" not in doc:
        raise RoadnetFormatError(f"{path}: expected object with intersections and roads")
    for key in ("intersections", "roads"):
        if not isinstance(doc[key], list):
            raise RoadnetFormatError(f"{path}: {key} must be a list, got {doc[key]!r}")

    # one test per rule and record; a message is built only for a rule that fails
    seen_ignored: set[str] = set()
    positions: dict[str, tuple[float, float]] = {}
    virtual: set[str] = set()
    for rec in doc["intersections"]:
        if not isinstance(rec, dict):
            raise RoadnetFormatError(f"{path}: malformed intersection record: {rec!r}")
        _warn_ignored(rec, _INTERSECTION_KEYS, seen_ignored, "intersection")
        try:
            node_id = rec["id"]
            x, y = _finite(rec["point"]["x"]), _finite(rec["point"]["y"])
        except (KeyError, TypeError) as exc:
            raise RoadnetFormatError(f"{path}: malformed intersection record: {rec!r}") from exc
        if not isinstance(node_id, str):
            raise RoadnetFormatError(f"{path}: intersection id must be a string, got {node_id!r}")
        if x is None or y is None:
            raise RoadnetFormatError(f"{path}: intersection {node_id} point must hold finite numbers x and y")
        if node_id in positions:
            raise RoadnetFormatError(f"{path}: repeated intersection id {node_id}")
        positions[node_id] = (x, y)
        is_virtual = rec.get("virtual", False)
        if is_virtual is True:
            virtual.add(node_id)
        elif is_virtual is not False:
            raise RoadnetFormatError(f"{path}: intersection {node_id} virtual must be true or false, got {is_virtual!r}")

    roads: list[tuple[str, str, str, float, float]] = []
    road_ids: set[str] = set()
    for rec in doc["roads"]:
        if not isinstance(rec, dict):
            raise RoadnetFormatError(f"{path}: malformed road record: {rec!r}")
        _warn_ignored(rec, _ROAD_KEYS, seen_ignored, "road")
        try:
            road_id = rec["id"]
            start, end = rec["startIntersection"], rec["endIntersection"]
        except KeyError as exc:
            raise RoadnetFormatError(f"{path}: malformed road record: {rec!r}") from exc
        if not isinstance(road_id, str):
            raise RoadnetFormatError(f"{path}: road id must be a string, got {road_id!r}")
        for what, node_id in (("startIntersection", start), ("endIntersection", end)):
            if not isinstance(node_id, str):
                raise RoadnetFormatError(
                    f"{path}: road {road_id} {what} must be a string, got {node_id!r}"
                )
        if road_id in road_ids:
            raise RoadnetFormatError(f"{path}: repeated road id {road_id}")
        road_ids.add(road_id)
        for node_id in (start, end):
            if node_id not in positions:
                raise RoadnetFormatError(
                    f"{path}: road {road_id} references unknown intersection {node_id}"
                )
        lane_spec = rec.get("lanes", 3)
        if isinstance(lane_spec, list) and all(isinstance(lane, dict) for lane in lane_spec):
            n_lanes = len(lane_spec)
        elif isinstance(lane_spec, int) and not isinstance(lane_spec, bool):
            n_lanes = lane_spec
        else:
            raise RoadnetFormatError(
                f"{path}: road {road_id} lanes must be a count or a list of lane objects, got {lane_spec!r}"
            )
        if n_lanes != 3:
            raise RoadnetFormatError(
                f"{path}: road {road_id} has {n_lanes} lanes; exactly 3 are supported"
            )
        try:
            if "maxSpeed" in rec:
                max_speed = _positive("maxSpeed", rec["maxSpeed"])
            elif isinstance(lane_spec, list) and "maxSpeed" in lane_spec[0]:
                max_speed = _positive("lane maxSpeed", lane_spec[0]["maxSpeed"])
            else:
                max_speed = 40.0 / 3.6
            geometric = math.dist(positions[start], positions[end])
            length = _positive("length", rec.get("length", geometric))
        except ValueError as exc:
            raise RoadnetFormatError(f"{path}: road {road_id} {exc}") from None
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
