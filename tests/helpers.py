"""Test set-up that a running world has no path for.

A ``World`` changes only through its spawn events, decisions and ``step``.
The tests also stage exact queues and rolling vehicles, and
:func:`place_vehicle` writes those straight into the world's lanes.
"""

from typing import Optional

from gridlight.engine import _EPS, MOVING, Vehicle, World
from gridlight.network import resolve_route


def place_vehicle(
    world: World,
    lane_id: str,
    pos: float = 0.0,
    speed: float = 0.0,
    route_roads: Optional[tuple[str, ...]] = None,
) -> Vehicle:
    """Put a vehicle directly onto a lane of ``world``.

    The vehicle is appended behind the lane's current occupants, so
    ``pos`` must be below the rearmost occupant's position minus one
    headway.  Without a route the vehicle follows each movement's
    conventional outgoing lane until it reaches a boundary.
    """
    ls = world.lanes[lane_id]
    if len(ls.vehicles) >= ls.lane.capacity:
        raise ValueError(f"lane {lane_id} is at capacity")
    if ls.vehicles and pos > ls.vehicles[-1].pos - world.k.headway + _EPS:
        raise ValueError("placement would violate the standing headway")
    if not 0 <= pos <= ls.lane.length:
        raise ValueError("placement outside the lane")
    movements = [] if route_roads is None else resolve_route(world.net, route_roads)[1]
    veh = Vehicle(len(world.vehicles), movements, lane_id, entered_at=world.time)
    veh.status = MOVING
    veh.pos = float(pos)
    veh.speed = float(speed)
    world.vehicles.append(veh)
    world.entered_total += 1
    ls.vehicles.append(veh)
    world._occupancy[ls.index] += 1
    return veh


def lane_occupancy(world: World) -> list[int]:
    """The vehicles on every lane, in ``net.lanes`` order, as the world's occupancy vector counts them."""
    return world._occupancy.tolist()
