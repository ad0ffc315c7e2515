"""Deterministic discrete-time mesoscopic traffic engine.

The model is a point queue with physical extent and kinematic travel:

* Vehicles travel lanes accelerating at ``a`` up to the lane speed and stop
  behind the vehicle ahead at the standing headway (vehicle length plus
  minimum gap).  Deceleration is instantaneous.
* Queues form at the stop line.  Discharge through a green movement follows
  the rigid-platoon clearance law (:func:`gridlight.signalmath.platoon_clear_time`)
  on a per-green clock: the j-th vehicle to cross during a green may do so
  once the clock passes ``platoon_clear_time(j)`` and once it has reached
  the j-th platoon slot behind the stop line.  Crossing times inside a tick
  position the vehicle on the destination lane as if it had crossed
  mid-tick, so saturation flow survives the 1 s tick resolution.
* A crossing needs room downstream: the destination lane must be below
  capacity and its rearmost vehicle at least one headway past the entry
  point.  A further per-green budget caps each movement's discharge at the
  number of vehicles that fit (``n_pass``) measured when the green was
  granted; right turns, which are always green, have no budget and keep a
  single never-resetting clock.
* Phase changes insert a fixed yellow interval during which only right
  turns discharge.  Extending the running phase inserts no yellow and keeps
  the platoon clock running.
* Vehicles spawn onto boundary entry lanes at lane speed; when the entry is
  blocked they wait in an unbounded buffer and their scheduled entry time
  still anchors their travel time.  Vehicles leave the network at the end
  of boundary exit lanes.

A world is mutated by exactly one caller; independent worlds may run
concurrently.  Identical (network, schedule, decisions) produce bit
identical histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections import deque
from typing import Iterable, Optional

import numpy as np

from .flows import SpawnEvent
from .network import Movement, RoadNetwork, Turn, resolve_route, validate
from .signalmath import DEFAULT_KINEMATICS, KinematicParams, MovementCounts, n_pass, platoon_clear_time

__all__ = [
    "Vehicle",
    "SignalState",
    "StepTelemetry",
    "World",
    "GREEN",
    "YELLOW",
    "OBS_SIZE",
]

GREEN = "green"
YELLOW = "yellow"

MOVING = "moving"
QUEUED = "queued"
BUFFERED = "buffered"
EXITED = "exited"

#: observation layout: 12 incoming-lane counts + 4-wide phase one-hot
OBS_SIZE = 16

_EPS = 1e-9


class Vehicle:
    """A single vehicle: remaining route, lane position and timestamps."""

    __slots__ = ("vid", "route", "route_idx", "lane_id", "pos", "speed", "status", "entered_at", "exited_at")

    def __init__(self, vid: int, route: list[Movement], lane_id: str, entered_at: int):
        self.vid = vid
        self.route = route
        self.route_idx = 0
        self.lane_id = lane_id
        self.pos = 0.0
        self.speed = 0.0
        self.status = BUFFERED
        self.entered_at = entered_at
        self.exited_at: Optional[int] = None

    def __repr__(self) -> str:  # debugging aid
        return f"Vehicle({self.vid}, lane={self.lane_id}, pos={self.pos:.1f}, {self.status})"


@dataclass
class SignalState:
    """Signal head of one intersection."""

    current_phase: int = 0
    mode: str = GREEN
    time_remaining: int = 0
    next_phase: Optional[int] = None
    pending_green: int = 0


class _LaneState:
    __slots__ = ("lane", "vehicles", "queue_len", "is_exit")

    def __init__(self, lane, is_exit: bool):
        self.lane = lane
        self.vehicles: deque[Vehicle] = deque()
        self.queue_len = 0
        self.is_exit = is_exit


class _Service:
    """Per-movement discharge bookkeeping (platoon clock, budget, totals)."""

    __slots__ = ("clock_start", "crossed", "budget", "pending_budget", "cum_crossed")

    def __init__(self, budget: float):
        self.clock_start = 0
        self.crossed = 0
        self.budget = budget
        self.pending_budget = 0.0
        self.cum_crossed = 0


@dataclass
class StepTelemetry:
    """What happened during one tick.

    ``lane_occupancy`` is filled only when the step ran with
    ``collect=True``; the discharge map is sparse (movements with at least
    one crossing).
    """

    time: int
    entered: int
    exited: int
    discharged: dict[str, int] = field(default_factory=dict)
    signals: dict[str, tuple[int, str]] = field(default_factory=dict)
    lane_occupancy: Optional[dict[str, int]] = None


class World:
    """Mutable simulation state bound to one immutable road network."""

    def __init__(
        self,
        net: RoadNetwork,
        events: Iterable[SpawnEvent] = (),
        kinematics: KinematicParams = DEFAULT_KINEMATICS,
        yellow: int = 5,
        obs_counts: str = "occupancy",
        check: bool = True,
    ):
        if check:
            problems = validate(net)
            if problems:
                raise ValueError(f"invalid network: {problems[0]} (+{len(problems) - 1} more)")
        if obs_counts not in ("occupancy", "queued"):
            raise ValueError(f"obs_counts must be 'occupancy' or 'queued', got {obs_counts!r}")
        self.net = net
        self.k = kinematics
        self.yellow = yellow
        self.obs_counts = obs_counts
        self.time = 0

        exit_lanes = set(net.boundary_exits)
        self.lanes: dict[str, _LaneState] = {
            lane_id: _LaneState(lane, lane_id in exit_lanes) for lane_id, lane in net.lanes.items()
        }
        self.signals: dict[str, SignalState] = {i.id: SignalState() for i in net.intersections}

        # canonical, list-based movement bundles per intersection
        self._phase_movements: dict[str, list[list[Movement]]] = {}
        self._right_movements: dict[str, list[Movement]] = {}
        self.services: dict[str, _Service] = {}
        for inter in net.intersections:
            by_id = {m.id: m for m in inter.movements}
            self._phase_movements[inter.id] = [
                [by_id[mid] for mid in phase.movements] for phase in inter.phases
            ]
            rights = [m for m in inter.movements if m.turn is Turn.RIGHT]
            self._right_movements[inter.id] = rights
            for m in inter.movements:
                self.services[m.id] = _Service(math.inf if m.turn is Turn.RIGHT else 0.0)

        # spawn schedule and entry buffers
        self._events = sorted(events, key=lambda e: e.time)
        self._next_event = 0
        self._route_cache: dict[tuple[str, ...], tuple[str, list[Movement]]] = {}
        self._buffers: dict[str, deque[Vehicle]] = {
            lane_id: deque() for lane_id, _ in net.boundary_entries
        }

        self.vehicles: list[Vehicle] = []
        self.entered_total = 0
        self.exited_total = 0
        self._vid = 0

    # ------------------------------------------------------------------ state

    def occupancy(self, lane_id: str) -> int:
        """Vehicles currently on the lane (entry buffers excluded)."""
        return len(self.lanes[lane_id].vehicles)

    def on_network_count(self) -> int:
        return sum(len(ls.vehicles) for ls in self.lanes.values())

    def buffered_count(self) -> int:
        return sum(len(b) for b in self._buffers.values())

    def movement_counts(self, intersection_id: str) -> dict[str, MovementCounts]:
        """Current (n_in, n_out, n_max) for the intersection's 12 movements."""
        inter = self.net.intersection(intersection_id)
        counts = {}
        for m in inter.movements:
            out = self.lanes[m.out_lane]
            counts[m.id] = MovementCounts(
                n_in=len(self.lanes[m.in_lane].vehicles),
                n_out=len(out.vehicles),
                n_max=out.lane.capacity,
            )
        return counts

    def observe(self, intersection_id: str) -> np.ndarray:
        """16-entry state vector: 12 incoming-lane counts + phase one-hot.

        Lane counts follow the canonical (W, E, N, S) x (left, straight,
        right) order and are total occupancy by default (``obs_counts`` set
        to ``"queued"`` restricts them to standing vehicles).
        """
        inter = self.net.intersection(intersection_id)
        out = np.zeros(OBS_SIZE)
        for i, lane_id in enumerate(inter.incoming_lanes):
            ls = self.lanes[lane_id]
            out[i] = ls.queue_len if self.obs_counts == "queued" else len(ls.vehicles)
        out[12 + self.signals[intersection_id].current_phase] = 1.0
        return out

    # -------------------------------------------------------------- decisions

    def apply_decision(self, intersection_id: str, phase: int, green_duration: int) -> int:
        """Grant ``green_duration`` seconds of green to ``phase``.

        Same phase: the running green is extended, no yellow.  Different
        phase: a yellow interval is inserted first.  Either way each granted
        movement's discharge budget becomes its current ``n_pass``.  Only
        legal once the running green has expired.  Returns the total budget
        granted, the sum of those ``n_pass`` values.
        """
        if phase not in (0, 1, 2, 3):
            raise ValueError(f"phase must be 0..3, got {phase}")
        if green_duration < 1:
            raise ValueError("green duration must be >= 1 s")
        sig = self.signals[intersection_id]
        if sig.mode != GREEN or sig.time_remaining != 0:
            raise RuntimeError(
                f"decision for {intersection_id} requested before its green elapsed"
            )
        counts = self.movement_counts(intersection_id)
        granted = self._phase_movements[intersection_id][phase]
        budgets = [n_pass(counts[m.id]) for m in granted]
        if phase == sig.current_phase:
            sig.time_remaining = green_duration
            for m, budget in zip(granted, budgets):
                self.services[m.id].budget = float(budget)
        else:
            sig.mode = YELLOW
            sig.time_remaining = self.yellow
            sig.next_phase = phase
            sig.pending_green = green_duration
            for m, budget in zip(granted, budgets):
                self.services[m.id].pending_budget = float(budget)
        return sum(budgets)

    def needs_decision(self, intersection_id: str) -> bool:
        sig = self.signals[intersection_id]
        return sig.mode == GREEN and sig.time_remaining == 0

    # ------------------------------------------------------------------- step

    def step(self, dt: int = 1, collect: bool = True) -> StepTelemetry:
        """Advance the world by one second.

        Substeps in order: release and place scheduled spawns, advance
        vehicles kinematically, discharge green movements, finalize exits,
        update signal timers, emit telemetry.  ``dt`` must be 1; the tick is
        a fixed contract.
        """
        if dt != 1:
            raise ValueError("the simulation tick is fixed at 1 s")
        entered = self._spawn()
        exited = self._advance_all()
        discharged = self._discharge_all()
        self._update_signals()
        telemetry = StepTelemetry(
            time=self.time,
            entered=entered,
            exited=exited,
            discharged=discharged,
            signals={
                inter_id: (sig.current_phase, sig.mode) for inter_id, sig in self.signals.items()
            },
            lane_occupancy=(
                {lane_id: len(ls.vehicles) for lane_id, ls in self.lanes.items()}
                if collect
                else None
            ),
        )
        self.time += 1
        return telemetry

    # ----------------------------------------------------------------- spawns

    def _resolve(self, route: tuple[str, ...]) -> tuple[str, list[Movement]]:
        cached = self._route_cache.get(route)
        if cached is None:
            cached = resolve_route(self.net, route)
            self._route_cache[route] = cached
        return cached

    def _spawn(self) -> int:
        entered = 0
        events = self._events
        while self._next_event < len(events) and events[self._next_event].time <= self.time:
            ev = events[self._next_event]
            self._next_event += 1
            entry_lane, movements = self._resolve(ev.route)
            if ev.entry_lane and ev.entry_lane != entry_lane:
                if movements:
                    raise ValueError(
                        f"event entry lane {ev.entry_lane} does not feed the first "
                        f"movement of route {ev.route}"
                    )
                entry_lane = ev.entry_lane  # single-road route: any lane is legal
            veh = Vehicle(self._vid, movements, entry_lane, entered_at=ev.time)
            self._vid += 1
            self.vehicles.append(veh)
            self.entered_total += 1
            entered += 1
            buf = self._buffers.get(entry_lane)
            if buf is None:
                buf = self._buffers[entry_lane] = deque()
            buf.append(veh)
        for lane_id, buf in self._buffers.items():
            if not buf:
                continue
            ls = self.lanes[lane_id]
            while buf and self._can_enter(ls):
                veh = buf.popleft()
                veh.status = MOVING
                veh.lane_id = lane_id
                veh.pos = 0.0
                veh.speed = ls.lane.max_speed
                ls.vehicles.append(veh)
        return entered

    def _can_enter(self, ls: _LaneState) -> bool:
        if len(ls.vehicles) >= ls.lane.capacity:
            return False
        return not ls.vehicles or ls.vehicles[-1].pos >= self.k.headway - _EPS

    def place_vehicle(
        self,
        lane_id: str,
        pos: float = 0.0,
        speed: float = 0.0,
        route_roads: Optional[tuple[str, ...]] = None,
    ) -> Vehicle:
        """Put a vehicle directly onto a lane (test and scenario setup).

        The vehicle is appended behind the lane's current occupants, so
        ``pos`` must be below the rearmost occupant's position minus one
        headway.  Without a route the vehicle follows each movement's
        conventional outgoing lane until it reaches a boundary.
        """
        ls = self.lanes[lane_id]
        if len(ls.vehicles) >= ls.lane.capacity:
            raise ValueError(f"lane {lane_id} is at capacity")
        if ls.vehicles and pos > ls.vehicles[-1].pos - self.k.headway + _EPS:
            raise ValueError("placement would violate the standing headway")
        if not 0 <= pos <= ls.lane.length:
            raise ValueError("placement outside the lane")
        movements: list[Movement] = []
        if route_roads is not None:
            _, movements = self._resolve(tuple(route_roads))
        veh = Vehicle(self._vid, movements, lane_id, entered_at=self.time)
        self._vid += 1
        veh.status = MOVING
        veh.pos = float(pos)
        veh.speed = float(speed)
        self.vehicles.append(veh)
        self.entered_total += 1
        ls.vehicles.append(veh)
        return veh

    # ---------------------------------------------------------------- advance

    def _advance_all(self) -> int:
        exited = 0
        headway = self.k.headway
        accel = self.k.accel
        for ls in self.lanes.values():
            vehicles = ls.vehicles
            if not vehicles:
                ls.queue_len = 0
                continue
            vmax = ls.lane.max_speed
            stop = ls.lane.length
            prev_pos: Optional[float] = None
            prev_queued = False
            qlen = 0
            n_exit = 0
            for veh in vehicles:
                speed = veh.speed + accel
                if speed > vmax:
                    speed = vmax
                new_pos = veh.pos + speed
                if prev_pos is None:
                    limit = math.inf if ls.is_exit else stop
                else:
                    limit = prev_pos - headway
                if new_pos > limit:
                    new_pos = limit
                veh.speed = new_pos - veh.pos
                veh.pos = new_pos
                if ls.is_exit and new_pos >= stop - _EPS and prev_pos is None:
                    veh.status = EXITED
                    veh.exited_at = self.time + 1
                    n_exit += 1
                    # leave prev_pos None: the follower is now unconstrained
                    continue
                if prev_pos is None:
                    is_queued = not ls.is_exit and new_pos >= stop - 1e-6
                else:
                    is_queued = prev_queued and new_pos >= prev_pos - headway - 1e-6
                if is_queued:
                    veh.status = QUEUED
                    veh.speed = 0.0
                    qlen += 1
                else:
                    veh.status = MOVING
                prev_pos = new_pos
                prev_queued = is_queued
            for _ in range(n_exit):
                vehicles.popleft()
            exited += n_exit
            self.exited_total += n_exit
            ls.queue_len = qlen
        return exited

    # -------------------------------------------------------------- discharge

    def _discharge_all(self) -> dict[str, int]:
        discharged: dict[str, int] = {}
        for inter in self.net.intersections:
            sig = self.signals[inter.id]
            if sig.mode == GREEN:
                for m in self._phase_movements[inter.id][sig.current_phase]:
                    self._discharge_movement(m, discharged)
            for m in self._right_movements[inter.id]:
                self._discharge_movement(m, discharged)
        return discharged

    def _discharge_movement(self, m: Movement, acc: dict[str, int]) -> None:
        src = self.lanes[m.in_lane]
        if not src.vehicles:
            return
        svc = self.services[m.id]
        if svc.budget <= 0:
            return
        k = self.k
        vmax = src.lane.max_speed
        kin = (
            self.k
            if vmax == self.k.max_speed
            else KinematicParams(k.accel, vmax, k.vehicle_length, k.min_gap)
        )
        headway = k.headway
        stop = src.lane.length
        t_end = self.time + 1
        elapsed_end = t_end - svc.clock_start
        count = 0
        while svc.budget > 0 and src.vehicles:
            j = svc.crossed + 1
            t_j = platoon_clear_time(j, kin)
            if t_j > elapsed_end + _EPS:
                break
            head = src.vehicles[0]
            # the j-th crossing requires the head to occupy the j-th platoon slot
            if head.pos < stop - (j - 1) * headway - 1e-6:
                break
            if head.route_idx + 1 < len(head.route):
                dest_id = head.route[head.route_idx + 1].in_lane
            else:
                dest_id = m.out_lane
            dest = self.lanes[dest_id]
            if len(dest.vehicles) >= dest.lane.capacity:
                break
            clear_dist = (j - 1) * headway + k.vehicle_length
            v_cross = min(vmax, math.sqrt(2.0 * k.accel * clear_dist), dest.lane.max_speed)
            tau = svc.clock_start + t_j
            if tau < self.time:
                tau = float(self.time)
            entry_pos = v_cross * (t_end - tau)
            if dest.vehicles:
                rear_cap = dest.vehicles[-1].pos - headway
                if rear_cap < -_EPS:
                    break
                if entry_pos > rear_cap:
                    entry_pos = rear_cap
            if entry_pos < 0.0:
                entry_pos = 0.0
            elif entry_pos > dest.lane.length:
                entry_pos = dest.lane.length
            src.vehicles.popleft()
            if src.queue_len > 0:
                src.queue_len -= 1
            if head.route_idx < len(head.route):
                head.route_idx += 1
            head.lane_id = dest_id
            head.pos = entry_pos
            head.speed = v_cross
            head.status = MOVING
            dest.vehicles.append(head)
            svc.crossed += 1
            svc.cum_crossed += 1
            if svc.budget != math.inf:
                svc.budget -= 1.0
            count += 1
        if count:
            acc[m.id] = acc.get(m.id, 0) + count

    # ---------------------------------------------------------------- signals

    def _update_signals(self) -> None:
        for inter_id, sig in self.signals.items():
            if sig.mode == YELLOW:
                sig.time_remaining -= 1
                if sig.time_remaining <= 0:
                    sig.mode = GREEN
                    sig.current_phase = sig.next_phase  # type: ignore[assignment]
                    sig.next_phase = None
                    sig.time_remaining = sig.pending_green
                    sig.pending_green = 0
                    for m in self._phase_movements[inter_id][sig.current_phase]:
                        svc = self.services[m.id]
                        svc.clock_start = self.time + 1
                        svc.crossed = 0
                        svc.budget = svc.pending_budget
                        svc.pending_budget = 0.0
            elif sig.time_remaining > 0:
                sig.time_remaining -= 1

    # ------------------------------------------------------------ accounting

    def conservation(self) -> tuple[int, int]:
        """(entered_total, on_network + buffered + exited_total) — must match."""
        return (
            self.entered_total,
            self.on_network_count() + self.buffered_count() + self.exited_total,
        )
