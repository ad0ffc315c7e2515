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
  of boundary exit lanes.  Each distinct route of the spawn schedule is
  resolved, to its entry lane and movement chain, when the world is built,
  so a route the network cannot carry fails there and not at the tick its
  vehicle departs.

A tick skips work that cannot change anything, and each skip is exact:

* Settled queues.  A lane's leading vehicles that stand exactly at their
  limit (the stop line, or one headway behind the vehicle ahead) are not
  advanced, nor is a lane whose vehicles all stand so.  With speed 0 the
  update ``min(pos + min(0 + a, vmax), limit)`` returns ``limit``, which
  is ``pos``, and the speed is written back as 0.  A pop from the lane
  head resets the prefix.
* Idle movements.  Discharge visits only open movements whose source lane
  holds a vehicle, read from the lane-occupancy vector that every append
  and pop keeps current; a movement on an empty lane would return at once.
  A lane first filled during the pass joins it when its movement comes
  later in the pass order, as a pass over every movement would find it.
* Slots not yet due.  Each discharge slot keeps the earliest tick at which
  it could cross a vehicle, and discharge visits only slots that are due.
  A visit that breaks before any crossing changes nothing, and only a
  slot's own crossing pops its lane's head.  A clearance break wakes the
  slot at ``clock_start + ceil(t_j - 1e-6) - 1``, the first tick whose
  elapsed time can reach ``t_j``.  A platoon-slot break wakes it
  ``max(1, int(gap / vmax))`` ticks on, since the head gains at most the
  lane speed per tick.  A break on downstream capacity, the rear gap or a
  spent budget sets no wake, because those change without the slot.  A
  green that restarts a slot's clock sets its wake by the clearance rule
  for the first crossing.
* Undue signals.  Each signal's next decision tick is kept in one array,
  set when its green is granted, so callers ask only the due signals.  A
  tick's signal update touches only the signals whose yellow ends in it.
  The signal heads are the rows of one record array (``current_phase``,
  ``yellow``): ``World.signals[id]`` is a live row, and a collected tick's
  ``phases`` and ``yellow`` are copies of its two fields.

Discharge slots are fixed when the world is built: per intersection, the
movements of phases 0-3 in ``PHASE_COLUMNS`` row order, then the four
right turns.  One open mask admits the right turns always and a phase's
movements while it shows green, so ascending open slots visit each
intersection's green phase, then its right turns, in network order.

A world is mutated by exactly one caller; independent worlds may run
concurrently.  Identical (network, schedule, decisions) produce bit
identical histories.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import islice, takewhile
from typing import Optional

import numpy as np

from .flows import Schedule
from .network import APPROACHES, PHASE_COLUMNS, Movement, RoadNetwork, Turn, movement_column, resolve_route
from .signalmath import DEFAULT_KINEMATICS, KinematicParams, MovementCounts, platoon_clear_time

__all__ = [
    "Vehicle",
    "StepTelemetry",
    "World",
    "movement_tables",
    "OBS_SIZE",
    "OBS_COUNTS",
]

MOVING = "moving"
QUEUED = "queued"
BUFFERED = "buffered"
EXITED = "exited"

#: observation layout: 12 incoming-lane counts + 4-wide phase one-hot
OBS_SIZE = 16

#: what an observation's lane counts count: every vehicle on the lane, or
#: only its leading vehicles that stand queued
OBS_COUNTS = ("occupancy", "queued")

_EPS = 1e-9

#: the schedule of a world built without one
NO_DEPARTURES = Schedule(np.zeros(0, np.int64), np.zeros(0, np.intp), ())


def _clearance_wait(t_j: float) -> int:
    """Ticks from a clock start to the first tick whose elapsed green can reach ``t_j``."""
    return math.ceil(t_j - 1e-6) - 1


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


class _LaneState:
    """One lane's vehicles, front first, and what the tick loops keep about them.

    ``index`` is the lane's position in ``net.lanes``; ``clear`` is the
    platoon clearance-time table of the lane's speed, shared by every lane
    of that speed.
    """

    __slots__ = ("lane", "vehicles", "is_exit", "index", "clear")

    def __init__(self, lane, is_exit: bool, index: int, clear: tuple[KinematicParams, list[float]]):
        self.lane = lane
        self.vehicles: deque[Vehicle] = deque()
        self.is_exit = is_exit
        self.index = index
        self.clear = clear


class _Service:
    """One movement's discharge record: its lanes, platoon clock, budget and totals."""

    __slots__ = ("mid", "src", "out", "clock_start", "crossed", "budget", "cum_crossed")

    def __init__(self, mid: str, src: _LaneState, out: _LaneState, budget: float):
        self.mid = mid
        self.src = src
        self.out = out
        self.clock_start = 0
        self.crossed = 0
        self.budget = budget
        self.cum_crossed = 0


@dataclass
class StepTelemetry:
    """What happened during one tick.

    The discharge map is sparse (movements with at least one crossing).
    The three vectors are filled only when the step ran with
    ``collect=True``, as copies that later steps leave as they are:
    ``occupancy`` holds the vehicles on each lane in ``net.lanes`` order,
    ``phases`` and ``yellow`` the signal heads' two fields, each signal's
    current phase and whether it shows yellow, in ``net.intersections`` order.
    """

    time: int
    entered: int
    exited: int
    discharged: dict[str, int] = field(default_factory=dict)
    occupancy: Optional[np.ndarray] = None
    phases: Optional[np.ndarray] = None
    yellow: Optional[np.ndarray] = None


def movement_tables(net: RoadNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables that read an intersection's counts out of a lane vector.

    Row ``r`` belongs to ``net.intersections[r]`` and column ``j`` to its
    ``j``-th movement in canonical order: the position in ``net.lanes`` of
    the movement's incoming lane, of its outgoing lane, and the outgoing
    lane's capacity.
    """
    position = {lane_id: k for k, lane_id in enumerate(net.lanes)}
    rows = [
        (position[m.in_lane], position[m.out_lane], net.lanes[m.out_lane].capacity)
        for inter in net.intersections
        for m in inter.movements
    ]
    table = np.array(rows, dtype=np.int64).reshape(-1, 12, 3).transpose(2, 0, 1).copy()
    return table[0], table[1], table[2]


class World:
    """Mutable simulation state bound to one immutable road network.

    The network is taken as well formed: :func:`gridlight.network.assemble_network`
    builds every network so by construction.  ``schedule`` is the
    :class:`gridlight.flows.Schedule` of departures; without one, nothing departs.
    """

    def __init__(
        self,
        net: RoadNetwork,
        schedule: Schedule = NO_DEPARTURES,
        kinematics: KinematicParams = DEFAULT_KINEMATICS,
        yellow: int = 5,
        obs_counts: str = "occupancy",
    ):
        if yellow < 1:
            raise ValueError(f"yellow must be >= 1 s, got {yellow}")
        if obs_counts not in OBS_COUNTS:
            raise ValueError(f"obs_counts must be one of {OBS_COUNTS}, got {obs_counts!r}")
        self.net = net
        self.k = kinematics
        self._headway = kinematics.headway
        self.yellow = yellow
        self.obs_counts = obs_counts
        self.time = 0

        exit_lanes = set(net.boundary_exits)
        # platoon clearance times per lane speed, extended on demand
        clear_tables: dict[float, tuple[KinematicParams, list[float]]] = {}
        self.lanes: dict[str, _LaneState] = {}
        for index, (lane_id, lane) in enumerate(net.lanes.items()):
            clear = clear_tables.get(lane.max_speed)
            if clear is None:
                kin = replace(kinematics, max_speed=lane.max_speed)
                clear = clear_tables[lane.max_speed] = (kin, [0.0, platoon_clear_time(1, kin)])
            self.lanes[lane_id] = _LaneState(lane, lane_id in exit_lanes, index, clear)
        self._lane_list = list(self.lanes.values())
        #: per lane, what the advance reads: (vehicles, is_exit, max_speed, length)
        self._lane_fields = [(ls.vehicles, ls.is_exit, ls.lane.max_speed, ls.lane.length) for ls in self._lane_list]
        self._signal_index = {inter.id: r for r, inter in enumerate(net.intersections)}
        n = len(net.intersections)
        heads = np.zeros(n, np.dtype((np.record, [("current_phase", np.int8), ("yellow", bool)])))
        #: each intersection's signal head, a live row of ``heads``
        self.signals: dict[str, np.record] = {iid: heads[r] for iid, r in self._signal_index.items()}
        self._phase = heads["current_phase"]
        self._yellow = heads["yellow"]
        #: tick at which each signal's green runs out, in net.intersections order
        self._due = np.zeros(n, np.int64)
        #: tick whose signal update ends a yellow -> (row, next phase) of each such yellow
        self._yellow_ends: dict[int, list[tuple[int, int]]] = {}

        # counts are read from one lane-occupancy vector through index tables;
        # it is kept at every append to and pop from a lane
        self._occupancy = np.zeros(len(net.lanes), np.int64)
        #: per lane, the leading vehicles that stand exactly at their limit (the
        #: stop line, or one headway behind the vehicle ahead); a lane whose
        #: vehicles are all settled is not advanced
        self._settled = np.zeros(len(net.lanes), np.int64)
        self._in_idx, self._out_idx, self._n_max = movement_tables(net)

        self.services: dict[str, _Service] = {
            m.id: _Service(
                m.id, self.lanes[m.in_lane], self.lanes[m.out_lane], math.inf if m.turn is Turn.RIGHT else 0.0
            )
            for inter in net.intersections
            for m in inter.movements
        }

        # Discharge slots, 12 per intersection: phase k's movements at
        # [k * width, (k + 1) * width), then the four right turns.
        self._phase_width = width = PHASE_COLUMNS.shape[1]
        columns = PHASE_COLUMNS.ravel().tolist() + [movement_column(a, Turn.RIGHT) for a in APPROACHES]
        self._slots = [self.services[inter.movements[c].id] for inter in net.intersections for c in columns]
        #: per intersection and phase, the services the phase grants, in phase order
        self._grants = [
            [tuple(self._slots[base + k : base + k + width]) for k in range(0, PHASE_COLUMNS.size, width)]
            for base in range(0, len(self._slots), len(columns))
        ]
        slot_lanes = [svc.src.index for svc in self._slots]
        self._slot_lane = np.array(slot_lanes, np.int64).reshape(len(net.intersections), -1)
        #: which slots may discharge: the right turns, and the green phase's movements
        self._open = np.ones(self._slot_lane.shape, bool)
        self._open[:, width : PHASE_COLUMNS.size] = False
        #: per slot, the earliest tick at which it could cross a vehicle
        self._wake = np.zeros(self._slot_lane.shape, np.int64)
        self._wake_flat = self._wake.reshape(-1)
        #: per slot, the wake of its first crossing after a clock start, less the start
        self._first_wait = np.array(
            [_clearance_wait(svc.src.clear[1][1]) for svc in self._slots], np.int64
        ).reshape(self._slot_lane.shape)
        #: the slot each lane feeds, or -1
        self._lane_slot = [-1] * len(net.lanes)
        for s, svc in enumerate(self._slots):
            self._lane_slot[svc.src.index] = s

        # spawn schedule, each distinct route resolved once, and entry buffers
        self._times = schedule.times
        self._route_index = schedule.route_index
        self._route_table = [resolve_route(net, route) for route in schedule.routes]
        self._next_event = 0
        #: no departure is due before this tick
        self._next_time = self.time
        self._buffers: dict[str, deque[Vehicle]] = {
            lane_id: deque() for lane_id, _ in net.boundary_entries
        }

        self.vehicles: list[Vehicle] = []
        self.entered_total = 0
        self.exited_total = 0

    # ------------------------------------------------------------------ state

    def occupancy(self, lane_id: str) -> int:
        """Vehicles currently on the lane (entry buffers excluded)."""
        return len(self.lanes[lane_id].vehicles)

    def on_network_count(self) -> int:
        return int(self._occupancy.sum())

    def buffered_count(self) -> int:
        return sum(len(b) for b in self._buffers.values())

    def movement_counts(self, intersection_id: str) -> MovementCounts:
        """Current (n_in, n_out, n_max) of the intersection's 12 movements.

        Each field is a 12-vector in canonical (W, E, N, S) x (left,
        straight, right) order.
        """
        return self.movement_block(self._signal_index[intersection_id])

    def movement_block(self, rows) -> MovementCounts:
        """Current movement counts of the intersections at ``rows`` of ``net.intersections``.

        Each field holds one row per intersection, the 12-vector
        :meth:`movement_counts` gives for it; an int ``rows`` gives that
        vector alone.  All rows are read in one gather from the occupancy
        vector.
        """
        occupancy = self._occupancy
        return MovementCounts._unchecked(
            occupancy[self._in_idx[rows]], occupancy[self._out_idx[rows]], self._n_max[rows]
        )

    def observe(self, intersection_id: str) -> np.ndarray:
        """16-entry state vector: 12 incoming-lane counts + phase one-hot.

        Lane counts follow the canonical (W, E, N, S) x (left, straight,
        right) order and are total occupancy by default.  With ``obs_counts``
        set to ``"queued"`` each counts the lane's leading vehicles whose
        status is queued: the queue standing at the stop line.
        """
        r = self._signal_index[intersection_id]
        out = np.zeros(OBS_SIZE)
        if self.obs_counts == "queued":
            lanes = self._lane_list
            out[:12] = [
                sum(1 for _ in takewhile(lambda veh: veh.status == QUEUED, lanes[k].vehicles))
                for k in self._in_idx[r].tolist()
            ]
        else:
            out[:12] = self._occupancy[self._in_idx[r]]
        out[12 + self._phase[r]] = 1.0
        return out

    # -------------------------------------------------------------- decisions

    def apply_decision(self, intersection_id: str, phase: int, green_duration: int) -> int:
        """Grant ``green_duration`` seconds of green to ``phase``.

        Same phase: the running green is extended, no yellow.  Different
        phase: a yellow interval is inserted first, and the new phase's slots
        open when it ends.  Either way each granted movement's discharge
        budget becomes its current ``n_pass`` at once; a switched-to phase
        cannot spend it before its yellow ends.  Only legal once the running
        green has expired.  Returns the total budget granted, the sum of
        those ``n_pass`` values.
        """
        if phase not in (0, 1, 2, 3):
            raise ValueError(f"phase must be 0..3, got {phase}")
        if green_duration < 1:
            raise ValueError("green duration must be >= 1 s")
        r = self._signal_index[intersection_id]
        if self._due[r] > self.time:
            raise RuntimeError(
                f"decision for {intersection_id} requested before its green elapsed"
            )
        total = 0
        for svc in self._grants[r][phase]:
            out = svc.out
            budget = min(len(svc.src.vehicles), out.lane.capacity - len(out.vehicles))
            svc.budget = float(budget)
            total += budget
        if phase == self._phase[r]:
            self._due[r] = self.time + green_duration
        else:
            self._yellow[r] = True
            self._due[r] = self.time + self.yellow + green_duration
            self._open[r, : PHASE_COLUMNS.size] = False
            # the yellow shows for ticks time .. time + yellow - 1
            self._yellow_ends.setdefault(self.time + self.yellow - 1, []).append((r, phase))
        return total

    def due_signals(self) -> np.ndarray:
        """Positions in ``net.intersections`` of the signals whose green has run out."""
        return np.flatnonzero(self._due <= self.time)

    # ------------------------------------------------------------------- step

    def step(self, collect: bool = True) -> StepTelemetry:
        """Advance the world by one second, the fixed tick.

        Substeps in order: release and place scheduled spawns, advance
        vehicles kinematically, discharge green movements, finalize exits,
        update signal timers, emit telemetry.
        """
        entered = self._spawn()
        exited = self._advance_all()
        discharged = self._discharge_all()
        self._update_signals()
        telemetry = StepTelemetry(time=self.time, entered=entered, exited=exited, discharged=discharged)
        if collect:
            telemetry.occupancy = self._occupancy.copy()
            telemetry.phases = self._phase.copy()
            telemetry.yellow = self._yellow.copy()
        self.time += 1
        return telemetry

    # ----------------------------------------------------------------- spawns

    def _spawn(self) -> int:
        entered = 0
        if self._next_time <= self.time:
            # each departure is due at its own tick: times are >= 0 and every
            # tick takes all that are due, so a vehicle enters at self.time
            times = self._times
            first = self._next_event
            self._next_event = last = int(times.searchsorted(self.time, "right"))
            self._next_time = int(times[last]) if last < len(times) else math.inf
            route_table = self._route_table
            for r in self._route_index[first:last].tolist():
                entry_lane, movements = route_table[r]
                veh = Vehicle(len(self.vehicles), movements, entry_lane, entered_at=self.time)
                self.vehicles.append(veh)
                self._buffers[entry_lane].append(veh)
            entered = last - first
            self.entered_total += entered
        for lane_id, buf in self._buffers.items():
            if not buf:
                continue
            ls = self.lanes[lane_id]
            placed = len(ls.vehicles)
            while buf and self._can_enter(ls):
                veh = buf.popleft()
                veh.status = MOVING
                veh.lane_id = lane_id
                veh.pos = 0.0
                veh.speed = ls.lane.max_speed
                ls.vehicles.append(veh)
            if len(ls.vehicles) > placed:
                self._occupancy[ls.index] += len(ls.vehicles) - placed
        return entered

    def _can_enter(self, ls: _LaneState) -> bool:
        if len(ls.vehicles) >= ls.lane.capacity:
            return False
        return not ls.vehicles or ls.vehicles[-1].pos >= self._headway - _EPS

    # ---------------------------------------------------------------- advance

    def _advance_all(self) -> int:
        """Advance every unsettled lane: its leader, then its followers.

        The leader's only limit is the stop line, or on an exit lane none:
        there, each leader that reaches the end leaves and the next vehicle
        leads.  A follower stops one headway behind the vehicle ahead, and
        queues when that vehicle queued and it lands within 1e-6 of its limit.
        """
        exited = 0
        headway = self._headway
        accel = self.k.accel
        fields = self._lane_fields
        settled_counts = self._settled
        unsettled = np.flatnonzero(settled_counts < self._occupancy)
        for index, start in zip(unsettled.tolist(), settled_counts[unsettled].tolist()):
            vehicles, is_exit, vmax, stop = fields[index]
            settled = qlen = start
            n_exit = 0
            # the settled prefix would recompute to the same bits: start behind it
            if start:
                followers = islice(vehicles, start, None)
                prev_pos = vehicles[start - 1].pos
                queued = True
            else:
                followers = iter(vehicles)
                queued = False
                for veh in followers:
                    pos = veh.pos
                    speed = veh.speed + accel
                    if speed > vmax:
                        speed = vmax
                    new_pos = pos + speed
                    if is_exit:
                        veh.speed = new_pos - pos
                        veh.pos = new_pos
                        if new_pos >= stop - _EPS:
                            veh.status = EXITED
                            veh.exited_at = self.time + 1
                            n_exit += 1
                            # the follower leads now
                            continue
                        veh.status = MOVING
                    else:
                        if new_pos > stop:
                            new_pos = stop
                        veh.speed = new_pos - pos
                        veh.pos = new_pos
                        queued = new_pos >= stop - 1e-6
                        if queued:
                            veh.status = QUEUED
                            veh.speed = 0.0
                            qlen = 1
                            if new_pos == stop:
                                settled = 1
                        else:
                            veh.status = MOVING
                    prev_pos = new_pos
                    break
            for veh in followers:
                pos = veh.pos
                speed = veh.speed + accel
                if speed > vmax:
                    speed = vmax
                new_pos = pos + speed
                limit = prev_pos - headway
                if new_pos > limit:
                    new_pos = limit
                veh.speed = new_pos - pos
                veh.pos = new_pos
                if queued and new_pos >= limit - 1e-6:
                    veh.status = QUEUED
                    veh.speed = 0.0
                    qlen += 1
                    # the prefix grows while every vehicle lands exactly on its limit
                    if settled == qlen - 1 and new_pos == limit:
                        settled = qlen
                else:
                    veh.status = MOVING
                    queued = False
                prev_pos = new_pos
            if n_exit:
                for _ in range(n_exit):
                    vehicles.popleft()
                self._occupancy[index] -= n_exit
                exited += n_exit
                self.exited_total += n_exit
            if settled != start:
                settled_counts[index] = settled
        return exited

    # -------------------------------------------------------------- discharge

    def _discharge_all(self) -> dict[str, int]:
        """Discharge every open, due movement whose source lane holds a vehicle.

        Slots are visited in ascending order, as a pass over every
        intersection's open movements would.  A lane that was empty when the
        pass began can receive a vehicle from an earlier slot; its own slot
        joins the pass if it is still ahead and open, with no wake test:
        only its own crossings emptied its lane, and they left the wake
        no later than now.
        """
        discharged: dict[str, int] = {}
        lane_slot = self._lane_slot
        is_open = self._open.ravel()
        filled: list[int] = []
        # ascending, so already a heap
        todo = np.flatnonzero(
            self._open & (self._occupancy[self._slot_lane] > 0) & (self._wake <= self.time)
        ).tolist()
        while todo:
            s = heappop(todo)
            if self._slots[s].budget <= 0:
                continue
            self._discharge_movement(s, discharged, filled)
            for lane in filled:
                t = lane_slot[lane]
                if t > s and is_open[t]:
                    heappush(todo, t)
            filled.clear()
        return discharged

    def _discharge_movement(self, s: int, acc: dict[str, int], filled: list[int]) -> None:
        """Cross vehicles through slot ``s``; note in ``filled`` each lane this made non-empty."""
        svc = self._slots[s]
        src = svc.src
        k = self.k
        kin, clear_times = src.clear
        vmax = src.lane.max_speed
        headway = self._headway
        stop = src.lane.length
        t_end = self.time + 1
        elapsed_end = t_end - svc.clock_start
        occupancy = self._occupancy
        count = 0
        while svc.budget > 0 and src.vehicles:
            j = svc.crossed + 1
            while len(clear_times) <= j:
                clear_times.append(platoon_clear_time(len(clear_times), kin))
            t_j = clear_times[j]
            if t_j > elapsed_end + _EPS:
                self._wake_flat[s] = svc.clock_start + _clearance_wait(t_j)
                break
            head = src.vehicles[0]
            # the j-th crossing requires the head to occupy the j-th platoon slot
            slot_pos = stop - (j - 1) * headway
            if head.pos < slot_pos - 1e-6:
                self._wake_flat[s] = self.time + max(1, int((slot_pos - head.pos) / vmax))
                break
            if head.route_idx + 1 < len(head.route):
                dest = self.lanes[head.route[head.route_idx + 1].in_lane]
            else:
                dest = svc.out
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
            else:
                filled.append(dest.index)
            if entry_pos < 0.0:
                entry_pos = 0.0
            elif entry_pos > dest.lane.length:
                entry_pos = dest.lane.length
            src.vehicles.popleft()
            if head.route_idx < len(head.route):
                head.route_idx += 1
            head.lane_id = dest.lane.id
            head.pos = entry_pos
            head.speed = v_cross
            head.status = MOVING
            dest.vehicles.append(head)
            occupancy[dest.index] += 1
            svc.crossed += 1
            svc.cum_crossed += 1
            if svc.budget != math.inf:
                svc.budget -= 1.0
            count += 1
        if count:
            occupancy[src.index] -= count
            self._settled[src.index] = 0
            acc[svc.mid] = acc.get(svc.mid, 0) + count

    # ---------------------------------------------------------------- signals

    def _update_signals(self) -> None:
        """End the yellows that end in this tick; their greens start at the next."""
        for r, phase in self._yellow_ends.pop(self.time, ()):
            self._yellow[r] = False
            self._phase[r] = phase
            start = phase * self._phase_width
            self._open[r, start : start + self._phase_width] = True
            # a wake holds only under the clock and count it was set with, so
            # every reset of clock_start and crossed must set it anew: here
            # as the clearance law sets it for the first crossing
            self._wake[r, start : start + self._phase_width] = (
                self.time + 1 + self._first_wait[r, start : start + self._phase_width]
            )
            for svc in self._grants[r][phase]:
                svc.clock_start = self.time + 1
                svc.crossed = 0
