"""Engine tests: platoon discharge law, spillback gating, yellow blocking,
observation layout, conservation / capacity / no-teleport invariants, and
bit-level determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight import engine
from gridlight.engine import EXITED, QUEUED, World
from gridlight.flows import FlowSpec, Schedule, expand_flows, gen_syn_heavy, straight_route
from gridlight.network import Turn, assemble_network, build_grid, resolve_route, standard_phase_table
from gridlight.signalmath import DEFAULT_KINEMATICS, MovementCounts, platoon_clear_time

from helpers import lane_occupancy, place_vehicle


def single() -> World:
    return World(build_grid(1, 1, 300, 300))


def west_straight(net):
    inter = net.intersections[0]
    return inter.movements[1]  # canonical order: W-left, W-straight, W-right, ...


def phase_movement_ids(inter, phase: int) -> list[str]:
    """The ids of the movements ``phase`` grants, from the phase table."""
    return [f"{inter.id}:{a}:{t.value}" for a, t in standard_phase_table()[phase]]


def queue_up(world: World, lane_id: str, n: int) -> None:
    """Stack n standing vehicles against the stop line of a lane."""
    length = world.net.lanes[lane_id].length
    headway = world.k.headway
    for i in range(n):
        place_vehicle(world, lane_id, pos=length - i * headway, speed=0.0)


class TestStepBasics:
    def test_empty_world_step_is_all_zero(self):
        world = single()
        tel = world.step()
        assert tel.entered == 0 and tel.exited == 0
        assert tel.discharged == {}
        assert tel.occupancy.tolist() == [0] * len(world.net.lanes)
        assert tel.phases.tolist() == [0] and tel.yellow.tolist() == [False]

    def test_uncollected_step_carries_no_vectors(self):
        tel = single().step(collect=False)
        assert tel.occupancy is None and tel.phases is None and tel.yellow is None

    def test_invalid_network_rejected(self):
        # without its east exit road the junction dead-ends, so no World can run it
        net = build_grid(1, 1, 300, 300)
        virtual = set(net.node_positions) - {"i_0_0"}
        roads = [(r.id, r.start, r.end, r.length, r.max_speed) for r in net.roads.values() if r.end != "b_e_0"]
        with pytest.raises(ValueError, match="^intersection i_0_0 is not a full 4-way junction$"):
            assemble_network(net.node_positions, virtual, roads, l_v=5.0, l_g=2.5)

    def test_unknown_lane_faults(self):
        with pytest.raises(KeyError):
            single().occupancy("nope")

    def test_occupancy_counts_placed_vehicles(self):
        world = single()
        lane = west_straight(world.net).in_lane
        for i in range(3):
            place_vehicle(world, lane, pos=200 - 10 * i, speed=5.0)
        world.step()
        assert world.occupancy(lane) == 3


class TestPlatoonDischarge:
    def test_cumulative_discharge_follows_clearance_law(self):
        world = single()
        m = west_straight(world.net)
        queue_up(world, m.in_lane, 10)
        world.step()  # settle statuses; phase-0 green has run since t=0
        world.apply_decision("i_0_0", 0, 20)
        svc = world.services[m.id]
        clock0 = svc.clock_start
        assert clock0 == 0  # extending the running green keeps its clock
        for _ in range(10):
            world.step()
            elapsed = world.time - clock0
            allowed = 0
            while platoon_clear_time(allowed + 1) <= elapsed + 1e-9:
                allowed += 1
            # the clearance law is a hard ceiling; downstream spacing may
            # hold one crossing back for a tick
            assert svc.cum_crossed <= min(allowed, 10)
            assert svc.cum_crossed >= min(allowed, 10) - 1
            if elapsed == 10:
                # the full standing platoon of 10 clears within 10 s of green
                assert svc.cum_crossed == 10
        assert svc.cum_crossed == 10

    def test_blocked_outgoing_lane_discharges_nothing(self):
        world = World(build_grid(1, 2, 300, 300))
        inter = world.net.intersections[0]
        m = inter.movements[1]  # W straight at i_0_0; its out lane feeds i_0_1
        assert world.net.road_of_lane(m.out_lane).end == "i_0_1"
        cap = world.net.lanes[m.out_lane].capacity
        queue_up(world, m.out_lane, cap)
        place_vehicle(world, m.in_lane, pos=300.0, speed=0.0)
        # park i_0_1 on the cross phase so the blockage never drains
        world.apply_decision("i_0_1", 1, 600)
        world.apply_decision("i_0_0", 0, 60)
        for _ in range(20):
            world.step()
        assert world.services[m.id].cum_crossed == 0
        assert world.occupancy(m.in_lane) == 1
        assert world.occupancy(m.out_lane) == cap

    def test_single_vehicle_timing(self):
        # a lone standing vehicle clears once the green clock passes 2.236 s;
        # the clock runs from the green's start (t=0 here), not the decision
        world = single()
        m = west_straight(world.net)
        place_vehicle(world, m.in_lane, pos=300.0, speed=0.0)
        world.step()
        world.apply_decision("i_0_0", 0, 10)
        svc = world.services[m.id]
        crossings = []
        for _ in range(4):
            world.step()
            crossings.append(svc.cum_crossed)
        assert crossings == [0, 1, 1, 1]


class TestSameTickCrossing:
    """A vehicle that lands on an empty lane during a discharge pass.

    Right turns never reset their platoon count, so past 40 crossings the
    slot test admits a head anywhere on its lane.  A vehicle crossing onto
    such a lane can then cross again in the same tick, but only at an
    intersection the pass has not visited yet.  The positions were recorded
    from the per-movement discharge loop that visits every movement.
    """

    def test_discharge_in_pass_order(self):
        net = build_grid(1, 2, 300, 300)
        a, b = net.intersections  # the pass visits i_0_0 before i_0_1
        world = World(net)
        road = lambda lane: net.road_of_lane(lane).id

        def prime(m):
            """Feed the right turn until it has crossed 41 vehicles, then let its lane empty."""
            lane = world.lanes[m.in_lane]
            for _ in range(600):
                primed = world.services[m.id].crossed > 40
                if primed and not lane.vehicles:
                    return
                if not primed and (not lane.vehicles or lane.vehicles[-1].pos >= 60):
                    place_vehicle(world, m.in_lane, pos=0.0, speed=0.0)
                world.step()
            pytest.fail(f"{m.id} was not primed within 600 ticks")

        later_right = b.movements[2]  # W right at i_0_1
        earlier_right = a.movements[5]  # E right at i_0_0
        prime(later_right)
        prime(earlier_right)
        assert world.time == 606
        east_in = a.movements[1].in_lane  # W straight at i_0_0
        west_in = b.movements[4].in_lane  # E straight at i_0_1
        east = place_vehicle(
            world, east_in, 300.0, route_roads=(road(east_in), road(later_right.in_lane), road(later_right.out_lane))
        )
        west = place_vehicle(
            world, west_in, 300.0, route_roads=(road(west_in), road(earlier_right.in_lane), road(earlier_right.out_lane))
        )
        world.step()
        world.apply_decision(a.id, 0, 10)
        world.apply_decision(b.id, 0, 10)

        tel = world.step()
        assert tel.time == 607
        assert sorted(tel.discharged.items()) == [
            ("i_0_0:W:straight", 1), ("i_0_1:E:straight", 1), ("i_0_1:W:right", 1)
        ]
        assert (east.lane_id, east.pos, east.speed) == (later_right.out_lane, 11.11111111111111, 11.11111111111111)
        assert (west.lane_id, west.pos, west.speed) == (earlier_right.in_lane, 4.47213595499958, 4.47213595499958)

        tel = world.step()
        assert sorted(tel.discharged.items()) == [("i_0_0:E:right", 1)]
        assert (east.pos, east.speed) == (22.22222222222222, 11.11111111111111)
        assert (west.lane_id, west.pos, west.speed) == (earlier_right.out_lane, 11.11111111111111, 11.11111111111111)
        assert world.services[later_right.id].cum_crossed == 42
        assert world.services[earlier_right.id].cum_crossed == 42


class TestSignals:
    @staticmethod
    def _states(world: World, ticks: int) -> list[tuple]:
        """(yellow, current phase, due) of i_0_0 before each of ``ticks`` steps, then after the last."""
        sig = world.signals["i_0_0"]
        states = []
        for tick in range(ticks + 1):
            due = world.due_signals().tolist() == [0]
            states.append((bool(sig.yellow), int(sig.current_phase), due))
            if tick < ticks:
                world.step()
        return states

    def test_same_phase_extends_without_yellow(self):
        world = single()
        world.apply_decision("i_0_0", 0, 10)
        assert self._states(world, 10) == [(False, 0, False)] * 10 + [(False, 0, True)]

    def test_phase_change_inserts_yellow(self):
        world = single()
        world.apply_decision("i_0_0", 1, 10)
        assert self._states(world, 15) == (
            [(True, 0, False)] * 5 + [(False, 1, False)] * 10 + [(False, 1, True)]
        )

    def test_one_second_yellow_switches_after_one_tick(self):
        world = World(build_grid(1, 1, 300, 300), yellow=1)
        world.apply_decision("i_0_0", 2, 3)
        assert self._states(world, 4) == (
            [(True, 0, False)] + [(False, 2, False)] * 3 + [(False, 2, True)]
        )

    def test_extension_after_running_a_phase(self):
        world = single()
        world.apply_decision("i_0_0", 3, 10)
        for _ in range(15):  # 5 yellow + 10 green
            world.step()
        world.apply_decision("i_0_0", 3, 15)
        assert self._states(world, 15) == [(False, 3, False)] * 15 + [(False, 3, True)]

    def test_switched_to_phase_waits_for_its_yellow_then_serves_its_budget(self):
        world = single()
        north = world.net.intersections[0].movements[7]  # N straight, served by phase 1
        queue_up(world, north.in_lane, 6)
        assert world.apply_decision("i_0_0", 1, 30) == 6
        length = world.net.lanes[north.in_lane].length
        for i in range(6, 10):  # arrivals after the decision are not in the budget
            place_vehicle(world, north.in_lane, pos=length - i * world.k.headway, speed=0.0)
        svc = world.services[north.id]
        for _ in range(5):
            assert north.id not in world.step().discharged
        assert svc.cum_crossed == 0 and svc.clock_start == 5
        for _ in range(30):
            world.step()
        assert svc.cum_crossed == 6 and svc.budget == 0
        assert world.occupancy(north.in_lane) == 4

    def test_returns_the_granted_budget(self):
        world = single()
        m = west_straight(world.net)
        queue_up(world, m.in_lane, 4)
        assert world.apply_decision("i_0_0", 0, 10) == 4  # W straight 4, E straight 0
        assert world.services[m.id].budget == 4.0
        for _ in range(10):
            world.step()
        assert world.apply_decision("i_0_0", 1, 10) == 0  # N/S straights are empty

    def test_decision_before_expiry_faults(self):
        world = single()
        world.apply_decision("i_0_0", 0, 10)
        with pytest.raises(RuntimeError):
            world.apply_decision("i_0_0", 1, 10)

    def test_bad_phase_faults(self):
        with pytest.raises(ValueError):
            single().apply_decision("i_0_0", 4, 10)

    def test_yellow_blocks_controlled_movements_only(self):
        world = single()
        inter = world.net.intersections[0]
        straight = inter.movements[1]
        right = inter.movements[2]
        place_vehicle(world, straight.in_lane, pos=300.0, speed=0.0)
        place_vehicle(world, right.in_lane, pos=300.0, speed=0.0)
        world.step()
        world.apply_decision("i_0_0", 1, 10)  # switch -> 5 s yellow
        for tick in range(5):
            tel = world.step()
            assert world.signals["i_0_0"].yellow == (tick < 4)  # the fifth tick ends the yellow
            assert straight.id not in tel.discharged
        assert world.services[straight.id].cum_crossed == 0
        assert world.services[right.id].cum_crossed == 1  # right turns keep flowing

    def test_yellow_stops_a_green_with_budget_left(self):
        world = single()
        straight = west_straight(world.net)
        queue_up(world, straight.in_lane, 10)
        world.apply_decision("i_0_0", 0, 3)
        for _ in range(3):
            world.step()
        crossed = world.services[straight.id].cum_crossed
        assert 0 < crossed < 10 and world.services[straight.id].budget > 0
        world.apply_decision("i_0_0", 1, 10)  # switch -> 5 s yellow
        for _ in range(5):
            world.step()
        assert world.services[straight.id].cum_crossed == crossed


class TestObservation:
    def test_empty_intersection_phase_zero(self):
        world = single()
        obs = world.observe("i_0_0")
        assert obs.shape == (16,)
        assert obs[:12].tolist() == [0.0] * 12
        assert obs[12:].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_counts_land_in_canonical_slots(self):
        world = single()
        inter = world.net.intersections[0]
        lane = inter.incoming_lanes[1]  # W straight
        for i in range(3):
            place_vehicle(world, lane, pos=200 - 10 * i, speed=0.0)
        world.apply_decision("i_0_0", 2, 10)
        for _ in range(5):
            world.step()
        obs = world.observe("i_0_0")
        assert obs[1] == 3.0
        assert obs[14] == 1.0  # one-hot slot of phase 2
        assert obs[:12].sum() == 3.0

    def test_sum_matches_incoming_occupancy(self):
        world = single()
        inter = world.net.intersections[0]
        for k, lane in enumerate(inter.incoming_lanes):
            if k % 2 == 0:
                place_vehicle(world, lane, pos=150.0, speed=0.0)
        obs = world.observe("i_0_0")
        total = sum(world.occupancy(l) for l in inter.incoming_lanes)
        assert obs[:12].sum() == total == 6

    def test_queued_mode_counts_standing_vehicles_only(self):
        net = build_grid(1, 1, 300, 300)
        world = World(net, obs_counts="queued")
        lane = net.intersections[0].incoming_lanes[1]
        place_vehicle(world, lane, pos=300.0, speed=0.0)   # will queue
        place_vehicle(world, lane, pos=10.0, speed=0.0)    # still rolling
        world.step()
        obs = world.observe("i_0_0")
        assert obs[1] == 1.0

    def test_queued_mode_through_discharge_and_skipped_lanes(self):
        world = World(build_grid(1, 1, 300, 300), obs_counts="queued")
        lanes = world.net.intersections[0].incoming_lanes
        queue_up(world, lanes[1], 4)  # W straight, discharged by phase 0
        queue_up(world, lanes[7], 3)  # N straight, red throughout
        place_vehicle(world, lanes[4], pos=100.0, speed=10.0)  # E straight, rolling
        assert world.observe("i_0_0")[:12].tolist() == [0.0] * 12  # placed, not yet advanced
        world.step()
        world.apply_decision("i_0_0", 0, 10)
        seen = []
        for _ in range(5):
            obs = world.observe("i_0_0")
            seen.append((obs[1], obs[4], obs[7], world.occupancy(lanes[1])))
            world.step()
        # (W queued, E queued, N queued, W on the lane) before each tick: at t = 3
        # one vehicle has crossed since the last advance, so 3 of the 4 stand; at
        # t = 4 the rest have started to roll and none stands
        assert seen == [(4, 0, 3, 4), (4, 0, 3, 4), (3, 0, 3, 3), (0, 0, 3, 2), (0, 0, 3, 1)]
        # the N queue settled at the first tick, and its lane was skipped from then on
        assert world._settled[world.lanes[lanes[7]].index] == 3


class TestSpawning:
    def test_buffered_entry_keeps_scheduled_time(self):
        net = build_grid(1, 1, 300, 300)
        from gridlight.flows import straight_route

        road = next(r.id for r in net.roads.values() if r.end == "i_0_0" and r.heading == "E")
        route = straight_route(net, road)
        entry, _ = resolve_route(net, route)
        # five departures at the same tick
        world = World(net, Schedule(np.zeros(5, np.int64), np.zeros(5, np.intp), (route,)))
        world.step()
        assert world.entered_total == 5
        assert world.occupancy(entry) == 1  # one per tick fits the spacing gate
        assert world.buffered_count() == 4
        assert all(v.entered_at == 0 for v in world.vehicles)
        for _ in range(12):
            world.step()
        assert world.buffered_count() == 0

    @pytest.mark.parametrize(
        "route,error,match",
        [
            (("nope", "rd__i_0_1__b_e_0"), KeyError, "unknown road 'nope'"),
            (("rd__b_w_0__i_0_0", "rd__i_0_1__b_e_0"), ValueError, "are not connected"),
            (("rd__i_0_0__i_0_1", "rd__i_0_1__b_e_0"), ValueError, "road rd__i_0_0__i_0_1 starts at i_0_0"),
        ],
        ids=["unknown-road", "disconnected", "interior-start"],
    )
    def test_bad_route_fails_when_the_world_is_built(self, route, error, match):
        net = build_grid(1, 2, 300, 300)
        good = ("rd__b_w_0__i_0_0", "rd__i_0_0__i_0_1", "rd__i_0_1__b_e_0")
        with pytest.raises(error, match=match):
            World(net, Schedule(np.array([0, 50]), np.array([0, 1]), (good, route)))

    def test_spawned_vehicles_traverse_and_exit(self):
        net = build_grid(1, 1, 300, 300)
        road = next(
            r.id for r in net.roads.values() if r.end == "i_0_0" and r.heading == "E"
        )
        # straight through: entry road then the east exit road
        exit_road = next(
            r.id for r in net.roads.values() if r.start == "i_0_0" and r.heading == "E"
        )
        world = World(net, expand_flows([FlowSpec((road, exit_road), start=0, end=0, interval=1)]))
        for _ in range(120):
            # hold phase 0; each boundary refreshes the discharge budget
            if world.due_signals().size:
                world.apply_decision("i_0_0", 0, 10)
            world.step()
        veh = world.vehicles[0]
        assert veh.status == EXITED
        assert veh.exited_at is not None
        # 600 m of driving plus one stop-line clearance
        assert 55 <= veh.exited_at <= 75
        assert world.exited_total == 1

    def test_a_schedule_resolves_each_route_once(self, monkeypatch):
        net = build_grid(3, 3, 300, 300)
        schedule = gen_syn_heavy(net)
        resolved = []
        resolve = engine.resolve_route

        def counting_resolve(net, route):
            resolved.append(route)
            return resolve(net, route)

        monkeypatch.setattr(engine, "resolve_route", counting_resolve)
        world = World(net, schedule)
        for _ in range(120):
            world.step()
        assert world.entered_total == 12 * 12
        assert len(schedule.routes) == 12 and sorted(resolved) == sorted(schedule.routes)

    def test_conservation_counter(self):
        net = build_grid(1, 1, 300, 300)
        world = World(net, gen_syn_light_like(net, horizon=120))
        world.apply_decision("i_0_0", 0, 20)
        for _ in range(120):
            world.step()
            assert world.entered_total == world.on_network_count() + world.buffered_count() + world.exited_total


def gen_syn_light_like(net, horizon):
    """Uniform straight demand on every entry of a small grid."""
    from gridlight.flows import expand_flows, FlowSpec, straight_route

    flows = []
    for road_id, _ in net.entry_roads:
        flows.append(FlowSpec(route=straight_route(net, road_id), start=0, end=horizon - 1, interval=20))
    return expand_flows(flows)


class TestInvariantsFuzz:
    def _run_fuzzed_episode(self, seed: int, horizon: int = 300) -> None:
        rng = np.random.default_rng(seed)
        net = build_grid(1, 2, 120, 90)
        flows = [
            FlowSpec(straight_route(net, road_id), start=0, end=horizon - 1, interval=int(rng.integers(2, 15)))
            for road_id, _ in net.entry_roads
        ]
        world = World(net, expand_flows(flows))
        last_pos: dict[int, tuple[str, float]] = {}
        vmax = DEFAULT_KINEMATICS.max_speed
        for _ in range(horizon):
            for r in world.due_signals().tolist():
                inter = net.intersections[r]
                world.apply_decision(
                    inter.id, int(rng.integers(4)), int(rng.integers(10, 21))
                )
            world.step(collect=False)
            assert world.entered_total == world.on_network_count() + world.buffered_count() + world.exited_total
            for lane_id, ls in world.lanes.items():
                cap = ls.lane.capacity
                assert len(ls.vehicles) <= cap, f"lane {lane_id} over capacity"
                seen_moving = False
                prev = None
                for veh in ls.vehicles:
                    assert -1e-6 <= veh.pos <= ls.lane.length + 1e-6
                    if veh.status == QUEUED:
                        assert not seen_moving, "queued vehicle behind a moving one"
                    else:
                        seen_moving = True
                    if prev is not None:
                        assert veh.pos <= prev + 1e-6, "ordering violated"
                    prev = veh.pos
                    where = last_pos.get(veh.vid)
                    if where is not None and where[0] == lane_id:
                        assert veh.pos - where[1] <= vmax + 1e-6, "teleport"
                    last_pos[veh.vid] = (lane_id, veh.pos)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_demand_and_signals(self, seed):
        self._run_fuzzed_episode(seed)


class TestSkipInvariants:
    """What a tick skips is exactly what it would have recomputed.

    A twin world has its settled prefixes and its slot wakes cleared before
    every step, so it advances every vehicle on every non-empty lane and
    visits every open slot whose lane holds a vehicle; both worlds must stay
    bit-equal.  The engine builds its movement counts without their checks,
    so after every tick each intersection's counts are rebuilt through the
    checking constructor.
    """

    @staticmethod
    def _random_events(net, rng, horizon):
        junctions = {inter.id for inter in net.intersections}
        routes: dict[tuple[str, ...], int] = {}
        times, index = [], []
        for road_id, _ in net.entry_roads:
            interval = int(rng.integers(1, 7))
            for t in range(0, horizon, interval):
                route = [road_id]
                road = net.roads[road_id]
                while road.end in junctions:
                    options = [m for m in net.intersection(road.end).movements if m.in_lane in road.lane_ids]
                    m = options[int(rng.integers(len(options)))]
                    road = net.road_of_lane(m.out_lane)
                    route.append(road.id)
                times.append(t)
                index.append(routes.setdefault(tuple(route), len(routes)))
        return Schedule(np.array(times, np.int64), np.array(index, np.intp), tuple(routes))

    def test_queued_short_of_the_stop_line_keeps_moving(self):
        # within the 1e-6 queue tolerance of the stop line, but not on it:
        # queued, yet the next tick still closes the gap
        world = single()
        lane = west_straight(world.net).in_lane
        veh = place_vehicle(world, lane, pos=300.0 - world.k.accel - 5e-7, speed=0.0)
        world.step()
        assert veh.status == QUEUED and veh.pos < 300.0
        world.step()
        assert veh.pos == 300.0 and veh.speed == 0.0

    @staticmethod
    def _open_movements(world):
        """Per intersection, in network order: the green phase's movements, then the right turns."""
        return [
            mid
            for inter, sig in zip(world.net.intersections, world.signals.values())
            for mid in (
                *(phase_movement_ids(inter, sig.current_phase) if not sig.yellow else ()),
                *(m.id for m in inter.movements if m.turn is Turn.RIGHT),
            )
        ]

    @staticmethod
    def _state(world):
        return [[(v.vid, v.pos, v.speed, v.status) for v in ls.vehicles] for ls in world.lanes.values()]

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(1, 1), (1, 2), (2, 2)]),
        length=st.sampled_from([60.0, 90.0, 150.0]),
    )
    def test_skips_match_full_recompute(self, seed, shape, length):
        rng = np.random.default_rng(seed)
        horizon = 250
        net = build_grid(*shape, length, length)
        events = self._random_events(net, rng, horizon)
        world, twin = World(net, events), World(net, events)
        headway = world.k.headway
        for _ in range(horizon):
            for r in world.due_signals().tolist():
                inter = net.intersections[r]
                phase, green = int(rng.integers(4)), int(rng.integers(1, 21))
                world.apply_decision(inter.id, phase, green)
                twin.apply_decision(inter.id, phase, green)
            twin._settled[:] = 0
            twin._wake[:] = 0
            open_movements = self._open_movements(world)
            tel, twin_tel = world.step(collect=False), twin.step(collect=False)

            assert tel.discharged == twin_tel.discharged
            assert set(tel.discharged) <= set(open_movements)
            # ascending open slots: each intersection's green-phase movements, then its right turns
            assert [world._slots[s].mid for s in np.flatnonzero(world._open)] == self._open_movements(world)
            for inter in net.intersections:
                for m in inter.movements:
                    if m.turn is not Turn.RIGHT:
                        assert world.services[m.id].budget <= world.occupancy(m.in_lane)
            assert self._state(world) == self._state(twin)
            assert lane_occupancy(world) == [len(ls.vehicles) for ls in world.lanes.values()]
            for ls in world.lanes.values():
                limit = ls.lane.length
                for veh in list(ls.vehicles)[: world._settled[ls.index]]:
                    assert veh.status == QUEUED and veh.speed == 0.0 and veh.pos == limit
                    limit = veh.pos - headway
            assert world.due_signals().tolist() == [r for r, d in enumerate(world._due) if d <= world.time]
            for inter in net.intersections:
                counts = world.movement_counts(inter.id)
                MovementCounts(counts.n_in, counts.n_out, counts.n_max)


class TestDischargeWake:
    """A slot that is not yet due is skipped, and no crossing moves for it.

    Each run steps a twin beside the world with the twin's wakes zeroed
    before every step, so the twin visits every open slot whose lane holds
    a vehicle.
    """

    @staticmethod
    def _beside_twin(world: World, twin: World, ticks: int, decide=lambda w: None) -> tuple[list[int], int]:
        """The ticks with a crossing, and how many ticks skipped a slot, with both worlds bit-equal."""
        crossed_at, skipping = [], 0
        for _ in range(ticks):
            decide(world)
            decide(twin)
            twin._wake[:] = 0
            skipping += bool((world._wake > world.time).any())
            tel, twin_tel = world.step(), twin.step()
            assert tel.discharged == twin_tel.discharged
            assert TestSkipInvariants._state(world) == TestSkipInvariants._state(twin)
            if tel.discharged:
                crossed_at.append(tel.time)
        return crossed_at, skipping

    # the last case starts above the lane speed (11.1 m/s): the advance caps
    # every speed at the lane's, so the head still gains at most vmax per
    # tick, which is what the platoon-slot wake assumes
    @pytest.mark.parametrize(
        "pos,speed", [(0.0, 0.0), (37.5, 11.1), (250.3, 5.0), (299.9999995, 0.0), (100.0, 111.1)]
    )
    def test_lone_approach_crosses_on_the_same_tick(self, pos, speed):
        worlds = single(), single()
        for world in worlds:
            place_vehicle(world, west_straight(world.net).in_lane, pos=pos, speed=speed)
            world.apply_decision("i_0_0", 0, 60)
        crossed_at, skipping = self._beside_twin(*worlds, 60)
        assert len(crossed_at) == 1 and skipping > 0

    def test_restarted_clock_replaces_a_wake_set_under_the_old_one(self):
        # phase 0 runs from t=0; at t=3 it yields to phase 1 and at t=13 it
        # returns, so its clock restarts at t=18 while the head, far up the
        # lane, holds a wake set under the old clock; the restart sets the
        # wake of the first crossing under the new clock
        worlds = single(), single()
        m = west_straight(worlds[0].net)
        slot = worlds[0]._slots.index(worlds[0].services[m.id])
        plan = {0: (0, 3), 3: (1, 5), 13: (0, 30)}

        def decide(world):
            if world.time in plan:
                world.apply_decision("i_0_0", *plan[world.time])

        for world in worlds:
            place_vehicle(world, m.in_lane, pos=0.0, speed=0.0)
        world = worlds[0]
        before, _ = self._beside_twin(*worlds, 17, decide)
        assert before == [] and world._wake.flat[slot] > 18
        self._beside_twin(*worlds, 1, decide)  # the yellow ends: the clock restarts at t=18
        first = 18 + math.ceil(platoon_clear_time(1) - 1e-6) - 1
        assert world.services[m.id].clock_start == 18 and world._wake.flat[slot] == first
        after, _ = self._beside_twin(*worlds, 40, decide)
        assert len(after) == 1


class TestOccupancyVector:
    """The lane-occupancy vector every count is read from matches the lanes."""

    @staticmethod
    def _assert_matches_lanes(world: World) -> None:
        assert lane_occupancy(world) == [len(ls.vehicles) for ls in world.lanes.values()]

    @pytest.mark.parametrize("seed", range(10))
    def test_after_every_tick_and_placement(self, seed):
        rng = np.random.default_rng(20_000 + seed)
        net = build_grid(1, 2, 120, 90)
        flows = [
            FlowSpec(straight_route(net, road_id), start=0, end=299, interval=int(rng.integers(2, 15)))
            for road_id, _ in net.entry_roads
        ]
        world = World(net, expand_flows(flows))
        lane_ids = list(net.lanes)
        heads = list(world.signals.values())  # live rows, read again after every step
        kept = []
        placed = 0
        for tick in range(300):
            for r in world.due_signals().tolist():
                inter = net.intersections[r]
                world.apply_decision(inter.id, int(rng.integers(4)), int(rng.integers(10, 21)))
            tel = world.step(collect=tick % 2 == 0)
            self._assert_matches_lanes(world)
            if tel.occupancy is not None:
                assert tel.occupancy.tolist() == lane_occupancy(world)
                assert tel.phases.tolist() == [head.current_phase for head in heads]
                assert tel.yellow.tolist() == [head.yellow for head in heads]
                kept.append((tel, tel.phases.tolist(), tel.yellow.tolist()))
            for inter in net.intersections:
                counts = world.movement_counts(inter.id)
                assert counts.n_in.tolist() == [world.occupancy(m.in_lane) for m in inter.movements]
                assert counts.n_out.tolist() == [world.occupancy(m.out_lane) for m in inter.movements]
            # a placement between ticks is counted at once
            lane_id = lane_ids[int(rng.integers(len(lane_ids)))]
            ls = world.lanes[lane_id]
            room = len(ls.vehicles) < ls.lane.capacity and (
                not ls.vehicles or ls.vehicles[-1].pos >= world.k.headway
            )
            if room and rng.random() < 0.3:
                place_vehicle(world, lane_id, pos=0.0, speed=0.0)
                self._assert_matches_lanes(world)
                placed += 1
        assert placed > 0
        # a kept step's signal vectors are copies: the signals changed, the vectors did not
        assert len({(tuple(phases), tuple(yellow)) for _, phases, yellow in kept}) > 2
        for tel, phases, yellow in kept:
            assert tel.phases.tolist() == phases and tel.yellow.tolist() == yellow


class TestDeterminism:
    def _history(self):
        net = build_grid(2, 2, 150, 150)
        events = gen_syn_light_like(net, horizon=200)
        world = World(net, events)
        stream = []
        cycle = {i.id: 0 for i in net.intersections}
        for _ in range(200):
            for r in world.due_signals().tolist():
                inter = net.intersections[r]
                world.apply_decision(inter.id, cycle[inter.id], 10)
                cycle[inter.id] = (cycle[inter.id] + 1) % 4
            tel = world.step()
            stream.append(
                (
                    tel.entered,
                    tel.exited,
                    tuple(sorted(tel.discharged.items())),
                    tuple(tel.occupancy.tolist()),
                    tuple(tel.phases.tolist()),
                    tuple(tel.yellow.tolist()),
                )
            )
        return stream

    def test_identical_runs_produce_identical_streams(self):
        assert self._history() == self._history()
