"""Demand generation and flow-file tests: event counts, schedules,
round trips and error reporting."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight.flows import (
    MAX_FLOW_EVENTS,
    FlowSpec,
    Schedule,
    SpawnEvent,
    expand_flows,
    gen_syn_heavy,
    gen_syn_light,
    load_flow_file,
    save_flow_file,
    syn_heavy_flows,
    syn_light_flows,
)
from gridlight.network import Turn, build_grid, resolve_route


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 3, 300, 300)


def reference_expand(flows, until=math.inf) -> list[SpawnEvent]:
    """Departures one loop step at a time, one event each, sorted once by time.

    The plain reading of a flow that :func:`expand_flows` must reproduce:
    departure ``k`` leaves at ``int(start + k * interval)`` while the sum
    is at most ``end`` and before ``until``.
    """
    events = []
    for flow in flows:
        k = 0
        while True:
            t = flow.start + k * flow.interval
            if t > flow.end or t >= until:
                break
            events.append(SpawnEvent(time=int(t), route=flow.route))
            k += 1
    events.sort(key=lambda e: e.time)
    return events


#: a few routes, so that several flows share one
_ROUTES = [("a",), ("b", "c"), ("d", "e", "f")]
_INTERVALS = st.one_of(
    st.integers(1, 40),
    st.sampled_from([0.1, 0.3, 0.7, 2.5, 7.3]),
    st.floats(0.2, 40, allow_nan=False, allow_infinity=False),
)


@st.composite
def _flows(draw) -> list[FlowSpec]:
    flows = []
    for _ in range(draw(st.integers(0, 6))):
        # starts on a coarse grid, so that flows often depart at equal times
        start = draw(st.one_of(st.sampled_from([0, 10, 30]), st.integers(0, 300)))
        end = draw(st.integers(start, start + 300))
        flows.append(FlowSpec(route=draw(st.sampled_from(_ROUTES)), start=start, end=end, interval=draw(_INTERVALS)))
    return flows


class TestSynLight:
    def test_total_event_count(self, grid):
        assert len(gen_syn_light(grid)) == 2160

    def test_twelve_flows_of_180(self, grid):
        flows = syn_light_flows(grid)
        assert len(flows) == 12
        events = expand_flows(flows)
        lane_of = {flow.route: resolve_route(grid, flow.route)[0] for flow in flows}
        per_lane = {}
        for ev in events:
            per_lane.setdefault(lane_of[ev.route], []).append(ev.time)
        assert len(per_lane) == 12
        for times in per_lane.values():
            assert times == list(range(0, 3600, 20))

    def test_routes_go_straight_only(self, grid):
        for flow in syn_light_flows(grid):
            _, movements = resolve_route(grid, flow.route)
            assert movements, "route must cross at least one intersection"
            assert all(m.turn is Turn.STRAIGHT for m in movements)

    def test_wrong_grid_shape_faults(self):
        small = build_grid(2, 2, 300, 300)
        with pytest.raises(ValueError):
            gen_syn_light(small)

    def test_deterministic(self, grid):
        assert gen_syn_light(grid) == gen_syn_light(grid)


class TestSynHeavy:
    def test_total_event_count(self, grid):
        assert len(gen_syn_heavy(grid)) == 8640

    def test_period_structure(self, grid):
        events = gen_syn_heavy(grid)
        p1 = [e for e in events if 0 <= e.time < 900]
        p2 = [e for e in events if 900 <= e.time < 1800]
        p3 = [e for e in events if 1800 <= e.time < 2700]
        p4 = [e for e in events if 2700 <= e.time < 3600]
        assert (len(p1), len(p2), len(p3), len(p4)) == (1080, 3240, 1080, 3240)

    def test_period_two_ns_rate(self, grid):
        events = gen_syn_heavy(grid)
        lane_of = {route: resolve_route(grid, route)[0] for route in {e.route for e in events}}
        ns_lanes = {
            lane for lane, side in grid.boundary_entries if side in ("n", "s")
        }
        for lane in sorted(ns_lanes):
            times = [e.time for e in events if lane_of[e.route] == lane and 900 <= e.time < 1800]
            if times:  # only the straight entry lane of each approach carries flow
                assert len(times) == 450
                assert times == list(range(900, 1800, 2))

    def test_first_and_third_periods_identical_pattern(self, grid):
        events = gen_syn_heavy(grid)
        p1 = sorted((e.time, e.route) for e in events if e.time < 900)
        p3 = sorted((e.time - 1800, e.route) for e in events if 1800 <= e.time < 2700)
        assert p1 == p3


class TestFlowFiles:
    def test_round_trip_identity(self, grid, tmp_path):
        flows = syn_heavy_flows(grid)
        path = tmp_path / "flow.json"
        save_flow_file(flows, str(path))
        reloaded = load_flow_file(str(path), grid)
        assert reloaded == flows
        assert expand_flows(reloaded) == expand_flows(flows)

    def test_interval_expansion(self, grid, tmp_path):
        flow = syn_light_flows(grid)[0]
        records = [
            {"route": list(flow.route), "interval": 20, "startTime": 0, "endTime": 59}
        ]
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(records))
        loaded = load_flow_file(str(path), grid)
        events = expand_flows(loaded)
        assert [e.time for e in events] == [0, 20, 40]

    def test_empty_file(self, grid, tmp_path):
        path = tmp_path / "flow.json"
        path.write_text("[]")
        assert load_flow_file(str(path), grid) == []
        assert expand_flows([]) == []

    def test_unknown_road_named_in_error(self, grid, tmp_path):
        path = tmp_path / "flow.json"
        path.write_text(
            json.dumps([{"route": ["no_such_road"], "interval": 5, "startTime": 0, "endTime": 10}])
        )
        with pytest.raises(ValueError, match="no_such_road"):
            load_flow_file(str(path), grid)

    def test_malformed_record_names_index(self, grid, tmp_path):
        flow = syn_light_flows(grid)[0]
        good = {"route": list(flow.route), "interval": 5, "startTime": 0, "endTime": 10}
        path = tmp_path / "flow.json"
        path.write_text(json.dumps([good, {"route": list(flow.route)}]))
        with pytest.raises(ValueError, match="#1"):
            load_flow_file(str(path), grid)

    def test_vehicle_fields_preserved(self, grid, tmp_path):
        flow = syn_light_flows(grid)[0]
        records = [
            {
                "vehicle": {"length": 4.0, "minGap": 2.0, "maxSpeed": 10.0, "acceleration": 3.0},
                "route": list(flow.route),
                "interval": 10,
                "startTime": 0,
                "endTime": 30,
            }
        ]
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(records))
        loaded = load_flow_file(str(path), grid)
        assert loaded[0].vehicle == {"length": 4.0, "minGap": 2.0, "maxSpeed": 10.0, "acceleration": 3.0}


    def test_event_cap(self, grid, tmp_path):
        flow = syn_light_flows(grid)[0]
        record = {"route": list(flow.route), "interval": 1, "startTime": 0, "endTime": 3599}
        path = tmp_path / "flow.json"
        fits = MAX_FLOW_EVENTS // 3600
        path.write_text(json.dumps([record] * fits))
        assert len(load_flow_file(str(path), grid)) == fits
        path.write_text(json.dumps([record] * (fits + 1)))
        with pytest.raises(ValueError, match=f"#{fits}.*limit of {MAX_FLOW_EVENTS}"):
            load_flow_file(str(path), grid)


class TestFlowSpecInvariants:
    def test_rejects_bad_interval(self, grid):
        flow = syn_light_flows(grid)[0]
        with pytest.raises(ValueError):
            FlowSpec(route=flow.route, start=0, end=10, interval=0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_rejects_non_finite_interval(self, grid, interval):
        flow = syn_light_flows(grid)[0]
        with pytest.raises(ValueError, match="finite"):
            FlowSpec(route=flow.route, start=0, end=10, interval=interval)

    def test_departures_in_closed_form(self, grid):
        for flow in syn_heavy_flows(grid):
            assert flow.departures() == len(expand_flows([flow]))

    @pytest.mark.parametrize("interval", [1, 2.5, 7, 0.1])
    def test_departures_before_until_in_closed_form(self, grid, interval):
        flow = FlowSpec(route=syn_light_flows(grid)[0].route, start=10, end=60, interval=interval)
        for until in (0, 10, 11, 30, 32.5, 60, 61, 1e9):
            assert flow.departures(until) == len(expand_flows([flow], until=until))

    def test_departures_count_what_is_built_as_an_int(self):
        flow = FlowSpec(route=("a",), start=0, end=1, interval=0.1)
        assert flow.departures() == len(reference_expand([flow])) == 11
        assert type(flow.departures()) is int and type(flow.departures(0.5)) is int

    def test_rejects_inverted_window(self, grid):
        flow = syn_light_flows(grid)[0]
        with pytest.raises(ValueError):
            FlowSpec(route=flow.route, start=10, end=0, interval=5)


class TestSchedule:
    @settings(max_examples=150, deadline=None)
    @given(
        flows=_flows(),
        until=st.one_of(st.just(math.inf), st.integers(0, 700), st.floats(0, 700, allow_nan=False)),
    )
    def test_expansion_matches_the_reference_loop(self, flows, until):
        schedule = expand_flows(flows, until=until)
        assert list(schedule) == reference_expand(flows, until)
        for flow in flows:
            assert flow.departures(until) == len(reference_expand([flow], until))
        # each distinct route of a departure once, in first-use order
        assert schedule.routes == tuple(dict.fromkeys(flow.route for flow in flows if flow.departures(until)))

    def test_equal_times_keep_flow_order(self):
        first = FlowSpec(route=("a",), start=0, end=9, interval=3)
        second = FlowSpec(route=("b",), start=0, end=9, interval=1.5)
        third = FlowSpec(route=("a",), start=3, end=9, interval=3)
        schedule = expand_flows([first, second, third])
        assert [(e.time, e.route) for e in schedule if e.time == 3] == [(3, ("a",)), (3, ("b",)), (3, ("a",))]
        assert schedule.routes == (("a",), ("b",))
        assert schedule == reference_expand([first, second, third])

    def test_reads_as_its_events(self, grid):
        flows = syn_light_flows(grid)[:2]
        schedule = expand_flows(flows)
        events = reference_expand(flows)
        assert len(schedule) == len(events) == 360
        assert (schedule[0], schedule[-1]) == (events[0], events[-1])
        assert schedule[5:9] == events[5:9]
        assert schedule == events and list(schedule) == events and schedule != events[1:]
        assert Schedule.of(events) == schedule and Schedule.of(schedule) is schedule
        assert schedule.routes == tuple(flow.route for flow in flows)
        with pytest.raises(IndexError):
            schedule[len(schedule)]
        with pytest.raises(ValueError, match="read-only"):
            schedule.times[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            schedule.route_index[0] = 1

    def test_rejects_departures_off_the_tick_range(self):
        with pytest.raises(ValueError, match="departure times must be >= 0, got -1"):
            Schedule.of([SpawnEvent(3, ("a",)), SpawnEvent(-1, ("a",))])
        with pytest.raises(ValueError, match="departure times must be >= 0"):
            expand_flows([FlowSpec(route=("a",), start=-5, end=5, interval=2)])
        with pytest.raises(ValueError, match="past 2\\*\\*63"):
            expand_flows([FlowSpec(route=("a",), start=2**63 - 2, end=2**63 + 10, interval=1.5)])
