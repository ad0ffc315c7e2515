"""Demand generation and flow-file tests: event counts, schedules,
round trips and error reporting."""

import json

import pytest

from gridlight.flows import (
    MAX_FLOW_EVENTS,
    FlowSpec,
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

    @pytest.mark.parametrize("interval", [1, 2.5, 7])
    def test_departures_before_until_in_closed_form(self, grid, interval):
        flow = FlowSpec(route=syn_light_flows(grid)[0].route, start=10, end=60, interval=interval)
        for until in (0, 10, 11, 30, 32.5, 60, 61, 1e9):
            assert flow.departures(until) == len(expand_flows([flow], until=until))

    def test_rejects_inverted_window(self, grid):
        flow = syn_light_flows(grid)[0]
        with pytest.raises(ValueError):
            FlowSpec(route=flow.route, start=10, end=0, interval=5)
