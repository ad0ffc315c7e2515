"""Network model tests: capacities, grid construction, phases, assembly,
route resolution, and roadnet file round trips."""

import collections
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight.engine import EXITED, World
from gridlight.flows import FlowSpec, expand_flows
from gridlight.network import (
    APPROACHES,
    PHASE_COLUMNS,
    TURNS,
    RoadNetwork,
    Turn,
    assemble_network,
    build_grid,
    lane_capacity,
    movement_column,
    resolve_route,
    standard_phase_table,
    _heading,
)
from gridlight.roadnet import RoadnetFormatError, load_roadnet, save_roadnet


class TestLaneCapacity:
    @pytest.mark.parametrize(
        "length,expected",
        [(300, 40), (800, 106), (600, 80), (350, 46), (100, 13), (7.5, 1)],
    )
    def test_reference_lengths(self, length, expected):
        assert lane_capacity(length, 5.0, 2.5) == expected

    def test_rejects_non_positive(self):
        for args in [(0, 5, 2.5), (300, 0, 2.5), (300, 5, 0), (-10, 5, 2.5)]:
            with pytest.raises(ValueError):
                lane_capacity(*args)

    def test_rejects_non_finite(self):
        for length in [float("inf"), float("nan")]:
            with pytest.raises(ValueError, match="finite"):
                lane_capacity(length, 5.0, 2.5)

    def test_monotonicity(self):
        lengths = [10, 50, 100, 333, 500, 1000]
        caps = [lane_capacity(L, 5.0, 2.5) for L in lengths]
        assert caps == sorted(caps)
        # tighter packing never reduces capacity
        for L in lengths:
            assert lane_capacity(L, 4.0, 2.0) >= lane_capacity(L, 5.0, 2.5)


class TestStandardPhaseTable:
    def test_phase_zero_is_opposing_straights(self):
        table = standard_phase_table()
        assert table[0] == (("W", Turn.STRAIGHT), ("E", Turn.STRAIGHT))
        assert all(turn is Turn.STRAIGHT for _, turn in table[0])
        assert len(table[0]) == 2

    def test_covers_the_eight_controlled_movements_once(self):
        table = standard_phase_table()
        members = [pair for phase in table for pair in phase]
        assert len(members) == 8
        assert len(set(members)) == 8
        assert set(members) == {
            (a, t) for a in ("W", "E", "N", "S") for t in (Turn.LEFT, Turn.STRAIGHT)
        }

    def test_no_right_turns(self):
        for phase in standard_phase_table():
            for _, turn in phase:
                assert turn is not Turn.RIGHT

    def test_columns_follow_the_table(self):
        assert PHASE_COLUMNS.tolist() == [[1, 4], [7, 10], [0, 3], [6, 9]]
        assert PHASE_COLUMNS.tolist() == [
            [movement_column(a, t) for a, t in pair] for pair in standard_phase_table()
        ]
        with pytest.raises(ValueError):
            PHASE_COLUMNS[0, 0] = 2


class TestBuildGrid:
    def test_three_by_three(self):
        net = build_grid(3, 3, 300, 300)
        assert len(net.intersections) == 9
        assert len(net.entry_roads) == 12
        per_side = {}
        for _, side in net.entry_roads:
            per_side[side] = per_side.get(side, 0) + 1
        assert per_side == {"w": 3, "e": 3, "n": 3, "s": 3}
        assert all(lane.capacity == 40 for lane in net.lanes.values())

    def test_single_intersection(self):
        net = build_grid(1, 1, 300, 300)
        assert len(net.intersections) == 1
        assert len(net.entry_roads) == 4

    def test_asymmetric_lane_lengths(self):
        net = build_grid(4, 4, 800, 600)
        assert len(net.intersections) == 16
        caps = {}
        for road in net.roads.values():
            cap = net.lanes[road.lane_ids[0]].capacity
            caps.setdefault(road.heading, set()).add(cap)
        assert caps["E"] == caps["W"] == {106}
        assert caps["N"] == caps["S"] == {80}

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            build_grid(0, 3, 300, 300)
        with pytest.raises(ValueError):
            build_grid(3, 3, -1, 300)

    def test_intersection_shape(self):
        net = build_grid(2, 2, 300, 300)
        for inter in net.intersections:
            assert len(inter.movements) == 12
            assert inter.incoming_lanes == tuple(m.in_lane for m in inter.movements)
            assert [m.id for m in inter.movements] == [
                f"{inter.id}:{a}:{t.value}" for a in ("W", "E", "N", "S") for t in Turn
            ]
            rights = [j for j, m in enumerate(inter.movements) if m.turn is Turn.RIGHT]
            assert rights == [2, 5, 8, 11]


def _faults(net: RoadNetwork) -> list[str]:
    """What no well-formed network has, checked from scratch."""
    faults = [] if net.intersections else ["no intersection"]
    movements = [m for inter in net.intersections for m in inter.movements]
    consumers = collections.Counter(m.in_lane for m in movements)
    producers = collections.Counter(m.out_lane for m in movements)
    entries = {lane for lane, _ in net.boundary_entries}
    faults += [f"unknown lane {lane}" for lane in (consumers | producers).keys() - net.lanes.keys()]
    for lane in net.lanes:
        if consumers[lane] > 1 or producers[lane] > 1:
            faults.append(f"lane {lane}: {consumers[lane]} consumers, {producers[lane]} producers")
        if not consumers[lane] and lane not in net.boundary_exits:
            faults.append(f"lane {lane} dead-ends")
        if not producers[lane] and lane not in entries:
            faults.append(f"lane {lane} is orphaned")
    for inter in net.intersections:
        order = [(m.id, m.turn) for m in inter.movements]
        if order != [(f"{inter.id}:{a}:{t.value}", t) for a in APPROACHES for t in TURNS]:
            faults.append(f"{inter.id}: movements out of canonical order")
    faults += [f"{m.id} loops onto its own lane" for m in movements if m.in_lane == m.out_lane]
    return faults


@st.composite
def _mutated_grid_inputs(draw):
    """The inputs of a 1x1, 1x2 or 2x2 grid after one to three mutations:
    self-loops, rewired ends, flipped virtual flags, moved nodes, dropped
    and added roads, and a node's eastbound roads replaced by one loop (the
    loop heads east, so it alone fills a junction's west arrival and east exit)."""
    rows, cols = draw(st.sampled_from([(1, 1), (1, 2), (2, 2)]))
    net = build_grid(rows, cols, 300, 300)
    positions = dict(net.node_positions)
    virtual = set(positions) - {inter.id for inter in net.intersections}
    roads = [[r.id, r.start, r.end, r.length, r.max_speed] for r in net.roads.values()]
    nodes = st.sampled_from(list(positions))
    coordinate = st.integers(-3, 3).map(lambda k: 300.0 * k)
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["self-loop", "rewire", "flip-virtual", "move", "drop", "add", "loop-east"]))
        if kind == "loop-east":
            node = draw(nodes)
            roads = [r for r in roads if node not in r[1:3] or _heading(positions[r[1]], positions[r[2]]) != "E"]
            roads.append([f"extra{k}", node, node, 300.0, 12.0])
        elif kind == "add" or not roads:
            roads.append([f"extra{k}", draw(nodes), draw(nodes), 300.0, 12.0])
        elif kind == "flip-virtual":
            virtual ^= {draw(nodes)}
        elif kind == "move":
            positions[draw(nodes)] = (draw(coordinate), draw(coordinate))
        else:
            road = roads[draw(st.integers(0, len(roads) - 1))]
            if kind == "self-loop":
                road[2] = road[1]
            elif kind == "rewire":
                road[draw(st.sampled_from([1, 2]))] = draw(nodes)
            else:
                roads.remove(road)
    return positions, virtual, [tuple(road) for road in roads]


class TestAssembly:
    def test_grids_are_well_formed(self):
        for rows, cols in [(1, 1), (1, 3), (3, 3), (2, 4)]:
            assert _faults(build_grid(rows, cols, 300, 250)) == []

    def test_no_intersection(self):
        positions = {"a": (0.0, 0.0), "b": (300.0, 0.0)}
        with pytest.raises(ValueError, match="^network has no intersection$"):
            assemble_network(positions, {"a", "b"}, [("ab", "a", "b", 300.0, 12.0)], l_v=5.0, l_g=2.5)

    @pytest.mark.parametrize("node", ["i_0_0", "b_w_0"], ids=["junction", "boundary"])
    def test_self_loop(self, node):
        net = build_grid(1, 1, 300, 300)
        virtual = set(net.node_positions) - {"i_0_0"}
        roads = [(r.id, r.start, r.end, r.length, r.max_speed) for r in net.roads.values()]
        roads.append(("loop", node, node, 50.0, 12.0))
        with pytest.raises(ValueError, match=f"^road loop starts and ends at {node}$"):
            assemble_network(net.node_positions, virtual, roads, l_v=5.0, l_g=2.5)

    @settings(max_examples=400, deadline=None)
    @given(inputs=_mutated_grid_inputs())
    def test_mutations_raise_or_are_well_formed(self, inputs):
        try:
            net = assemble_network(*inputs, l_v=5.0, l_g=2.5)
        except ValueError:
            return
        assert _faults(net) == []


class TestValidate:
    """The oracle the mutation test trusts flags hand-mutated networks that
    the assembler cannot build."""

    def _mutate_intersection(self, net, **changes):
        inter = dataclasses.replace(net.intersections[0], **changes)
        return dataclasses.replace(net, intersections=[inter] + net.intersections[1:])

    def test_dangling_lane_reference(self):
        net = build_grid(1, 1, 300, 300)
        inter = net.intersections[0]
        broken = dataclasses.replace(inter.movements[0], out_lane="missing_lane")
        mutated = self._mutate_intersection(net, movements=(broken,) + inter.movements[1:])
        assert _faults(mutated) == [
            "unknown lane missing_lane",
            f"lane {inter.movements[0].out_lane} is orphaned",
        ]

    def test_movements_out_of_canonical_order(self):
        net = build_grid(1, 1, 300, 300)
        inter = net.intersections[0]
        swapped = (inter.movements[1], inter.movements[0]) + inter.movements[2:]
        assert _faults(self._mutate_intersection(net, movements=swapped)) == [
            "i_0_0: movements out of canonical order"
        ]


class TestResolveRoute:
    def test_straight_across(self):
        net = build_grid(3, 3, 300, 300)
        route = ("rd__b_w_0__i_0_0", "rd__i_0_0__i_0_1", "rd__i_0_1__i_0_2", "rd__i_0_2__b_e_0")
        entry_lane, movements = resolve_route(net, route)
        assert len(movements) == 3
        assert all(m.turn is Turn.STRAIGHT for m in movements)
        assert entry_lane == movements[0].in_lane
        # chaining: each crossing lands the vehicle on the next in-lane's road
        for prev, nxt in zip(movements, movements[1:]):
            assert net.road_of_lane(prev.out_lane).id == net.road_of_lane(nxt.in_lane).id

    def test_turning_route(self):
        net = build_grid(2, 2, 300, 300)
        # enter westbound->east at row 0, turn right at i_0_0 toward the south
        route = ("rd__b_w_0__i_0_0", "rd__i_0_0__i_1_0", "rd__i_1_0__b_s_0")
        entry_lane, movements = resolve_route(net, route)
        assert [m.turn for m in movements] == [Turn.RIGHT, Turn.STRAIGHT]
        assert entry_lane.endswith("_2")  # right-turn lane feeds the first hop

    def test_single_road_route(self):
        grid = build_grid(1, 1, 300, 300)
        # a lone exit road starts inside the grid
        exit_road = next(r for r in grid.roads.values() if r.start == "i_0_0")
        with pytest.raises(ValueError, match=f"^route must start at a boundary entry, but road {exit_road.id} starts at i_0_0$"):
            resolve_route(grid, (exit_road.id,))
        # a road from one boundary node to another is a whole route on its own
        roads = [(r.id, r.start, r.end, r.length, r.max_speed) for r in grid.roads.values()]
        roads.append(("bypass", "b_w_0", "b_n_0", 300.0, 12.0))
        net = assemble_network(grid.node_positions, set(grid.node_positions) - {"i_0_0"}, roads, l_v=5.0, l_g=2.5)
        entry_lane, movements = resolve_route(net, ("bypass",))
        assert movements == []
        assert entry_lane == net.roads["bypass"].lane_for_turn(Turn.STRAIGHT)
        world = World(net, expand_flows([FlowSpec(("bypass",), start=0, end=0, interval=1)]))
        for _ in range(40):
            world.step()
        (veh,) = world.vehicles
        assert veh.lane_id == entry_lane and veh.status == EXITED
        assert world.entered_total == world.exited_total == 1
        assert world.on_network_count() == world.buffered_count() == 0

    def test_rejects_unknown_road(self):
        net = build_grid(1, 1, 300, 300)
        with pytest.raises(KeyError):
            resolve_route(net, ("nope",))

    def test_rejects_disconnected(self):
        net = build_grid(1, 3, 300, 300)
        with pytest.raises(ValueError):
            resolve_route(net, ("rd__b_w_0__i_0_0", "rd__i_0_1__i_0_2", "rd__i_0_2__b_e_0"))

    def test_rejects_route_ending_inside(self):
        net = build_grid(1, 3, 300, 300)
        with pytest.raises(ValueError):
            resolve_route(net, ("rd__b_w_0__i_0_0", "rd__i_0_0__i_0_1"))


def _in_order(net: RoadNetwork) -> dict:
    """Every field of a network except ``grid_shape``, with dict order kept."""
    return {
        "intersections": net.intersections,
        "roads": list(net.roads.items()),
        "lanes": list(net.lanes.items()),
        "boundary_entries": net.boundary_entries,
        "boundary_exits": net.boundary_exits,
        "node_positions": list(net.node_positions.items()),
    }


def _node(doc: dict, node_id: str) -> dict:
    return next(rec for rec in doc["intersections"] if rec["id"] == node_id)


class TestRoadnetFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "roadnet.json"
        for rows, cols, we, ns in [
            (1, 1, 300, 300), (3, 3, 300, 300), (10, 10, 300, 300),
            (2, 3, 300, 250), (2, 4, 250, 350),
        ]:
            net = build_grid(rows, cols, we, ns, l_v=4.5, l_g=2.0, max_speed=12.0)
            save_roadnet(net, str(path))
            loaded = load_roadnet(str(path), l_v=4.5, l_g=2.0)
            assert _faults(loaded) == []
            assert loaded.grid_shape is None
            assert _in_order(loaded) == _in_order(net), (rows, cols, we, ns)

    def test_foreign_boundary_names_take_sides_from_headings(self, tmp_path):
        # a 1x1 junction whose virtual nodes are not named b_<side>_<k>
        points = {"J": (0, 0), "west": (-300, 0), "east": (300, 0), "up": (0, 300), "down": (0, -300)}
        doc = {
            "intersections": [
                {"id": node, "point": {"x": x, "y": y}, "virtual": node != "J"}
                for node, (x, y) in points.items()
            ],
            "roads": [
                {"id": f"{a}-{b}", "startIntersection": a, "endIntersection": b, "lanes": 3}
                for outer in ("west", "east", "up", "down")
                for a, b in ((outer, "J"), ("J", outer))
            ],
        }
        path = tmp_path / "roadnet.json"
        path.write_text(json.dumps(doc))
        net = load_roadnet(str(path))
        assert _faults(net) == []
        sides = {net.road_of_lane(lane).start: side for lane, side in net.boundary_entries}
        assert sides == {"west": "w", "east": "e", "up": "n", "down": "s"}
        assert [lane for lane, _ in net.boundary_entries] == [
            lane for outer in ("west", "east", "up", "down") for lane in net.roads[f"{outer}-J"].lane_ids
        ]
        assert net.boundary_exits == [
            lane for outer in ("west", "east", "up", "down") for lane in net.roads[f"J-{outer}"].lane_ids
        ]

    def test_unsupported_fields_warn(self, tmp_path, caplog):
        net = build_grid(1, 1, 300, 300)
        path = tmp_path / "roadnet.json"
        save_roadnet(net, str(path))
        doc = json.loads(path.read_text())
        doc["roads"][0]["laneLinks"] = []
        doc["intersections"][0]["trafficLight"] = {}
        path.write_text(json.dumps(doc))
        with caplog.at_level("WARNING"):
            load_roadnet(str(path))
        messages = " ".join(r.message for r in caplog.records)
        assert "laneLinks" in messages
        assert "trafficLight" in messages

    def test_rejects_wrong_lane_count(self, tmp_path):
        net = build_grid(1, 1, 300, 300)
        path = tmp_path / "roadnet.json"
        save_roadnet(net, str(path))
        doc = json.loads(path.read_text())
        doc["roads"][0]["lanes"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(RoadnetFormatError):
            load_roadnet(str(path))

    def test_rejects_unknown_endpoint(self, tmp_path):
        net = build_grid(1, 1, 300, 300)
        path = tmp_path / "roadnet.json"
        save_roadnet(net, str(path))
        doc = json.loads(path.read_text())
        doc["roads"][0]["endIntersection"] = "nowhere"
        path.write_text(json.dumps(doc))
        with pytest.raises(RoadnetFormatError):
            load_roadnet(str(path))

    def test_rejects_partial_junction(self, tmp_path):
        path = tmp_path / "roadnet.json"
        save_roadnet(build_grid(1, 1, 300, 300), str(path))
        doc = json.loads(path.read_text())
        doc["roads"] = [r for r in doc["roads"] if r["id"] != "rd__b_w_0__i_0_0"]
        path.write_text(json.dumps(doc))
        with pytest.raises(RoadnetFormatError, match=f"^{path}: intersection i_0_0 is not a full 4-way"):
            load_roadnet(str(path))

    def test_rejects_shared_approach(self, tmp_path):
        path = tmp_path / "roadnet.json"
        save_roadnet(build_grid(1, 1, 300, 300), str(path))
        doc = json.loads(path.read_text())
        doc["intersections"].append({"id": "far_w", "point": {"x": -600, "y": 10}, "virtual": True})
        doc["roads"].append({"id": "extra", "startIntersection": "far_w", "endIntersection": "i_0_0"})
        path.write_text(json.dumps(doc))
        with pytest.raises(RoadnetFormatError, match=f"^{path}: intersection i_0_0 has two roads arriving from W"):
            load_roadnet(str(path))

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda doc: doc["roads"][0].update(length=float("inf")), "road rd__b_w_0__i_0_0 length"),
            (lambda doc: doc["roads"].append(dict(doc["roads"][0])), "repeated road id rd__b_w_0__i_0_0"),
            (lambda doc: doc["intersections"].append(dict(doc["intersections"][0])), "repeated intersection id b_n_0"),
            (lambda doc: doc["intersections"][0].update(id=3), "intersection id must be a string, got 3"),
            (lambda doc: doc["roads"][0].update(id=["x"]), r"road id must be a string, got \['x'\]"),
            (
                lambda doc: doc["roads"][0].update(startIntersection=["b_w_0"]),
                r"road rd__b_w_0__i_0_0 startIntersection must be a string, got \['b_w_0'\]",
            ),
            (
                lambda doc: doc["roads"][0].update(endIntersection={"id": "i_0_0"}),
                "road rd__b_w_0__i_0_0 endIntersection must be a string",
            ),
            (lambda doc: doc["roads"].append(3), "malformed road record: 3"),
            (lambda doc: doc["intersections"].insert(0, ["b_n_0"]), r"malformed intersection record: \['b_n_0'\]"),
            (lambda doc: doc.update(roads=5), "roads must be a list, got 5"),
            (lambda doc: doc["roads"][0].update(lanes={"a": 1}), "road rd__b_w_0__i_0_0 lanes must be a count"),
            (lambda doc: doc["roads"][0].update(lanes=3.7), "road rd__b_w_0__i_0_0 lanes must be a count"),
            (lambda doc: doc["roads"][0].update(lanes=[1, 2, 3]), "road rd__b_w_0__i_0_0 lanes must be a count"),
            (lambda doc: doc["roads"][0].update(maxSpeed=[1]), r"road rd__b_w_0__i_0_0 maxSpeed must be a finite number > 0, got \[1\]"),
            (lambda doc: doc["roads"][0].update(maxSpeed=0), "road rd__b_w_0__i_0_0 maxSpeed must be a finite number > 0, got 0"),
            (lambda doc: doc["roads"][0].update(maxSpeed=-5), "road rd__b_w_0__i_0_0 maxSpeed must be a finite number > 0, got -5"),
            (lambda doc: doc["roads"][0].update(length=[1]), r"road rd__b_w_0__i_0_0 length must be a finite number > 0, got \[1\]"),
            (lambda doc: doc["roads"][0].update(length=1e30), r"a 1e\+30 m lane holds more vehicles than a count can store"),
            (lambda doc: doc["intersections"][0].update(point={"x": 10**400, "y": 0}), "intersection b_n_0 point must hold finite numbers"),
            (lambda doc: _node(doc, "i_0_0").update(virtual="no"), "intersection i_0_0 virtual must be true or false, got 'no'"),
            (lambda doc: _node(doc, "i_0_0").update(virtual=True), "network has no intersection"),
            (lambda doc: doc["roads"][0].update(startIntersection="i_0_0"), "road rd__b_w_0__i_0_0 starts and ends at i_0_0"),
            (lambda doc: doc["roads"][0].update(endIntersection="b_w_0"), "road rd__b_w_0__i_0_0 starts and ends at b_w_0"),
        ],
        ids=[
            "infinite-length", "repeated-road", "repeated-intersection", "intersection-id-int",
            "road-id-list", "start-list", "end-object", "road-not-object", "intersection-not-object",
            "roads-not-list", "lanes-object", "lanes-fraction", "lanes-not-objects", "max-speed-list",
            "max-speed-zero", "max-speed-negative", "length-list", "length-beyond-counts", "point-huge-int",
            "virtual-string", "all-virtual", "junction-self-loop", "boundary-self-loop",
        ],
    )
    def test_rejects_bad_record(self, tmp_path, edit, named):
        path = tmp_path / "roadnet.json"
        save_roadnet(build_grid(1, 1, 300, 300), str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(RoadnetFormatError, match=f"^{path}: {named}"):
            load_roadnet(str(path))

    def test_length_from_geometry(self, tmp_path):
        net = build_grid(1, 1, 300, 300)
        path = tmp_path / "roadnet.json"
        save_roadnet(net, str(path))
        doc = json.loads(path.read_text())
        for road in doc["roads"]:
            del road["length"]
        path.write_text(json.dumps(doc))
        loaded = load_roadnet(str(path))
        assert all(lane.length == pytest.approx(300.0) for lane in loaded.lanes.values())
