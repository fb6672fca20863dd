import pytest

from weakspan import (
    HexGridSpec,
    LabelSet,
    apply_direct,
    ca_oracle,
    cmd_hexca,
    derive_graph,
    encode_grid,
    find_matches,
    hex_system,
    huw_rules,
    live_cells,
    pct,
)
from weakspan import graphs, hexgrid
from weakspan.constructions import check_parallel_independent, is_attr_isomorphic
from weakspan.hexgrid import (
    DIRECTIONS,
    MAX_RADIUS,
    cell_id,
    disk,
    hex_distance,
    parse_cell_id,
)


class TestLattice:
    @pytest.mark.parametrize("cell, expected", [
        ((0, 0), 0),
        ((1, 0), 1),
        ((1, 1), 1),
        ((2, 1), 2),
        ((-2, -2), 2),
        ((1, -1), 2),
        ((2, -1), 3),
        ((-3, 2), 5),
    ])
    def test_distance(self, cell, expected):
        assert hex_distance(*cell) == expected

    def test_directions_are_closed_under_negation(self):
        assert {(-q, -r) for q, r in DIRECTIONS} == set(DIRECTIONS)

    def test_consecutive_directions_satisfy_the_rotation_identity(self):
        for k in range(6):
            dq1, dr1 = DIRECTIONS[k]
            dq2, dr2 = DIRECTIONS[(k + 2) % 6]
            assert (dq1 + dq2, dr1 + dr2) == DIRECTIONS[(k + 1) % 6]

    def test_all_directions_are_unit_steps(self):
        for dq, dr in DIRECTIONS:
            assert hex_distance(dq, dr) == 1

    def test_disk_sizes_are_centered_hexagonal_numbers(self):
        assert len(disk(1)) == 7
        assert len(disk(2)) == 19
        assert len(disk(3)) == 37

    def test_neighbors_of_origin_are_the_directions(self):
        assert set(disk(1)) - {(0, 0)} == set(DIRECTIONS)

    def test_cell_id_round_trip(self):
        assert parse_cell_id(cell_id((3, -2))) == (3, -2)
        with pytest.raises(ValueError, match="not a cell id"):
            parse_cell_id("x")


class TestGridSpec:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="radius"):
            HexGridSpec(radius=0)

    def test_seeds_must_sit_inside_the_disk(self):
        with pytest.raises(ValueError, match="outside"):
            HexGridSpec(radius=1, seeds=((2, 0),))
        HexGridSpec(radius=2, seeds=((2, 0), (0, 0)))

    def test_radius_is_bounded(self):
        assert MAX_RADIUS == 200
        HexGridSpec(radius=MAX_RADIUS)
        with pytest.raises(ValueError, match="radius 201 exceeds the bound of 200"):
            HexGridSpec(radius=MAX_RADIUS + 1)


class TestEncoding:
    def test_every_cell_carries_exactly_one_state(self):
        grid = encode_grid(HexGridSpec(radius=2))
        for n in grid.graph.nodes:
            assert grid.label(n) in (LabelSet(["0"]), LabelSet(["1"]))

    def test_seed_cells_start_live(self):
        grid = encode_grid(HexGridSpec(radius=2, seeds=((1, 1), (0, -1))))
        assert live_cells(grid) == frozenset({(1, 1), (0, -1)})

    def test_adjacent_cells_get_one_edge_each_way(self):
        grid = encode_grid(HexGridSpec(radius=1))
        assert len(grid.graph.nodes) == 7
        # 6 centre-ring pairs plus 6 ring-ring pairs, two directed edges each
        assert len(grid.graph.edges) == 24

    def test_edge_sort_encodes_the_direction_of_travel(self):
        grid = encode_grid(HexGridSpec(radius=2))
        for eid, (sort, src, tgt) in grid.graph.edges.items():
            k = int(sort.removeprefix("dir"))
            q, r = parse_cell_id(src)
            dq, dr = DIRECTIONS[k]
            assert parse_cell_id(tgt) == (q + dq, r + dr)

    @pytest.mark.parametrize("radius, seeds", [(1, ((0, 0),)), (3, ((1, -2), (0, 0))),
                                               (5, ())])
    def test_the_encoding_keeps_its_ids_and_their_order(self, radius, seeds):
        spec = HexGridSpec(radius=radius, seeds=seeds)
        cells = disk(radius)
        edges = {f"e:{q},{r}:{k}": (f"dir{k}", cell_id((q, r)), cell_id((q + dq, r + dr)))
                 for q, r in cells for k, (dq, dr) in enumerate(DIRECTIONS)
                 if (q + dq, r + dr) in cells}
        grid = encode_grid(spec)
        assert list(grid.graph.nodes.items()) == [(cell_id(c), "cell") for c in cells]
        assert list(grid.graph.edges.items()) == list(edges.items())
        assert list(grid.labeling) == [cell_id(c) for c in cells] + list(edges)
        assert live_cells(grid) == frozenset(seeds)
        # one label set object per cell state, and the empty one on every edge
        assert len({id(label) for label in grid.labeling.values()}) == (3 if seeds else 2)

    def test_boundary_cells_have_no_edges_leaving_the_disk(self):
        grid = encode_grid(HexGridSpec(radius=1))
        for _sort, src, tgt in grid.graph.edges.values():
            assert hex_distance(*parse_cell_id(src)) <= 1
            assert hex_distance(*parse_cell_id(tgt)) <= 1

    def test_grids_of_one_radius_share_the_graph_and_not_the_labeling(self):
        spec = HexGridSpec(radius=3, seeds=((1, 0),))
        a, b = encode_grid(spec), encode_grid(spec)
        assert a.graph is b.graph
        assert a.labeling is not b.labeling and a.labeling == b.labeling
        a.labeling[cell_id((0, 0))] = LabelSet(["1"])
        third = encode_grid(spec)
        assert third == b and third != a
        assert live_cells(third) == frozenset({(1, 0)})

    def test_a_second_run_at_one_radius_builds_no_graph_and_no_index(self, monkeypatch):
        cmd_hexca(HexGridSpec(radius=5), 3)
        built = []
        real_graph, real_index = graphs.Graph.__init__, graphs.GraphIndex.__init__
        monkeypatch.setattr(graphs.Graph, "__init__",
                            lambda self, *args: built.append("Graph") or real_graph(self, *args))
        monkeypatch.setattr(graphs.GraphIndex, "__init__",
                            lambda self, g: built.append("GraphIndex") or real_index(self, g))
        result = cmd_hexca(HexGridSpec(radius=5), 3)
        assert built == []
        assert result.live_sets == ca_oracle(HexGridSpec(radius=5), 3)

    def test_grids_from_the_shared_disk_equal_cold_builds(self):
        """Each radius in turn replaces the one disk kept; every grid built
        from it, after runs on earlier grids, equals a grid built from a
        disk of its own."""
        seed_sets = (((0, 0),), ((1, -1), (0, 0)), ((2, 1), (-1, -1), (0, 1)))

        def contents(grid):
            return (list(grid.graph.nodes.items()), list(grid.graph.edges.items()),
                    list(grid.labeling.items()))

        cold = {}
        for radius in (5, 6):
            for seeds in seed_sets:
                hexgrid._dead_disk.cache_clear()
                cold[radius, seeds] = contents(encode_grid(HexGridSpec(radius, seeds)))
        for radius in (5, 6, 5):
            for seeds in seed_sets:
                spec = HexGridSpec(radius, seeds)
                assert contents(encode_grid(spec)) == cold[radius, seeds]
                reach = max((hex_distance(*cell) for cell in seeds), default=0)
                generations = radius - reach - 1
                assert cmd_hexca(spec, generations).live_sets == ca_oracle(spec, generations)


class TestBirthRules:
    def test_six_rules_one_per_live_neighbour_position(self):
        rules = huw_rules()
        assert [r.name for r in rules] == [f"birth{k}" for k in range(6)]
        for k, rule in enumerate(rules):
            assert rule.L.label("x") == LabelSet(["0"])
            for j in range(6):
                expected = LabelSet(["1" if j == k else "0"])
                assert rule.L.label(f"n{j}") == expected
            assert rule.K.label("x") == LabelSet()
            assert rule.I.element_ids() == ["x"]
            assert rule.R.label("x") == LabelSet(["1"])

    def test_patch_shape_is_the_full_neighbourhood(self):
        rule = huw_rules()[0]
        assert len(rule.L.graph.nodes) == 7
        assert len(rule.L.graph.edges) == 24

    def test_patch_ring_edges_follow_the_rotation_identity(self):
        rule = huw_rules()[0]
        for j in range(6):
            sort, src, tgt = rule.L.graph.edges[f"ring{j}"]
            assert (src, tgt) == (f"n{j}", f"n{(j + 1) % 6}")
            assert sort == f"dir{(j + 2) % 6}"


class TestMatching:
    def test_first_generation_has_one_match_per_ring_cell(self):
        system = hex_system(HexGridSpec(radius=2))
        per_rule = {}
        matched_cells = []
        for rule in system.rules:
            found = find_matches(rule, system.host)
            per_rule[rule.name] = len(found)
            matched_cells.extend(parse_cell_id(m.m.apply("x")) for m in found)
        assert per_rule == {f"birth{k}": 1 for k in range(6)}
        assert sorted(matched_cells) == disk(1)[:3] + disk(1)[4:]

    def test_matches_need_the_whole_neighbourhood_inside_the_disk(self):
        # on a radius-1 grid the ring cells lack neighbours, so only the
        # centre could host a patch, and it is live already
        system = hex_system(HexGridSpec(radius=1))
        assert all(find_matches(rule, system.host) == [] for rule in system.rules)

    def test_second_generation_births_are_parallel_independent(self):
        base = HexGridSpec(radius=3)
        second = ca_oracle(base, 1)[-1]
        grid = encode_grid(HexGridSpec(radius=3, seeds=tuple(sorted(second))))
        gammas = []
        for rule in huw_rules():
            gammas.extend(apply_direct(m) for m in find_matches(rule, grid))
        assert len(gammas) == 6
        for a in range(len(gammas)):
            for b in range(a + 1, len(gammas)):
                assert check_parallel_independent(gammas[a], gammas[b]) is not None

    def test_joint_step_agrees_with_the_oracle(self):
        spec = HexGridSpec(radius=2)
        grid = encode_grid(spec)
        gammas = []
        for rule in huw_rules():
            gammas.extend(apply_direct(m) for m in find_matches(rule, grid))
        result = derive_graph(grid, pct(gammas))
        after = ca_oracle(spec, 1)[-1]
        expected = encode_grid(HexGridSpec(radius=2, seeds=tuple(sorted(after))))
        assert is_attr_isomorphic(result, expected) is not None


class TestOracle:
    def test_growth_from_a_single_seed(self):
        history = ca_oracle(HexGridSpec(radius=7), 3)
        assert [len(g) for g in history] == [1, 7, 13, 31]

    def test_first_generation_is_the_seed_plus_its_neighbours(self):
        history = ca_oracle(HexGridSpec(radius=3), 1)
        assert history[0] == frozenset({(0, 0)})
        assert history[1] == frozenset({(0, 0)}) | set(DIRECTIONS)

    def test_second_generation_adds_only_the_corners(self):
        history = ca_oracle(HexGridSpec(radius=7), 2)
        corners = {(2 * q, 2 * r) for q, r in DIRECTIONS}
        assert history[2] - history[1] == corners

    def test_cells_never_die(self):
        history = ca_oracle(HexGridSpec(radius=5), 4)
        for earlier, later in zip(history, history[1:]):
            assert earlier <= later

    def test_a_cell_with_two_live_neighbours_stays_dead(self):
        # both seeds are adjacent to (1, 1), so it must not be born
        history = ca_oracle(HexGridSpec(radius=4, seeds=((1, 0), (0, 1))), 1)
        assert (1, 1) not in history[1]
        assert (2, 1) in history[1]


def test_system_bundles_rules_and_host():
    spec = HexGridSpec(radius=2, seeds=((1, 0),))
    system = hex_system(spec)
    assert len(system.rules) == 6
    assert live_cells(system.host) == frozenset({(1, 0)})
    assert system.algebra.values == frozenset({"0", "1"})
