"""Instance generators and their independent source-problem checkers."""

from __future__ import annotations

import pytest

from rescheck import (
    BudgetError,
    INF,
    normalize,
    solve_rcp_bruteforce,
)
from rescheck.generators import (
    EXPECTED_UNKNOWN,
    disjoint_dominating_sets_exist,
    disjoint_triples_exist,
    from_3dm,
    from_domatic,
    from_hitting_set,
    from_set_cover,
    hitting_set_exists,
    random_instance,
    sample_3dm,
    sample_graph,
    sample_hitting_set,
    sample_set_cover,
    set_cover_exists,
)


def oracle_answer(gen):
    return solve_rcp_bruteforce(normalize(gen.instance)).answer


class TestSourceBruteForce:
    def test_hitting_set(self):
        assert hitting_set_exists(2, [(0, 1)], 1)
        assert not hitting_set_exists(2, [(0, 1)], 0)
        assert not hitting_set_exists(3, [(0, 1), (1, 2), (0, 2)], 1)
        assert hitting_set_exists(3, [(0, 1), (1, 2), (0, 2)], 2)

    def test_disjoint_triples(self):
        assert disjoint_triples_exist([(0, 0, 0)], 1)
        assert not disjoint_triples_exist([(0, 0, 0), (0, 1, 1)], 2)  # shared x
        assert disjoint_triples_exist([(0, 0, 0), (1, 1, 1)], 2)
        assert disjoint_triples_exist([], 0)

    def test_disjoint_dominating_sets(self):
        triangle = [0b111, 0b111, 0b111]
        assert disjoint_dominating_sets_exist(triangle, 3)
        path = [0b011, 0b111, 0b110]
        assert disjoint_dominating_sets_exist(path, 2)
        assert not disjoint_dominating_sets_exist(path, 3)

    def test_set_cover(self):
        assert set_cover_exists(2, [0b01, 0b10], 2)
        assert not set_cover_exists(2, [0b01, 0b10], 1)
        assert set_cover_exists(2, [0b11], 1)


class TestHittingSet:
    def test_shape_of_the_reduction(self):
        gen = from_hitting_set(["v1", "v2"], [("v1", "v2")], 1)
        x = gen.instance
        assert x.n == 3 and x.num_resources == 5
        assert (x.s, x.d, x.t) == (1, 1, 3)
        assert x.user_labels == ("u:v1", "u:v2", "set:1")
        assert x.resource_labels == ("pos:1:1", "pos:1:2", "gap:v1", "gap:v2", "anchor")
        # element users: own positions plus the gaps that exclude them
        assert x.access[0] == 0b01001  # pos:1:1 and gap:v2
        assert x.access[1] == 0b00110  # pos:1:2 and gap:v1
        # the set user: anchor plus every position outside its own set
        assert x.access[2] == 0b10000

    def test_one_removal_suffices(self):
        gen = from_hitting_set(["v1", "v2"], [("v1", "v2")], 1)
        assert gen.expected == "UNSAT"
        assert oracle_answer(gen) == "UNSAT"

    def test_no_removals_leaves_the_team(self):
        gen = from_hitting_set(["v1", "v2"], [("v1", "v2")], 0)
        assert gen.expected == "SAT"
        assert oracle_answer(gen) == "SAT"

    def test_budget_below_minimum_hitting_number(self):
        sets = [("v1", "v2", "v3"), ("v2", "v3", "v4")]
        gen = from_hitting_set(["v1", "v2", "v3", "v4"], sets, 0)
        assert gen.expected == "SAT"
        assert oracle_answer(gen) == "SAT"

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            from_hitting_set(["v1"], [("v1",)], 1)
        with pytest.raises(ValueError, match="expected 2"):
            from_hitting_set(["v1", "v2"], [("v1", "v2"), ("v1",)], 1)
        with pytest.raises(ValueError, match="repeats"):
            from_hitting_set(["v1", "v2"], [("v1", "v1")], 1)
        with pytest.raises(ValueError, match="unknown element"):
            from_hitting_set(["v1", "v2"], [("v1", "v9")], 1)
        with pytest.raises(ValueError, match="nonnegative"):
            from_hitting_set(["v1", "v2"], [("v1", "v2")], -1)

    def test_resource_budget(self):
        with pytest.raises(BudgetError):
            from_hitting_set(
                ["v1", "v2", "v3"], [("v1", "v2")], 1, max_resources=4
            )

    def test_provenance_records_the_source_problem(self):
        gen = from_hitting_set(["v1", "v2"], [("v1", "v2")], 1)
        block = gen.provenance_block()
        assert block["family"] == "hitting-set"
        assert block["sets"] == [["v1", "v2"]]
        assert block["k"] == 1 and block["delta"] == 2
        assert block["expected"] == "UNSAT"
        assert "seed" not in block

    def test_no_sets_is_refused(self):
        with pytest.raises(ValueError, match="at least one set"):
            from_hitting_set(["v1", "v2"], [], 1)


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: from_hitting_set(["v1", "v1"], [("v1", "v2")], 1), "element"),
        # (a, b+c) and (a+b, c) both name the gap resource "gap:a+b+c"
        (lambda: from_hitting_set(["a", "b+c", "a+b", "c"], [("a", "b+c", "c")], 1), "resource"),
        (lambda: from_3dm(["x", "x"], ["y1", "y2"], ["z1", "z2"], [], 1), "axis element"),
        (lambda: from_domatic(["v", "v"], [], 1), "vertex"),
        (lambda: from_set_cover(["e", "e"], [], 1), "universe element"),
    ],
    ids=["hitting-set-elements", "hitting-set-resources", "3dm-axis", "domatic", "set-cover"],
)
def test_colliding_labels_are_refused(build, what):
    with pytest.raises(ValueError, match=f"^{what} labels collide"):
        build()


class TestThreeDimensionalMatching:
    def test_single_edge_single_team(self):
        gen = from_3dm(["x1"], ["y1"], ["z1"], [("x1", "y1", "z1")], 1)
        x = gen.instance
        assert x.n == 4 and x.num_resources == 7
        assert (x.s, x.d, x.t) == (0, 1, 4)
        assert gen.expected == "SAT"
        v = solve_rcp_bruteforce(normalize(x))
        assert v.answer == "SAT"
        # the only team is all four users
        assert v.witness.teams == (frozenset({0, 1, 2, 3}),)

    def test_shared_coordinate_blocks_two_teams(self):
        gen = from_3dm(
            ["x1", "x2"], ["y1", "y2"], ["z1", "z2"],
            [("x1", "y1", "z1"), ("x1", "y2", "z2")],
            2,
        )
        assert gen.expected == "UNSAT"
        assert oracle_answer(gen) == "UNSAT"

    def test_two_disjoint_edges(self):
        gen = from_3dm(
            ["x1", "x2"], ["y1", "y2"], ["z1", "z2"],
            [("x1", "y1", "z1"), ("x2", "y2", "z2")],
            2,
        )
        assert gen.expected == "SAT"
        assert oracle_answer(gen) == "SAT"

    def test_input_validation(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            from_3dm(["x1"], ["y1"], ["z1"], [("x1", "y1", "z1")], 0)
        with pytest.raises(ValueError, match="equal sizes"):
            from_3dm(["x1", "x2"], ["y1"], ["z1"], [], 1)
        with pytest.raises(ValueError, match="duplicates"):
            from_3dm(["x1"], ["y1"], ["z1"],
                     [("x1", "y1", "z1"), ("x1", "y1", "z1")], 1)
        with pytest.raises(ValueError, match="unknown element"):
            from_3dm(["x1"], ["y1"], ["z1"], [("x1", "y1", "z9")], 1)


class TestDomatic:
    def test_triangle_partitions_into_singletons(self):
        gen = from_domatic(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], 3)
        assert gen.instance.t == INF
        assert gen.expected == "SAT"
        assert oracle_answer(gen) == "SAT"

    def test_path_supports_two_sets_but_not_three(self):
        # {v2} and {v1,v3} both dominate the path, so k=2 is satisfiable
        path = (["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
        two = from_domatic(*path, 2)
        assert two.expected == "SAT"
        assert oracle_answer(two) == "SAT"
        three = from_domatic(*path, 3)
        assert three.expected == "UNSAT"
        assert oracle_answer(three) == "UNSAT"

    def test_single_set_is_always_there(self):
        gen = from_domatic(["a", "b"], [], 1)
        assert gen.expected == "SAT"
        assert oracle_answer(gen) == "SAT"

    def test_input_validation(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            from_domatic(["a"], [], 0)
        with pytest.raises(ValueError, match="unknown vertex"):
            from_domatic(["a"], [("a", "z")], 1)
        with pytest.raises(ValueError, match="loop"):
            from_domatic(["a"], [("a", "a")], 1)


class TestSetCover:
    def test_both_singletons_needed(self):
        gen = from_set_cover(["a", "b"], [("a",), ("b",)], 2)
        assert gen.instance.t == 2
        assert gen.expected == "SAT"
        assert oracle_answer(gen) == "SAT"

    def test_budget_one_is_short(self):
        gen = from_set_cover(["a", "b"], [("a",), ("b",)], 1)
        assert gen.expected == "UNSAT"
        assert oracle_answer(gen) == "UNSAT"

    def test_minimum_cover_size_is_the_threshold(self):
        universe, sets = sample_set_cover(5, universe_size=6, num_sets=5, density=0.5)
        masks = [sum(1 << universe.index(e) for e in group) for group in sets]
        minimum = next(
            (k for k in range(len(sets) + 1) if set_cover_exists(6, masks, k)),
            None,
        )
        if minimum is None or minimum == 0:
            pytest.skip("sampled system cannot cover the universe")
        sat = from_set_cover(universe, sets, minimum)
        unsat = from_set_cover(universe, sets, minimum - 1) if minimum > 1 else None
        assert sat.expected == "SAT" and oracle_answer(sat) == "SAT"
        if unsat is not None:
            assert unsat.expected == "UNSAT" and oracle_answer(unsat) == "UNSAT"

    def test_input_validation(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            from_set_cover(["a"], [("a",)], 0)
        with pytest.raises(ValueError, match="unknown element"):
            from_set_cover(["a"], [("z",)], 1)
        with pytest.raises(ValueError, match="repeats"):
            from_set_cover(["a"], [("a", "a")], 1)


class TestRandom:
    def test_density_extremes(self):
        empty = random_instance(1, n=3, m=2, density=0.0)
        assert empty.expected == EXPECTED_UNKNOWN
        assert oracle_answer(empty) == "UNSAT"
        full = random_instance(1, n=4, m=2, density=1.0, d=2, t=2)
        assert oracle_answer(full) == "SAT"

    def test_same_seed_same_instance(self):
        a = random_instance(42, n=6, m=3, density=0.5)
        b = random_instance(42, n=6, m=3, density=0.5)
        assert a.instance == b.instance
        assert random_instance(43, n=6, m=3, density=0.5).instance != a.instance

    def test_provenance_includes_seed_and_query(self):
        gen = random_instance(7, n=2, m=2, density=0.5, s=1, d=2, t=INF)
        block = gen.provenance_block()
        assert block["seed"] == 7
        assert block["t"] == "inf"
        assert block["expected"] == EXPECTED_UNKNOWN

    def test_input_validation(self):
        with pytest.raises(ValueError, match="density"):
            random_instance(0, n=1, m=1, density=1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            random_instance(0, n=-1, m=1, density=0.5)


class TestSamplers:
    def test_deterministic_per_seed(self):
        assert sample_hitting_set(3, 5, 4, 2) == sample_hitting_set(3, 5, 4, 2)
        assert sample_3dm(3, 2, 3) == sample_3dm(3, 2, 3)
        assert sample_graph(3, 5, 0.5) == sample_graph(3, 5, 0.5)
        assert sample_set_cover(3, 5, 4, 0.5) == sample_set_cover(3, 5, 4, 0.5)

    def test_shapes(self):
        elements, sets = sample_hitting_set(1, num_elements=5, num_sets=4, delta=3)
        assert len(elements) == 5 and len(sets) == 4
        assert all(len(set(group)) == 3 for group in sets)
        xs, ys, zs, edges = sample_3dm(1, n=2, m=4)
        assert len(xs) == len(ys) == len(zs) == 2
        assert len(edges) == len(set(edges)) == 4
        vertices, graph_edges = sample_graph(1, n=4, edge_probability=1.0)
        assert len(graph_edges) == 6  # complete graph
        universe, cover_sets = sample_set_cover(1, universe_size=4, num_sets=3, density=1.0)
        assert all(tuple(universe) == group for group in cover_sets)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_hitting_set(0, num_elements=2, num_sets=1, delta=3)
        with pytest.raises(ValueError):
            sample_3dm(0, n=1, m=5)
        with pytest.raises(ValueError):
            sample_graph(0, n=0, edge_probability=0.5)
        with pytest.raises(ValueError):
            sample_set_cover(0, universe_size=0, num_sets=1, density=0.5)


def test_sampled_reductions_agree_with_the_oracle():
    # a small slice of the acceptance-scale soundness run
    for seed in range(10):
        elements, sets = sample_hitting_set(seed, num_elements=4, num_sets=3, delta=2)
        gen = from_hitting_set(elements, sets, k=seed % 3)
        assert oracle_answer(gen) == gen.expected
    for seed in range(10):
        xs, ys, zs, edges = sample_3dm(seed, n=2, m=3)
        gen = from_3dm(xs, ys, zs, edges, k=1 + seed % 2)
        assert oracle_answer(gen) == gen.expected
    for seed in range(10):
        vertices, edges = sample_graph(seed, n=4, edge_probability=0.6)
        gen = from_domatic(vertices, edges, k=1 + seed % 3)
        assert oracle_answer(gen) == gen.expected
    for seed in range(10):
        universe, sets = sample_set_cover(seed, universe_size=4, num_sets=3, density=0.6)
        gen = from_set_cover(universe, sets, k=1 + seed % 3)
        assert oracle_answer(gen) == gen.expected
