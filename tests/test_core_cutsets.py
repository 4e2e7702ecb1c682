"""Tests for minimal cut sets and ranking (repro.core.cutsets)."""

import pytest

from repro.core.blocks import Basic, KOfN
from repro.core.cutsets import (
    exact_unavailability,
    minimal_cut_sets,
    minimal_cut_sets_from_paths,
    minimal_path_sets,
    rank_cut_sets,
    union_bound,
)
from repro.core.structure import StructureFunction
from repro.errors import ModelError


def sf(block):
    return StructureFunction.from_block(block)


class TestMinimalCutSets:
    def test_series_cuts_are_singletons(self):
        cuts = minimal_cut_sets(sf(Basic("a", 0.9) & Basic("b", 0.9)))
        assert set(cuts) == {frozenset({"a"}), frozenset({"b"})}

    def test_parallel_cut_is_the_pair(self):
        cuts = minimal_cut_sets(sf(Basic("a", 0.9) | Basic("b", 0.9)))
        assert cuts == [frozenset({"a", "b"})]

    def test_two_of_three_cuts_are_pairs(self):
        block = KOfN(2, (Basic("a", 0.9), Basic("b", 0.9), Basic("c", 0.9)))
        cuts = set(minimal_cut_sets(sf(block)))
        assert cuts == {
            frozenset({"a", "b"}),
            frozenset({"a", "c"}),
            frozenset({"b", "c"}),
        }

    def test_max_order_truncates(self):
        block = KOfN(1, tuple(Basic(f"x{i}", 0.9) for i in range(3)))
        assert minimal_cut_sets(sf(block), max_order=2) == []
        assert len(minimal_cut_sets(sf(block), max_order=3)) == 1

    def test_non_minimal_supersets_excluded(self):
        # Series a & (b | c): cuts {a}, {b, c}; {a, b} is not minimal.
        block = Basic("a", 0.9) & (Basic("b", 0.9) | Basic("c", 0.9))
        cuts = set(minimal_cut_sets(sf(block)))
        assert cuts == {frozenset({"a"}), frozenset({"b", "c"})}

    def test_system_down_rejected(self):
        dead = StructureFunction(("a",), lambda s: False)
        with pytest.raises(ModelError):
            minimal_cut_sets(dead)


def bridge():
    """Wheatstone bridge: s -a- x -c- t, s -b- y -d- t, and e joins x, y."""
    return StructureFunction(
        ("a", "b", "c", "d", "e"),
        lambda s: (s["a"] and s["c"])
        or (s["b"] and s["d"])
        or (s["a"] and s["e"] and s["d"])
        or (s["b"] and s["e"] and s["c"]),
    )


ORACLE_STRUCTURES = {
    "series": sf(Basic("a", 0.9) & Basic("b", 0.9)),
    "parallel": sf(Basic("a", 0.9) | Basic("b", 0.9)),
    "two_of_three": sf(
        KOfN(2, (Basic("a", 0.9), Basic("b", 0.9), Basic("c", 0.9)))
    ),
    "two_of_four": sf(KOfN(2, tuple(Basic(f"x{i}", 0.9) for i in range(4)))),
    "series_parallel": sf(
        Basic("a", 0.9) & (Basic("b", 0.9) | Basic("c", 0.9))
    ),
    "bridge": bridge(),
}


class TestCutSetsFromPaths:
    @pytest.mark.parametrize("name", sorted(ORACLE_STRUCTURES))
    @pytest.mark.parametrize("max_order", [None, -1, 0, 1, 2, 3])
    def test_matches_structure_census(self, name, max_order):
        structure = ORACLE_STRUCTURES[name]
        expected = minimal_cut_sets(structure, max_order=max_order)
        derived = minimal_cut_sets_from_paths(
            minimal_path_sets(structure),
            max_order=max_order,
            names=structure.names,
        )
        # Same sets in the same (size, then name-order) sequence.
        assert derived == expected
        assert set(
            minimal_cut_sets_from_paths(
                minimal_path_sets(structure), max_order=max_order
            )
        ) == set(expected)

    def test_bridge_cuts(self):
        cuts = minimal_cut_sets_from_paths(minimal_path_sets(bridge()))
        assert set(cuts) == {
            frozenset("ab"),
            frozenset("cd"),
            frozenset("ade"),
            frozenset("bce"),
        }

    def test_non_minimal_paths_are_harmless(self):
        # A superset path adds no constraint beyond its subset.
        cuts = minimal_cut_sets_from_paths([{"a"}, {"a", "b"}, {"c"}])
        assert cuts == [frozenset({"a", "c"})]

    def test_empty_family_is_a_down_system(self):
        with pytest.raises(ModelError, match="no cut sets"):
            minimal_cut_sets_from_paths([])
        with pytest.raises(ModelError, match="no cut sets"):
            minimal_cut_sets_from_paths([], max_order=0)

    def test_unknown_element_rejected(self):
        with pytest.raises(ModelError, match="not in names"):
            minimal_cut_sets_from_paths([{"a", "z"}], names=("a",))


class TestMinimalPathSets:
    def test_series_path_is_everything(self):
        paths = minimal_path_sets(sf(Basic("a", 0.9) & Basic("b", 0.9)))
        assert paths == [frozenset({"a", "b"})]

    def test_parallel_paths_are_singletons(self):
        paths = set(minimal_path_sets(sf(Basic("a", 0.9) | Basic("b", 0.9))))
        assert paths == {frozenset({"a"}), frozenset({"b"})}


class TestRanking:
    def test_orders_by_probability(self):
        cuts = [frozenset({"rare"}), frozenset({"common"})]
        ranked = rank_cut_sets(
            cuts, {"rare": 1e-6, "common": 1e-3}
        )
        assert ranked[0].components == frozenset({"common"})
        assert ranked[0].probability == pytest.approx(1e-3)

    def test_pair_probability_multiplies(self):
        ranked = rank_cut_sets(
            [frozenset({"a", "b"})], {"a": 1e-2, "b": 1e-3}
        )
        assert ranked[0].probability == pytest.approx(1e-5)
        assert ranked[0].order == 2

    def test_missing_unavailability_rejected(self):
        with pytest.raises(ModelError):
            rank_cut_sets([frozenset({"ghost"})], {})


class TestBounds:
    def test_union_bound_upper_bounds_exact(self):
        block = KOfN(2, (Basic("a", 0.9), Basic("b", 0.9), Basic("c", 0.9)))
        cuts = minimal_cut_sets(sf(block))
        unavailability = {"a": 0.1, "b": 0.1, "c": 0.1}
        ranked = rank_cut_sets(cuts, unavailability)
        exact = exact_unavailability(cuts, unavailability)
        assert union_bound(ranked) >= exact

    def test_exact_matches_enumeration(self):
        block = Basic("a", 0.95) & (Basic("b", 0.9) | Basic("c", 0.85))
        cuts = minimal_cut_sets(sf(block))
        unavailability = {"a": 0.05, "b": 0.1, "c": 0.15}
        exact = exact_unavailability(cuts, unavailability)
        direct = 1 - sf(block).availability(
            {k: 1 - v for k, v in unavailability.items()}
        )
        assert exact == pytest.approx(direct)

    def test_union_bound_capped_at_one(self):
        ranked = rank_cut_sets(
            [frozenset({"a"}), frozenset({"b"})], {"a": 0.9, "b": 0.9}
        )
        assert union_bound(ranked) == 1.0
