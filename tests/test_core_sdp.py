"""Sum-of-disjoint-products kernel against brute-force ground truth.

The SDP expression must be *exactly* the system-up probability for any
monotone union of path sets, so the wall here is brute-force state
enumeration over random path-set collections (hypothesis), plus the
structural invariants the disjointing is supposed to guarantee: pairwise
disjoint terms, canonical shortest-first ordering, superset elimination,
memoized compiles, and the textbook bridge-network expansion.  The
compiled index-array kernel is also pinned term for term against a
frozenset-algebra rendering of the same disjointing.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sdp import (
    SdpTerm,
    canonical_path_sets,
    compile_sdp,
    sdp_kernel,
    sdp_terms,
)
from repro.errors import ModelError

TOL = 1e-12

ELEMENTS = tuple(f"e{i}" for i in range(7))


@st.composite
def path_collections(draw):
    """1-6 random non-empty path sets over up to 7 named elements."""
    universe = draw(st.integers(min_value=2, max_value=len(ELEMENTS)))
    names = ELEMENTS[:universe]
    count = draw(st.integers(min_value=1, max_value=6))
    paths = [
        frozenset(
            draw(
                st.sets(
                    st.sampled_from(names), min_size=1, max_size=universe
                )
            )
        )
        for _ in range(count)
    ]
    probabilities = {
        name: draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
        for name in names
    }
    return names, paths, probabilities


def brute_force_availability(names, paths, probabilities) -> float:
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(names)):
        state = dict(zip(names, bits))
        if not any(all(state[e] for e in path) for path in paths):
            continue
        weight = 1.0
        for name in names:
            weight *= probabilities[name] if state[name] else (
                1.0 - probabilities[name]
            )
        total += weight
    return total


class TestAgainstBruteForce:
    @given(collection=path_collections())
    @settings(max_examples=150, deadline=None)
    def test_availability_matches_state_enumeration(self, collection):
        names, paths, probabilities = collection
        expression = compile_sdp(paths)
        expected = brute_force_availability(names, paths, probabilities)
        assert expression.availability(probabilities) == pytest.approx(
            expected, abs=TOL
        )

    @given(collection=path_collections())
    @settings(max_examples=80, deadline=None)
    def test_terms_are_pairwise_disjoint(self, collection):
        _, paths, _ = collection
        expression = compile_sdp(paths)
        for a, b in itertools.combinations(expression.terms, 2):
            # Two terms are disjoint iff one requires up what the other
            # requires down.
            assert (a.up & b.down) or (b.up & a.down), (a, b)

    @given(collection=path_collections())
    @settings(max_examples=50, deadline=None)
    def test_unavailability_is_complement(self, collection):
        _, paths, probabilities = collection
        expression = compile_sdp(paths)
        assert expression.unavailability(probabilities) == pytest.approx(
            1.0 - expression.availability(probabilities), abs=TOL
        )


WIDE = tuple(f"x{i}" for i in range(10))


@st.composite
def path_families(draw):
    """0-8 random path sets over up to 10 elements; probabilities favour
    the exact endpoints 0.0 and 1.0 alongside arbitrary values."""
    names = WIDE[: draw(st.integers(min_value=1, max_value=len(WIDE)))]
    paths = draw(
        st.lists(
            st.frozensets(st.sampled_from(names), min_size=1, max_size=4),
            max_size=8,
        )
    )
    probabilities = {
        name: draw(
            st.one_of(
                st.sampled_from((0.0, 1.0)),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            )
        )
        for name in names
    }
    return names, paths, probabilities


def reference_terms(paths) -> tuple[SdpTerm, ...]:
    """Abraham single-variable inversion in plain frozenset algebra.

    The same disjointing as :func:`repro.core.sdp.sdp_kernel` — canonical
    path order, earlier paths in order, split elements in sorted-name
    order — so its terms must match the kernel's one for one, in order.
    """
    terms = []
    for index, path in enumerate(paths):
        partial = [(path, frozenset())]
        for previous in paths[:index]:
            split = []
            for up, down in partial:
                if previous & down:
                    split.append((up, down))
                    continue
                for name in sorted(previous - up):
                    split.append((up, down | {name}))
                    up = up | {name}
            partial = split
        terms.extend(SdpTerm(up, down) for up, down in partial)
    return tuple(terms)


class TestKernel:
    @given(family=path_families())
    @settings(max_examples=150, deadline=None)
    @example(family=(WIDE[:1], [], {"x0": 0.5}))
    @example(
        family=(
            WIDE[:3],
            [frozenset({"x0"}), frozenset({"x1"}), frozenset({"x2"})],
            {"x0": 0.0, "x1": 1.0, "x2": 0.25},
        )
    )
    def test_availability_matches_state_enumeration(self, family):
        names, paths, probabilities = family
        expression = compile_sdp(paths)
        expected = brute_force_availability(names, paths, probabilities)
        assert expression.availability(probabilities) == pytest.approx(
            expected, abs=TOL
        )
        if not paths:
            assert expression.availability(probabilities) == 0.0

    @given(family=path_families())
    @settings(max_examples=100, deadline=None)
    def test_terms_match_frozenset_disjointing(self, family):
        _, paths, _ = family
        expression = compile_sdp(paths)
        terms = expression.terms
        assert expression.term_count == len(terms)
        assert terms == reference_terms(expression.paths)
        assert terms == sdp_terms(expression.paths)
        for a, b in itertools.combinations(terms, 2):
            assert (a.up & b.down) or (b.up & a.down), (a, b)
        if terms:
            # The first path's term is the path itself: nothing down.
            assert terms[0] == SdpTerm(up=expression.paths[0], down=frozenset())

    @given(family=path_families())
    @settings(max_examples=100, deadline=None)
    def test_index_layout(self, family):
        """Each term: ascending up indices, ascending down indices
        shifted by ``n``, then the ``2n`` sentinel — nothing else."""
        _, paths, _ = family
        kernel = sdp_kernel(canonical_path_sets(paths))
        n = len(kernel.names)
        assert list(kernel.names) == sorted(kernel.names)
        bounds = [*kernel.starts.tolist(), len(kernel.indices)]
        for start, stop in zip(bounds, bounds[1:]):
            run = kernel.indices[start:stop].tolist()
            assert run[-1] == 2 * n
            body = run[:-1]
            assert body == sorted(set(body))
            assert all(index < 2 * n for index in body)
            up = {index for index in body if index < n}
            assert up.isdisjoint(index - n for index in body if index >= n)

    def test_single_element_paths(self):
        expression = compile_sdp([{"b"}, {"a"}])
        assert expression.terms == (
            SdpTerm(up=frozenset({"a"}), down=frozenset()),
            SdpTerm(up=frozenset({"b"}), down=frozenset({"a"})),
        )
        assert expression.availability({"a": 0.5, "b": 0.5}) == 0.75


class TestBridgeNetwork:
    """The classic 5-element bridge: the standard SDP worked example."""

    PATHS = (
        frozenset({"L1", "L4"}),
        frozenset({"L2", "L5"}),
        frozenset({"L1", "L3", "L5"}),
        frozenset({"L2", "L3", "L4"}),
    )

    def test_reliability_at_uniform_point_nine(self):
        expression = compile_sdp(self.PATHS)
        probabilities = {f"L{i}": 0.9 for i in range(1, 6)}
        assert expression.availability(probabilities) == pytest.approx(
            0.97848, abs=1e-12
        )

    def test_abraham_expansion_has_five_terms(self):
        assert compile_sdp(self.PATHS).term_count == 5


class TestCanonicalization:
    def test_supersets_and_duplicates_dropped(self):
        paths = canonical_path_sets(
            [
                {"a", "b"},
                {"a", "b"},
                {"a", "b", "c"},
                {"c", "d"},
            ]
        )
        assert paths == (frozenset({"a", "b"}), frozenset({"c", "d"}))

    def test_shortest_first_with_lexicographic_ties(self):
        paths = canonical_path_sets([{"z"}, {"b", "c"}, {"a"}])
        assert paths == (
            frozenset({"a"}),
            frozenset({"z"}),
            frozenset({"b", "c"}),
        )

    def test_compile_is_memoized_on_canonical_paths(self):
        first = compile_sdp([{"x", "y"}, {"y", "z"}])
        second = compile_sdp([{"y", "z"}, {"x", "y"}])
        assert first.terms is second.terms
        assert sdp_terms.cache_info().hits >= 1


class TestDegenerateInputs:
    def test_no_paths_is_always_down(self):
        expression = compile_sdp([])
        assert expression.term_count == 0
        assert expression.availability({}) == 0.0
        assert expression.unavailability({}) == 1.0

    def test_empty_path_set_rejected(self):
        with pytest.raises(ModelError, match="empty path set"):
            compile_sdp([frozenset()])

    def test_missing_probability_rejected(self):
        expression = compile_sdp([{"a", "b"}])
        with pytest.raises(ModelError, match="missing probability"):
            expression.availability({"a": 0.9})

    def test_single_path_is_plain_product(self):
        expression = compile_sdp([{"a", "b"}])
        assert expression.terms == (
            SdpTerm(up=frozenset({"a", "b"}), down=frozenset()),
        )
        assert expression.availability({"a": 0.5, "b": 0.5}) == (
            pytest.approx(0.25, abs=TOL)
        )
