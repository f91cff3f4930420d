import importlib
import pkgutil
from collections import deque
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indomatic
from indomatic import (
    all_labeled_digraphs,
    converse,
    delete_arc,
    is_complete,
    is_in_dominating,
    is_semicomplete,
    is_strong,
    is_strong_cover,
    is_strong_subset,
    make_digraph,
    make_ugraph,
    min_in_degree,
    min_out_degree,
    stays_strong_without,
)

from .conftest import all_pairs, digraphs, induced_copy, isomorphic, strong_digraphs


def transitive_tournament(n):
    return make_digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# The package's exports: what the CLI, the laws and the paper use.
EXPORTED = {
    "ArcPartition", "CharacterizationResult", "DeletionProfile", "Digraph", "FamilyInstance",
    "Inapplicable", "LawEntry", "LawReport", "NotStrongError", "PartitionDiagnosis",
    "SolveResult", "TaggedVertex", "VertexPartition", "WitnessCheckError",
    "all_labeled_digraphs", "brute_force_oracle", "cartesian_product", "characterization_holds",
    "check_all", "check_strong_in_domatic_partition", "check_strong_out_domatic_partition",
    "clique_domination_number", "complete_digraph", "composition", "composition_partition",
    "connected_domatic_number", "converse", "critical_composition_family", "delete_arc",
    "deletion_profile", "directed_cycle", "empty_digraph", "exists_partition_into_k",
    "in_domatic_number", "in_dominating_vertices", "is_clique", "is_complete",
    "is_in_dominating", "is_planar", "is_semicomplete", "is_strong", "is_strong_cover",
    "is_strong_cover_partition", "is_strong_in_domatic_critical",
    "is_strong_in_domatic_partition", "is_strong_in_dominating",
    "is_strong_out_domatic_partition", "is_strong_subset", "lambda_number",
    "lift_middle_partition", "lift_product_partition", "lift_total_partition", "line_digraph",
    "make_digraph", "make_ugraph", "middle", "min_in_degree", "min_out_degree",
    "order_value_family", "pair_critical_family", "partition_is_rigid",
    "random_strong_digraph", "root", "stays_strong_without", "strong_in_domatic_number",
    "strong_in_domatic_partitions", "strong_out_domatic_number", "subdivision", "total",
    "underlying_graph", "upper_bound", "vertex_connectivity",
}


class TestPublicSurface:
    def test_all_is_exactly_the_exports(self):
        assert len(indomatic.__all__) == len(EXPORTED)
        assert set(indomatic.__all__) == EXPORTED
        assert all(hasattr(indomatic, name) for name in EXPORTED)

    def test_unused_names_are_gone(self):
        gone = [
            "are_isomorphic", "induced_subdigraph", "arc_induced_subdigraph", "in_neighbors",
            "out_neighbors", "is_symmetric_arc", "enumerate_max_partitions",
        ]
        assert [name for name in gone if hasattr(indomatic, name)] == []
        assert not hasattr(indomatic.VertexPartition, "canonical")


class TestMakeDigraph:
    def test_cycle(self):
        D = make_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert D.vertex_count == 3
        assert D.arcs == frozenset([(0, 1), (1, 2), (2, 0)])

    def test_single_vertex(self):
        assert make_digraph(1, []).vertex_count == 1

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            make_digraph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_digraph(2, [(0, 2)])

    def test_duplicate_rejected_not_merged(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_digraph(2, [(0, 1), (0, 1)])

    def test_non_integer_vertex_count_rejected(self):
        # 3.0 compares like 3, but the masks would fail on it at first use.
        with pytest.raises(ValueError, match="vertex_count"):
            make_digraph(3.0, [(0, 1), (1, 2), (2, 0)])


class TestNeighborhoods:
    # A vertex's neighbourhoods are the bits of its adjacency masks.
    def test_cycle(self, c3):
        assert c3.out_masks[0] == 0b010
        assert c3.in_masks[0] == 0b100

    def test_complete(self, k3):
        assert k3.out_masks[0] == 0b110

    def test_isolated(self):
        D = make_digraph(2, [])
        assert D.out_masks[0] == 0
        assert D.in_masks[0] == 0


class TestAdjacencyMasks:
    @given(digraphs(max_n=6))
    def test_bits_are_arcs(self, D):
        n = D.vertex_count
        for v in range(n):
            for w in range(n):
                assert bool(D.out_masks[v] >> w & 1) == ((v, w) in D.arcs)
                assert bool(D.in_masks[v] >> w & 1) == ((w, v) in D.arcs)

    def test_masks_are_not_fields(self, c4):
        fresh = make_digraph(4, c4.arcs)
        assert c4.out_masks and c4.in_masks
        assert "out_masks" in vars(c4) and "out_masks" not in vars(fresh)
        assert fresh == c4 and hash(fresh) == hash(c4)
        assert repr(fresh) == repr(c4)
        assert {c4: "value"}[fresh] == "value"

    def test_no_module_level_cache(self):
        # Discover caches the way the benchmark tracer does: any object a
        # package module binds that has ``cache_info``.
        modules = [indomatic] + [
            importlib.import_module(f"indomatic.{info.name}")
            for info in pkgutil.iter_modules(indomatic.__path__)
        ]
        cached = [
            f"{module.__name__}.{name}"
            for module in modules
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info")
        ]
        assert cached == []


class TestStrongSubset:
    def test_cycle(self, c4):
        assert is_strong_subset(c4, range(4))
        assert is_strong_subset(c4, {2})
        assert not is_strong_subset(c4, {0, 1})

    def test_invalid_rejected(self, c3):
        with pytest.raises(ValueError):
            is_strong_subset(c3, set())
        with pytest.raises(ValueError):
            is_strong_subset(c3, {3})


class TestDegrees:
    def test_values(self, k4, c5):
        assert min_out_degree(k4) == 3
        assert min_out_degree(c5) == 1
        assert min_out_degree(make_digraph(1, [])) == 0

    def test_empty_digraph(self):
        with pytest.raises(ValueError):
            min_out_degree(make_digraph(0, []))


class TestInducedSubdigraph:
    # The suite's induced copy, which the structural checks of the
    # constructions compare against.
    def test_complete_pair(self, k3):
        sub = induced_copy(k3, {0, 1})
        assert is_complete(sub) and sub.vertex_count == 2

    def test_cycle_arc(self, c3):
        assert induced_copy(c3, {0, 1}).arcs == frozenset([(0, 1)])

    def test_identity(self, c4):
        assert induced_copy(c4, range(4)) == c4


def spanning_closed_walk(D):
    """Independent construction: chain BFS paths through every vertex and
    back; None when some leg has no path."""
    n = D.vertex_count
    adj = [sorted(w for u, w in D.arcs if u == v) for v in range(n)]

    def path(a, b):
        if a == b:
            return [a]
        prev = {a: None}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in prev:
                    prev[w] = u
                    if w == b:
                        out = [b]
                        while prev[out[-1]] is not None:
                            out.append(prev[out[-1]])
                        return out[::-1]
                    queue.append(w)
        return None

    stops = list(range(n)) + [0]
    walk = [0]
    for a, b in zip(stops, stops[1:]):
        leg = path(a, b)
        if leg is None:
            return None
        walk.extend(leg[1:])
    return walk


class TestStrong:
    def test_cycle(self, c4):
        assert is_strong(c4)

    def test_path(self):
        assert not is_strong(make_digraph(3, [(0, 1), (1, 2)]))

    def test_single_vertex_convention(self):
        assert is_strong(make_digraph(1, []))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_strong(make_digraph(0, []))

    @given(digraphs(max_n=5))
    def test_closed_spanning_walk_equivalence(self, D):
        walk = spanning_closed_walk(D)
        if is_strong(D):
            assert walk is not None
            assert walk[0] == walk[-1]
            assert set(walk) == set(range(D.vertex_count))
            for a, b in zip(walk, walk[1:]):
                assert (a, b) in D.arcs
        else:
            assert walk is None


class TestStaysStrongWithout:
    def test_every_deletion_of_order_at_most_four(self):
        deletions = 0
        for n in range(1, 5):
            for D in all_labeled_digraphs(n):
                if not is_strong(D):
                    continue
                for arc in D.sorted_arcs():
                    deletions += 1
                    assert stays_strong_without(D, arc) == is_strong(delete_arc(D, arc))
        assert deletions == 11912

    @settings(max_examples=60, deadline=None)
    @given(strong_digraphs(min_n=5, max_n=8))
    def test_matches_rebuilt_digraph(self, D):
        for arc in D.sorted_arcs():
            assert stays_strong_without(D, arc) == is_strong(delete_arc(D, arc))

    def test_leaves_the_digraph_alone(self, c4):
        assert not stays_strong_without(c4, (0, 1))
        assert c4.out_masks[0] == 0b10 and is_strong(c4)

    def test_non_arc_rejected(self, c4):
        with pytest.raises(ValueError):
            stays_strong_without(c4, (1, 0))


class TestNonIntegerEndpoints:
    # (0.0, 1) hashes like the arc (0, 1) and 0.0 like the vertex 0; each
    # entry point rejects them, and a list-shaped vertex, with ValueError,
    # neither accepting them nor failing with a TypeError.
    @pytest.mark.parametrize(
        "call",
        [
            lambda D: stays_strong_without(D, (0.0, 1)),
            lambda D: delete_arc(D, (0.0, 1)),
            lambda D: delete_arc(D, (0, 1.0)),
            lambda D: is_strong_cover(D, [(0.0, 1), (1, 2), (2, 0)]),
            lambda D: is_in_dominating(D, [0.0]),
            lambda D: is_strong_subset(D, [0.0, 1, 2]),
            lambda D: make_digraph(3, [(0.5, 1), (1, 2), (2, 0)]),
            lambda D: make_ugraph(3, [(0.5, 1), (1, 2)]),
            lambda D: is_strong_subset(D, [[0]]),
        ],
        ids=[
            "stays_strong_without", "delete_arc", "delete_arc-head", "is_strong_cover",
            "is_in_dominating", "is_strong_subset", "make_digraph", "make_ugraph",
            "is_strong_subset-list",
        ],
    )
    def test_rejected(self, c3, call):
        with pytest.raises(ValueError, match=r"is not an arc|outside \[0,3\)"):
            call(c3)

    def test_list_arcs_read_as_pairs(self, c3):
        # Each member is read as a pair before any is hashed, so a list pair names an arc.
        assert delete_arc(c3, [0, 1]) == delete_arc(c3, (0, 1))
        assert is_strong_cover(c3, [[0, 1], [1, 2], [2, 0]])


class TestShapePredicates:
    def test_complete(self, k3):
        assert is_semicomplete(k3) and is_complete(k3)

    def test_tournament(self):
        tt = transitive_tournament(3)
        assert is_semicomplete(tt) and not is_complete(tt)

    def test_cycle_not_semicomplete(self, c4):
        assert not is_semicomplete(c4)
        assert is_semicomplete(make_digraph(3, [(0, 1), (1, 2), (2, 0)]))


def semicomplete_by_pairs(D):
    n = D.vertex_count
    return all((u, v) in D.arcs or (v, u) in D.arcs for u in range(n) for v in range(u + 1, n))


@st.composite
def near_semicomplete(draw, max_n=7):
    """One, the other or both arcs on every vertex pair, then up to two
    arcs deleted: semicomplete digraphs and digraphs one pair short."""
    n = draw(st.integers(0, max_n))
    arcs = set()
    for u in range(n):
        for v in range(u + 1, n):
            arcs |= draw(st.sampled_from([{(u, v)}, {(v, u)}, {(u, v), (v, u)}]))
    if arcs:
        arcs -= set(draw(st.lists(st.sampled_from(sorted(arcs)), max_size=2)))
    return make_digraph(n, arcs)


class TestSemicomplete:
    def test_every_labeled_digraph_to_order_4(self):
        assert is_semicomplete(make_digraph(0, []))
        for n in range(1, 5):
            for D in all_labeled_digraphs(n):
                assert is_semicomplete(D) == semicomplete_by_pairs(D)

    @given(digraphs(max_n=7))
    def test_drawn(self, D):
        assert is_semicomplete(D) == semicomplete_by_pairs(D)

    @given(near_semicomplete())
    def test_drawn_near_semicomplete(self, D):
        assert is_semicomplete(D) == semicomplete_by_pairs(D)


class TestConverse:
    def test_cycle(self, c3):
        assert converse(c3).arcs == frozenset([(1, 0), (2, 1), (0, 2)])

    def test_complete_fixed_point(self, k4):
        assert converse(k4) == k4

    @given(digraphs())
    def test_involution(self, D):
        assert converse(converse(D)) == D

    @given(digraphs(max_n=5))
    def test_strongness_preserved(self, D):
        assert is_strong(D) == is_strong(converse(D))

    @given(digraphs(max_n=5))
    def test_degree_duality(self, D):
        C = converse(D)
        for v in range(D.vertex_count):
            assert D.out_masks[v] == C.in_masks[v]
        if D.vertex_count:
            assert min_out_degree(D) == min_in_degree(C)


class TestIsomorphism:
    # The suite's isomorphism reference against a search over permutations.
    def test_cycle_vs_converse(self, c3):
        assert isomorphic(c3, converse(c3))

    def test_cycle_vs_tournament(self, c3):
        assert not isomorphic(c3, transitive_tournament(3))

    def test_different_sizes(self, c3, c4):
        assert not isomorphic(c3, c4)

    def test_relabeled(self):
        D = make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        H = make_digraph(4, [(2, 0), (0, 3), (3, 1), (1, 2)])
        assert isomorphic(D, H)

    def test_same_degrees_not_isomorphic(self):
        # Two strong 6-vertex digraphs, all degrees one: one hexagon
        # versus two triangles.
        hexagon = make_digraph(6, [(i, (i + 1) % 6) for i in range(6)])
        triangles = make_digraph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert not isomorphic(hexagon, triangles)

    def test_every_pair_up_to_order_three(self):
        small = [make_digraph(0, [])] + [
            D for n in (1, 2, 3) for D in all_labeled_digraphs(n)
        ]
        for D in small:
            for H in small:
                assert isomorphic(D, H) == isomorphic_by_permutations(D, H)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabelings_with_and_without_a_flipped_arc(self, data):
        D = data.draw(digraphs(min_n=4, max_n=6))
        perm = data.draw(st.permutations(range(D.vertex_count)))
        arcs = {(perm[u], perm[v]) for u, v in D.arcs}
        if data.draw(st.booleans()):
            # Reverse one ordered pair: (u, v) and (v, u) swap membership.
            u, v = data.draw(st.sampled_from(all_pairs(D.vertex_count)))
            if ((u, v) in arcs) != ((v, u) in arcs):
                arcs ^= {(u, v), (v, u)}
        H = make_digraph(D.vertex_count, sorted(arcs))
        assert isomorphic(D, H) == isomorphic_by_permutations(D, H)


def isomorphic_by_permutations(D, H):
    """Reference: some bijection of the vertices maps D's arcs onto H's."""
    if D.vertex_count != H.vertex_count or len(D.arcs) != len(H.arcs):
        return False
    return any(
        {(p[u], p[v]) for u, v in D.arcs} == H.arcs
        for p in permutations(range(D.vertex_count))
    )
