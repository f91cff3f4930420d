import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indomatic import (
    Inapplicable,
    VertexPartition,
    cartesian_product,
    complete_digraph,
    composition,
    composition_partition,
    directed_cycle,
    empty_digraph,
    is_strong,
    is_strong_in_domatic_partition,
    is_strong_subset,
    lift_middle_partition,
    lift_product_partition,
    lift_total_partition,
    line_digraph,
    make_digraph,
    middle,
    root,
    strong_in_domatic_number,
    subdivision,
    total,
)

from indomatic import transforms
from indomatic.fileio import write_dot

from .conftest import digraphs, induced_copy, isomorphic, strong_digraphs


# Every construction on the directed 3-cycle (with K2* as the second factor
# and as each part), by name.
_CONSTRUCTIONS = {
    "cartesian_product": cartesian_product,
    "composition": lambda c3, k2: composition(c3, [k2] * 3),
    "line_digraph": lambda c3, k2: line_digraph(c3),
    "subdivision": lambda c3, k2: subdivision(c3),
    "root": lambda c3, k2: root(c3),
    "middle": lambda c3, k2: middle(c3),
    "total": lambda c3, k2: total(c3),
}


@pytest.mark.parametrize("name", list(_CONSTRUCTIONS))
def test_origins_name_every_vertex(name, c3, k2):
    X, origins = _CONSTRUCTIONS[name](c3, k2)
    assert len(origins) == X.vertex_count
    assert len(set(origins)) == len(origins)
    assert write_dot(X, origins).startswith("digraph G {\n")


class TestCartesianProduct:
    def test_k2_box_k2(self, k2):
        P, pair_map = cartesian_product(k2, k2)
        assert P.vertex_count == 4 and len(P.arcs) == 8
        assert len(pair_map) == 4

    def test_identity_factor(self, c4):
        single = make_digraph(1, [])
        P, _ = cartesian_product(c4, single)
        assert isomorphic(P, c4)

    def test_c3_box_c3(self, c3):
        P, _ = cartesian_product(c3, c3)
        assert P.vertex_count == 9 and len(P.arcs) == 18

    def test_levels(self, c3, c4):
        P, origins = cartesian_product(c3, c4)
        horizontal = [origins.index((0, z)) for z in range(4)]
        assert isomorphic(induced_copy(P, horizontal), c4)
        vertical = [origins.index((x, 0)) for x in range(3)]
        assert isomorphic(induced_copy(P, vertical), c3)

    @settings(max_examples=20, deadline=None)
    @given(strong_digraphs(max_n=3), digraphs(min_n=1, max_n=3))
    def test_strongness_transport(self, D, H):
        P, _ = cartesian_product(D, H)
        assert is_strong(P) == (is_strong(D) and is_strong(H))


class TestComposition:
    def test_cycle_of_empty_pairs(self, c3):
        C, _ = composition(c3, [empty_digraph(2)] * 3)
        assert C.vertex_count == 6 and len(C.arcs) == 12

    def test_trivial_host(self):
        host = make_digraph(1, [])
        part = directed_cycle(4)
        C, _ = composition(host, [part])
        assert isomorphic(C, part)

    def test_representatives_induce_host(self, c3):
        C, origins = composition(c3, [empty_digraph(2), empty_digraph(3), empty_digraph(2)])
        reps = [origins.index((hv, 0)) for hv in range(3)]
        assert isomorphic(induced_copy(C, reps), c3)

    def test_part_arcs_survive(self, c3):
        C, origins = composition(c3, [directed_cycle(3), empty_digraph(1), empty_digraph(1)])
        part_ids = [origins.index((0, pv)) for pv in range(3)]
        assert isomorphic(induced_copy(C, part_ids), directed_cycle(3))

    # Both take the host and its parts directly and check the parts
    # themselves, whoever calls them.
    @pytest.mark.parametrize("build", [composition, composition_partition])
    @pytest.mark.parametrize("count", [2, 4, 5])
    def test_one_part_per_host_vertex(self, c3, k2, build, count):
        with pytest.raises(ValueError, match=r"^need exactly one part per host vertex$"):
            build(c3, [k2] * count)

    @pytest.mark.parametrize("build", [composition, composition_partition])
    def test_order_zero_part_is_inapplicable(self, c3, k2, build):
        with pytest.raises(Inapplicable, match=r"^every part needs at least one vertex$"):
            build(c3, [k2, make_digraph(0, []), k2])

    def test_trivial_host_has_no_partition(self):
        with pytest.raises(Inapplicable, match=r"^host must be nontrivial$"):
            composition_partition(make_digraph(1, []), [complete_digraph(2)])


class TestLineDigraph:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cycle_identity(self, n):
        C = directed_cycle(n)
        L, _ = line_digraph(C)
        assert isomorphic(L, C)

    def test_k2(self, k2):
        L, _ = line_digraph(k2)
        assert isomorphic(L, complete_digraph(2))

    @given(digraphs(min_n=2, max_n=4))
    def test_order_is_arc_count(self, D):
        if not D.arcs:
            return
        L, _ = line_digraph(D)
        assert L.vertex_count == len(D.arcs)

    def test_arcless_rejected(self):
        with pytest.raises(ValueError):
            line_digraph(empty_digraph(2))

    @settings(max_examples=30, deadline=None)
    @given(digraphs(min_n=2, max_n=4))
    def test_strongness_transport(self, D):
        # Needs two or more arcs and no isolated vertex: a single arc has a
        # trivially strong one-vertex line digraph.
        if len(D.arcs) < 2:
            return
        touched = {u for u, _ in D.arcs} | {v for _, v in D.arcs}
        if len(touched) != D.vertex_count:
            return
        L, _ = line_digraph(D)
        assert is_strong(L) == is_strong(D)

    @settings(max_examples=25, deadline=None)
    @given(strong_digraphs(min_n=2, max_n=4))
    def test_line_functor_identity(self, D):
        arcs = D.sorted_arcs()
        E = arcs[: max(1, len(arcs) // 2)]
        L, origins = line_digraph(D)
        lhs = induced_copy(L, {origins.index(a) for a in E})
        # The arc-induced subdigraph: the endpoints of E, joined by E alone.
        sub = induced_copy(make_digraph(D.vertex_count, E), {x for arc in E for x in arc})
        rhs, _ = line_digraph(sub)
        assert isomorphic(lhs, rhs)


def spanning_subdigraph(big, small):
    return big.vertex_count == small.vertex_count and small.arcs <= big.arcs


class TestMixedConstructions:
    def test_subdivision_of_cycle(self, c3):
        S, _ = subdivision(c3)
        assert isomorphic(S, directed_cycle(6))

    def test_root_degrees(self, c3):
        R, tags = root(c3)
        for v in range(3):
            assert R.out_masks[v].bit_count() == 2

    def test_structural_inclusions(self, k3):
        S, _ = subdivision(k3)
        R, _ = root(k3)
        Q, _ = middle(k3)
        T, _ = total(k3)
        assert spanning_subdigraph(R, S)
        assert spanning_subdigraph(Q, S)
        assert spanning_subdigraph(T, Q)
        assert spanning_subdigraph(T, R)

    def test_total_restricted_to_arcs_is_line(self, k3):
        T, tags = total(k3)
        arc_vertices = [i for i, t in enumerate(tags) if t.kind == "arc"]
        L, _ = line_digraph(k3)
        assert isomorphic(induced_copy(T, arc_vertices), L)

    def test_no_construction_rebuilds_another(self, monkeypatch, k3):
        builds = {name: getattr(transforms, name) for name in ("subdivision", "root", "middle", "total")}

        def rebuilt(D):
            raise AssertionError("a construction rebuilt another")

        for name in ("line_digraph", *builds):
            monkeypatch.setattr(transforms, name, rebuilt)
        S, _ = builds["subdivision"](k3)
        assert builds["root"](k3)[0].arcs == S.arcs | k3.arcs
        assert builds["total"](k3)[0].arcs == builds["middle"](k3)[0].arcs | k3.arcs

    def test_tags_layout(self, c3):
        S, tags = subdivision(c3)
        assert [t.kind for t in tags] == ["vertex"] * 3 + ["arc"] * 3
        assert tags[3].payload == (0, 1)


class TestLifts:
    def test_product_lift_small(self, k2):
        P = strong_in_domatic_number(k2).witness
        lifted = lift_product_partition(P, k2, k2)
        prod, _ = cartesian_product(k2, k2)
        assert lifted.block_count == 2
        assert is_strong_in_domatic_partition(prod, lifted)

    def test_product_lift_whole(self, c3):
        from indomatic import VertexPartition

        P = VertexPartition.from_blocks([range(3)])
        lifted = lift_product_partition(P, c3, c3)
        prod, _ = cartesian_product(c3, c3)
        assert lifted.block_count == 1
        assert is_strong_in_domatic_partition(prod, lifted)

    def test_product_lift_k3_c3(self, k3, c3):
        P = strong_in_domatic_number(k3).witness
        lifted = lift_product_partition(P, k3, c3)
        prod, _ = cartesian_product(k3, c3)
        assert lifted.block_count == 3
        assert is_strong_in_domatic_partition(prod, lifted)

    def test_product_lift_rejects_bad_partition(self, c4, k2):
        from indomatic import VertexPartition

        bad = VertexPartition.from_blocks([[0, 2], [1, 3]])
        with pytest.raises(ValueError):
            lift_product_partition(bad, c4, k2)

    def test_composition_partition_cycle(self, c3):
        parts = [empty_digraph(2)] * 3
        P = composition_partition(c3, parts)
        C, _ = composition(c3, parts)
        assert P.block_count == 2
        assert is_strong_in_domatic_partition(C, P)
        for block in P.blocks():
            assert is_strong_subset(C, block)

    def test_composition_partition_uneven(self, k2):
        parts = [empty_digraph(3), empty_digraph(4)]
        P = composition_partition(k2, parts)
        C, _ = composition(k2, parts)
        assert P.block_count == 3
        assert is_strong_in_domatic_partition(C, P)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_composition_partition_matches_composition_ids(self, data):
        host = data.draw(strong_digraphs(min_n=2, max_n=4))
        parts = [data.draw(digraphs(min_n=1, max_n=4)) for _ in range(host.vertex_count)]
        # Reference: read each vertex's id from the built composition.
        _, origins = composition(host, parts)
        n = min(part.vertex_count for part in parts)
        block_of = tuple(min(pv, n - 1) for _, pv in origins)
        assert composition_partition(host, parts) == VertexPartition(block_of, n)

    def test_composition_partition_min_one(self, c3):
        P = composition_partition(c3, [empty_digraph(1), empty_digraph(2), empty_digraph(5)])
        assert P.block_count == 1

    def test_middle_lift_cycle(self, c3):
        from indomatic import VertexPartition

        P = VertexPartition.from_blocks([range(3)])
        lifted = lift_middle_partition(P, c3)
        Q, _ = middle(c3)
        assert lifted.block_count == 1
        assert is_strong_in_domatic_partition(Q, lifted)

    def test_middle_lift_complete(self, k3):
        L, _ = line_digraph(k3)
        P = strong_in_domatic_number(L).witness
        lifted = lift_middle_partition(P, k3)
        Q, _ = middle(k3)
        assert lifted.block_count == P.block_count
        assert is_strong_in_domatic_partition(Q, lifted)

    def test_total_lift_cycle(self, c3):
        from indomatic import VertexPartition

        P = VertexPartition.from_blocks([range(3)])
        lifted = lift_total_partition(P, c3)
        T, _ = total(c3)
        assert lifted.block_count == 2
        assert is_strong_in_domatic_partition(T, lifted)

    def test_total_lift_complete(self, k3):
        L, _ = line_digraph(k3)
        P = strong_in_domatic_number(L).witness
        lifted = lift_total_partition(P, k3)
        T, _ = total(k3)
        assert lifted.block_count == P.block_count + 1
        assert is_strong_in_domatic_partition(T, lifted)

    def test_lifts_require_order_three(self, k2):
        from indomatic import VertexPartition

        L, _ = line_digraph(k2)
        P = strong_in_domatic_number(L).witness
        with pytest.raises(ValueError, match="middle-digraph lift needs order at least three"):
            lift_middle_partition(P, k2)
        with pytest.raises(ValueError, match="total-digraph lift needs order at least three"):
            lift_total_partition(P, k2)
