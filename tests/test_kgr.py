from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cone_pairs_st
from kostka import kgr, ryser
from kostka.cone import RaySpec, default_fixture_path, load_catalog, primitive_point
from kostka.errors import MalformedStarMatrix
from kostka.kgr import (
    KgrGraph,
    Vertex,
    build_graph,
    components,
    fast_reducibility,
    find_conservative_subtree,
    graph_payload,
    is_connected,
    pair_graph,
    to_dot,
    verify_subtree,
)
from kostka.partitions import KostkaPair, pad
from kostka.ryser import (
    StarMatrix,
    matrix_reducible,
    ryser_canonical,
    star_matrix,
    star_reducible,
)


def _v(row: int, col: int, sign: int) -> Vertex:
    return Vertex(row=row, col=col, sign=sign)


def is_forest(graph: KgrGraph) -> bool:
    return len(graph.arcs) == len(graph.vertices) - len(components(graph))


def segment_crossings(graph: KgrGraph) -> int:
    """Interior crossings when arcs are drawn as straight segments on the
    matrix grid.  Horizontal and vertical segments in the same row or
    column are also checked for interior overlap."""
    horizontals = [
        (t.row, h.col, t.col) for t, h in graph.arcs if t.row == h.row
    ]  # (row, left col, right col)
    verticals = [
        (t.col, min(t.row, h.row), max(t.row, h.row))
        for t, h in graph.arcs
        if t.col == h.col
    ]
    crossings = 0
    for row, left, right in horizontals:
        for col, top, bottom in verticals:
            if left < col < right and top < row < bottom:
                crossings += 1
    for i, (row, left, right) in enumerate(horizontals):
        for row2, left2, right2 in horizontals[i + 1 :]:
            if row == row2 and max(left, left2) < min(right, right2):
                crossings += 1
    for i, (col, top, bottom) in enumerate(verticals):
        for col2, top2, bottom2 in verticals[i + 1 :]:
            if col == col2 and max(top, top2) < min(bottom, bottom2):
                crossings += 1
    return crossings


def source_rows(graph: KgrGraph) -> dict[int, int]:
    """Number of sources in each row (keyed by row index)."""
    counts: dict[int, int] = {}
    for v in graph.vertices:
        if not graph.incoming[v]:
            counts[v.row] = counts.get(v.row, 0) + 1
    return counts


def sink_of_component(graph: KgrGraph, start: Vertex) -> Vertex:
    """Follow out-arcs from ``start`` to the unique terminal vertex."""
    x = start
    seen = {x}
    while x in graph.out:
        x = graph.out[x]
        if x in seen:
            raise AssertionError("out-walk revisited a vertex; not a forest")
        seen.add(x)
    return x


GOLDEN_ARCS = {
    (_v(1, 8, -1), _v(1, 4, 1)),
    (_v(3, 4, -1), _v(3, 3, 1)),
    (_v(3, 6, -1), _v(3, 5, 1)),
    (_v(5, 3, -1), _v(5, 2, 1)),
    (_v(5, 7, -1), _v(5, 6, 1)),
    (_v(6, 2, -1), _v(6, 1, 1)),
    (_v(6, 5, -1), _v(6, 4, 1)),
    (_v(5, 2, 1), _v(6, 2, -1)),
    (_v(7, 2, 1), _v(6, 2, -1)),
    (_v(3, 3, 1), _v(5, 3, -1)),
    (_v(7, 3, 1), _v(5, 3, -1)),
    (_v(1, 4, 1), _v(3, 4, -1)),
    (_v(6, 4, 1), _v(3, 4, -1)),
    (_v(3, 5, 1), _v(6, 5, -1)),
    (_v(7, 5, 1), _v(6, 5, -1)),
    (_v(2, 6, 1), _v(3, 6, -1)),
    (_v(5, 6, 1), _v(3, 6, -1)),
    (_v(2, 7, 1), _v(5, 7, -1)),
    (_v(7, 7, 1), _v(5, 7, -1)),
    (_v(2, 8, 1), _v(1, 8, -1)),
}

GOLDEN_SUBTREE = {
    _v(1, 4, 1),
    _v(1, 8, -1),
    _v(2, 8, 1),
    _v(3, 3, 1),
    _v(3, 4, -1),
    _v(5, 2, 1),
    _v(5, 3, -1),
    _v(6, 2, -1),
    _v(6, 4, 1),
    _v(7, 2, 1),
    _v(7, 3, 1),
}


class TestGoldenGraph:
    def test_vertices_and_arcs(self, running_pair):
        graph = pair_graph(running_pair)
        assert len(graph.vertices) == 21
        assert len(graph.arcs) == 20
        assert set(graph.arcs) == GOLDEN_ARCS

    def test_shape_properties(self, running_pair):
        graph = pair_graph(running_pair)
        assert is_connected(graph)
        assert is_forest(graph)
        assert segment_crossings(graph) == 0
        assert len(components(graph)) == 1

    def test_source_census(self, running_pair):
        graph = pair_graph(running_pair)
        assert source_rows(graph) == {2: 3, 7: 4}
        assert star_matrix(ryser_canonical(running_pair)).mu_star == (0, 3, 0, 0, 0, 0, 4)

    def test_conservative_subtree(self, running_pair):
        graph = pair_graph(running_pair)
        witness = find_conservative_subtree(graph)
        assert witness is not None
        assert witness.kind == "sink-source"
        assert witness.columns == (2, 3, 4, 8)
        assert witness.sink == _v(6, 2, -1)
        assert witness.source == _v(6, 4, 1)
        assert set(witness.vertices) == GOLDEN_SUBTREE
        assert verify_subtree(graph, witness.vertices)

    def test_fast_reduction_matches_split(self, running_pair):
        fast = fast_reducibility(running_pair)
        assert fast is not None
        assert fast.columns == (2, 3, 4, 8)
        assert fast.selected == KostkaPair(
            (4, 3, 3, 3, 2, 1), (3, 3, 2, 2, 2, 2, 2), rank=7
        )
        assert fast.complement == KostkaPair(
            (4, 4, 4, 4, 1, 1), (4, 4, 2, 2, 2, 2, 2), rank=7
        )

    def test_fast_reduction_builds_one_canonical_matrix(
        self, running_pair, monkeypatch
    ):
        calls = []
        real = ryser.ryser_canonical

        def spy(pair):
            calls.append(pair)
            return real(pair)

        # kgr imports ryser_canonical by name, so patch both bindings
        monkeypatch.setattr(kgr, "ryser_canonical", spy)
        monkeypatch.setattr(ryser, "ryser_canonical", spy)
        assert fast_reducibility(running_pair) is not None
        assert calls == [running_pair]


class TestRefereeNegatives:
    def test_non_column_closed_set(self, running_pair):
        graph = pair_graph(running_pair)
        assert not verify_subtree(graph, {_v(6, 2, -1)})

    def test_whole_graph_is_not_proper(self, running_pair):
        graph = pair_graph(running_pair)
        assert not verify_subtree(graph, graph.vertices)

    def test_closed_tree_without_sink_row_source(self, running_pair):
        graph = pair_graph(running_pair)
        col2 = {_v(6, 2, -1), _v(5, 2, 1), _v(7, 2, 1)}
        assert not verify_subtree(graph, col2)
        col23 = col2 | {_v(5, 3, -1), _v(3, 3, 1), _v(7, 3, 1)}
        assert not verify_subtree(graph, col23)

    def test_empty_set(self, running_pair):
        assert not verify_subtree(pair_graph(running_pair), ())


class TestDisconnectedGraphs:
    def test_square_pair_splits_as_component(self):
        pair = KostkaPair((2, 2), (2, 2))
        graph = pair_graph(pair)
        assert not is_connected(graph)
        assert len(components(graph)) == 2
        witness = find_conservative_subtree(graph)
        assert witness is not None
        assert witness.kind == "component"
        fast = fast_reducibility(pair)
        assert fast is not None
        assert fast.selected == KostkaPair((1, 1), (1, 1), rank=2)
        assert fast.complement == KostkaPair((1, 1), (1, 1), rank=2)

    def test_sink_per_component(self, running_pair):
        graph = pair_graph(running_pair)
        start = graph.vertices[0]
        sink = sink_of_component(graph, start)
        assert sink not in graph.out  # sinks have no outgoing arc
        assert sink == _v(6, 1, 1)


class TestInvariants:
    @given(cone_pairs_st(max_boxes=12))
    def test_forest_planar_and_sourced(self, pair):
        graph = pair_graph(pair)
        assert is_forest(graph)
        assert segment_crossings(graph) == 0
        mu_star = pad(star_matrix(ryser_canonical(pair)).mu_star, pair.rank)
        expected = {i + 1: c for i, c in enumerate(mu_star) if c}
        assert source_rows(graph) == expected

    @given(cone_pairs_st(max_boxes=12))
    def test_out_degree_at_most_one(self, pair):
        graph = pair_graph(pair)
        tails = [t for t, _ in graph.arcs]
        assert len(tails) == len(set(tails))

    @given(cone_pairs_st(max_boxes=12))
    def test_connectivity_criterion(self, pair):
        graph = pair_graph(pair)
        arr = graph.star.entries
        all_closed = all(
            (arr[:, j] == -1).any() for j in range(1, arr.shape[1])
        )
        assert is_connected(graph) == all_closed

    @given(cone_pairs_st(max_boxes=12))
    def test_found_witnesses_satisfy_the_referee(self, pair):
        graph = pair_graph(pair)
        witness = find_conservative_subtree(graph)
        if witness is not None:
            assert verify_subtree(graph, witness.vertices)

    @given(cone_pairs_st(max_boxes=12))
    def test_fast_implies_exhaustive(self, pair):
        fast = fast_reducibility(pair)
        if fast is not None:
            assert matrix_reducible(ryser_canonical(pair)) is not None
            total = fast.selected.n + fast.complement.n
            assert total == pair.n


@st.composite
def wide_basis_sums(draw) -> KostkaPair:
    """A sum of rank-4 Hilbert basis elements with lambda_1 in 8..16."""
    basis = load_catalog(default_fixture_path(4)).elements
    width = draw(st.integers(8, 16))
    lam, mu = (0,) * 4, (0,) * 4
    while width:
        part = draw(st.sampled_from([p for p in basis if p.width <= width]))
        p_lam, p_mu = part.padded()
        lam = tuple(a + b for a, b in zip(lam, p_lam))
        mu = tuple(a + b for a, b in zip(mu, p_mu))
        width -= part.width
    return KostkaPair(lam, mu, 4)


@st.composite
def wide_ray_points(draw) -> KostkaPair:
    """The primitive point of an extremal ray with lambda_1 = a in 8..16,
    a Hilbert basis element, so the detectors have no witness for it."""
    a = draw(st.integers(8, 16))
    b = draw(st.sampled_from([b for b in range(1, a) if math.gcd(a, b) == 1]))
    ell = draw(st.integers(0, 1))
    return primitive_point(RaySpec(a, b, ell, a + ell))


class TestWideDetectors:
    @settings(max_examples=50)
    @given(st.one_of(wide_basis_sums(), wide_ray_points()))
    def test_three_detectors_agree(self, pair):
        canonical = ryser_canonical(pair)
        by_matrix = matrix_reducible(canonical)
        assert star_reducible(star_matrix(canonical)) == by_matrix
        assert (fast_reducibility(pair) is None) == (by_matrix is None)


class TestRendering:
    def test_dot_output(self, running_pair):
        graph = pair_graph(running_pair)
        witness = find_conservative_subtree(graph)
        dot = to_dot(graph, witness)
        assert dot.startswith("digraph")
        assert dot.count('"red"') > 0
        assert dot.count("->") == 20

    def test_payload_shape(self, running_pair):
        graph = pair_graph(running_pair)
        payload = graph_payload(graph, find_conservative_subtree(graph))
        assert payload["connected"] is True
        assert len(payload["vertices"]) == 21
        assert len(payload["arcs"]) == 20
        assert payload["witness"]["columns"] == [2, 3, 4, 8]
        assert payload["witness"]["sink"] == [6, 2]


class TestStarValidation:
    def test_bad_column_signature_is_rejected(self, running_pair):
        with pytest.raises(MalformedStarMatrix):
            StarMatrix(
                pair=KostkaPair((2,), (1, 1)),
                entries=((1, 1), (0, 0)),
                mu_star=(2, 0),
            )

    def test_star_of_canonical_always_builds(self, running_pair):
        # the running example's star is validated during construction
        star = star_matrix(ryser_canonical(running_pair))
        graph = build_graph(star)
        assert graph.star is star
