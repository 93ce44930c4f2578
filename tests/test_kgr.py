from __future__ import annotations

import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    cone_pair_pool,
    cone_pairs_st,
    one_cell_mutations,
    outcome,
    random_int8_matrices,
)
from kostka import kgr, ryser
from kostka.cone import RaySpec, default_fixture_path, load_catalog, primitive_point
from kostka.errors import MalformedStarMatrix, NotAWitness
from kostka.kgr import (
    KgrGraph,
    SubtreeWitness,
    Vertex,
    build_graph,
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
    split_pair,
    star_matrix,
)


def _v(row: int, col: int, sign: int) -> Vertex:
    return Vertex(row=row, col=col, sign=sign)


def components(graph: KgrGraph) -> tuple[frozenset[Vertex], ...]:
    """Components by breadth-first search over the arcs, in order of
    their smallest vertex: the traversal the library used before it
    labelled roots on vertex ids, kept as an oracle."""
    nbrs: dict[Vertex, list[Vertex]] = {v: [] for v in graph.vertices}
    for t, h in graph.arcs:
        nbrs[t].append(h)
        nbrs[h].append(t)
    remaining = set(graph.vertices)
    out: list[frozenset[Vertex]] = []
    for v in graph.vertices:  # sorted, so components come out ordered
        if v in remaining:
            seen = {v}
            queue = [v]
            while queue:
                for y in nbrs[queue.pop()]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            out.append(frozenset(seen))
            remaining -= seen
    return tuple(out)


def labelled_components(graph: KgrGraph) -> tuple[frozenset[Vertex], ...]:
    """Components read from the library's root labels, in order of their
    smallest vertex id."""
    groups: dict[int, list[Vertex]] = {}
    for v, root in zip(graph.vertices, list(graph.roots)):
        groups.setdefault(root, []).append(v)
    return tuple(frozenset(g) for g in groups.values())


def _adjacency(
    graph: KgrGraph,
) -> tuple[dict[Vertex, Vertex], dict[Vertex, list[Vertex]]]:
    out = dict(graph.arcs)
    incoming: dict[Vertex, list[Vertex]] = {v: [] for v in graph.vertices}
    for t, h in graph.arcs:
        incoming[h].append(t)
    return out, incoming


def _reach(incoming: dict[Vertex, list[Vertex]], sink: Vertex, avoid: Vertex) -> set[Vertex]:
    """Every vertex whose out-walk reaches ``sink`` without passing
    through ``avoid``."""
    reach = {sink}
    queue = [sink]
    while queue:
        for t in incoming[queue.pop()]:
            if t != avoid and t not in reach:
                reach.add(t)
                queue.append(t)
    return reach


def oracle_referee(graph: KgrGraph, vertices) -> bool:
    """The conservative-subtree referee on vertex tuples and dicts, as the
    library wrote it before vertex ids, kept as an oracle."""
    wanted = set(vertices)
    if not wanted or not wanted <= set(graph.vertices) or wanted == set(graph.vertices):
        return False
    out, incoming = _adjacency(graph)
    induced = [(t, h) for t, h in graph.arcs if t in wanted and h in wanted]
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in wanted}
    for t, h in induced:
        adj[t].append(h)
        adj[h].append(t)
    seen = {next(iter(wanted))}
    queue = list(seen)
    while queue:
        for y in adj[queue.pop()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if seen != wanted or len(induced) != len(wanted) - 1:
        return False
    closed = {t.col for t, h in induced if t.col == h.col}
    for t, h in graph.arcs:
        if t.col == h.col and t.col in closed and (t not in wanted or h not in wanted):
            return False
    start = next(iter(wanted))
    if any(c == wanted for c in components(graph) if start in c):
        return True
    tails = {t for t, _ in induced}
    sinks = [v for v in wanted if v not in tails]
    if len(sinks) != 1 or sinks[0].sign != -1:
        return False
    sink = sinks[0]
    heads = {h for _, h in induced}
    sources = [v for v in wanted if v not in heads]
    outsiders = [v for v in sources if incoming[v]]
    if len(outsiders) > 1:
        return False
    if outsiders:
        return outsiders[0].sign == 1 and outsiders[0].row == sink.row
    return any(v.sign == 1 and v.row == sink.row for v in sources)


def oracle_finder(graph: KgrGraph) -> SubtreeWitness | None:
    """The canonical conservative subtree found by breadth-first search on
    vertex tuples, as the library did before vertex ids."""
    if not graph.vertices:
        return None
    comps = components(graph)
    if len(comps) > 1:
        comp = comps[0]
        return SubtreeWitness(
            kind="component",
            vertices=tuple(sorted(comp)),
            columns=tuple(sorted({v.col for v in comp})),
        )
    candidates = []
    nearest = None  # the nearest +1 to the right in the row
    for v in reversed(graph.vertices):
        if nearest is not None and nearest.row != v.row:
            nearest = None
        if v.sign == 1:
            nearest = v
        elif nearest is not None:
            candidates.append((v.col, v.row, v, nearest))
    if not candidates:
        return None
    *_, sink, pivot = min(candidates)
    reach = _reach(_adjacency(graph)[1], sink, pivot) | {pivot}
    return SubtreeWitness(
        kind="sink-source",
        vertices=tuple(sorted(reach)),
        columns=tuple(sorted({v.col for v in reach})),
        sink=sink,
        source=pivot,
    )


def candidate_sets(graph: KgrGraph, rng: random.Random) -> list[set[Vertex]]:
    """Vertex sets for the referee: subtrees hanging off each vertex with
    and without a pivot, the same with one inner subtree pruned, random
    subsets, and some of these with one vertex more or fewer."""
    vs = list(graph.vertices)
    incoming = _adjacency(graph)[1]
    sets: list[set[Vertex]] = [set(), set(vs)]
    for i, sink in enumerate(vs):
        # the next vertex, a pivot like the finder's, and two random ones
        for pivot in vs[i + 1 : i + 2] + rng.sample(vs, min(2, len(vs))):
            reach = _reach(incoming, sink, pivot)
            sets += [reach, reach | {pivot}]
            sets += [
                (reach - _reach(incoming, y, pivot)) | {pivot} for y in reach - {sink}
            ]
    sets += [set(rng.sample(vs, rng.randint(1, len(vs)))) for _ in range(4) if vs]
    for c in sets[2:14]:
        if c:
            sets += [c - {rng.choice(sorted(c))}, c | {rng.choice(vs)}]
    return sets


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
    """Number of sources (vertices no arc points to) in each row."""
    fed = {h for _, h in graph.arcs}
    counts: dict[int, int] = {}
    for v in graph.vertices:
        if v not in fed:
            counts[v.row] = counts.get(v.row, 0) + 1
    return counts


def sink_of_component(graph: KgrGraph, start: int) -> int:
    """Follow out-arcs from vertex id ``start`` to the unique terminal
    vertex id."""
    x = start
    seen = {x}
    while graph.out[x] >= 0:
        x = int(graph.out[x])
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

    def test_one_star_per_pair(self, monkeypatch):
        # the graph detector and the column sweep share the star that
        # hangs off the pair's memoized canonical matrix
        calls = []
        real = ryser.star_matrix

        def spy(canonical):
            calls.append(canonical)
            return real(canonical)

        monkeypatch.setattr(ryser, "star_matrix", spy)
        for pair in cone_pair_pool(9)[::101]:
            calls.clear()
            fast_reducibility(pair)
            matrix_reducible(ryser_canonical(pair))
            star = ryser_canonical(pair).star
            assert pair_graph(pair).star is star
            assert len(calls) == 1, pair
            assert not star.entries.flags.writeable

    def test_a_subtree_that_does_not_split_is_an_internal_fault(
        self, running_pair, monkeypatch
    ):
        # column 1 alone leaves complement row sums (6,6,3,3,3,3,4)
        bad = SubtreeWitness(kind="component", vertices=(_v(7, 1, 1),), columns=(1,))
        monkeypatch.setattr(kgr, "find_conservative_subtree", lambda graph: bad)
        with pytest.raises(AssertionError, match=r"subtree columns \(1,\)") as info:
            fast_reducibility(running_pair)
        assert isinstance(info.value.__cause__, NotAWitness)

    @pytest.mark.parametrize("side", [0, 1], ids=["lists", "arrays"])
    def test_one_graph_and_one_search_per_pair(self, monkeypatch, side):
        # the benchmark's tracer wraps these two module bindings, so a
        # pair on each side of the threshold must pass through both once
        calls = []
        for name in ("build_graph", "find_conservative_subtree"):
            real = getattr(kgr, name)

            def spy(arg, name=name, real=real):
                calls.append((name, type(arg).__name__))
                return real(arg)

            monkeypatch.setattr(kgr, name, spy)
        # a staircase's star has one vertex per column
        staircase = tuple(range(kgr.LIST_VERTICES + side, 0, -1))
        assert fast_reducibility(KostkaPair(staircase, staircase)) is not None
        graph = "KgrGraph" if side else "_ListGraph"
        assert calls == [
            ("build_graph", "StarMatrix"),
            ("find_conservative_subtree", graph),
        ]

    def test_fast_reduction_builds_only_witness_vertices(self, monkeypatch):
        built = []
        real = kgr.Vertex

        def spy(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(kgr, "Vertex", spy)
        # one row of 2000 +1s: 2000 isolated vertices
        fast = fast_reducibility(KostkaPair((2000,), (2000,)))
        assert fast is not None
        assert fast.witness.vertices == (_v(1, 1, 1),)
        assert len(built) <= len(fast.witness.vertices)


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

    @pytest.mark.parametrize(
        "spoil, verdict",
        [
            (tuple, True),
            (lambda v: (float(v.row), v.col, v.sign), False),
            (lambda v: (v.row, float(v.col), v.sign), False),
            (lambda v: (np.int64(v.row), v.col, v.sign), False),
            (lambda v: (v.row, v.col, v.sign == 1 or v.sign), False),
            (lambda v: (v.row, v.col), False),
            (lambda v: (*v, 0), False),
            (lambda v: 5, False),
            (lambda v: None, False),
            (lambda v: (v.row, v.col, -v.sign), False),
        ],
        ids=[
            "ints",
            "float-row",
            "float-col",
            "numpy-row",
            "true-sign",
            "pair",
            "quadruple",
            "int",
            "none",
            "flipped-sign",
        ],
    )
    def test_non_integer_vertices_name_none(self, running_pair, spoil, verdict):
        # the running example's witness, its rows, columns or +1 signs
        # retyped as equal non-integers
        graph = pair_graph(running_pair)
        witness = find_conservative_subtree(graph)
        assert verify_subtree(graph, map(spoil, witness.vertices)) is verdict


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
        sink = sink_of_component(graph, 0)
        assert graph.out[sink] < 0  # sinks have no outgoing arc
        assert graph.vertices[sink] == _v(6, 1, 1)


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


def basis_sum(choose, rank: int, width: int) -> KostkaPair:
    """A sum of rank-``rank`` Hilbert basis elements whose first parts
    add up to ``width``, each one picked by ``choose`` from those that
    still fit."""
    basis = load_catalog(default_fixture_path(rank)).elements
    lam, mu = (0,) * rank, (0,) * rank
    while width:
        part = choose([p for p in basis if p.width <= width])
        p_lam, p_mu = part.padded()
        lam = tuple(a + b for a, b in zip(lam, p_lam))
        mu = tuple(a + b for a, b in zip(mu, p_mu))
        width -= part.width
    return KostkaPair(lam, mu, rank)


@st.composite
def wide_basis_sums(draw) -> KostkaPair:
    """A sum of rank-4 Hilbert basis elements with lambda_1 in 8..16."""
    width = draw(st.integers(8, 16))
    return basis_sum(lambda parts: draw(st.sampled_from(parts)), 4, width)


@st.composite
def wide_ray_points(draw) -> KostkaPair:
    """The primitive point of an extremal ray with lambda_1 = a in 8..16,
    a Hilbert basis element, so the detectors have no witness for it."""
    a = draw(st.integers(8, 16))
    b = draw(st.sampled_from([b for b in range(1, a) if math.gcd(a, b) == 1]))
    ell = draw(st.integers(0, 1))
    return primitive_point(RaySpec(a, b, ell, a + ell))


def assert_graph_matches_the_oracles(pair: KostkaPair) -> None:
    graph = pair_graph(pair)
    bfs = components(graph)
    assert labelled_components(graph) == bfs
    assert is_connected(graph) == (len(bfs) <= 1)
    assert find_conservative_subtree(graph) == oracle_finder(graph)


class TestOracles:
    def test_pool_graphs_match_the_oracles(self):
        for pair in cone_pair_pool(13, max_width=7):
            assert_graph_matches_the_oracles(pair)

    @settings(max_examples=50)
    @given(st.one_of(wide_basis_sums(), wide_ray_points()))
    def test_wide_graphs_match_the_oracles(self, pair):
        assert_graph_matches_the_oracles(pair)

    def test_referee_matches_the_oracle(self, running_pair):
        rng = random.Random(3)
        verdicts = []
        # small pairs lack sets with two cut sources; the worked example has them
        for pair in (running_pair, *cone_pair_pool(8)):
            star = ryser_canonical(pair).star
            graph, arrays = kgr._build_lists(star), kgr._build_arrays(star)
            for wanted in candidate_sets(graph, rng):
                verdict = verify_subtree(graph, wanted)
                assert verdict == oracle_referee(graph, wanted), (pair, sorted(wanted))
                # both engines' referees, on the ids that verify_subtree maps
                ids = kgr._ids_of(graph, wanted)
                assert kgr._list_referee(graph, ids.tolist()) is verdict
                assert kgr._referee(arrays, ids) is verdict
                assert verify_subtree(arrays, wanted) is verdict
                verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)


def engine_answers(build, pair: KostkaPair):
    """What one engine answers for a pair: the graph as the renderers
    read it, its root labels, the witness, the halves it splits into and
    the referee's verdict on it and on malformed vertices."""
    canonical = ryser_canonical(pair)
    graph = build(canonical.star)
    witness = find_conservative_subtree(graph)
    roots = list(graph.roots)
    answers = [graph.vertices, graph.arcs, roots, is_connected(graph), witness]
    if witness is not None:
        answers.append(split_pair(canonical, witness.columns))
        answers.append(verify_subtree(graph, witness.vertices))
        answers += (verify_subtree(graph, [(*v, 0)]) for v in witness.vertices[:2])
    return answers


# hand-built stars whose graphs are disconnected: vertex 0 is the +1 of
# column 2, so its component is not column 1's; roots at columns 1, 2
# and 4, with column 3 under column 2; four root columns
DISCONNECTED_STARS = (
    ((2, 1), (2, 1), ((0, 1), (1, 0))),
    ((4, 1), (3, 1, 1), ((1, 0, 0, 1), (0, 1, -1, 0), (0, 0, 1, 0))),
    ((4,), (4,), ((1, 1, 1, 1),)),
)


def assert_engines_agree(pair: KostkaPair) -> None:
    lists = engine_answers(kgr._build_lists, pair)
    assert lists == engine_answers(kgr._build_arrays, pair), pair


class TestTwoEngines:
    """The list engine and the array engine, each called directly, give
    the same graph, witness, halves and verdicts on both sides of the
    threshold."""

    def test_small_pool_pairs(self):
        pool = cone_pair_pool(10, max_width=7)
        assert len(pool) == 1479
        for pair in pool:
            assert_engines_agree(pair)

    def test_staircases(self):
        for w in range(10, 101):
            staircase = tuple(range(w, 0, -1))
            assert_engines_agree(KostkaPair(staircase, staircase))

    def test_ray_points(self):
        for a in range(5, 41):
            assert_engines_agree(primitive_point(RaySpec(a, a - 1, 2, a + 2)))

    def test_seeded_basis_sums(self):
        rng = random.Random(33)
        for width in range(20, 121, 10):
            for rank in (4, 5, 6):
                for _ in range(2):
                    assert_engines_agree(basis_sum(rng.choice, rank, width))

    @pytest.mark.parametrize("lam, mu, entries", DISCONNECTED_STARS)
    def test_disconnected_stars(self, lam, mu, entries):
        star = StarMatrix(pair=KostkaPair(lam, mu), entries=entries)
        for build in (kgr._build_lists, kgr._build_arrays):
            graph = build(star)
            assert not is_connected(graph)
            assert labelled_components(graph) == components(graph)
            witness = find_conservative_subtree(graph)
            assert witness == oracle_finder(graph)
            assert witness.kind == "component"
            assert verify_subtree(graph, witness.vertices)


def gate_pairs():
    """Pairs on both sides of the record path's gate, 3 * lambda_1 <= 64
    and rank <= 64: widths 21 and 22, ranks 64 and 65."""
    rng = random.Random(35)
    for w in (21, 22):
        staircase = tuple(range(w, 0, -1))
        yield KostkaPair(staircase, staircase)
        yield KostkaPair((w,), (w - w // 2, w // 2))
        yield from (basis_sum(rng.choice, rank, w) for rank in (4, 5, 6))
    for r in (64, 65):
        yield KostkaPair((21,) + (1,) * 43, (1,) * 64, rank=r)
        yield KostkaPair((1,) * 64, (1,) * 64, rank=r)
        yield KostkaPair((3, 2), (2, 2, 1), rank=r)
        yield KostkaPair((4, 4), (4, 4), rank=r)


def path_answers(canonical):
    """What the detectors answer on one canonical matrix."""
    graph = build_graph(canonical.star)
    witness = find_conservative_subtree(graph)
    halves = witness and split_pair(canonical, witness.columns)
    sweep = outcome(matrix_reducible, canonical) or matrix_reducible(canonical)
    return graph_payload(graph, witness), witness, halves, to_dot(graph, witness), sweep


class TestRecordGate:
    """Pairs under the gate are read off the fixing record, larger ones
    written as arrays; either way every answer is the same."""

    def test_both_paths_answer_alike_at_the_gate(self):
        sides = set()
        for pair in gate_pairs():
            runs, heights = ryser._fixing_stages(pair)
            record = ryser._record_canonical(pair, runs, heights)
            arrays = ryser.CanonicalMatrix(
                pair=pair, entries=ryser._written(runs, pair.rank, pair.width)
            )
            assert path_answers(record) == path_answers(arrays), pair
            under = 3 * pair.width <= 64 and pair.rank <= 64
            kind = ryser._RecordCanonical if under else ryser.CanonicalMatrix
            assert type(ryser_canonical(pair)) is kind, pair
            sides.add(under)
        assert sides == {True, False}

    def test_the_cli_prints_the_same_bytes_on_both_paths(self, monkeypatch):
        from click.testing import CliRunner

        from kostka.cli import main

        def answers():
            runner = CliRunner()
            out = []
            for pair in gate_pairs():
                lam, mu = (",".join(map(str, side)) for side in pair.key())
                for command, fmt in (
                    ("ryser", "json"), ("kgr", "text"), ("kgr", "json"),
                    ("kgr", "dot"), ("reduce", "json"),
                ):
                    args = [command, lam, mu, "-r", str(pair.rank), "--format", fmt]
                    result = runner.invoke(main, args, catch_exceptions=False)
                    out.append((result.exit_code, result.output))
            return out

        by_record = answers()
        monkeypatch.setattr(ryser, "LIST_VERTICES", 0)  # every pair on arrays
        ryser._canonical.cache_clear()
        assert answers() == by_record

    def test_a_pool_pair_writes_no_array(self, monkeypatch):
        checked, fixed = [], []
        for cls in (ryser.CanonicalMatrix, StarMatrix):
            monkeypatch.setattr(cls, "__post_init__", lambda self: checked.append(self))
        real = ryser._fixing_stages
        monkeypatch.setattr(ryser, "_fixing_stages", lambda p: fixed.append(p) or real(p))
        for pair in cone_pair_pool(13, max_width=7)[::97]:
            fast_reducibility(pair)
            canonical = ryser_canonical(pair)
            assert "entries" not in vars(canonical) and "entries" not in vars(canonical.star)
            assert fixed.count(pair) == 1
        assert checked == []


class TestInternalChecks:
    """Checks that no star can trip, on the running example's graph
    tampered with by hand."""

    @pytest.mark.parametrize("engine", ["lists", "arrays"])
    def test_a_cycle_is_refused(self, running_pair, engine):
        star = ryser_canonical(running_pair).star
        if engine == "lists":
            graph = kgr._build_lists(star)
            # column 2's -1 said to be id 1, whose left neighbour, the
            # +1 at (1, 4), lies in a later column
            minus = list(graph.minus)
            minus[1] = 1
            graph = dataclasses.replace(graph, minus=minus)
        else:
            graph = kgr._build_arrays(star)
            out = graph.out.copy()
            out[:2] = (1, 0)
            graph = dataclasses.replace(graph, out=out)
        with pytest.raises(AssertionError, match="has a cycle"):
            find_conservative_subtree(graph)

    @pytest.mark.parametrize("engine", ["lists", "arrays"])
    def test_root_labels_are_checked_against_the_column_criterion(
        self, running_pair, engine
    ):
        # every column made a root, while each column after the first
        # still holds a -1
        star = ryser_canonical(running_pair).star
        if engine == "lists":
            graph = kgr._build_lists(star)
            graph = dataclasses.replace(graph, minus=[-1] * len(graph.minus))
        else:
            graph = kgr._build_arrays(star)
            graph = dataclasses.replace(graph, out=np.full_like(graph.out, -1))
        with pytest.raises(AssertionError, match="disagrees with root labelling"):
            is_connected(graph)


class TestWideDetectors:
    @settings(max_examples=50)
    @given(st.one_of(wide_basis_sums(), wide_ray_points()))
    def test_three_detectors_agree(self, pair):
        canonical = ryser_canonical(pair)
        by_matrix = matrix_reducible(canonical)
        assert oracles.star_reducible(star_matrix(canonical)) == by_matrix
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


def _graph_inputs():
    rng = random.Random(22)
    yield from random_int8_matrices(rng, 3000)
    for pair in cone_pair_pool(9):
        entries = star_matrix(ryser_canonical(pair)).entries
        yield entries
        yield from one_cell_mutations(entries, rng, 4)


# a phrase of each build_graph check's message, in the order they run
GRAPH_CHECKS = ("two -1 entries", "no +1 on its left", "blocks the -1")


class TestStarValidation:
    def test_build_graph_refuses_as_before(self):
        """build_graph checks in one pass (these inputs are small enough
        for the list engine), the array engine in fused passes; on
        star-shaped stand-ins that no StarMatrix would admit both must
        refuse exactly what the checks they replaced (kept in oracles)
        refuse, with the same exception type and message."""
        seen = set()
        for entries in _graph_inputs():
            star = SimpleNamespace(
                entries=entries, pair=SimpleNamespace(width=entries.shape[1])
            )
            expected = outcome(oracles.graph_checks, entries)
            assert outcome(build_graph, star) == expected, entries.tolist()
            assert outcome(kgr._build_arrays, star) == expected, entries.tolist()
            if expected:
                seen.update(c for c in GRAPH_CHECKS if c in expected[1])
        assert seen == set(GRAPH_CHECKS)

    def test_bad_column_signature_is_rejected(self, running_pair):
        with pytest.raises(MalformedStarMatrix):
            StarMatrix(
                pair=KostkaPair((2,), (1, 1)),
                entries=((1, 1), (0, 0)),
            )

    def test_star_of_canonical_always_builds(self, running_pair):
        # the running example's star is validated during construction
        star = star_matrix(ryser_canonical(running_pair))
        graph = build_graph(star)
        assert graph.star is star
