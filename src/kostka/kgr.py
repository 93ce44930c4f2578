"""The arc graph of a star matrix and conservative subtrees.

Vertices are the nonzero entries of A*.  Every -1 points to the nearest
+1 on its left in the same row (horizontal arc); every +1 points to the
-1 of its own column when that column has one (vertical arc).  The
result is a planar forest in which every vertex has out-degree at most
one, row i carries exactly mu*_i sources, and connectivity is
equivalent to every non-leftmost column holding a -1.

The forest is one of columns.  All vertices of a column share a
component: its +1s point to its -1, whose arc leads to the +1 just left
of it, in an earlier column.  So a column with a -1 hangs under the
column of that +1, and a column without one is a root holding a single
+1, the sink of its component.  One pass from the left gives every
column its root.

Vertices are integer ids 0..n-1, numbered in row-major order of the
nonzeros, and the graph holds ``rows``, ``cols``, ``signs`` and the
head ``out`` of each vertex's out-arc; a vertex's incoming arcs are
the ids whose ``out`` names it.  Two engines give the same answers
and run the same checks.  A graph of at most ``LIST_VERTICES`` vertices,
the constant of :mod:`kostka.ryser`'s record gate, is held on Python
lists, and its components and subtree come from the column forest in
one pass from the left.  A star read off its fixing record hands over
its vertices as those lists, without an array, and has at most three
vertices a column, so every graph under the record gate is held on
lists.  A larger graph is held on numpy arrays, and its components come
from one root-labelling pass (every vertex points, by pointer jumping,
at the sink its out-walk ends in).  The lists win on small graphs,
where numpy's per-call cost dominates, and the arrays on large ones.
:class:`Vertex` objects are built only for a witness and, lazily, for
``graph.vertices`` and ``graph.arcs``, which the renderers read.

A *conservative subtree* is a proper connected subgraph, closed under
each column's vertical arcs, that is either a full connected component
or has a unique sink at a -1 fed by a +1 source in the same row (all
its other sources being sources of the whole graph).  Such a subtree
exists exactly when the pair splits along a column subset, and its
column set is always such a witness; :func:`fast_reducibility` exploits
this instead of sweeping all subsets.

:func:`verify_subtree` is the referee for those conditions: it maps the
given vertices to ids and checks everything from scratch over all n
vertices.  :func:`find_conservative_subtree` checks every witness it
builds with the same referee body, run on the vertex ids it already
holds, so its self-check does not map its own vertices back to ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import MalformedStarMatrix, NotAWitness
from .partitions import KostkaPair, _non_integer
from .ryser import (
    LIST_VERTICES,
    StarMatrix,
    _RecordStar,
    _star_vertices,
    ryser_canonical,
    split_pair,
)


class Vertex(NamedTuple):
    row: int
    col: int
    sign: int


Arc = tuple[Vertex, Vertex]


def _roots(out: np.ndarray, width: int) -> np.ndarray:
    """The sink that each vertex's out-walk ends in (``out`` is -1 at a
    sink), by pointer jumping.  No arc moves right and every -1 has an
    out-arc that moves left, so a walk has fewer than 2 * width arcs,
    and fewer arcs than the graph has vertices; a walk that has not
    ended by then is refused as a cycle."""
    root = out.copy()
    sinks = (out < 0).nonzero()[0]
    root[sinks] = sinks
    for _ in range((min(2 * width, out.size) - 1).bit_length()):
        root = root[root]
    if np.count_nonzero(out[root] >= 0):
        raise AssertionError("the arc graph has a cycle")
    return root


@dataclass(eq=False)
class KgrGraph:
    """The arc graph on vertex ids 0..n-1 in row-major order: vertex v
    is the entry ``signs[v]`` at (``rows[v]``, ``cols[v]``), 1-based;
    ``out[v]`` is the head of its out-arc or -1."""

    star: StarMatrix
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    out: np.ndarray = field(repr=False)

    @cached_property
    def roots(self) -> np.ndarray:
        """Root label of every vertex: the id of the sink of its
        component, so two vertices share a component iff they share a
        root."""
        return _roots(self.out, self.star.pair.width)

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(
            map(Vertex, self.rows.tolist(), self.cols.tolist(), self.signs.tolist())
        )

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """(tail, head) pairs sorted by tail."""
        vs = self.vertices
        tails = (self.out >= 0).nonzero()[0]
        return tuple(
            (vs[t], vs[h]) for t, h in zip(tails.tolist(), self.out[tails].tolist())
        )


@dataclass(eq=False)
class _ListGraph(KgrGraph):
    """The same graph with ``rows``, ``cols``, ``signs`` and ``out`` as
    Python lists, and the column forest's table: ``minus[j]`` is the id
    of the -1 in column j + 1, or -1 when that column is a root."""

    minus: list[int] = field(repr=False)

    @cached_property
    def roots(self) -> list[int]:
        """The same root labels, read off the column forest."""
        root = _column_roots(self)
        sink = [-1] * len(root)  # a root column's +1, the sink of its component
        for v, (c, head) in enumerate(zip(self.cols, self.out)):
            if head < 0:
                sink[c - 1] = v
        return [sink[root[c - 1]] for c in self.cols]

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(map(Vertex, self.rows, self.cols, self.signs))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        vs = self.vertices
        return tuple((vs[t], vs[h]) for t, h in enumerate(self.out) if h >= 0)


def _column_roots(graph: _ListGraph) -> list[int]:
    """The root column of every column (0-based), by one pass from the
    left.  A parent column that does not lie left of its child would
    make a cycle, and is refused."""
    cols = graph.cols
    root: list[int] = []
    for j, m in enumerate(graph.minus):
        if m < 0:
            root.append(j)
            continue
        parent = cols[m - 1] - 1  # the column of the +1 just left of the -1
        if parent >= j:
            raise AssertionError("the arc graph has a cycle")
        root.append(root[parent])
    return root


def _vertices(
    graph: KgrGraph, ids: np.ndarray
) -> tuple[tuple[Vertex, ...], tuple[int, ...]]:
    """The vertices with the given ids, and their sorted distinct columns."""
    cols = graph.cols[ids].tolist()
    vertices = map(Vertex, graph.rows[ids].tolist(), cols, graph.signs[ids].tolist())
    return tuple(vertices), tuple(sorted({*cols}))


def build_graph(star: StarMatrix) -> KgrGraph:
    """The arc graph of a star matrix: on lists for a star read off its
    fixing record or of at most ``LIST_VERTICES`` vertices, on arrays
    above.  Refuses a column with two -1 entries and a -1 whose nearest
    nonzero on its left is not a +1 of its row, naming the first
    offender in row-major order."""
    if isinstance(star, _RecordStar) or np.count_nonzero(star.entries) <= LIST_VERTICES:
        return _build_lists(star)
    return _build_arrays(star)


def _build_lists(star: StarMatrix) -> _ListGraph:
    """:func:`build_graph` on lists: one pass over the vertices checks
    each -1 and fills the column forest's table.  A star read off its
    fixing record holds the vertices' lists already."""
    # row-major, so ids follow the sorted vertices
    rows, cols, signs = _star_vertices(star)
    minus = [-1] * star.pair.width
    stray = -1  # the first -1 whose previous id is not a +1 of its row
    for v, sign in enumerate(signs):
        if sign < 0:
            c = cols[v] - 1
            if minus[c] >= 0:  # the first repeat in row-major order
                raise MalformedStarMatrix(f"column {c + 1} has two -1 entries")
            minus[c] = v
            if stray < 0 and (not v or rows[v - 1] != rows[v] or signs[v - 1] < 0):
                stray = v
    if stray >= 0:
        where = (rows[stray], cols[stray])
        if not stray or rows[stray - 1] != rows[stray]:
            raise MalformedStarMatrix(f"-1 at {where} has no +1 on its left")
        raise MalformedStarMatrix(
            f"-1 at {(rows[stray - 1], cols[stray - 1])} blocks the -1 at {where}"
        )
    # a -1 points to the previous id, a +1 to its column's -1, if any
    out = [
        v - 1 if s < 0 else minus[c - 1] for v, (c, s) in enumerate(zip(cols, signs))
    ]
    return _ListGraph(
        star=star, rows=rows, cols=cols, signs=signs, out=out, minus=minus
    )


def _build_arrays(star: StarMatrix) -> KgrGraph:
    """:func:`build_graph` on numpy arrays, the refusals found by fused
    passes over all vertices."""
    arr = star.entries
    w = star.pair.width
    r0, c0 = arr.nonzero()  # row-major, so ids follow the sorted vertices
    signs = arr[r0, c0]
    neg = signs < 0
    minus = neg.nonzero()[0]
    heads = c0[minus]
    head_cols = heads.tolist()
    if len(set(head_cols)) < len(head_cols):
        seen: set[int] = set()
        for c in head_cols:  # name the first repeat in row-major order
            if c in seen:
                raise MalformedStarMatrix(f"column {c + 1} has two -1 entries")
            seen.add(c)
    # a -1 points to the previous id, which must be a +1 in the same row
    follows_plus = (r0[1:] == r0[:-1]) > neg[:-1]  # same row, and not a -1
    bad = (neg[1:] > follows_plus).nonzero()[0]
    if bad.size or (minus.size and not minus[0]):
        m = int(bad[0]) + 1 if minus[0] else 0
        where = (int(r0[m]) + 1, int(c0[m]) + 1)
        if not m or r0[m - 1] != r0[m]:
            raise MalformedStarMatrix(f"-1 at {where} has no +1 on its left")
        raise MalformedStarMatrix(
            f"-1 at {(int(r0[m - 1]) + 1, int(c0[m - 1]) + 1)} blocks the -1 at {where}"
        )
    # a +1 points to its column's -1 through the head table, if any
    head = np.empty(w, dtype=np.intp)
    head.fill(-1)
    head[heads] = minus
    out = head[c0]
    out[minus] = minus - 1
    return KgrGraph(star=star, rows=r0 + 1, cols=c0 + 1, signs=signs, out=out)


def _first_component(graph: KgrGraph) -> tuple[np.ndarray, bool]:
    """The mask of vertex 0's component in a nonempty graph, and whether
    it is the whole graph, cross-checked against the column criterion
    (every column after the first contains a -1)."""
    roots = graph.roots
    first = roots == roots[0]
    labelled = bool(np.count_nonzero(first) == first.size)
    # a star column holds at most one -1 and the leftmost none, so the
    # columns after the first all hold one exactly when w - 1 vertices
    # are -1s
    criterion = np.count_nonzero(graph.signs < 0) == graph.star.pair.width - 1
    if labelled != criterion:
        raise AssertionError("connectivity criterion disagrees with root labelling")
    return first, labelled


def _first_columns(graph: _ListGraph) -> tuple[list[bool], bool]:
    """:func:`_first_component` on lists: the mask of the columns of
    vertex 0's component, and whether that is the whole graph."""
    root = _column_roots(graph)
    first = root[graph.cols[0] - 1]
    inside = [r == first for r in root]
    labelled = all(inside)
    criterion = graph.signs.count(-1) == graph.star.pair.width - 1
    if labelled != criterion:
        raise AssertionError("connectivity criterion disagrees with root labelling")
    return inside, labelled


def is_connected(graph: KgrGraph) -> bool:
    """Single component; cross-checked against the column criterion
    (every column after the first contains a -1)."""
    if isinstance(graph, _ListGraph):
        return len(graph.out) <= 1 or _first_columns(graph)[1]
    return graph.out.size <= 1 or _first_component(graph)[1]


@dataclass(frozen=True)
class SubtreeWitness:
    """A conservative subtree: either a full component of a disconnected
    graph or a sink/source pattern subtree of a connected one."""

    kind: str  # "component" | "sink-source"
    vertices: tuple[Vertex, ...]
    columns: tuple[int, ...]
    sink: Vertex | None = None
    source: Vertex | None = None


def _ids_of(graph: KgrGraph, vertices: Iterable[Vertex]) -> np.ndarray | None:
    """The ids of the given vertices (repeats kept), or None when one of
    them is not a vertex of the graph: anything but a (row, column,
    sign) triple of integers names none."""
    r, w = graph.star.entries.shape
    cells, signs = [], []
    for vertex in vertices:
        try:
            row, col, sign = vertex
        except (TypeError, ValueError):
            return None
        if any(map(_non_integer, (row, col, sign))) or not (
            1 <= row <= r and 1 <= col <= w and sign in (1, -1)
        ):
            return None
        cells.append((row - 1) * w + col - 1)
        signs.append(sign)
    cell = np.array(cells, dtype=np.intp)
    if np.count_nonzero(graph.star.entries.ravel()[cell] != signs):
        return None
    # row-major ids make the cells of the vertices increasing
    rows, cols = np.asarray(graph.rows), np.asarray(graph.cols)
    return ((rows - 1) * w + cols - 1).searchsorted(cell)


def verify_subtree(graph: KgrGraph, vertices: Iterable[Vertex]) -> bool:
    """Referee for the conservative-subtree conditions; checks everything
    from scratch and never trusts how the candidate was produced."""
    given = _ids_of(graph, vertices)
    if given is None:
        return False
    if isinstance(graph, _ListGraph):
        return _list_referee(graph, given.tolist())
    return _referee(graph, given)


def _referee(graph: KgrGraph, given: np.ndarray) -> bool:
    """:func:`verify_subtree` on the vertex ids ``given`` (repeats
    allowed), which :func:`find_conservative_subtree` holds already.
    Every test is a mask over all n vertices."""
    n = graph.out.size
    inside = np.zeros(n + 1, dtype=bool)  # inside[-1], for no out-arc, stays False
    inside[given] = True
    member = inside[:n]
    m = np.count_nonzero(member)
    if not m or m == n:
        return False  # must be a nonempty proper subgraph
    out = graph.out
    into = inside[out]  # the vertex's out-arc ends inside the set
    own = into & member  # the arcs of the set
    # tree: no arc moves right and every -1's arc moves left, so the
    # graph has no cycle, and a set with one induced arc fewer than
    # vertices is connected
    if np.count_nonzero(own) != m - 1:
        return False
    sink = int((member > into).argmax())  # the member whose out-arc leaves
    if out[sink] < 0 and np.count_nonzero(into) == m - 1:
        # no arc leaves or enters: a full component, closed under the
        # vertical arcs as under every arc
        return True
    # vertical-arc column closure: a +1's out-arc is its column's
    # vertical arc, and every vertex of that column lies on one
    plus = graph.signs > 0
    closed = np.zeros(graph.star.pair.width + 1, dtype=bool)
    closed[graph.cols[own & plus]] = True
    if np.count_nonzero(closed[graph.cols] > member):
        return False
    if graph.signs[sink] != -1:
        return False
    fed = np.zeros(n + 1, dtype=bool)
    fed[out[own]] = True
    sources = member > fed[:n]
    # sources of the set that are not sources of the whole graph (a
    # sink's -1 lands in the spare slot)
    headed = np.zeros(n + 1, dtype=bool)
    headed[out] = True
    outsiders = sources & headed[:n]
    count = np.count_nonzero(outsiders)
    if count > 1:
        return False
    pivots = outsiders if count else sources
    row_plus = pivots & plus & (graph.rows == graph.rows[sink])
    return bool(np.count_nonzero(row_plus))


def _list_referee(graph: _ListGraph, given: Iterable[int]) -> bool:
    """:func:`_referee` on lists: the same tests, each a pass over the
    members or over all n vertices."""
    rows, cols, signs, out = graph.rows, graph.cols, graph.signs, graph.out
    n = len(out)
    members = sorted({*given})
    m = len(members)
    if not m or m == n:
        return False  # must be a nonempty proper subgraph
    inside = [False] * (n + 1)  # inside[-1], for no out-arc, stays False
    for v in members:
        inside[v] = True
    # the graph is a forest, so a set with one induced arc fewer than
    # vertices, that is with one member whose out-arc leaves it, is a tree
    leaving = [v for v in members if not inside[out[v]]]
    if len(leaving) != 1:
        return False
    sink = leaving[0]
    if out[sink] < 0 and sum(map(inside.__getitem__, out)) == m - 1:
        return True  # no arc leaves or enters: a full component
    own = [v for v in members if v != sink]  # the tails of the set's arcs
    closed = {cols[v] for v in own if signs[v] > 0}
    if closed and any(c in closed and not inside[v] for v, c in enumerate(cols)):
        return False
    if signs[sink] != -1:
        return False
    fed = {out[v] for v in own}
    sources = [v for v in members if v not in fed]
    headed = set(out)
    outsiders = [v for v in sources if v in headed]
    if len(outsiders) > 1:
        return False
    return any(signs[v] > 0 and rows[v] == rows[sink] for v in outsiders or sources)


def _find_on_lists(graph: _ListGraph) -> tuple[SubtreeWitness, list[int]] | None:
    """:func:`find_conservative_subtree` on lists, from the column
    forest: the witness and its ids."""
    rows, cols, signs, minus = graph.rows, graph.cols, graph.signs, graph.minus
    if not rows:
        return None
    inside, connected = _first_columns(graph)
    sink = pivot = -1
    if connected:
        # the sink is the -1 of the leftmost column whose -1 has a +1
        # right after it in its row, and that +1 is the pivot
        last = len(rows) - 1
        for sink_col, sink in enumerate(minus):
            if 0 <= sink < last and rows[sink + 1] == rows[sink]:
                break
        else:
            return None
        pivot = sink + 1
        # a later column is reached iff its -1's left neighbour is not
        # the pivot and lies in a reached column
        inside = [False] * len(minus)
        inside[sink_col] = True
        for j in range(sink_col + 1, len(minus)):
            m = minus[j]
            inside[j] = m >= 0 and m - 1 != pivot and inside[cols[m - 1] - 1]
    ids = [v for v, c in enumerate(cols) if inside[c - 1] or v == pivot]
    vertices = tuple(Vertex(rows[v], cols[v], signs[v]) for v in ids)
    columns = tuple(sorted({cols[v] for v in ids}))
    if not connected:
        return SubtreeWitness(kind="component", vertices=vertices, columns=columns), ids
    wit = SubtreeWitness(
        kind="sink-source",
        vertices=vertices,
        columns=columns,
        sink=vertices[ids.index(sink)],
        source=vertices[ids.index(pivot)],
    )
    return wit, ids


def _find_on_arrays(graph: KgrGraph) -> tuple[SubtreeWitness, np.ndarray] | None:
    """:func:`find_conservative_subtree` on arrays, by root labelling:
    the witness and its ids."""
    if not graph.out.size:
        return None
    first, connected = _first_component(graph)
    if not connected:
        ids = first.nonzero()[0]
        vertices, columns = _vertices(graph, ids)
        wit = SubtreeWitness(kind="component", vertices=vertices, columns=columns)
    else:
        # a -1 is never followed by a -1 in its row (build_graph refuses
        # that), so the nearest +1 to its right is the next id, if any
        rows = graph.rows
        minus = (graph.signs[:-1] < 0).nonzero()[0]
        minus = minus[rows[minus + 1] == rows[minus]]
        if not minus.size:
            return None
        # ids are row-major, so argmin's first hit among the smallest
        # columns has the smallest row
        sink = int(minus[graph.cols[minus].argmin()])
        pivot = sink + 1
        # with both out-arcs cut, the walks that end at the sink are the
        # ones that reach it without passing through the pivot
        cut = graph.out.copy()
        cut[sink] = cut[pivot] = -1
        reach = _roots(cut, graph.star.pair.width) == sink
        reach[pivot] = True
        ids = reach.nonzero()[0]
        vertices, columns = _vertices(graph, ids)
        wit = SubtreeWitness(
            kind="sink-source",
            vertices=vertices,
            columns=columns,
            sink=vertices[int(ids.searchsorted(sink))],
            source=vertices[int(ids.searchsorted(pivot))],
        )
    return wit, ids


def find_conservative_subtree(graph: KgrGraph) -> SubtreeWitness | None:
    """Canonical conservative subtree, or None when the graph has none.

    Disconnected graphs yield the component containing the smallest
    (row, col) vertex.  Connected graphs are scanned for a -1 with a +1
    strictly to its right in the same row, smallest (col of -1, row,
    col of +1) first; the subtree is that +1 together with everything
    that reaches the -1 without passing through it.
    """
    if isinstance(graph, _ListGraph):
        found, referee = _find_on_lists(graph), _list_referee
    else:
        found, referee = _find_on_arrays(graph), _referee
    if found is None:
        return None
    wit, ids = found
    if not referee(graph, ids):
        raise AssertionError(f"constructed subtree fails the referee: {wit}")
    return wit


@dataclass(frozen=True)
class FastReduction:
    columns: tuple[int, ...]
    witness: SubtreeWitness
    selected: KostkaPair
    complement: KostkaPair


def fast_reducibility(pair: KostkaPair) -> FastReduction | None:
    """Graph-driven reducibility: build the graph of the pair's shared
    star matrix, locate a conservative subtree, and split the pair along
    its columns, the one test of 0 <= v* <= mu* (a failed split is an
    internal fault, raised as AssertionError).  None means no
    conservative subtree exists (which for these graphs means no column
    witness at all)."""
    canonical = ryser_canonical(pair)
    graph = build_graph(canonical.star)
    wit = find_conservative_subtree(graph)
    if wit is None:
        return None
    try:
        selected, complement = split_pair(canonical, wit.columns)
    except NotAWitness as exc:
        raise AssertionError(f"subtree columns {wit.columns}: {exc}") from exc
    return FastReduction(
        columns=wit.columns, witness=wit, selected=selected, complement=complement
    )


def to_dot(graph: KgrGraph, witness: SubtreeWitness | None = None) -> str:
    """Graphviz rendering; witness vertices and induced arcs in red.
    Node positions mirror the matrix layout (works with neato -n)."""
    special = set(witness.vertices) if witness else set()
    lines = ["digraph kgr {", "  node [shape=plaintext];"]
    for v in graph.vertices:
        color = ' fontcolor="red"' if v in special else ""
        label = "+1" if v.sign == 1 else "-1"
        lines.append(
            f'  "v{v.row}_{v.col}" [label="{label}" pos="{v.col},{-v.row}!"{color}];'
        )
    for t, h in graph.arcs:
        color = ' [color="red"]' if t in special and h in special else ""
        lines.append(f'  "v{t.row}_{t.col}" -> "v{h.row}_{h.col}"{color};')
    lines.append("}")
    return "\n".join(lines)


def graph_payload(
    graph: KgrGraph, witness: SubtreeWitness | None = None
) -> dict:
    """JSON-friendly description of the graph and optional witness."""
    payload: dict = {
        "vertices": [[v.row, v.col, v.sign] for v in graph.vertices],
        "arcs": [[[t.row, t.col], [h.row, h.col]] for t, h in graph.arcs],
        "connected": is_connected(graph),
        "mu_star": list(graph.star.mu_star),
    }
    if witness is None:
        payload["witness"] = None
    else:
        payload["witness"] = {
            "kind": witness.kind,
            "vertices": [[v.row, v.col] for v in witness.vertices],
            "columns": list(witness.columns),
            "sink": [witness.sink.row, witness.sink.col] if witness.sink else None,
            "source": [witness.source.row, witness.source.col]
            if witness.source
            else None,
        }
    return payload


def pair_graph(pair: KostkaPair) -> KgrGraph:
    """Convenience: canonical matrix -> its shared star matrix -> graph."""
    return build_graph(ryser_canonical(pair).star)
