"""The arc graph of a star matrix and conservative subtrees.

Vertices are the nonzero entries of A*.  Every -1 points to the nearest
+1 on its left in the same row (horizontal arc); every +1 points to the
-1 of its own column when that column has one (vertical arc).  The
result is a planar forest in which every vertex has out-degree at most
one, row i carries exactly mu*_i sources, and connectivity is
equivalent to every non-leftmost column holding a -1.

The graph is held as arrays over integer vertex ids 0..n-1, numbered
in row-major order of the nonzeros: ``rows``, ``cols``, ``signs``, the
head ``out`` of each vertex's out-arc; a vertex's incoming arcs are
the ids whose ``out`` names it.  Components come from one root-labelling
pass (every vertex points, by pointer jumping, at the sink its out-walk
ends in).
:class:`Vertex` objects are built only for a witness and, lazily, for
``graph.vertices`` and ``graph.arcs``, which the renderers read.

A *conservative subtree* is a proper connected subgraph, closed under
each column's vertical arcs, that is either a full connected component
or has a unique sink at a -1 fed by a +1 source in the same row (all
its other sources being sources of the whole graph).  Such a subtree
exists exactly when the pair splits along a column subset, and its
column set is always such a witness; :func:`fast_reducibility` exploits
this instead of sweeping all subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import MalformedStarMatrix
from .partitions import KostkaPair
from .ryser import StarMatrix, ryser_canonical, split_pair, star_matrix


class Vertex(NamedTuple):
    row: int
    col: int
    sign: int


Arc = tuple[Vertex, Vertex]


def _roots(out: np.ndarray, width: int) -> np.ndarray:
    """The sink that each vertex's out-walk ends in (``out`` is -1 at a
    sink), by pointer jumping.  No arc moves right and every -1 has an
    out-arc that moves left, so a walk has fewer than 2 * width arcs; a
    walk that has not ended by then is refused as a cycle."""
    root = out.copy()
    sinks = (out < 0).nonzero()[0]
    root[sinks] = sinks
    for _ in range((2 * width).bit_length()):
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


def _vertices(graph: KgrGraph, ids: np.ndarray) -> tuple[Vertex, ...]:
    return tuple(
        map(
            Vertex,
            graph.rows[ids].tolist(),
            graph.cols[ids].tolist(),
            graph.signs[ids].tolist(),
        )
    )


def _columns(graph: KgrGraph, ids: np.ndarray) -> tuple[int, ...]:
    """The sorted distinct columns of the given vertices."""
    hit = np.zeros(graph.star.pair.width + 1, dtype=bool)
    hit[graph.cols[ids]] = True
    return tuple(hit.nonzero()[0].tolist())


def build_graph(star: StarMatrix) -> KgrGraph:
    arr = star.entries
    w = star.pair.width
    r0, c0 = arr.nonzero()  # row-major, so ids follow the sorted vertices
    signs = arr[r0, c0]
    minus = (signs < 0).nonzero()[0]
    if np.count_nonzero(np.bincount(c0[minus], minlength=w) > 1):
        seen: set[int] = set()
        for c in c0[minus].tolist():  # name the first repeat in row-major order
            if c in seen:
                raise MalformedStarMatrix(f"column {c + 1} has two -1 entries")
            seen.add(c)
    # a -1 points to the previous id, which must be a +1 in the same row
    left = minus - 1
    stray = (left < 0) | (r0[left] != r0[minus])
    bad = (stray | (signs[left] < 0)).nonzero()[0]
    if bad.size:
        m, b = int(minus[bad[0]]), int(left[bad[0]])
        where = (int(r0[m]) + 1, int(c0[m]) + 1)
        if stray[bad[0]]:
            raise MalformedStarMatrix(f"-1 at {where} has no +1 on its left")
        raise MalformedStarMatrix(
            f"-1 at {(int(r0[b]) + 1, int(c0[b]) + 1)} blocks the -1 at {where}"
        )
    # a +1 points to its column's -1 through the head table, if any
    heads = np.full(w, -1, dtype=np.intp)
    heads[c0[minus]] = minus
    out = heads[c0]
    out[minus] = left
    return KgrGraph(star=star, rows=r0 + 1, cols=c0 + 1, signs=signs, out=out)


def is_connected(graph: KgrGraph) -> bool:
    """Single component; cross-checked against the column criterion
    (every column after the first contains a -1)."""
    if graph.out.size <= 1:
        return True
    roots = graph.roots
    labelled = not np.count_nonzero(roots != roots[0])
    criterion = bool((graph.star.entries[:, 1:] == -1).any(axis=0).all())
    if labelled != criterion:
        raise AssertionError("connectivity criterion disagrees with root labelling")
    return labelled


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
    them is not a vertex of the graph."""
    r, w = graph.star.entries.shape
    cells, signs = [], []
    for row, col, sign in vertices:
        if not (1 <= row <= r and 1 <= col <= w and sign in (1, -1)):
            return None
        cells.append((row - 1) * w + col - 1)
        signs.append(sign)
    cell = np.array(cells, dtype=np.intp)
    if np.count_nonzero(graph.star.entries.ravel()[cell] != signs):
        return None
    # row-major ids make the cells of the vertices increasing
    return ((graph.rows - 1) * w + graph.cols - 1).searchsorted(cell)


def verify_subtree(graph: KgrGraph, vertices: Iterable[Vertex]) -> bool:
    """Referee for the conservative-subtree conditions; checks everything
    from scratch and never trusts how the candidate was produced."""
    given = _ids_of(graph, vertices)
    n = graph.out.size
    if given is None or not given.size:
        return False
    inside = np.zeros(n + 1, dtype=bool)  # inside[-1], for no out-arc, stays False
    inside[given] = True
    ids = inside.nonzero()[0]
    m = ids.size
    if m == n:
        return False  # must be a proper subgraph
    out = graph.out
    into = inside[out]  # the vertex's out-arc ends inside the set
    own = into[ids]
    # tree: no arc moves right and every -1's arc moves left, so the
    # graph has no cycle, and a set with one induced arc fewer than
    # vertices is connected
    if np.count_nonzero(own) != m - 1:
        return False
    # vertical-arc column closure: a +1's out-arc is its column's
    # vertical arc, and every vertex of that column lies on one
    closed = np.zeros(graph.star.pair.width + 1, dtype=bool)
    closed[graph.cols[ids[own & (graph.signs[ids] > 0)]]] = True
    if np.count_nonzero(closed[graph.cols] & ~inside[:n]):
        return False
    sink = int(ids[~own][0])
    if out[sink] < 0 and np.count_nonzero(into) == m - 1:
        return True  # no arc leaves or enters: a full component
    if graph.signs[sink] != -1:
        return False
    fed = np.zeros(n + 1, dtype=bool)
    fed[out[ids[own]]] = True
    sources = ids[~fed[ids]]
    # sources of the set that are not sources of the whole graph (a
    # sink's -1 lands in the spare slot)
    headed = np.zeros(n + 1, dtype=bool)
    headed[out] = True
    outsiders = sources[headed[sources]]
    if outsiders.size > 1:
        return False
    pivots = outsiders if outsiders.size else sources
    row_plus = (graph.signs[pivots] == 1) & (graph.rows[pivots] == graph.rows[sink])
    return bool(np.count_nonzero(row_plus))


def find_conservative_subtree(graph: KgrGraph) -> SubtreeWitness | None:
    """Canonical conservative subtree, or None when the graph has none.

    Disconnected graphs yield the component containing the smallest
    (row, col) vertex.  Connected graphs are scanned for a -1 with a +1
    strictly to its right in the same row, smallest (col of -1, row,
    col of +1) first; the subtree is that +1 together with everything
    that reaches the -1 without passing through it.
    """
    if not graph.out.size:
        return None
    if not is_connected(graph):
        roots = graph.roots
        ids = (roots == roots[0]).nonzero()[0]
        wit = SubtreeWitness(
            kind="component",
            vertices=_vertices(graph, ids),
            columns=_columns(graph, ids),
        )
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
        vertices = _vertices(graph, ids)
        wit = SubtreeWitness(
            kind="sink-source",
            vertices=vertices,
            columns=_columns(graph, ids),
            sink=vertices[int(ids.searchsorted(sink))],
            source=vertices[int(ids.searchsorted(pivot))],
        )
    if not verify_subtree(graph, wit.vertices):
        raise AssertionError(f"constructed subtree fails the referee: {wit}")
    return wit


@dataclass(frozen=True)
class FastReduction:
    columns: tuple[int, ...]
    witness: SubtreeWitness
    selected: KostkaPair
    complement: KostkaPair


def fast_reducibility(pair: KostkaPair) -> FastReduction | None:
    """Graph-driven reducibility: build the canonical matrix, its star
    matrix and graph, locate a conservative subtree, and split the pair
    along the subtree's columns.  None means no conservative subtree
    exists (which for these graphs means no column witness at all)."""
    canonical = ryser_canonical(pair)
    star = star_matrix(canonical)
    graph = build_graph(star)
    wit = find_conservative_subtree(graph)
    if wit is None:
        return None
    cols = [j - 1 for j in wit.columns]
    v_star = star.entries[:, cols].sum(axis=1, dtype=np.int64).tolist()
    if not all(0 <= v <= m for v, m in zip(v_star, star.mu_star)):
        raise AssertionError(f"subtree columns {wit.columns} fail 0 <= v* <= mu*")
    selected, complement = split_pair(canonical, wit.columns)
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
    """Convenience: canonical matrix -> star matrix -> graph."""
    return build_graph(star_matrix(ryser_canonical(pair)))
