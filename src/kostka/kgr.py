"""The arc graph of a star matrix and conservative subtrees.

Vertices are the nonzero entries of A*.  Every -1 points to the nearest
+1 on its left in the same row (horizontal arc); every +1 points to the
-1 of its own column when that column has one (vertical arc).  The
result is a planar forest in which every vertex has out-degree at most
one, row i carries exactly mu*_i sources, and connectivity is
equivalent to every non-leftmost column holding a -1.

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


@dataclass
class KgrGraph:
    star: StarMatrix
    vertices: tuple[Vertex, ...]
    arcs: tuple[Arc, ...]
    out: dict[Vertex, Vertex] = field(repr=False)
    incoming: dict[Vertex, tuple[Vertex, ...]] = field(repr=False)


def build_graph(star: StarMatrix) -> KgrGraph:
    arr = star.entries
    rows, cols = np.nonzero(arr)  # row-major, so the vertices come out sorted
    vertices = tuple(
        map(Vertex, (rows + 1).tolist(), (cols + 1).tolist(), arr[rows, cols].tolist())
    )
    heads: dict[int, Vertex] = {}  # column -> its -1
    for v in vertices:
        if v.sign == -1:
            if v.col in heads:
                raise MalformedStarMatrix(f"column {v.col} has two -1 entries")
            heads[v.col] = v
    # every vertex has at most one out-arc, so walking the vertices in
    # order lists the arcs sorted by tail
    out: dict[Vertex, Vertex] = {}
    left = None  # the previous vertex, which must be a +1 in the same row
    for v in vertices:
        if v.sign == -1:
            if left is None or left.row != v.row:
                raise MalformedStarMatrix(f"-1 at {(v.row, v.col)} has no +1 on its left")
            if left.sign == -1:
                raise MalformedStarMatrix(
                    f"-1 at {(left.row, left.col)} blocks the -1 at {(v.row, v.col)}"
                )
            out[v] = left
        elif v.col in heads:
            out[v] = heads[v.col]
        left = v
    incoming: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    for tail, head in out.items():
        incoming[head].append(tail)
    return KgrGraph(
        star=star,
        vertices=vertices,
        arcs=tuple(out.items()),
        out=out,
        incoming={v: tuple(ins) for v, ins in incoming.items()},
    )


def _component_of(graph: KgrGraph, start: Vertex) -> frozenset[Vertex]:
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        nbrs = list(graph.incoming[x])
        if x in graph.out:
            nbrs.append(graph.out[x])
        for y in nbrs:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def components(graph: KgrGraph) -> tuple[frozenset[Vertex], ...]:
    remaining = set(graph.vertices)
    out: list[frozenset[Vertex]] = []
    for v in graph.vertices:  # sorted, so components come out ordered
        if v in remaining:
            comp = _component_of(graph, v)
            out.append(comp)
            remaining -= comp
    return tuple(out)


def is_connected(graph: KgrGraph) -> bool:
    """Single component; cross-checked against the column criterion
    (every column after the first contains a -1)."""
    if len(graph.vertices) <= 1:
        return True
    bfs = len(components(graph)) == 1
    criterion = bool((graph.star.entries[:, 1:] == -1).any(axis=0).all())
    if bfs != criterion:
        raise AssertionError("connectivity criterion disagrees with traversal")
    return bfs


@dataclass(frozen=True)
class SubtreeWitness:
    """A conservative subtree: either a full component of a disconnected
    graph or a sink/source pattern subtree of a connected one."""

    kind: str  # "component" | "sink-source"
    vertices: tuple[Vertex, ...]
    columns: tuple[int, ...]
    sink: Vertex | None = None
    source: Vertex | None = None


def verify_subtree(graph: KgrGraph, vertices: Iterable[Vertex]) -> bool:
    """Referee for the conservative-subtree conditions; checks everything
    from scratch and never trusts how the candidate was produced."""
    wanted = set(vertices)
    if not wanted or not wanted <= set(graph.vertices):
        return False
    if wanted == set(graph.vertices):
        return False  # must be a proper subgraph
    induced = [(t, h) for t, h in graph.arcs if t in wanted and h in wanted]
    # tree: connected and |arcs| = |vertices| - 1
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in wanted}
    for t, h in induced:
        adj[t].append(h)
        adj[h].append(t)
    seen: set[Vertex] = set()
    queue = [next(iter(wanted))]
    seen.add(queue[0])
    while queue:
        for y in adj[queue.pop()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if seen != wanted or len(induced) != len(wanted) - 1:
        return False
    # vertical-arc column closure
    closed = {t.col for t, h in induced if t.col == h.col}
    for t, h in graph.arcs:
        if t.col == h.col and t.col in closed and (t not in wanted or h not in wanted):
            return False
    if wanted == _component_of(graph, next(iter(wanted))):
        return True
    heads = {t for t, h in induced}
    sinks = [v for v in wanted if v not in heads]
    if len(sinks) != 1 or sinks[0].sign != -1:
        return False
    sink = sinks[0]
    with_in = {h for t, h in induced}
    sources = [v for v in wanted if v not in with_in]
    graph_sources = {v for v in graph.vertices if not graph.incoming[v]}
    outsiders = [s for s in sources if s not in graph_sources]
    if len(outsiders) > 1:
        return False
    if outsiders:
        pivot = outsiders[0]
        return pivot.sign == 1 and pivot.row == sink.row
    return any(s.sign == 1 and s.row == sink.row for s in sources)


def find_conservative_subtree(graph: KgrGraph) -> SubtreeWitness | None:
    """Canonical conservative subtree, or None when the graph has none.

    Disconnected graphs yield the component containing the smallest
    (row, col) vertex.  Connected graphs are scanned for a -1 with a +1
    strictly to its right in the same row, smallest (col of -1, row,
    col of +1) first; the subtree is that +1 together with everything
    that reaches the -1 without passing through it.
    """
    if not graph.vertices:
        return None
    if not is_connected(graph):
        comp = _component_of(graph, graph.vertices[0])
        wit = SubtreeWitness(
            kind="component",
            vertices=tuple(sorted(comp)),
            columns=tuple(sorted({v.col for v in comp})),
        )
    else:
        # pair each -1 with the nearest +1 to its right in its row
        candidates = []
        nearest = None
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
        reach = {sink}
        queue = [sink]
        while queue:
            for t in graph.incoming[queue.pop()]:
                if t != pivot and t not in reach:
                    reach.add(t)
                    queue.append(t)
        reach.add(pivot)
        wit = SubtreeWitness(
            kind="sink-source",
            vertices=tuple(sorted(reach)),
            columns=tuple(sorted({v.col for v in reach})),
            sink=sink,
            source=pivot,
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
    v_star = star.entries[:, cols].sum(axis=1, dtype=np.int64)
    mu_star = np.asarray(star.mu_star, dtype=np.int64)
    if not ((v_star >= 0) & (v_star <= mu_star)).all():
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
