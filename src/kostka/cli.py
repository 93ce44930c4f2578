"""Command-line interface.

Exit codes: 0 success / positive decision, 1 negative decision (e.g.
"not reducible", "no subset"), 2 a usage error: malformed input or a
refusing cap (click's own errors and every :class:`RefusedInput`), 3 a
checked internal assertion failed on concrete data (any other
:class:`KostkaError`, or an ``AssertionError``).  Every command is
registered by :func:`_command`, prints its answer and decides 0 or 1
in :func:`_emit`, and gets 2 or 3 from :func:`_guarded`; only a
``basis`` fixture mismatch exits 3 by itself.

``--format json`` output is serialized with sorted keys and fixed
indentation, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections.abc import Callable
from pathlib import Path

import click

from .cone import (
    RaySpec,
    catalog_diff,
    decompose,
    default_fixture_path,
    extremal_rays,
    hilbert_basis,
    load_catalog,
    primitive_point,
    width_bound_audit,
)
from .errors import (
    AssertionFailure,
    KostkaError,
    RefusedInput,
    SizeCapExceeded,
    WidthCapExceeded,
)
from .kgr import (
    fast_reducibility,
    find_conservative_subtree,
    graph_payload,
    pair_graph,
    to_dot,
)
from .lr import growth_table, verify_counterexample
from .partitions import (
    KostkaPair,
    format_partition,
    in_kostka_cone,
    kostka_count,
    kostka_positive,
    parse_partition,
)
from .ryser import (
    fixing_chain,
    matrix_reducible,
    render_matrix,
    ryser_canonical,
    shape_sequence,
)
from .sequences import CatalanSeq, catalan_reducible, kim_theorem_check
from .subsetsum import SubsetSumInstance, reduction_equivalence_check


def _guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except RefusedInput as exc:
            raise click.UsageError(str(exc))
        except (KostkaError, AssertionError) as exc:
            click.echo(f"internal check failed: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _format_option(choices):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(choices),
        default="text",
        envvar="KOSTKA_FORMAT",
        show_default=True,
        help="output format",
    )


def _command(*params, formats=("text", "json"), name=None):
    """Register the decorated function as a command of :func:`main`
    taking ``params`` in order, then ``--format``, with its errors turned
    into exit codes by :func:`_guarded`."""

    def register(f):
        f = _guarded(f)
        # click lists the parameters applied last first
        for param in (_format_option(formats), *reversed(params)):
            f = param(f)
        return main.command(name=name)(f)

    return register


_PAIR = (
    click.argument("lam"),
    click.argument("mu"),
    click.option(
        "--rank", "-r", type=click.IntRange(min=0), help="ambient rank (default: minimal)"
    ),
)
_RANK = click.option("--rank", "-r", type=int, required=True)


def _emit(payload: dict | Callable[[], dict], fmt: str, lines, holds: bool = True) -> None:
    """Print ``payload`` as JSON, or else ``lines``, then exit 1 when the
    queried property does not hold; otherwise return, and click exits 0.
    ``payload`` may be a function that builds it, called only for JSON."""
    if fmt == "json":
        payload = payload() if callable(payload) else payload
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)
    if not holds:
        sys.exit(1)


def _pair_payload(pair: KostkaPair) -> dict:
    return {"lambda": list(pair.lam), "mu": list(pair.mu), "rank": pair.rank}


def _build_pair(lam_text: str, mu_text: str, rank: int | None) -> KostkaPair:
    return KostkaPair(parse_partition(lam_text), parse_partition(mu_text), rank)


def _step_payload(step) -> dict:
    return {"kind": step.kind, **dataclasses.asdict(step)}


def _ray_payload(spec: RaySpec, point: KostkaPair) -> dict:
    pair = spec.pair()
    return {
        "a": spec.a,
        "b": spec.b,
        "ell": spec.ell,
        "lambda": list(pair.lam),
        "mu": list(pair.mu),
        "primitive_lambda": list(point.lam),
        "primitive_mu": list(point.mu),
    }


@click.group()
def main() -> None:
    """Exact computations on Kostka cone pairs: canonical matrices,
    reducibility certificates, Hilbert bases, and extremal rays."""


@_command(*_PAIR)
def check(lam: str, mu: str, rank: int | None, fmt: str) -> None:
    """Cone membership and Kostka positivity of a pair, with its Kostka
    number when |lambda| is within the counting cap."""
    pl, pm = parse_partition(lam), parse_partition(mu)
    r = rank if rank is not None else max(len(pl), len(pm))
    member = in_kostka_cone(pl, pm, r)
    positive = kostka_positive(pl, pm)
    try:
        count = kostka_count(pl, pm)
    except SizeCapExceeded:
        count = None
    if count is not None and (count > 0) != positive:
        raise AssertionFailure(f"K({lam}; {mu}) = {count} contradicts dominance")
    payload = {
        "lambda": list(pl),
        "mu": list(pm),
        "rank": r,
        "in_cone": member,
        "kostka_positive": positive,
        "kostka_count": count,
    }
    _emit(
        payload,
        fmt,
        [
            f"pair: ({format_partition(pl)} | {format_partition(pm)}), rank {r}",
            f"in cone: {member}",
            f"Kostka positive: {positive}",
            f"Kostka count: {count if count is not None else 'skipped (cap)'}",
        ],
        holds=member,
    )


@_command(*_PAIR)
def ryser(lam: str, mu: str, rank: int | None, fmt: str) -> None:
    """Canonical matrix, star matrix, and shape-peeling sequence."""
    pair = _build_pair(lam, mu, rank)
    canonical = ryser_canonical(pair)
    chain = fixing_chain(canonical)
    star = canonical.star
    seq = shape_sequence(canonical)
    payload = {
        "pair": _pair_payload(pair),
        "matrix": canonical.entries.tolist(),
        "chain": [stage.tolist() for stage in chain],
        "star": star.entries.tolist(),
        "mu_star": list(star.mu_star),
        "shapes": [list(s) for s in seq.shapes],
        "steps": [_step_payload(s) for s in seq.steps],
    }

    def lines():  # rendered only for text output
        yield f"pair: {pair}"
        for i, stage in enumerate(chain):
            yield from (f"A^({i}):", render_matrix(stage))
        yield from ("A*:", render_matrix(star.entries), f"mu*: {list(star.mu_star)}")
        yield "shapes: " + "  >  ".join(map(format_partition, seq.shapes))
        yield from (f"step {i}: {_step_payload(s)}" for i, s in enumerate(seq.steps, 1))

    _emit(payload, fmt, lines())


@_command(*_PAIR, formats=("text", "json", "dot"))
def kgr(lam: str, mu: str, rank: int | None, fmt: str) -> None:
    """Arc graph of the star matrix, with a conservative subtree when
    one exists (highlighted in dot output)."""
    pair = _build_pair(lam, mu, rank)
    graph = pair_graph(pair)
    witness = find_conservative_subtree(graph)
    payload = {"pair": _pair_payload(pair), **graph_payload(graph, witness)}

    def lines():
        yield f"pair: {pair}"
        yield (
            f"vertices: {len(graph.vertices)}, arcs: {len(graph.arcs)}, "
            f"connected: {payload['connected']}"
        )
        for tail, head in graph.arcs:
            yield f"  ({tail.row},{tail.col}) -> ({head.row},{head.col})"
        if witness is None:
            yield "conservative subtree: none"
        else:
            yield (
                f"conservative subtree ({witness.kind}): columns {list(witness.columns)}, "
                f"vertices {[(v.row, v.col) for v in witness.vertices]}"
            )

    _emit(payload, fmt, [to_dot(graph, witness)] if fmt == "dot" else lines())


@_command(*_PAIR)
def reduce(lam: str, mu: str, rank: int | None, fmt: str) -> None:
    """Reducibility: graph-driven fast detection plus the complete
    decomposition search.  Exit 1 when the pair is irreducible or zero
    (no decomposition exists; the zero pair is not irreducible).  Within
    ``config.SWEEP_CAP`` the exhaustive column sweep of the same matrix
    must agree with fast detection on whether a column witness exists."""
    pair = _build_pair(lam, mu, rank)
    found = decompose(pair)
    fast = fast_reducibility(pair)
    if fast is not None and found is None:
        raise AssertionFailure(
            f"graph detection split {pair} but the decomposition search found nothing"
        )
    try:
        swept = matrix_reducible(ryser_canonical(pair))
    except WidthCapExceeded:
        pass  # refused before sweeping: nothing to compare
    else:
        if (swept is None) != (fast is None):
            raise AssertionFailure(
                f"graph detection and the column sweep disagree on whether {pair} "
                "has a column witness"
            )
    payload = {
        "pair": _pair_payload(pair),
        "fast": None
        if fast is None
        else {
            "columns": list(fast.columns),
            "kind": fast.witness.kind,
            "selected": _pair_payload(fast.selected),
            "complement": _pair_payload(fast.complement),
        },
        "decomposition": None
        if found is None
        else {"small": _pair_payload(found[0]), "large": _pair_payload(found[1])},
        # irreducible points are nonzero: the zero pair has no summands
        # but is not irreducible
        "irreducible": found is None and pair.n > 0,
    }
    lines = [f"pair: {pair}"]
    if fast is None:
        lines.append("fast detection: no conservative subtree")
    else:
        lines.append(
            f"fast detection: columns {list(fast.columns)} -> "
            f"{fast.selected} + {fast.complement}"
        )
    if pair.n == 0:
        lines.append("decomposition search: zero pair")
    elif found is None:
        lines.append("decomposition search: irreducible")
    else:
        lines.append(f"decomposition search: {found[0]} + {found[1]}")
    _emit(payload, fmt, lines, holds=found is not None)


@_command(_RANK)
@click.option(  # applied before _command's, so --help lists it after --format
    "--fixtures",
    type=click.Path(exists=True, file_okay=False, path_type=Path),
    default=None,
    envvar="KOSTKA_FIXTURES",
    help="directory of catalog fixtures (default: packaged)",
)
def basis(rank: int, fmt: str, fixtures: Path | None) -> None:
    """Hilbert basis at a rank, compared against the persisted catalog
    when one is present (mismatch exits 3 with a structural diff)."""
    catalog = hilbert_basis(rank)
    path = default_fixture_path(rank, fixtures)
    fixture_info = None
    if path.exists():
        shipped = load_catalog(path)
        if shipped.rank != rank:
            raise AssertionFailure(f"{path}: catalog of rank {shipped.rank}, not {rank}")
        diff = catalog_diff(catalog, shipped)
        fixture_info = {"path": str(path), **diff}
        if not diff["match"]:
            click.echo(f"fixture mismatch against {path}:", err=True)
            click.echo(json.dumps(diff, indent=2, sort_keys=True), err=True)
            sys.exit(3)
    payload = {
        "rank": rank,
        "count": catalog.count,
        "elements": [[list(p.lam), list(p.mu)] for p in catalog.elements],
        "fixture": fixture_info,
    }
    lines = [f"rank {rank}: {catalog.count} basis elements"]
    lines += [f"  {p}" for p in catalog.elements]
    if fixture_info:
        lines.append(f"fixture {path}: match")
    _emit(payload, fmt, lines)


@_command(_RANK)
def rays(rank: int, fmt: str) -> None:
    """Extremal rays at a rank with their primitive lattice points."""
    specs = extremal_rays(rank)
    points = [primitive_point(s) for s in specs]

    def payload():  # built only for JSON output
        rays = list(map(_ray_payload, specs, points))
        return {"rank": rank, "count": len(specs), "rays": rays}

    def lines():
        yield f"rank {rank}: {len(specs)} extremal rays"
        for s, point in zip(specs, points):
            yield f"  (a={s.a}, b={s.b}, ell={s.ell}): primitive {point}"

    _emit(payload, fmt, lines())


@_command(_RANK)
def audit(rank: int, fmt: str) -> None:
    """Width-bound audit of the basis at a rank, over the whole
    lambda_1 = rank + 1 layer (exit 3 on violation)."""
    report = width_bound_audit(rank)
    _emit(
        {**dataclasses.asdict(report), "ok": True},
        fmt,
        [
            f"rank {rank}: audit passed",
            f"  basis elements: {report.basis_count}",
            f"  width-saturating elements: {report.full_width_count}",
            f"  over-wide pairs checked reducible: {report.boundary_pairs_checked}",
        ],
    )


@_command(click.argument("sequence"))
def catalan(sequence: str, fmt: str) -> None:
    """Cost, width, and sublist reducibility of a generalized Catalan
    sequence (comma-separated entries).  Exit 1 when irreducible."""
    try:
        entries = tuple(int(tok) for tok in sequence.split(",") if tok.strip())
    except ValueError as exc:
        raise click.UsageError(f"cannot parse sequence {sequence!r}") from exc
    x = CatalanSeq(entries)
    report = kim_theorem_check(x)
    c, t = report.cost, report.width
    witness = report.witness if report.hypothesis else catalan_reducible(x)
    payload = {
        "entries": list(x.entries),
        "cost": c,
        "width": t,
        "reducible": witness is not None,
        "witness": None if witness is None else list(witness),
    }
    _emit(
        payload,
        fmt,
        [
            f"entries: {list(x.entries)}",
            f"cost: {c}, width: {t}",
            f"witness: {list(witness) if witness else 'none'}",
        ],
        holds=witness is not None,
    )


@_command(click.argument("instance"))
def subsetsum(instance: str, fmt: str) -> None:
    """Reduce a subset-sum instance "a1,a2,...,ad : b" to a cone pair
    and verify the equivalence both ways.  Exit 1 on a no-instance."""
    if ":" not in instance:
        raise click.UsageError('instance must look like "3,2,1 : 4"')
    left, right = instance.split(":", 1)
    try:
        values = tuple(int(tok) for tok in left.split(",") if tok.strip())
        target = int(right.strip())
    except ValueError as exc:
        raise click.UsageError(f"cannot parse instance {instance!r}") from exc
    # only a valid instance is trivially "no"; SubsetSumInstance
    # refuses the others
    if values and min(values) > 0 and target > sum(values):
        payload = {
            "values": list(values),
            "target": target,
            "subset": None,
            "trivial": "target exceeds total",
        }
        lines = [f"no subset: target {target} exceeds total {sum(values)}"]
        return _emit(payload, fmt, lines, holds=False)
    report = reduction_equivalence_check(SubsetSumInstance(values, target))
    payload = {
        "values": list(report.instance.values),
        "target": report.instance.target,
        "pair": _pair_payload(report.pair),
        "coordinates": report.coordinates,
        "subset": None if report.subset is None else list(report.subset),
        "decomposition": None
        if report.decomposition is None
        else {
            "selected": _pair_payload(report.decomposition[0]),
            "complement": _pair_payload(report.decomposition[1]),
        },
    }
    lines = [
        f"sorted values: {list(report.instance.values)}, target {report.instance.target}",
        f"pair: {report.pair} ({report.coordinates} coordinates)",
        f"subset: {list(report.subset) if report.subset else 'none'}",
    ]
    if report.decomposition:
        lines.append(
            f"decomposition: {report.decomposition[0]} + {report.decomposition[1]}"
        )
    _emit(payload, fmt, lines, holds=report.subset is not None)


@_command(
    click.option("--k", type=click.IntRange(min=2), required=True),
    click.option(
        "--growth-to", type=click.IntRange(min=2), default=None, help="table bound (default: k)"
    ),
    name="lr-family",
)
def lr_family(k: int, growth_to: int | None, fmt: str) -> None:
    """The wide triple family: identities, positivity within the
    counting cap, and the nu_1 growth table."""
    # both refuse a k past config.FAMILY_CAP before building a row
    rows = growth_table(growth_to if growth_to is not None else k)
    report = verify_counterexample(k)
    payload = {
        "k": k,
        "rank": report.rank,
        "lambda": list(report.triple.lam),
        "mu": list(report.triple.mu),
        "nu": list(report.triple.nu),
        "nu1": report.nu1,
        "exceeds_rank": report.exceeds_rank,
        "coefficient": report.coefficient,
        "growth": [dataclasses.asdict(r) for r in rows],
    }
    lines = [
        f"k={k}: rank {report.rank}",
        f"lambda: {format_partition(report.triple.lam)}",
        f"mu: {format_partition(report.triple.mu)}",
        f"nu: {format_partition(report.triple.nu)}",
        f"nu_1 = {report.nu1} ({'exceeds' if report.exceeds_rank else 'within'} rank)",
        f"coefficient: {report.coefficient if report.coefficient is not None else 'beyond cap'}",
    ]
    lines += [
        f"  k={r.k}: rank {r.rank}, nu_1 {r.nu1}"
        + (" > rank" if r.exceeds_rank else "")
        for r in rows
    ]
    _emit(payload, fmt, lines)


if __name__ == "__main__":
    main()
