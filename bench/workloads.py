"""The four benchmark workloads: inputs, calls into kostka, and referees.

Every item runs in two steps.  ``compute`` calls the public kostka API
through module attributes (so a traced run sees the wrapped bindings)
and returns a plain answer record; ``check`` re-derives what it can
without the code under test and raises :class:`RefereeError` when the
answer is wrong.  Answer records are hashed in canonical order: the
records of the *core* items, which do not depend on the seed, must hash
to the value pinned in ``pinned.json``.

Inputs depend only on the seed and the size (``full`` for measurement,
``smoke`` for the self-test); nothing here reads the clock.  Each
workload's ``warmup`` items are its smallest, run untimed during set-up
to finish lazy imports and first-call costs; module-level caches such as
``cone._SPLIT_MEMO`` otherwise start cold in every measuring process.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from kostka import cone, kgr, partitions, ryser, sequences, subsetsum
from kostka.partitions import KostkaPair

FIXTURES = Path(cone.__file__).parent / "fixtures"

# |lambda| of a subset-sum reduction pair is 2 * total + 1; keeping the
# total at most 19 keeps it within the seed's SPLIT_CAP of 40.  Fixed here
# so that the inputs do not move when a cap does.
SUBSET_TOTAL_MAX = 19


class RefereeError(Exception):
    """An answer failed an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise RefereeError(message)


@dataclass(frozen=True)
class Item:
    key: tuple  # canonical position; orders the answer digest
    core: bool  # covered by the pinned digest
    kind: str
    arg: object


@dataclass
class Workload:
    name: str
    items: list[Item]  # in run order
    warmup: list[Item]  # a few of the smallest items, run untimed during set-up
    shard: int = 0  # which of the workload's shards ``items`` is


def select_shard(work: Workload, shard: int, shards: int) -> Workload:
    """Shard ``shard`` of ``shards``: the items whose position in canonical
    key order is ``shard`` modulo ``shards``, still in run order.  Which
    items a shard holds does not depend on the seed."""
    if not 0 <= shard < shards:
        raise ValueError(f"shard {shard} of {shards}")
    position = {key: i for i, key in enumerate(sorted(i.key for i in work.items))}
    items = [i for i in work.items if position[i.key] % shards == shard]
    return Workload(work.name, items, work.warmup, shard)


# --- independent checks -------------------------------------------------


def _padded(p, rank: int) -> tuple[int, ...]:
    return tuple(p) + (0,) * (rank - len(p))


def _is_partition(p) -> bool:
    return all(isinstance(v, int) and v > 0 for v in p) and all(
        a >= b for a, b in zip(p, p[1:])
    )


def _in_cone(lam, mu, rank: int) -> bool:
    if not (_is_partition(lam) and _is_partition(mu)):
        return False
    if len(lam) > rank or len(mu) > rank or sum(lam) != sum(mu):
        return False
    a = b = 0
    for x, y in zip(_padded(lam, rank), _padded(mu, rank)):
        a, b = a + x, b + y
        if a < b:
            return False
    return True


def _check_split(pair: KostkaPair, halves, what: str) -> None:
    """The halves are nonzero cone points at the pair's rank that add
    back to the pair."""
    r = pair.rank
    for h in halves:
        require(h.rank == r, f"{what}: half {h} not at rank {r}")
        require(sum(h.lam) > 0, f"{what}: zero half")
        require(_in_cone(h.lam, h.mu, r), f"{what}: half {h} is not a cone point")
    a, b = halves
    for side in ("lam", "mu"):
        total = tuple(
            x + y for x, y in zip(_padded(getattr(a, side), r), _padded(getattr(b, side), r))
        )
        require(total == _padded(getattr(pair, side), r), f"{what}: halves do not add back on {side}")


def _is_catalan(entries) -> bool:
    acc = 0
    for v in entries:
        acc += v
        if acc < 0:
            return False
    return acc == 0 and len(entries) > 0


def _key(p: KostkaPair | None):
    return None if p is None else (p.lam, p.mu, p.rank)


# --- detector-pool --------------------------------------------------------


def _partitions(n: int, max_part: int, max_len: int):
    """Partitions of n in decreasing lexicographic order."""

    def rec(remaining, bound, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - part, part, slots - 1):
                yield (part,) + rest

    return rec(n, max_part, max_len)


def _dominates(lam, mu) -> bool:
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def cone_pool(max_boxes: int, max_width: int) -> list[KostkaPair]:
    """Every nonzero cone pair with lambda_1 <= max_width and at most
    max_boxes boxes, at minimal rank (the acceptance c05 pool)."""
    pool = []
    for n in range(1, max_boxes + 1):
        for lam in _partitions(n, max_width, n):
            for mu in _partitions(n, lam[0], n):
                if _dominates(lam, mu):
                    pool.append(KostkaPair(lam, mu))
    return pool


def compute_detector(p: KostkaPair):
    count = partitions.kostka_count(p.lam, p.mu)
    fast = kgr.fast_reducibility(p)
    columns = ryser.matrix_reducible(ryser.ryser_canonical(p))
    split = cone.decompose(p)
    return {
        "count": count,
        "fast": None
        if fast is None
        else (fast.witness.kind, fast.columns, _key(fast.selected), _key(fast.complement)),
        "exhaustive": columns,
        "split": None if split is None else (_key(split[0]), _key(split[1])),
        "_fast": fast,
        "_split": split,
    }


def check_detector(p: KostkaPair, ans) -> None:
    require(ans["count"] >= 1, f"kostka_count {ans['count']} < 1 for {p}")
    require(
        (ans["fast"] is None) == (ans["exhaustive"] is None),
        f"fast detector and exhaustive sweep disagree on {p}",
    )
    if ans["fast"] is not None:
        require(ans["split"] is not None, f"fast witness but decompose finds no split for {p}")
        fast = ans["_fast"]
        _check_split(p, (fast.selected, fast.complement), f"fast split of {p}")
    if ans["split"] is not None:
        _check_split(p, ans["_split"], f"decompose split of {p}")


def detector_pool(seed: int, size: str) -> Workload:
    pool = cone_pool(13, 7) if size == "full" else cone_pool(6, 4)
    if size == "full" and len(pool) != 7214:
        raise RuntimeError(f"detector pool has {len(pool)} pairs, expected 7214")
    items = [Item((i,), True, "detector", p) for i, p in enumerate(pool)]
    warmup = items[:8]
    order = list(items)
    random.Random(seed).shuffle(order)
    return Workload("detector-pool", order, warmup)


# --- wide-pairs -----------------------------------------------------------

STAIRCASE_WIDTHS = (50, 100, 200)
RAY_A = (5, 10, 20, 30, 40, 50, 60, 70, 80)
SUM_WIDTHS = (20, 30, 40, 50, 60, 80, 100, 125, 150, 175, 200, 250)
SUM_RANKS = (4, 5, 6)


def _fixture_elements(rank: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    data = json.loads((FIXTURES / f"basis_r{rank}.json").read_text())
    return [(tuple(lam), tuple(mu)) for lam, mu in data["elements"]]


def basis_sum(rng: random.Random, rank: int, width: int, basis) -> KostkaPair:
    """Sum of random rank-``rank`` basis elements whose first parts add up
    to exactly ``width`` (elements with lambda_1 = 1 always fit)."""
    lam = [0] * rank
    mu = [0] * rank
    left = width
    while left:
        e_lam, e_mu = rng.choice([e for e in basis if e[0][0] <= left])
        left -= e_lam[0]
        for i, v in enumerate(e_lam):
            lam[i] += v
        for i, v in enumerate(e_mu):
            mu[i] += v
    return KostkaPair(tuple(lam), tuple(mu), rank)


def compute_wide(arg):
    expect, p = arg
    fast = kgr.fast_reducibility(p)
    return {
        "fast": None
        if fast is None
        else (fast.witness.kind, fast.columns, _key(fast.selected), _key(fast.complement)),
        "_fast": fast,
    }


def check_wide(arg, ans) -> None:
    expect, p = arg
    if expect == "irreducible":
        # the primitive point of an extremal ray is a Hilbert basis element
        require(ans["fast"] is None, f"irreducible ray point {p} reported reducible")
        return
    if expect == "reducible":
        require(ans["fast"] is not None, f"lambda = mu pair {p} reported without witness")
    if ans["fast"] is not None:
        fast = ans["_fast"]
        _check_split(p, (fast.selected, fast.complement), f"fast split of width {p.width}")
        require(
            set(fast.columns) <= set(range(1, p.width + 1)),
            f"witness columns out of range for width {p.width}",
        )


def wide_pairs(seed: int, size: str) -> Workload:
    full = size == "full"
    stairs = STAIRCASE_WIDTHS if full else (20,)
    rays = RAY_A if full else (5, 10)
    widths = SUM_WIDTHS if full else (20, 30)
    items = []
    for w in stairs:
        lam = tuple(range(w, 0, -1))
        items.append(Item(("staircase", w), True, "wide", ("reducible", KostkaPair(lam, lam))))
    for a in rays:
        p = cone.primitive_point(cone.RaySpec(a, a - 1, 2, a + 2))
        items.append(Item(("ray", a), True, "wide", ("irreducible", p)))
    # At each width and rank one sum comes from a fixed generator (a core
    # item: the referee cannot tell a sum that lost its witness from an
    # irreducible one, so the pinned digest must) and one from the seed.
    core_rng = random.Random("wide-pairs core")
    rng = random.Random(seed)
    bases = {r: _fixture_elements(r) for r in SUM_RANKS}
    for w in widths:
        for r in SUM_RANKS:
            for k, (core, source) in enumerate(((True, core_rng), (False, rng))):
                p = basis_sum(source, r, w, bases[r])
                items.append(Item(("sum", w, r, k), core, "wide", ("sum", p)))
    warmup = [i for i in items if i.key[0] == "ray"][:2]
    order = list(items)
    random.Random(seed).shuffle(order)
    return Workload("wide-pairs", order, warmup)


# --- hilbert-basis --------------------------------------------------------


def element_sha256(elements) -> str:
    blob = json.dumps(elements, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_basis(arg):
    rank, _ = arg
    catalog = cone.hilbert_basis(rank)
    elements = [[list(p.lam), list(p.mu)] for p in catalog.elements]
    return {"count": len(elements), "sha256": element_sha256(elements)}


def check_basis(arg, ans) -> None:
    rank, fixture = arg
    require(ans["count"] == fixture["count"], f"rank {rank}: {ans['count']} elements, fixture {fixture['count']}")
    require(ans["sha256"] == fixture["sha256"], f"rank {rank}: basis sha256 differs from the fixture")


def hilbert_basis(seed: int, size: str) -> Workload:
    items = []
    for r in range(1, 7) if size == "full" else range(1, 5):
        fixture = json.loads((FIXTURES / f"basis_r{r}.json").read_text())
        if element_sha256(fixture["elements"]) != fixture["sha256"]:
            raise RuntimeError(f"fixture basis_r{r}.json does not match its own sha256")
        items.append(Item((r,), True, "basis", (r, fixture)))
    return Workload("hilbert-basis", items, items[:1])


# --- certificate-sweep ----------------------------------------------------


def random_instance(rng: random.Random) -> subsetsum.SubsetSumInstance:
    while True:
        values = tuple(rng.randint(1, 8) for _ in range(rng.randint(2, 7)))
        if sum(values) <= SUBSET_TOTAL_MAX:
            return subsetsum.SubsetSumInstance(values, rng.randint(1, sum(values)))


def random_walk(rng: random.Random) -> sequences.CatalanSeq:
    """The acceptance c09 generator: nonnegative partial sums returning to
    zero, length at most 14, biased toward repeated signs and unit steps."""
    budget = rng.randint(2, 14)
    entries: list[int] = []
    height = 0
    sign = 1
    while len(entries) < budget - 1:
        if height == 0:
            sign = 1
        elif rng.random() < 0.3:
            sign = -sign
        magnitude = 1 if rng.random() < 0.7 else rng.randint(1, 5)
        step = sign * magnitude
        if step < 0:
            step = max(step, -height)
        entries.append(step)
        height += step
    if height > 0:
        entries.append(-height)
    return sequences.CatalanSeq(tuple(entries))


def compute_subset(inst):
    rep = subsetsum.reduction_equivalence_check(inst)
    return {
        "values": rep.instance.values,
        "target": rep.instance.target,
        "subset": rep.subset,
        "split": None
        if rep.decomposition is None
        else tuple(_key(h) for h in rep.decomposition),
        "_rep": rep,
    }


def check_subset(inst, ans) -> None:
    values, target, subset = ans["values"], ans["target"], ans["subset"]
    require(sorted(values) == sorted(inst.values), "instance values changed")
    if subset is None:
        require(ans["split"] is None, "decomposition without a subset")
        return
    require(all(1 <= i <= len(values) for i in subset), f"subset {subset} out of range")
    require(sum(values[i - 1] for i in subset) == target, f"subset {subset} misses target {target}")
    rep = ans["_rep"]
    require(rep.decomposition is not None, "subset without a decomposition")
    _check_split(rep.pair, rep.decomposition, "subset-sum decomposition")


def compute_kim(seq):
    rep = sequences.kim_theorem_check(seq)
    return {"cost": rep.cost, "hypothesis": rep.hypothesis, "witness": rep.witness}


def check_kim(seq, ans) -> None:
    witness = ans["witness"]
    require(not ans["hypothesis"] or witness is not None, "cost < width without witness")
    if witness is not None:
        chosen = set(witness)
        require(0 < len(chosen) < seq.width, f"witness {witness} is not proper")
        sub = [v for i, v in enumerate(seq.entries, 1) if i in chosen]
        rest = [v for i, v in enumerate(seq.entries, 1) if i not in chosen]
        require(_is_catalan(sub) and _is_catalan(rest), f"witness {witness} does not split {seq.entries}")


def certificate_sweep(seed: int, size: str) -> Workload:
    """Two subset-sum instances for every Catalan sequence, so that the
    median item is a subset-sum instance rather than the gap between the
    two kinds."""
    rounds = 2500 if size == "full" else 10
    core_rounds = 50 if size == "full" else 5
    items = []
    for core, rng, n in (
        (True, random.Random("certificate-sweep core"), core_rounds),
        (False, random.Random(seed), rounds),
    ):
        for k in range(n):
            items.append(Item((core, k, 0), core, "subset", random_instance(rng)))
            items.append(Item((core, k, 1), core, "subset", random_instance(rng)))
            items.append(Item((core, k, 2), core, "kim", random_walk(rng)))
    return Workload("certificate-sweep", items, items[:6])


# kind -> (compute, check)
KINDS: dict[str, tuple[Callable, Callable]] = {
    "detector": (compute_detector, check_detector),
    "wide": (compute_wide, check_wide),
    "basis": (compute_basis, check_basis),
    "subset": (compute_subset, check_subset),
    "kim": (compute_kim, check_kim),
}

WORKLOADS = {
    "detector-pool": detector_pool,
    "wide-pairs": wide_pairs,
    "hilbert-basis": hilbert_basis,
    "certificate-sweep": certificate_sweep,
}


def record(item: Item, ans) -> str:
    """The hashed form of an answer: public fields only, in key order."""
    public = {k: v for k, v in sorted(ans.items()) if not k.startswith("_")}
    return repr((item.key, public))
