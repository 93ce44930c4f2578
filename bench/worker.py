"""One benchmark process: set up a workload and time one cold pass.

Started by ``run.py`` in a fresh interpreter for every pass, so that each
pass starts with cold module-level caches (``cone._SPLIT_MEMO``) and its
peak memory belongs to one workload only.  Writes one JSON object to the
file named by ``--out``.

    python3 bench/worker.py --workload NAME --seed N --t0 MONOTONIC \\
        --mode setup|pass --out PATH [--shard K --shards N] [--trace 0|1 --spans PATH]
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import kostka  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# The host's speed is sampled by timing a fixed computation that uses no
# kostka code, before the first item and after every PROBE_EVERY_S of
# item time (about 3% more run time, none of it inside an item's timing).
PROBE_EVERY_S = 0.05
SETUP_PROBES = 3


@dataclass
class Pass:
    wall_s: float  # the sum of the item latencies
    latencies: dict[tuple, float]  # item key -> seconds
    probes: dict[tuple, float]  # item key -> probe seconds around it
    records: dict[tuple, str]  # item key -> hashed answer record
    failures: list[str]


def probe() -> float:
    """Seconds for one run of the reference computation: pure Python
    tuples, a dict and a list, about 1.1 ms.  The garbage collector is
    off while it runs, so the size of the kostka heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        table: dict[int, int] = {}
        rows = []
        acc = 0
        for i in range(3000):
            row = (i, i * 3, i & 7)
            table[row[2]] = table.get(row[2], 0) + row[1]
            rows.append(row)
            acc += len(rows) % 5
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def time_item(work: workloads.Workload, item: workloads.Item):
    """Compute and check one item: (latency, answer record, failure)."""
    compute, check = workloads.KINDS[item.kind]
    t = time.perf_counter()
    try:
        ans = compute(item.arg)
        check(item.arg, ans)
    except Exception as exc:  # one failing item must not stop the run
        return time.perf_counter() - t, "failed", f"{work.name} {item.key}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - t, workloads.record(item, ans), None


def run_pass(work: workloads.Workload) -> Pass:
    """One timed pass over every item, in run order.  Each item is
    charged the mean of the two probes around the stretch of items it
    belongs to."""
    latencies, probes, records, failures = {}, {}, {}, []
    before, stretch, elapsed = probe(), [], 0.0
    for n, item in enumerate(work.items, 1):
        latencies[item.key], records[item.key], failure = time_item(work, item)
        if failure:
            failures.append(failure)
        stretch.append(item.key)
        elapsed += latencies[item.key]
        if elapsed >= PROBE_EVERY_S or n == len(work.items):
            after = probe()
            for key in stretch:
                probes[key] = (before + after) / 2
            before, stretch, elapsed = after, [], 0.0
    return Pass(math.fsum(latencies.values()), latencies, probes, records, failures)


def answer_digest(records: dict[tuple, str], keys) -> str:
    """sha256 of the answer records of ``keys``, in canonical key order."""
    h = hashlib.sha256()
    for k in sorted(keys):
        h.update(records[k].encode())
        h.update(b"\n")
    return h.hexdigest()


def core_digest(work: workloads.Workload, records: dict[tuple, str]) -> str:
    return answer_digest(records, [i.key for i in work.items if i.core])


def pinned_digest(workload: str, size: str, shard: int, shards: int) -> str:
    """The pinned core digest of one shard; pinned.json lists one per shard."""
    pinned = json.loads((BENCH / "pinned.json").read_text())[size][workload]
    if len(pinned) != shards:
        return f"pinned for {len(pinned)} shards, not {shards}"
    return pinned[shard]


def measure(
    work: workloads.Workload, size: str, shards: int = 1, tracer: tracing.Tracer | None = None
) -> dict:
    """Time one pass over ``work`` (shard ``work.shard`` of ``shards``)
    and summarise it.  ``item_s`` lists the item latencies in canonical
    key order, so passes of the same shard in different processes line
    up, and ``item_probe_s`` the probe times charged to them."""
    p = run_pass(work)
    core = core_digest(work, p.records)
    pinned = pinned_digest(work.name, size, work.shard, shards)
    out = {
        "shard": work.shard,
        "wall_s": p.wall_s,
        "item_s": [p.latencies[k] for k in sorted(p.latencies)],
        "item_probe_s": [p.probes[k] for k in sorted(p.latencies)],
        "attempted": len(p.latencies),
        "failed": len(p.failures),
        "failures": p.failures[:5],
        "core_sha256": core,
        "pinned_sha256": pinned,
        "digest_ok": core == pinned,
        "answers_sha256": answer_digest(p.records, p.records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out.update(layers=tracer.stats(), absent=tracer.absent)
    return out


def set_up(workload: str, seed: int, size: str, shard: int = 0, shards: int = 1) -> workloads.Workload:
    """Generate the inputs of one shard and run the warm-up items untimed."""
    work = workloads.select_shard(workloads.WORKLOADS[workload](seed, size), shard, shards)
    for item in work.warmup:
        compute, check = workloads.KINDS[item.kind]
        check(item.arg, compute(item.arg))
    return work


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() just before this process started")
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--out", required=True, help="where the JSON result goes")
    ap.add_argument("--shard", type=int, default=0)
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced pass writes its spans (gzipped JSON)")
    args = ap.parse_args()

    kostka_dir = Path(kostka.__file__).resolve().parent
    if kostka_dir != ROOT / "src" / "kostka":
        sys.exit(f"kostka imported from {kostka_dir}, not from this checkout")

    work = set_up(args.workload, args.seed, "full", args.shard, args.shards)
    setup_s = time.monotonic() - args.t0
    setup = {"setup_s": setup_s, "setup_probe_s": statistics.median(probe() for _ in range(SETUP_PROBES))}
    out_path = Path(args.out)
    if args.mode == "setup":
        out_path.write_text(json.dumps(setup))
        return

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    out = {**setup, **measure(work, "full", args.shards, tracer)}
    if tracer is not None and args.spans:
        with gzip.open(args.spans, "wt", compresslevel=1) as fh:
            json.dump({"names": tracer.names, **tracer.spans(start)}, fh)
    out_path.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
