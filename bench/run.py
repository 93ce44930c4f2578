#!/usr/bin/env python3
"""Benchmark of the kostka package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass over the workload runs in a
fresh interpreter (``worker.py``) that sets up, times one cold pass and
exits; up to two passes run side by side, never more than the CPUs the
run may use.  Between items the worker times a fixed probe computation
that uses no kostka code, and every time is scaled to the host speed at
which the probe takes PROBE_REF_S, so that the host's drifting speed
cancels out:

* ``--trace 0``: two passes of every shard, and on an unsharded workload
  more while the next one should end within S seconds.  An item's
  latency is its lower median over the passes, and ``wall_s`` is the sum
  of those.  ``setup_s`` is
  the median set-up time of the passes and of extra set-up-only
  processes, at least seven in all.
* ``--trace 1``: untraced passes for S/2 seconds, then traced passes for
  S/2 seconds.  Prints the per-layer metrics of the traced passes,
  ``bench.trace_overhead_ratio`` (traced over untraced ``wall_s``),
  ``bench.raw_wall_s`` (the untraced ``wall_s`` as measured, unscaled)
  and ``bench.probe_ms`` (the median probe time).

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (provenance, tail
percentile and sample count, answer digests, failures) go to the lines
before it and to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing  # imports no kostka module; the orchestrator never does

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
# The keys of workloads.WORKLOADS, repeated because this process never
# imports kostka (workloads does).
WORKLOADS = ("detector-pool", "wide-pairs", "hilbert-basis", "certificate-sweep")
MIN_PASSES = 2  # every item is timed at least twice
# A whole detector-pool pass takes 10-20 s, too long to time each item
# several times in one run, so its passes each solve one of three shards
# (every third pair in canonical order), cold; the shards take turns.  A
# sharded workload runs exactly MIN_PASSES rounds, so that every item has
# the same number of samples in every run.
SHARDS = {"detector-pool": 3}
SETUPS = 7  # set-ups per untraced run, for the median setup_s
# Times are reported at the host speed at which the worker's probe (a
# fixed computation that uses no kostka code) takes this long: its
# typical time on the host the benchmark was tuned on.
PROBE_REF_S = 1.1e-3
# Passes run side by side, up to two: each worker is a single thread, so
# two never compete for one CPU.
LANES = max(1, min(2, len(os.sched_getaffinity(0))))
# numpy must not start thread pools of its own in a worker.
WORKER_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # a run must end within 180 s


class WorkerFailed(Exception):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Lanes:
    """Worker processes, at most LANES at a time, each writing its result
    to a file under .bench_out/."""

    def __init__(self, deadline: float, tag: str):
        self.deadline = deadline
        self.tag = tag
        self.count = 0
        self.running: dict[subprocess.Popen, tuple[Path, float]] = {}

    def start(self, *args: str) -> None:
        out = OUT / f"worker-{self.tag}-{self.count}.json"
        self.count += 1
        out.unlink(missing_ok=True)
        t0 = time.monotonic()
        cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--out", str(out), "--t0", repr(t0)]
        with open(out.with_suffix(".err"), "w") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err, env=WORKER_ENV)
        self.running[proc] = (out, t0)

    def wait_one(self) -> tuple[dict, float]:
        """Wait for some running worker to end; its result and run time."""
        while True:
            for proc, (out, t0) in self.running.items():
                if proc.poll() is not None:
                    del self.running[proc]
                    if proc.returncode != 0:
                        err = out.with_suffix(".err").read_text().strip()[-2000:]
                        raise WorkerFailed(f"worker exited {proc.returncode}: {err}")
                    return json.loads(out.read_text()), time.monotonic() - t0
            if time.monotonic() > self.deadline:
                raise WorkerFailed("worker timed out")
            time.sleep(0.02)

    def stop(self) -> None:
        """Kill any worker still running and wait for it to end."""
        for proc in self.running:
            proc.kill()
        for proc in self.running:
            proc.wait()
        self.running.clear()


def passes(
    common: list[str], trace: int, seconds: float, deadline: float, least: int = MIN_PASSES
) -> list[dict]:
    """Cold passes, LANES at a time: ``least`` of every shard, and on an
    unsharded workload more while the next should end within ``seconds``
    (judged by the median pass so far)."""
    tag = f"{common[1]}-seed{common[3]}-trace{trace}"
    shards = SHARDS.get(common[1], 1)
    lanes = Lanes(deadline, tag)
    runs: list[dict] = []
    took: list[float] = []
    begin = time.monotonic()
    try:
        while True:
            while len(lanes.running) < LANES and (
                lanes.count < least * shards
                or (shards == 1 and took and time.monotonic() - begin + statistics.median(took) <= seconds)
            ):
                extra = []
                if trace:
                    extra = ["--trace", "1", "--spans", str(OUT / f"spans-{tag}-pass{lanes.count}.json.gz")]
                shard = ["--shard", str(lanes.count % shards), "--shards", str(shards)]
                lanes.start(*common, "--mode", "pass", *shard, *extra)
            if not lanes.running:
                return runs
            result, t = lanes.wait_one()
            runs.append(result)
            took.append(t)
    finally:
        lanes.stop()


def extra_setups(common: list[str], n: int, deadline: float) -> list[dict]:
    """Results of ``n`` set-up-only workers, LANES at a time."""
    lanes = Lanes(deadline, f"{common[1]}-seed{common[3]}-setup")
    setups: list[dict] = []
    try:
        while len(setups) < n:
            while len(lanes.running) < LANES and lanes.count < n:
                lanes.start(*common, "--mode", "setup")
            setups.append(lanes.wait_one()[0])
    finally:
        lanes.stop()
    return setups


def by_shard(runs: list[dict]) -> list[list[dict]]:
    """The passes grouped by the shard they solved."""
    groups: dict[int, list[dict]] = {}
    for r in runs:
        groups.setdefault(r["shard"], []).append(r)
    return [groups[k] for k in sorted(groups)]


def item_latencies(runs: list[dict], scaled: bool = True) -> list[float]:
    """Each item's lower median latency over the cold passes of its shard
    (of two passes the faster, so that a stall in one pass does not
    move the tail), each pass's latency scaled to the reference speed
    (PROBE_REF_S over the probe time charged to the item) unless
    ``scaled`` is false."""
    out = []
    for group in by_shard(runs):
        lat = zip(*(r["item_s"] for r in group))
        prb = zip(*(r["item_probe_s"] for r in group))
        for ts, ps in zip(lat, prb):
            out.append(statistics.median_low(t * PROBE_REF_S / p if scaled else t for t, p in zip(ts, ps)))
    return out


def wall(runs: list[dict], scaled: bool = True) -> float:
    """Time to solution for every item: the sum of the item latencies."""
    return math.fsum(item_latencies(runs, scaled))


def setup_time(setups: list[dict], scaled: bool = True) -> float:
    """Median set-up time, each scaled by the probes right after it."""
    return statistics.median(
        r["setup_s"] * PROBE_REF_S / r["setup_probe_s"] if scaled else r["setup_s"] for r in setups
    )


def latency_stats(latencies: list[float]) -> dict:
    """Median and tail item latency in ms.  The tail is the highest
    percentile with at least ten slower items (the slowest item when there
    are fewer than eleven)."""
    s = sorted(latencies)
    n = len(s)
    i = n - 11 if n >= 11 else n - 1
    return {
        "p50_ms": statistics.median(s) * 1e3,
        "tail_ms": s[i] * 1e3,
        "tail_pct": 100.0 * (i + 1) / n,
        "samples": n,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(runs: list[dict], setups: list[dict]) -> dict:
    lat = latency_stats(item_latencies(runs))
    return {
        "setup_s": metric(setup_time(setups), "s"),
        "wall_s": metric(wall(runs), "s"),
        "item_p50_ms": metric(lat["p50_ms"], "ms"),
        "item_tail_ms": metric(lat["tail_ms"], "ms"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def traced_metrics(plain: list[dict], runs: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes, and whether their counts
    repeat exactly from pass to pass."""
    values, repeat = tracing.layer_metrics([[r["layers"] for r in group] for group in by_shard(runs)])
    values["bench.trace_overhead_ratio"] = wall(runs) / wall(plain)
    values["bench.raw_wall_s"] = wall(plain, scaled=False)
    values["bench.probe_ms"] = statistics.median(p for r in plain for p in r["item_probe_s"]) * 1e3
    return {name: metric(values[name], unit) for name, unit in tracing.metric_units().items()}, repeat


def end_to_end(common: list[str], seconds: float, deadline: float):
    runs = passes(common, 0, seconds, deadline)
    setups = runs + extra_setups(common, SETUPS - len(runs), deadline)
    lat = latency_stats(item_latencies(runs))
    probes = [p for r in runs for p in r["item_probe_s"]]
    details = [
        f"setup_s over {len(setups)} processes, as measured: "
        + ", ".join(f"{r['setup_s']:.4f}" for r in setups),
        f"wall_s: sum of item lower medians over {len(runs)} cold passes, {LANES} at a time; "
        f"as measured {wall(runs, scaled=False):.4f} s; pass times "
        + ", ".join(f"{r['wall_s']:.4f}" for r in runs),
        f"probe: median {statistics.median(probes) * 1e3:.4f} ms, reference {PROBE_REF_S * 1e3:.4f} ms, "
        f"quartiles {', '.join(f'{q * 1e3:.4f}' for q in statistics.quantiles(probes, n=4))} ms",
        f"item latencies: lower median over {len(runs)} passes of each of {lat['samples']} items; "
        f"item_tail_ms is p{lat['tail_pct']:.2f}",
    ]
    return runs, end_to_end_metrics(runs, setups), True, details


def traced(common: list[str], seconds: float, deadline: float):
    plain = passes(common, 0, seconds / 2, deadline, least=1)  # the base of the overhead ratio only
    runs = passes(common, 1, seconds / 2, deadline)
    metrics, repeat = traced_metrics(plain, runs)
    details = [
        f"traced wall_s {wall(runs):.4f} over {len(runs)} passes, "
        f"untraced {wall(plain):.4f} over {len(plain)} passes",
        f"traced counts repeat across passes: {repeat}",
        f"spans written to {OUT.relative_to(ROOT)}/spans-{common[1]}-seed{common[3]}-trace1-pass<k>.json.gz",
    ]
    if runs[-1]["absent"]:
        details.append("absent bindings (reported as zero): " + ", ".join(runs[-1]["absent"]))
    return plain + runs, metrics, repeat, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # On SIGTERM unwind normally, so that running workers are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "kostka" / "__init__.py").is_file():
        print(f"no kostka package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            runs, metrics, repeat, details = traced(common, args.seconds, deadline)
        else:
            runs, metrics, repeat, details = end_to_end(common, args.seconds, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    groups = by_shard(runs)
    stable = all(len({r["answers_sha256"] for r in group}) == 1 for group in groups)
    digest_ok = all(r["digest_ok"] for r in runs)
    correct = failed == 0 and digest_ok and stable and repeat
    last = runs[-1]
    firsts = [group[0] for group in groups]
    provenance = {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": last["python"],
        "numpy": last["numpy"],
        "commit": git_commit(),
    }
    details += [
        "provenance: " + json.dumps(provenance, sort_keys=True),
        f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6g}",
        f"core answer sha256 by shard {' '.join(r['core_sha256'] for r in firsts)} "
        + (
            "matches the pinned values"
            if digest_ok
            else f"MISMATCH in {args.workload}: pinned {' '.join(r['pinned_sha256'] for r in firsts)}"
        ),
        f"all answers sha256 by shard (seed {args.seed}): {' '.join(r['answers_sha256'] for r in firsts)}",
    ]
    if not stable:
        details.append(f"ANSWERS CHANGED between passes in {args.workload}")
    for r in runs:
        details += [f"FAILED {msg}" for msg in r["failures"]]

    result = {"args": vars(args), "provenance": provenance, "details": details, "workers": runs, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    for line in details:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
