#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute).

    python3 bench/selftest.py

For every workload, at tiny sizes, it checks that

* a pass reports correct answers and its pinned digest, and the metrics
  built from it carry exactly the names and units in BENCHMARK.json;
* the traced counts (calls, yields, masks swept, witness kinds) repeat
  exactly between two traced passes in fresh interpreters;
* a wrong answer is reported as a failed item, and an answer the referee
  accepts but that differs from the pinned one (one changed record; on
  wide-pairs also a core basis sum that lost its witness) fails the
  comparison with ``pinned.json``;
* shards split a workload's items exactly, in run order, the same way
  for every seed.

Then it runs the benchmark command itself, untraced and traced, on the
quickest workload, and checks that the command exits non-zero without a
result in a directory holding only BENCHMARK.json and the benchmark's
own files.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import worker  # puts the checkout's src/ on sys.path
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
QUICK = "certificate-sweep"  # the workload whose real runs are shortest

# kind -> a wrong answer the referee must reject
WRONG = {
    "detector": lambda ans: {**ans, "count": 0},
    "wide": lambda ans: {**ans, "fast": None if ans["fast"] else ("component", (1,), None, None)},
    "basis": lambda ans: {**ans, "sha256": "0" * 64},
    "subset": lambda ans: {**ans, "subset": (len(ans["values"]) + 1,)},
    "kim": lambda ans: {**ans, "hypothesis": True, "witness": None},
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def expect_metrics(what: str, metrics: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        fail(f"{what} {section}: metric names or units differ: {sorted(set(got) ^ set(want))}")


def traced_child(name: str) -> None:
    """A traced smoke pass, run in a fresh interpreter."""
    work = worker.set_up(name, SEED, "smoke")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    print(json.dumps(worker.measure(work, "smoke", tracer=tracer)))


def traced_pass(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--traced-child", name], capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        fail(f"{name}: traced smoke pass exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tampered(work: workloads.Workload, key: tuple, corrupt) -> dict:
    """A smoke pass in which the answer of item ``key`` is corrupted."""
    item = next(i for i in work.items if i.key == key)
    compute, check = workloads.KINDS[item.kind]

    def compute_corrupted(arg):
        ans = compute(arg)
        return corrupt(ans) if arg is item.arg else ans

    workloads.KINDS[item.kind] = (compute_corrupted, check)
    try:
        return worker.measure(work, "smoke")
    finally:
        workloads.KINDS[item.kind] = (compute, check)


def check_workload(name: str) -> None:
    work = worker.set_up(name, SEED, "smoke")
    plain = worker.measure(work, "smoke")
    if plain["failed"] or not plain["digest_ok"]:
        fail(f"{name}: smoke pass not correct: {plain['failures']} digest_ok={plain['digest_ok']}")
    setup = {"setup_s": 1.0, "setup_probe_s": run.PROBE_REF_S}
    expect_metrics(name, run.end_to_end_metrics([plain, plain], [setup]), "end_to_end")

    first, second = traced_pass(name), traced_pass(name)
    metrics, repeat = run.traced_metrics([plain], [first, second])
    expect_metrics(name, metrics, "per_layer")
    if not repeat:
        fail(f"{name}: traced counts differ between two fresh traced passes")
    if first["failed"] or not first["digest_ok"]:
        fail(f"{name}: traced smoke pass not correct")

    core = sorted(i.key for i in work.items if i.core)
    kind = next(i.kind for i in work.items if i.key == core[0])
    wrong = tampered(work, core[0], WRONG[kind])
    if not wrong["failed"] or wrong["digest_ok"]:
        fail(f"{name}: wrong answer for {core[0]} not reported")
    cases = [(core[-1], lambda ans: {**ans, "changed": True})]
    if name == "wide-pairs":
        cases.append((next(k for k in core if k[0] == "sum"), lambda ans: {**ans, "fast": None}))
    for key, corrupt in cases:
        changed = tampered(work, key, corrupt)
        if changed["failed"] or changed["digest_ok"]:
            fail(f"{name}: changed answer for {key} not caught by the pinned digest")
    print(f"ok {name}: metrics, repeatable traced counts, wrong and changed answers caught")


def check_shards() -> None:
    """Shards split a workload's items without overlap, keep the run
    order, and hold the same items for every seed."""
    split = None
    for seed in (SEED, SEED + 1):
        work = workloads.WORKLOADS["detector-pool"](seed, "smoke")
        parts = [workloads.select_shard(work, k, 3).items for k in range(3)]
        if sorted(i.key for part in parts for i in part) != sorted(i.key for i in work.items):
            fail(f"seed {seed}: shards do not split the items exactly")
        for part in parts:
            if part != [i for i in work.items if i in part]:
                fail(f"seed {seed}: a shard does not keep the run order")
        keys = [sorted(i.key for i in part) for part in parts]
        if split is not None and keys != split:
            fail("shards hold different items for different seeds")
        split = keys
    print("ok shards: exact split, run order kept, independent of the seed")


def command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_command() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = command("--workload", QUICK, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace))
        if proc.returncode != 0:
            fail(f"benchmark command trace={trace} exited {proc.returncode}\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(out) != {"correct", "attempted", "failed", "metrics"} or not out["correct"]:
            fail(f"benchmark command trace={trace}: {out}")
        expect_metrics(f"command trace={trace}", out["metrics"], section)
        print(f"ok benchmark command, trace={trace}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = command("--workload", QUICK, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark without the package did not fail cleanly")
    print("ok bare directory: exits", proc.returncode, "without a result")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--traced-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.traced_child:
        traced_child(args.traced_child)
        return
    for w in SPEC["workloads"]:
        check_workload(w["name"])
    check_shards()
    check_command()


if __name__ == "__main__":
    main()
