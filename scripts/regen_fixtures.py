#!/usr/bin/env python3
"""Recompute the shipped Hilbert-basis catalogs.

Writes ``basis_r{1..N}.json`` into ``src/kostka/fixtures`` (or a chosen
directory).  Run this after touching the basis engine, then eyeball
``git diff`` — the files are deterministic, so any churn is a behaviour
change.  Beside each rank it prints the time taken and the process's
peak resident memory so far (Linux reports ``ru_maxrss`` in KiB).
``--max-rank`` above ``config.RANK_CAP`` is refused before any file is
written.
"""

from __future__ import annotations

import argparse
import resource
import time
from pathlib import Path

from kostka import config
from kostka.cone import default_fixture_path, hilbert_basis


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=config.RANK_CAP)
    ap.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="target directory (default: the installed package's fixtures/)",
    )
    args = ap.parse_args()
    if args.max_rank > config.RANK_CAP:
        ap.error(f"--max-rank {args.max_rank} exceeds config.RANK_CAP = {config.RANK_CAP}")

    for rank in range(1, args.max_rank + 1):
        t0 = time.perf_counter()
        catalog = hilbert_basis(rank)
        path = default_fixture_path(rank, args.out_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        catalog.save(path)
        dt = time.perf_counter() - t0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"rank {rank}: {catalog.count:4d} elements  {dt:7.2f}s  "
            f"peak {peak_mb:6.1f} MB  -> {path}"
        )


if __name__ == "__main__":
    main()
