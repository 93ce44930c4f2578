from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import oracles
from kostka import partitions, ryser
from kostka.partitions import KostkaPair, Partition

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def fresh_canonical_memo():
    """Start every test with no canonical matrix remembered, so a test
    that counts runs of the fixing procedure sees the same count in any
    order."""
    ryser._canonical.cache_clear()


@pytest.fixture()
def fixing_forbidden(monkeypatch):
    """Fail the test if Ryser's column-fixing procedure starts."""

    def spy(pair):
        pytest.fail(f"the fixing procedure ran on {pair}")

    monkeypatch.setattr(ryser, "_fixing_stages", spy)


@pytest.fixture
def as_partition_calls(monkeypatch) -> list:
    """Every argument passed to ``partitions.as_partition`` from now on."""
    calls = []
    real = partitions.as_partition

    def spy(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(partitions, "as_partition", spy)
    return calls


def read_matrix_blocks(name: str) -> list[tuple[tuple[int, ...], ...]]:
    """Blank-line separated integer matrices from tests/fixtures."""
    text = (FIXTURES / name).read_text()
    blocks = []
    for chunk in text.split("\n\n"):
        if not chunk.strip():
            continue
        blocks.append(
            tuple(
                tuple(int(tok) for tok in line.split())
                for line in chunk.strip().splitlines()
            )
        )
    return blocks


@lru_cache(maxsize=None)
def partition_pool(
    max_boxes: int, max_part: int = 0, max_len: int = 0
) -> tuple[Partition, ...]:
    """Every partition of 0..max_boxes under the given bounds."""
    pool: list[Partition] = []
    for n in range(max_boxes + 1):
        pool.extend(oracles.partitions(n, max_part or None, max_len or None))
    return tuple(pool)


@lru_cache(maxsize=None)
def cone_pair_pool(max_boxes: int, max_width: int = 0) -> tuple[KostkaPair, ...]:
    """Every nonzero dominance pair with at most max_boxes boxes, at
    minimal rank."""
    return tuple(
        KostkaPair(lam, mu)
        for lam, mu in oracles.cone_pairs(max_boxes, max_width or max_boxes, max_boxes)
    )


def partitions_st(max_boxes: int = 12, max_part: int = 0, max_len: int = 0):
    return st.sampled_from(partition_pool(max_boxes, max_part, max_len))


def cone_pairs_st(max_boxes: int = 12, max_width: int = 0):
    return st.sampled_from(cone_pair_pool(max_boxes, max_width))


@pytest.fixture(scope="session")
def running_pair() -> KostkaPair:
    """The worked 34-box example used throughout the golden tests."""
    return KostkaPair((8, 7, 7, 7, 3, 2), (7, 7, 4, 4, 4, 4, 4))


def outcome(fn, *args, **kwargs) -> tuple[type, str] | None:
    """The exception type and message if the call raises, else None."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


def random_int8_matrices(rng: random.Random, count: int) -> Iterator[np.ndarray]:
    """Seeded int8 matrices of up to 8 x 8 with entries -1..2.  Every
    other one is a 0/1 matrix with its rows and columns sorted by
    decreasing sum and its empty columns dropped, so that its margins
    are partitions; one in three of those then has one cell set to -1,
    0, 1 or 2."""
    for k in range(count):
        r, w = rng.randint(0, 8), rng.randint(0, 8)
        if k % 2:
            arr = np.array(
                [[rng.choice((-1, 0, 1, 2)) for _ in range(w)] for _ in range(r)],
                dtype=np.int8,
            ).reshape(r, w)
        else:
            arr = np.array(
                [[int(rng.random() < 0.5) for _ in range(w)] for _ in range(r)],
                dtype=np.int8,
            ).reshape(r, w)
            arr = arr[np.argsort(-arr.sum(axis=1), kind="stable")]
            arr = arr[:, np.argsort(-arr.sum(axis=0), kind="stable")]
            arr = arr[:, arr.sum(axis=0) > 0]
            if arr.size and k % 3 == 0:
                i, j = rng.randrange(arr.shape[0]), rng.randrange(arr.shape[1])
                arr[i, j] = rng.choice((-1, 0, 1, 2))
        yield arr


def one_cell_mutations(
    arr: np.ndarray, rng: random.Random, count: int
) -> Iterator[np.ndarray]:
    """``count`` copies of ``arr``, each with one cell moved to another
    value in -1..2."""
    if not arr.size:
        return
    for _ in range(count):
        i, j = rng.randrange(arr.shape[0]), rng.randrange(arr.shape[1])
        mutant = arr.copy()
        mutant[i, j] = rng.choice([v for v in (-1, 0, 1, 2) if v != arr[i, j]])
        yield mutant
