from __future__ import annotations

from functools import lru_cache
from pathlib import Path

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
