"""Every cap in ``config`` is read by the function it guards when that
function is called: lowering the constant at run time makes the guard
refuse an input it accepts at the default."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import kostka
from kostka import config
from kostka.cone import (
    decompose,
    extremal_rays,
    hilbert_basis,
    is_extremal,
    width_bound_audit,
)
from kostka.errors import (
    LengthCapExceeded,
    RankCapExceeded,
    SizeCapExceeded,
    WidthCapExceeded,
)
from kostka.lr import LrTriple, growth_table, lr_coefficient, verify_counterexample
from kostka.partitions import KostkaPair, kostka_count
from kostka.ryser import matrix_reducible, ryser_canonical
from kostka.sequences import (
    CatalanSeq,
    catalan_reducible,
    kim_theorem_check,
)
from kostka.subsetsum import (
    SubsetSumInstance,
    reduction_equivalence_check,
    subset_sum_oracle,
)

WORKED = KostkaPair((8, 7, 7, 7, 3, 2), (7, 7, 4, 4, 4, 4, 4))  # 34 boxes, width 8, rank 7
SMALL = KostkaPair((3, 2, 1), (2, 2, 1, 1))  # 6 boxes
CATALAN_16 = CatalanSeq((3, 2, 1, -2, 1, -2, -1, -1, 2, -1, 2, 1, -2, -1, -1, -1))
INSTANCE = SubsetSumInstance((3, 2, 1), 4)  # 3 values, a 13-box reduction pair


def case(name, cap, lowered, call, refusal):
    return pytest.param(cap, lowered, call, refusal, id=f"{cap}-{name}")


# the cap, a value just below the input, the guarded call, its refusal
CASES = [
    case("kostka_count", "BOX_CAP", 5, lambda: kostka_count(SMALL.lam, SMALL.mu), SizeCapExceeded),
    case("decompose", "SPLIT_CAP", 5, lambda: decompose(SMALL), SizeCapExceeded),
    case(
        "reduction_equivalence_check",
        "SPLIT_CAP",
        12,
        lambda: reduction_equivalence_check(INSTANCE),
        SizeCapExceeded,
    ),
    case(
        "matrix_reducible",
        "SWEEP_CAP",
        1777,  # (2^8 - 2) * 7 cells
        lambda: matrix_reducible(ryser_canonical(WORKED)),
        WidthCapExceeded,
    ),
    case("ryser_canonical", "CELL_CAP", 55, lambda: ryser_canonical(WORKED), WidthCapExceeded),
    case("hilbert_basis", "RANK_CAP", 2, lambda: hilbert_basis(3), RankCapExceeded),
    case("width_bound_audit", "RANK_CAP", 2, lambda: width_bound_audit(3), RankCapExceeded),
    case("extremal_rays", "RAY_RANK_CAP", 4, lambda: extremal_rays(5), RankCapExceeded),
    case(
        "is_extremal",
        "RAY_RANK_CAP",
        4,
        lambda: is_extremal(KostkaPair((2, 2), (2, 1, 1), rank=5)),
        RankCapExceeded,
    ),
    case(
        "catalan_reducible",
        "STATE_CAP",
        129,  # a state bound of 130
        lambda: catalan_reducible(CATALAN_16),
        LengthCapExceeded,
    ),
    case(
        "kim_theorem_check",
        "STATE_CAP",
        129,
        lambda: kim_theorem_check(CATALAN_16),
        LengthCapExceeded,
    ),
    case(
        "subset_sum_oracle", "SPLIT_CAP", 12, lambda: subset_sum_oracle(INSTANCE), SizeCapExceeded
    ),
    case(
        "lr_coefficient",
        "LR_BOX_CAP",
        5,
        lambda: lr_coefficient(LrTriple((2, 1), (2, 1), (3, 2, 1), rank=3)),
        SizeCapExceeded,
    ),
    case("verify_counterexample", "FAMILY_CAP", 4, lambda: verify_counterexample(5), RankCapExceeded),
    case("growth_table", "FAMILY_CAP", 7, lambda: growth_table(8), RankCapExceeded),
]


@pytest.mark.parametrize("cap, lowered, call, refusal", CASES)
def test_lowered_cap_refuses_at_the_call(monkeypatch, cap, lowered, call, refusal):
    call()  # accepted at the default
    monkeypatch.setattr(config, cap, lowered)
    with pytest.raises(refusal, match=rf"exceeds? cap {lowered}$|outside \[1, {lowered}\]$"):
        call()


def test_every_cap_has_a_row():
    # a constant of config.py with no row above could be lowered, or its
    # guard dropped, with no test noticing; no test lowers the two
    # exempt ones, which bound entries and buffer sizes
    rows = {param.values[0] for param in CASES}
    constants = {name for name in vars(config) if name.isupper()}
    assert constants - rows == {"INT_CAP", "CHUNK_BITS"}
    assert rows <= constants


def test_lowered_lr_cap_skips_the_family_count(monkeypatch):
    assert verify_counterexample(2).coefficient is not None
    monkeypatch.setattr(config, "LR_BOX_CAP", 5)
    assert verify_counterexample(2).coefficient is None


def test_kim_check_takes_the_sweep_cap():
    # the check has no cap of its own: it takes the sublist search's,
    # which bounds states, not length
    report = kim_theorem_check(CatalanSeq((1, -1) * 11))
    assert (report.width, report.hypothesis) == (22, False)
    assert not hasattr(config, "KIM_CAP")
    assert not hasattr(config, "LENGTH_CAP")


def test_no_function_takes_a_cap_keyword():
    for info in pkgutil.iter_modules(kostka.__path__):
        module = importlib.import_module(f"kostka.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                params = inspect.signature(obj).parameters
                assert not {"cap", "box_cap"} & set(params), f"{info.name}.{name}"
