"""The gain verdict of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# base quartiles (exclusive method) 1.175, 1.45, 1.725: IQR 0.55
BASE = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


@pytest.mark.parametrize("change, wins, holds", [
    # median 0.89, 0.56 ahead: 10 wins and gap > IQR
    ([b - 0.56 for b in BASE], 10, True),
    # 0.4 ahead in every pair, but the gap is inside the IQR
    ([b - 0.4 for b in BASE], 10, False),
    # a far larger gap, but the last two pairs tie: 8 wins of 10
    ([0.1] * 8 + [1.8, 1.9], 8, False),
    # the last pair lost: 9 wins of 10, and the gap 1.35 > IQR
    ([0.1] * 9 + [2.0], 9, True),
])
def test_lower_is_better(bench_pairs, change, wins, holds):
    assert bench_pairs.gain_verdict(BASE, change, "lower") == (wins, holds)


def test_higher_is_better_mirrors_lower(bench_pairs):
    base = [-b for b in BASE]
    change = [-(b - 0.56) for b in BASE]
    assert bench_pairs.gain_verdict(base, change, "higher") == (10, True)
    assert bench_pairs.gain_verdict(base, change, "lower") == (0, False)


def test_quartiles(bench_pairs):
    assert bench_pairs.quartiles(BASE) == pytest.approx((1.175, 1.45, 1.725))
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
