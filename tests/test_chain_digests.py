"""Which report lines scripts/chain_digests.py compares between two sides."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def chain_digests():
    # the script imports bench_pairs from its own directory
    sys.path.insert(0, str(SCRIPTS))
    try:
        spec = importlib.util.spec_from_file_location(
            "chain_digests", SCRIPTS / "chain_digests.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


def rows(base_lines, change_lines):
    return {"report": list(base_lines)}, {"report": list(change_lines)}


def test_shared_lines_in_another_order_hash_equal(chain_digests):
    base, change = rows(["ess 12.5", "accept 0.4", "swaps 3"],
                        ["swaps 3", "ess 12.5", "accept 0.4"])
    assert chain_digests.hash_shared_reports(base, change) == set()
    assert base["report"] == change["report"]


def test_one_sided_key_is_returned_and_not_compared(chain_digests):
    base, change = rows(["ess 12.5", "old_counter 7"],
                        ["new_counter 1", "ess 12.5"])
    one_sided = chain_digests.hash_shared_reports(base, change)
    assert one_sided == {("base", "old_counter"), ("change", "new_counter")}
    assert base["report"] == change["report"]


def test_changed_shared_line_differs(chain_digests):
    base, change = rows(["ess 12.5", "accept 0.4"],
                        ["ess 12.6", "accept 0.4"])
    assert chain_digests.hash_shared_reports(base, change) == set()
    assert base["report"] != change["report"]
