"""The synthetic teacher data are reproducible and cover every class.

Run with the package and this directory's parent on the path:

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from workloads import SYNTH_CLASSES, teacher_dataset, write_teacher_csv  # noqa: E402


def test_same_seed_same_csv_bytes(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_teacher_csv(5, first)
    write_teacher_csv(5, second)
    assert first.read_bytes() == second.read_bytes()
    write_teacher_csv(6, second)
    assert first.read_bytes() != second.read_bytes()


def test_every_class_present():
    for seed in (0, 1, 2):
        data = teacher_dataset(seed)
        counts = np.bincount(data.labels, minlength=SYNTH_CLASSES)
        assert counts.shape == (SYNTH_CLASSES,)
        assert counts.min() > 0
