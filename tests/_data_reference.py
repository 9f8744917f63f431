"""Frozen reference for the dataset table format.

These are the per-field Python loops that sapt.data used to read and
write label-last CSV files before numpy parsed and wrote them. The tests
require load_csv to give the same bits and save_csv to write the same
bytes. Do not edit them to follow data.py.
"""
import numpy as np


def read_table(path):
    """(features, labels) of a valid label-last CSV file."""
    rows, labels = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            *feats, raw_label = [float(p) for p in line.split(",")]
            rows.append(feats)
            labels.append(int(raw_label))
    return (np.asarray(rows, dtype=np.float64),
            np.asarray(labels, dtype=np.int64))


def write_table(features, labels, path):
    with open(path, "w") as fh:
        for feats, label in zip(features, labels):
            cols = [f"{x:.17g}" for x in feats] + [str(int(label))]
            fh.write(",".join(cols) + "\n")
