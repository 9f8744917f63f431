"""Dataset loading, stratified splitting and the registry.

CSV convention: comma separated, no header, no comment syntax, feature
columns first and one non-negative integer class label last; lines that
are empty or only white space are skipped. load_csv is the one parser of
a dataset file: numpy parses the table and the checks run on whole
columns. It keeps features raw and reads any feature or class count it
is not given from the file. save_csv writes the same format with numpy.
split() min-max scales both sides with the train rows' statistics.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .bnn import NetworkTopology
from .exceptions import ConfigError, ContractError, DataFormatError

DEFAULT_TRAIN_FRACTION = 0.6


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with integer labels; the one-hot targets
    and the labels' class-major positions are derived from the labels."""

    features: np.ndarray   # N x I float64
    labels: np.ndarray     # N ints in 0..K-1
    class_count: int
    name: str = ""

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ContractError("dataset needs at least one sample row")
        if not np.all(np.isfinite(self.features)):
            raise ContractError("dataset features must be finite")
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ContractError("features and labels row counts differ")
        # N x K float64, read by the gradient and the Brier score
        object.__setattr__(self, "one_hot",
                           one_hot(self.labels, self.class_count))
        # flat positions of the labels in a class-major (K, N) array, the
        # layout in which the likelihood pass shifts its outputs at every N
        object.__setattr__(self, "class_label_index",
                           self.labels * n + np.arange(n))

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]


def one_hot(labels, class_count: int) -> np.ndarray:
    """Indicator matrix: row t has a single 1 in column labels[t]."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ContractError(f"labels must be 1-d, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise DataFormatError(
            f"label outside 0..{class_count - 1}: "
            f"min {labels.min()}, max {labels.max()}"
        )
    z = np.zeros((labels.size, class_count), dtype=np.float64)
    z[np.arange(labels.size), labels] = 1.0
    return z


def make_dataset(features, labels, class_count: int,
                 name: str = "") -> Dataset:
    return Dataset(np.asarray(features, dtype=np.float64),
                   np.asarray(labels, dtype=np.int64), class_count, name)


def _file_line(raw, row: int) -> int:
    """The line, counted from 1, of the row-th non-blank line of raw."""
    return [n for n, line in enumerate(raw, 1) if not line.isspace()][row]


def _rejects(lines) -> bool:
    try:
        np.loadtxt(lines, delimiter=",", comments=None)
    except ValueError:
        return True
    return False


def load_csv(path, feature_count: int | None = None,
             class_count: int | None = None, name: str = "") -> Dataset:
    """Parse a label-last CSV file into an unnormalized Dataset.

    numpy parses the non-blank lines; every row is checked against the
    counts, and an error about a row names its line in the file,
    counted from 1 with blank lines included. A count left None is
    read from the file: the column count minus one (at least one), and
    the largest label plus one, where every class below it must have a
    row, as split needs; so an inferred class count never exceeds the
    row count.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read as text: {exc}") from None
    lines = [line for line in raw if not line.isspace()]
    if not lines:
        raise DataFormatError(f"{path}: no data rows")
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # the shortest prefix numpy rejects ends at the line its error is on
        bad = bisect.bisect_left(range(len(lines)), True,
                                 key=lambda k: _rejects(lines[:k + 1]))
        raise DataFormatError(f"{path}: line {_file_line(raw, bad)}: "
                              f"{str(exc).split(' at row ')[0]}") from None
    if feature_count is None:
        feature_count = max(table.shape[1] - 1, 1)
    if table.shape[1] != feature_count + 1:
        raise DataFormatError(f"{path}: expected {feature_count + 1} "
                              f"columns, got {table.shape[1]}")
    features, labels = table[:, :-1], table[:, -1]
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        line = _file_line(raw, finite.argmin())
        raise DataFormatError(f"{path}: line {line}: non-finite feature value")
    limit = labels.size if class_count is None else class_count
    bad = np.flatnonzero(~((labels >= 0) & (labels < limit)
                           & (labels == np.floor(labels))))
    if bad.size:
        raise DataFormatError(f"{path}: line {_file_line(raw, bad[0])}: label "
                              f"{float(labels[bad[0]])!r} is not an integer "
                              f"in 0..{limit - 1}")
    if class_count is None:
        empty = np.flatnonzero(np.bincount(labels.astype(np.int64)) == 0)
        if empty.size:
            raise DataFormatError(f"{path}: class {empty[0]} has no row; "
                                  f"inferred labels must cover 0.."
                                  f"{int(labels.max())}")
        class_count = int(labels.max()) + 1
    return make_dataset(features, labels, class_count, name=name or path.stem)


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back out in the label-last CSV convention.

    Floats use repr precision so a parse/serialize/parse round trip is
    bit-exact.
    """
    np.savetxt(path, np.column_stack([dataset.features, dataset.labels]),
               fmt=["%.17g"] * dataset.feature_count + ["%d"], delimiter=",")


def split(dataset: Dataset, train_fraction: float = DEFAULT_TRAIN_FRACTION,
          seed: int = 0):
    """Stratified train/test split, deterministic for a given seed.

    Every class contributes round(train_fraction * count) rows to the
    train side. Both sides are min-max scaled with the train rows' column
    min and range; a column constant on the train side maps to 0.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ContractError(f"train_fraction must be in (0,1), got {train_fraction}")
    if seed < 0:
        raise ContractError(f"split seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for cls in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == cls)
        perm = rng.permutation(idx)
        n_train = int(round(train_fraction * idx.size))
        if n_train == 0:
            raise DataFormatError(
                f"class {cls} would be absent from the train split "
                f"({idx.size} rows at fraction {train_fraction})"
            )
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    if test_idx.size == 0:
        raise DataFormatError("test split is empty; lower the train fraction")
    lo = dataset.features[train_idx].min(axis=0)
    span = dataset.features[train_idx].max(axis=0) - lo
    safe_span = np.where(span > 0, span, 1.0)

    def subset(indices):
        scaled = np.where(span > 0,
                          (dataset.features[indices] - lo) / safe_span, 0.0)
        return Dataset(scaled, dataset.labels[indices],
                       dataset.class_count, dataset.name)

    return subset(train_idx), subset(test_idx)


@dataclass(frozen=True)
class RegistryEntry:
    """Per-dataset shape and model sizing, one row of REGISTRY.

    surrogate_hidden is not set by any entry and the sampler ignores it
    (the surrogate is a linear ridge fit with no hidden layers); only
    perfbench/pipeline.py reads it, to pass on to SamplerConfig.
    """

    name: str
    attribute_count: int
    class_count: int
    hidden_units: int
    data_file: str
    bundled: bool
    surrogate_hidden: tuple = (64, 16)

    def topology(self) -> NetworkTopology:
        return NetworkTopology(self.attribute_count, self.hidden_units,
                               self.class_count)


# The registered datasets, by name. attribute_count and class_count
# describe the CSV (label-last, no header); hidden_units is the
# classifier's hidden layer width. data_file resolves against the
# packaged datasets directory, then $SAPT_DATA_DIR, then ./datasets.
# Entries with bundled=False need scripts/fetch_datasets.py first.
REGISTRY = {e.name: e for e in (
    RegistryEntry("iris", 4, 3, 12, "iris.csv", bundled=True),
    RegistryEntry("cancer", 9, 2, 12, "cancer.csv", bundled=True),
    RegistryEntry("ionosphere", 34, 2, 50, "ionosphere.csv", bundled=False),
    RegistryEntry("bank", 20, 2, 50, "bank.csv", bundled=False),
    RegistryEntry("pendigit", 16, 10, 30, "pendigit.csv", bundled=False),
    RegistryEntry("chess", 6, 18, 25, "chess.csv", bundled=False),
)}


def registry_entry(name: str) -> RegistryEntry:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown dataset {name!r}; registry has: {known}")
    return REGISTRY[name]


def resolve_data_file(entry: RegistryEntry) -> Path:
    """Locate a registry dataset file.

    Search order: packaged data directory, $SAPT_DATA_DIR, ./datasets.
    Non-bundled datasets must be fetched first (scripts/fetch_datasets.py).
    """
    packaged = resources.files("sapt.datasets") / entry.data_file
    if packaged.is_file():
        return Path(str(packaged))
    candidates = []
    env_dir = os.environ.get("SAPT_DATA_DIR")
    if env_dir:
        candidates.append(Path(env_dir) / entry.data_file)
    candidates.append(Path("datasets") / entry.data_file)
    for cand in candidates:
        if cand.is_file():
            return cand
    hint = "" if entry.bundled else \
        " (not bundled; run scripts/fetch_datasets.py first)"
    raise DataFormatError(f"no data file {entry.data_file!r} for dataset "
                          f"{entry.name!r}{hint}")


def load_registered(name: str, train_fraction: float = DEFAULT_TRAIN_FRACTION,
                    seed: int = 0):
    """Load a registry dataset and return (entry, train, test)."""
    entry = registry_entry(name)
    path = resolve_data_file(entry)
    full = load_csv(path, entry.attribute_count, entry.class_count, name=name)
    train, test = split(full, train_fraction=train_fraction, seed=seed)
    return entry, train, test
