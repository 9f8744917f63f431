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
import configparser
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
    """Immutable feature matrix with integer labels and one-hot targets."""

    features: np.ndarray   # N x I float64
    labels: np.ndarray     # N ints in 0..K-1
    one_hot: np.ndarray    # N x K
    name: str = ""

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ContractError("dataset needs at least one sample row")
        if not np.all(np.isfinite(self.features)):
            raise ContractError("dataset features must be finite")
        n, k = self.one_hot.shape
        if n != self.features.shape[0] or self.labels.shape != (n,):
            raise ContractError("features, labels and one-hot row counts differ")
        if self.labels.min() < 0 or self.labels.max() >= k:
            raise ContractError("labels outside 0..K-1")
        # the likelihood reads labels, its gradient and the Brier score
        # read one_hot, so the two must describe the same classes
        if not np.array_equal(self.one_hot, one_hot(self.labels, k)):
            raise ContractError("one-hot rows are not the labels' indicators")
        # flat positions of the labels in a class-major (K, N) array, the
        # layout in which the likelihood pass shifts its outputs at every N
        object.__setattr__(self, "class_label_index",
                           self.labels * n + np.arange(n))

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def class_count(self) -> int:
        return self.one_hot.shape[1]

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
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(features, labels, one_hot(labels, class_count), name)


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
                       dataset.one_hot[indices], dataset.name)

    return subset(train_idx), subset(test_idx)


@dataclass(frozen=True)
class RegistryEntry:
    """Per-dataset shape and model sizing, read from the registry file.

    surrogate_hidden is read and ignored: the surrogate is a linear
    ridge fit with no hidden layers.
    """

    name: str
    attribute_count: int
    class_count: int
    hidden_units: int
    surrogate_hidden: tuple
    data_file: str
    bundled: bool

    def topology(self) -> NetworkTopology:
        return NetworkTopology(self.attribute_count, self.hidden_units,
                               self.class_count)


def _registry_text() -> str:
    return (resources.files("sapt.datasets") / "registry.cfg").read_text()


def load_registry() -> dict:
    """Parse the packaged registry file into name -> RegistryEntry."""
    parser = configparser.ConfigParser()
    parser.read_string(_registry_text())
    entries = {}
    for section in parser.sections():
        sec = parser[section]
        try:
            entries[section] = RegistryEntry(
                name=section,
                attribute_count=sec.getint("attributes"),
                class_count=sec.getint("classes"),
                hidden_units=sec.getint("hidden_units"),
                surrogate_hidden=(sec.getint("surrogate_h1"),
                                  sec.getint("surrogate_h2")),
                data_file=sec.get("data_file"),
                bundled=sec.getboolean("bundled", fallback=False),
            )
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"registry section [{section}]: {exc}") from None
    return entries


def registry_entry(name: str) -> RegistryEntry:
    entries = load_registry()
    if name not in entries:
        known = ", ".join(sorted(entries))
        raise ConfigError(f"unknown dataset {name!r}; registry has: {known}")
    return entries[name]


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
