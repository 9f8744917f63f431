import tracemalloc
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest

import _data_reference as ref
from sapt.bnn import BnnPosterior, NetworkTopology, PriorConfig
from sapt.data import (
    REGISTRY,
    Dataset,
    load_csv,
    load_registered,
    make_dataset,
    one_hot,
    registry_entry,
    resolve_data_file,
    save_csv,
    split,
)
from sapt.exceptions import ConfigError, ContractError, DataFormatError


class TestOneHot:
    def test_basic(self):
        z = one_hot([2, 0, 1], 3)
        npt.assert_array_equal(z, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert z.dtype == np.float64

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, 100)
        npt.assert_array_equal(one_hot(labels, 4).sum(axis=1), np.ones(100))

    def test_rejects_out_of_range(self):
        with pytest.raises(DataFormatError):
            one_hot([0, 3], 3)
        with pytest.raises(DataFormatError):
            one_hot([-1], 3)


class TestDatasetInvariants:
    def test_counts(self, tiny_dataset):
        assert tiny_dataset.sample_count == 40
        assert tiny_dataset.feature_count == 2
        assert tiny_dataset.class_count == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            make_dataset(np.array([[np.inf, 0.0]]), [0], 2)

    def test_rejects_zero_rows(self):
        with pytest.raises(ContractError, match="at least one sample row"):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ContractError, match="at least one sample row"):
            make_dataset(np.zeros((0, 2)), [], 2)

    def test_rejects_row_mismatch(self):
        with pytest.raises(ContractError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2)

    def test_targets_derived_from_labels(self):
        labels = np.array([2, 0, 1, 1, 0], dtype=np.int64)
        features = np.arange(10.0).reshape(5, 2)
        made = make_dataset(features, labels, 4)
        direct = Dataset(features, labels, 4)
        for ds in (made, direct):
            assert ds.class_count == 4
            assert ds.one_hot.dtype == np.float64
            assert ds.one_hot.flags.c_contiguous
            npt.assert_array_equal(ds.one_hot, one_hot(labels, 4))
        npt.assert_array_equal(made.class_label_index,
                               direct.class_label_index)

    def test_out_of_range_label_on_both_paths(self):
        for labels in ([0, 2], [-1, 0]):
            with pytest.raises(DataFormatError):
                make_dataset(np.zeros((2, 2)), labels, 2)
            with pytest.raises(DataFormatError):
                Dataset(np.zeros((2, 2)), np.array(labels, dtype=np.int64), 2)


class TestCsvRoundTrip:
    def test_load_and_save(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("0.5,1.25,0\n-3.0,0.0,1\n2.0,7.5,2\n")
        ds = load_csv(path, feature_count=2, class_count=3)
        npt.assert_array_equal(ds.labels, [0, 1, 2])
        npt.assert_array_equal(ds.features,
                               [[0.5, 1.25], [-3.0, 0.0], [2.0, 7.5]])
        out = tmp_path / "again.csv"
        save_csv(ds, out)
        ds2 = load_csv(out, feature_count=2, class_count=3)
        npt.assert_array_equal(ds2.features, ds.features)
        npt.assert_array_equal(ds2.labels, ds.labels)

    def test_blank_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        for text in ["1,2,0\n\n3,4,1\n", "1,2,0\n   \n3,4,1\n",
                     "1,2,0\n\t\n3,4,1\n", "1,2,0\r\n3,4,1\r\n",
                     "1,2,0\n3,4,1"]:
            path.write_bytes(text.encode())
            ds = load_csv(path, 2, 2)
            npt.assert_array_equal(ds.features, [[1, 2], [3, 4]])
            npt.assert_array_equal(ds.labels, [0, 1])

    def test_errors(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(DataFormatError):
            load_csv(missing, 2, 2)
        path = tmp_path / "bad.csv"
        # wrong column count, fractional label, label past the class
        # count, no data rows, non-numeric fields; a '#' is not a comment,
        # ';' is not a delimiter and a trailing comma adds a column
        for text in ["1,2,3,0\n", "1,2,1.5\n", "1,2,5\n", "\n", "1,x,0\n",
                     "1,2#,0\n", "1;2;0\n", "1,2,0,\n"]:
            path.write_text(text)
            with pytest.raises(DataFormatError):
                load_csv(path, 2, 2)

    def test_label_error_names_row_and_value(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("1,2,0\n\n3,4,1.5\n")
        with pytest.raises(DataFormatError,
                           match=r"lab\.csv: line 3: label 1\.5 "):
            load_csv(path, 2, 2)

    @pytest.mark.parametrize("text, match", [
        ("1,2,0\n\n1,x,0\n", r"rows\.csv: line 3: could not convert "
                             r"string 'x' to float64$"),
        ("1,2,0\n\n \n3,4,5,1\n", r"rows\.csv: line 4: the number of "
                                r"columns changed from 3 to 4$"),
        ("1,2,0\n\n3,nan,1\n", r"rows\.csv: line 3: non-finite feature "
                              r"value$"),
    ], ids=["bad-field", "ragged-row", "nan-feature"])
    def test_parse_error_names_file_line(self, tmp_path, text, match):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            load_csv(path)

    def test_malformed_input(self, malformed_csv):
        with pytest.raises(DataFormatError):
            load_csv(malformed_csv, 2, 2)

    def test_inferred_counts_match_registry(self):
        entry = registry_entry("iris")
        path = resolve_data_file(entry)
        inferred = load_csv(path)
        given = load_csv(path, 4, 3)
        npt.assert_array_equal(inferred.features, given.features)
        npt.assert_array_equal(inferred.labels, given.labels)
        npt.assert_array_equal(inferred.one_hot, given.one_hot)
        assert inferred.name == given.name == "iris"

    @pytest.mark.parametrize("text, counts, match", [
        ("1,2,0\n3,4,2\n", {"class_count": 2}, "label 2.0 "),
        ("1,2,0\n3,4,5,1\n", {}, "columns"),
        ("0\n1\n", {}, "columns"),
        ("1,2,0\n3,4,1e300\n", {}, "label 1e"),
        ("1,0\n" * 1999 + "1,1999\n", {}, "class 1 has no row"),
    ], ids=["label-at-class-count", "column-count-changes",
            "no-feature-column", "more-classes-than-rows",
            "class-without-rows"])
    def test_inferred_counts_still_check_rows(self, tmp_path, text, counts,
                                              match):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        # fails inside load_csv, before a rows x classes one_hot exists:
        # the 2000 x 2000 float64 one of the last case is 30.5 MiB
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=match):
                load_csv(path, **counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCsvReference:
    """load_csv and save_csv against the frozen per-field loops."""

    @staticmethod
    def extreme_csv(path):
        """Values from subnormal to near overflow, written in the forms
        float() accepts: repr, %.17g, exponent forms, '+.5', '1.', -0."""
        rng = np.random.default_rng(23)
        values = rng.normal(size=600) * 10.0 ** rng.integers(-320, 308, 600)
        forms = [repr, "{:.17g}".format, "{:.3e}".format, "{:g}".format,
                 "{:+.1E}".format]
        fields = [forms[i % len(forms)](float(v))
                  for i, v in enumerate(values)]
        fields[:8] = ["+.5", "1.", "-0", "-0.0", "5e-324",
                      "2.2250738585072014e-308", "1.7976931348623157e308",
                      " 7.25 "]
        lines = [",".join(fields[i:i + 4]) + f",{i % 3}"
                 for i in range(0, len(fields), 4)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def files(self, tmp_path):
        return [resolve_data_file(registry_entry("iris")),
                resolve_data_file(registry_entry("cancer")),
                self.extreme_csv(tmp_path / "extreme.csv")]

    def test_load_matches_reference_bits(self, tmp_path):
        for path in self.files(tmp_path):
            features, labels = ref.read_table(path)
            ds = load_csv(path)
            assert ds.features.tobytes() == features.tobytes(), path
            npt.assert_array_equal(ds.labels, labels)

    def test_save_writes_reference_bytes(self, tmp_path):
        for path in self.files(tmp_path):
            ds = load_csv(path)
            save_csv(ds, tmp_path / "ours.csv")
            ref.write_table(ds.features, ds.labels, tmp_path / "theirs.csv")
            assert (tmp_path / "ours.csv").read_bytes() == \
                (tmp_path / "theirs.csv").read_bytes(), path


class TestNormalize:
    def test_train_columns_scaled_to_unit_interval(self, tiny_dataset):
        train, _ = split(tiny_dataset, seed=0)
        npt.assert_array_equal(train.features.min(axis=0), 0.0)
        npt.assert_array_equal(train.features.max(axis=0), 1.0)

    def test_constant_column_maps_to_zero(self):
        feats = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        ds = make_dataset(feats, np.arange(10) % 2, 2)
        train, test = split(ds, seed=0)
        for side in (train, test):
            npt.assert_array_equal(side.features[:, 0], 0.0)
            assert np.all(np.isfinite(side.features))


class TestSplit:
    def build(self, n_per_class=30, classes=3, seed=41):
        rng = np.random.default_rng(seed)
        n = n_per_class * classes
        feats = rng.normal(size=(n, 2))
        labels = np.repeat(np.arange(classes), n_per_class)
        return make_dataset(feats, labels, classes)

    def test_stratified_counts(self):
        ds = self.build()
        train, test = split(ds, train_fraction=0.6, seed=0)
        for cls in range(3):
            assert np.sum(train.labels == cls) == 18
            assert np.sum(test.labels == cls) == 12

    def build_tagged(self):
        """build() with row ids in the first feature column."""
        ds = self.build()
        feats = ds.features.copy()
        feats[:, 0] = np.arange(ds.sample_count)
        return make_dataset(feats, ds.labels, 3)

    def test_disjoint_and_covering(self):
        train, test = split(self.build_tagged(), seed=3)
        # min-max scaling with a positive span is strictly increasing, so
        # 90 distinct scaled tags mean each row lands exactly once
        tags = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert tags.size == 90
        assert np.unique(tags).size == 90

    def test_deterministic_per_seed(self):
        ds = self.build()
        a1, b1 = split(ds, seed=5)
        a2, b2 = split(ds, seed=5)
        npt.assert_array_equal(a1.features, a2.features)
        npt.assert_array_equal(b1.labels, b2.labels)
        a3, _ = split(ds, seed=6)
        assert not np.array_equal(a1.features, a3.features)

    def test_test_side_uses_train_statistics(self):
        ds = self.build_tagged()
        train, test = split(ds, seed=7)
        # the scaling is monotone, so a tag's rank over both sides is the
        # id of the raw row it came from
        tags = np.concatenate([train.features[:, 0], test.features[:, 0]])
        ids = np.argsort(np.argsort(tags))
        train_raw = ds.features[ids[:train.sample_count]]
        test_raw = ds.features[ids[train.sample_count:]]
        lo = train_raw.min(axis=0)
        span = train_raw.max(axis=0) - lo
        npt.assert_allclose(test.features, (test_raw - lo) / span,
                            rtol=1e-14)

    def test_label_indexes_pick_own_labels(self):
        ds = self.build()
        labels = np.random.default_rng(2).permutation(ds.labels)
        for side in split(make_dataset(ds.features, labels, 3), seed=4):
            # row t holds t + 1 in its label column and 0 elsewhere
            ids = np.arange(1, side.sample_count + 1)
            table = side.one_hot * ids[:, None]
            npt.assert_array_equal(
                table.T.copy().ravel().take(side.class_label_index), ids)

    def test_bad_fraction(self):
        ds = self.build()
        with pytest.raises(ContractError):
            split(ds, train_fraction=0.0)
        with pytest.raises(ContractError):
            split(ds, train_fraction=1.0)

    def test_negative_seed(self):
        with pytest.raises(ContractError):
            split(self.build(), seed=-1)

    def test_side_lacking_a_class_keeps_every_column(self):
        # class 2's one row goes to the train side at fraction 0.6
        labels = [0] * 5 + [1] * 5 + [2]
        ds = make_dataset(np.random.default_rng(3).normal(size=(11, 2)),
                          labels, 3)
        train, test = split(ds, train_fraction=0.6, seed=1)
        assert 2 in train.labels and 2 not in test.labels
        for side in (train, test):
            assert side.class_count == 3
            assert side.one_hot.shape == (side.sample_count, 3)
            BnnPosterior(NetworkTopology(2, 3, 3), side, PriorConfig())

    def test_class_starved_split(self):
        ds = make_dataset(np.random.default_rng(0).normal(size=(5, 2)),
                          [0, 0, 0, 0, 1], 2)
        with pytest.raises(DataFormatError,
                           match="class 0 would be absent from the train"):
            split(ds, train_fraction=0.1)

    def test_fraction_that_empties_the_test_side(self):
        # round(0.9 * 2) puts both rows of each class on the train side
        with pytest.raises(DataFormatError, match="test split is empty"):
            split(self.build(n_per_class=2, classes=2), train_fraction=0.9)


class TestRegistry:
    def test_iris_entry(self):
        entry = registry_entry("iris")
        assert entry.attribute_count == 4
        assert entry.class_count == 3
        topo = entry.topology()
        assert (topo.input_count, topo.output_count) == (4, 3)

    def test_cancer_entry(self):
        entry = registry_entry("cancer")
        assert entry.attribute_count == 9
        assert entry.class_count == 2

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ConfigError) as err:
            registry_entry("mnist")
        assert "iris" in str(err.value)

    def test_bundled_files_resolve(self):
        for entry in REGISTRY.values():
            if entry.bundled:
                assert resolve_data_file(entry).is_file()

    def test_entries_are_consistent(self):
        packaged = resources.files("sapt.datasets")
        for name, entry in REGISTRY.items():
            assert name == entry.name
            entry.topology()
            assert (packaged / entry.data_file).is_file() == entry.bundled
        files = [entry.data_file for entry in REGISTRY.values()]
        assert len(set(files)) == len(files)

    def test_load_registered_shapes(self, iris):
        entry, train, test = iris
        assert train.feature_count == 4
        assert train.class_count == 3
        assert train.sample_count + test.sample_count == 150
        # 0.6 of each 50-row class rounds to 30
        for cls in range(3):
            assert np.sum(train.labels == cls) == 30

    def test_load_registered_deterministic(self):
        _, train_a, _ = load_registered("iris", seed=9)
        _, train_b, _ = load_registered("iris", seed=9)
        npt.assert_array_equal(train_a.features, train_b.features)
