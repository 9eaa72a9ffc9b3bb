import csv
import hashlib
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedthresh.data import (KNOWN_DATASET_SHAPES, Dataset, PartitionPlan,
                            corrupt, fit_scaler, apply_scaler, kmeans,
                            load_csv, partition_even,
                            partition_noniid, partition_random, split, synth,
                            synth_blobs, write_plan)
from fedthresh import data as data_module
from fedthresh.errors import ConfigError
from fedthresh.federation import ClientState
from fedthresh.util import largest_remainder


def toy_dataset(num_normal=100, num_anomaly=10, dim=3, seed=0):
    return synth(num_normal, num_anomaly, dim, separation=5.0, seed=seed)


# ---- load_csv ----

def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n1.5,2.0,normal\n3.0,4.5,attack\n"
                    "0.0,-1.0,normal\n")
    ds = load_csv(path, label_column="label", positive_label="attack")
    assert ds.num_samples == 3 and ds.num_features == 2
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert np.array_equal(ds.features,
                          [[1.5, 2.0], [3.0, 4.5], [0.0, -1.0]])
    assert ds.feature_names == ("a", "b")


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError, match="label"):
        load_csv(path, label_column="label", positive_label="x")


def test_load_csv_nonnumeric_cell_names_row_and_column(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n1.0,oops,normal\n")
    with pytest.raises(ConfigError, match=r"row 2.*'b'.*non-numeric"):
        load_csv(path, label_column="label", positive_label="x")
    # float() parses these, but a model cannot train on them; the blank
    # line still counts toward the reported row number
    for cell, shown in (("nan", "nan"), ("-inf", "-inf"), ("1e999", "inf")):
        path.write_text(f"a,b,label\n1.0,2.0,normal\n\n{cell},3.0,normal\n")
        with pytest.raises(ConfigError,
                           match=rf"row 4.*'a'.*non-finite cell {shown}$"):
            load_csv(path, label_column="label", positive_label="x")


def test_dataset_rejects_non_finite_features_naming_the_column():
    for bad in (np.nan, np.inf, -np.inf):
        features = np.array([[1.0, 2.0, 3.0], [4.0, bad, 6.0]])
        with pytest.raises(ConfigError, match="column 'b'.*non-finite"):
            Dataset(features, [0, 1], ("a", "b", "c"), "x")


def test_load_csv_warns_on_a_published_name_with_the_wrong_shape(tmp_path):
    path = tmp_path / "shuttle_toy.csv"
    path.write_text("a,b,label\n1.0,2.0,1\n3.0,4.0,4\n")
    published = KNOWN_DATASET_SHAPES["shuttle"]
    with pytest.warns(UserWarning, match=r"shape \(2, 1, 2\) differs from "
                      rf"the published \({', '.join(map(str, published))}\)"):
        ds = load_csv(path, label_column="label", positive_label="4")
    assert ds.num_samples == 2
    # a name that matches no published dataset loads without a warning
    other = tmp_path / "toy.csv"
    other.write_bytes(path.read_bytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_csv(other, label_column="label", positive_label="4")


def load_both_ways(path):
    """load_csv's outcome on path as it reads it, and with the per-cell
    reader alone: each a Dataset or the ConfigError message. Also whether
    numpy's parser supplied the first."""
    read_by_numpy = []
    real_read_table = data_module._read_table

    def spy(*args):
        table = real_read_table(*args)
        read_by_numpy.append(table is not None)
        return table

    def outcome():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return load_csv(path, label_column="label", positive_label="1")
        except ConfigError as exc:
            return str(exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_read_table", spy)
        fast = outcome()
        mp.setattr(data_module, "_read_table", lambda *args: None)
        cells = outcome()
    return fast, cells, any(read_by_numpy)


def assert_same_outcome(fast, cells):
    if isinstance(cells, str):
        assert fast == cells
        return
    assert not isinstance(fast, str), fast
    assert fast.features.shape == cells.features.shape
    assert fast.features.flags.c_contiguous and cells.features.flags.c_contiguous
    # bitwise: -0.0 and 0.0 differ
    assert np.array_equal(fast.features.view(np.uint64),
                          cells.features.view(np.uint64))
    assert np.array_equal(fast.labels, cells.labels)
    assert fast.classes.tolist() == cells.classes.tolist()
    assert fast.feature_names == cells.feature_names


# text after the header "a,b,label", the reader that must supply the
# result, and the error (None: a Dataset)
CSV_READER_CASES = {
    # a second trailing cell: loadtxt with usecols would drop it
    "extra_trailing_cell": ("1,2,0\n3,4,1,5\n", "cells",
                            "row 3 has 4 cells, expected 3"),
    "every_row_wider": ("1,2,0,9\n3,4,1,9\n", "cells",
                        "row 2 has 4 cells, expected 3"),
    "short_row": ("1,2,0\n3,4\n", "cells", "row 3 has 2 cells, expected 3"),
    # loadtxt's default comments would skip the line
    "comment_line": ("#1,2,0\n3,4,1\n", "cells",
                     "row 2, column 'a': non-numeric cell '#1'"),
    # loadtxt keeps the quotes, so the row would be labelled normal
    "quoted_label": ('1,2,"1"\n3,4,0\n', "cells", None),
    "quoted_feature": ('"1.5",2,1\n3,4,0\n', "cells", None),
    "quoted_comma": ('"1,5",2,1\n', "cells",
                     "row 2, column 'a': non-numeric cell '1,5'"),
    "underscore_digits": ("1_000,2,1\n3,4,0\n", "cells", None),
    "non_ascii_digits": ("\u0661\u0662,2,1\n3,4,0\n", "cells", None),
    "whitespace_line": ("1,2,0\n   \n3,4,1\n", "cells",
                        "row 3 has 1 cells, expected 3"),
    "empty_cell": ("1,,0\n", "cells", "row 2, column 'b': non-numeric cell ''"),
    "no_data_rows": ("\n\n", "cells", "no data rows"),
    # the blank line still counts toward the reported row number
    "blank_line_before_nan": ("1,2,0\n\nnan,3,1\n", "cells",
                              "row 4, column 'a': non-finite cell nan"),
    "overflow": ("1,2,0\n3,1e999,1\n", "cells",
                 "row 3, column 'b': non-finite cell inf"),
    "single_row": ("1.5,-2,1\n", "numpy", None),
    "crlf": ("1,2,0\r\n3,4,1\r\n", "numpy", None),
    "bare_cr": ("1,2,0\r3,4,1\r", "numpy", None),
    "blank_line": ("1,2,0\n\n3,4,1\n", "numpy", None),
    "padded_cells": (" 1.5 ,\t2, 1 \n-0.0,4e-320,0\n", "numpy", None),
    "no_final_newline": ("1,2,0\n3,4,1", "numpy", None),
    "text_labels": ("1,2,normal\n3,4,1\n5,6,\n", "numpy", None),
}


@pytest.mark.parametrize("name", CSV_READER_CASES)
def test_load_csv_numpy_reader_matches_the_per_cell_reader(tmp_path, name):
    body, reader, error = CSV_READER_CASES[name]
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n" + body, encoding="utf-8", newline="")
    fast, cells, read_by_numpy = load_both_ways(path)
    assert_same_outcome(fast, cells)
    assert read_by_numpy == (reader == "numpy")
    if error is None:
        assert not isinstance(cells, str), cells
    else:
        assert cells == f"{path}: {error}"


def test_load_csv_numpy_reader_keeps_header_and_label_handling(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(" label ,\tb , a\r\n1,2.5,3\r\n0,4,5e-1\r\n",
                    encoding="utf-8", newline="")
    fast, cells, read_by_numpy = load_both_ways(path)
    assert read_by_numpy
    assert_same_outcome(fast, cells)
    assert fast.feature_names == ("b", "a")
    assert fast.features.tolist() == [[2.5, 3.0], [4.0, 0.5]]
    assert fast.labels.tolist() == [1, 0]


CSV_ALPHABET = ',"#_ \r\n0123456789.-e\u0661'
CSV_NUMBERS = st.one_of(st.integers(-999, 999).map(str),
                        st.floats().map(repr),
                        st.sampled_from([" 1", "1 ", "1e999", ".5", "1."]))
CSV_CELLS = st.one_of(CSV_NUMBERS, st.text(alphabet=CSV_ALPHABET, max_size=4))
# rows of three numbers load, so that many texts reach the numpy reader;
# the other rows and the free text probe its refusals
CSV_ROWS = st.lists(st.tuples(
    st.one_of(st.lists(CSV_NUMBERS, min_size=3, max_size=3),
              st.lists(CSV_CELLS, min_size=2, max_size=4)).map(",".join),
    st.sampled_from(["\n", "\r\n", "\r", "\n\n"])),
    max_size=5).map(lambda rows: "".join(r + end for r, end in rows))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(CSV_ROWS, st.text(alphabet=CSV_ALPHABET, max_size=40)))
def test_load_csv_readers_agree_on_any_text(tmp_path, body):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n" + body, encoding="utf-8", newline="")
    fast, cells, _ = load_both_ways(path)
    assert_same_outcome(fast, cells)


# ---- scaling ----

def test_minmax_scaler_maps_train_range():
    train = np.array([[2.0], [4.0]])
    scaler = fit_scaler(train, "minmax")
    assert scaler.transform(np.array([[3.0]]))[0, 0] == pytest.approx(0.5)
    # values outside the fit range stay unclamped
    assert scaler.transform(np.array([[5.0]]))[0, 0] == pytest.approx(1.5)


def test_scaler_constant_feature_zeroed():
    train = np.column_stack([np.arange(4.0), np.full(4, 7.0)])
    for method in ("minmax", "zscore"):
        scaler = fit_scaler(train, method)
        out = scaler.transform(train)
        assert np.all(out[:, 1] == 0.0)
        assert np.all(np.isfinite(out))


def test_zscore_scaler_moments(rng):
    train = rng.normal(3.0, 2.0, size=(500, 2))
    out = fit_scaler(train, "zscore").transform(train)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)


def test_scale_inverse_roundtrip(rng):
    features = rng.normal(size=(50, 4)) * np.array([1.0, 10.0, 0.1, 3.0])
    scaler = fit_scaler(features, "minmax")
    back = scaler.transform(features) * scaler.scale + scaler.offset
    assert np.allclose(back, features, rtol=1e-9)


@pytest.mark.parametrize("method", ["minmax", "zscore"])
def test_a_scaler_that_overflows_is_rejected(method):
    # range and spread of 1.7e308 and -1.7e308 overflow to inf; zscore
    # would map the column to 0, minmax to non-finite values
    features = np.array([[1.7e308, 0.0], [-1.7e308, 1.0]])
    ds = Dataset(features, np.zeros(2), ("a", "b"), "huge")
    with np.errstate(over="ignore"):
        scaler = fit_scaler(features, method)
    with pytest.raises(ConfigError, match=rf"^scale_method='{method}' "
                       "overflows on feature column 'a'$"):
        apply_scaler(ds, scaler)


@pytest.mark.parametrize("method", ["minmax", "zscore"])
def test_a_scaler_that_overflows_warns_nothing_before_the_error(method):
    # minmax overflows in its subtraction, zscore in its squares; the
    # column is reported once, as a ConfigError, with no numpy warning
    features = np.array([[1.7e308], [-1.7e308]])
    ds = Dataset(features, np.zeros(2), ("a",), "huge")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="overflows on feature column"):
            apply_scaler(ds, fit_scaler(features, method))


@pytest.mark.parametrize("fit_on, value", [((0.0, 1e-300), 1e300),
                                           ((1.7e308, 1.6e308), -1.7e308)],
                         ids=["divide", "subtract"])
def test_a_scaled_value_that_overflows_warns_nothing_before_the_error(
        fit_on, value):
    # the scaler is finite, the value it maps to is not: the column is
    # reported once, by Dataset, with no numpy warning first
    scaler = fit_scaler(np.array(fit_on)[:, None], "minmax")
    ds = Dataset(np.array([[value], [0.0]]), np.zeros(2), ("a",), "huge")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^feature column 'a' holds "
                           "non-finite values$"):
            apply_scaler(ds, scaler)


@pytest.mark.parametrize("method", ["minmax", "zscore"])
def test_scaling_all_rows_then_gathering_keeps_every_bit(method):
    # the scale stage transforms the whole array once and clients gather
    # their rows from it; per-split transforms give the same bits
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(200, 4)) * rng.uniform(1e-3, 1e3, size=4)
        x[:, 2] = 7.25  # a constant column maps to 0
        rows = rng.permutation(200)[:70]
        scaler = fit_scaler(x[rng.permutation(200)[:120]], method)
        whole = scaler.transform(x)[rows]
        assert np.array_equal(whole.view(np.int64),
                              scaler.transform(x[rows]).view(np.int64))


@pytest.mark.parametrize("method", ["minmax", "zscore"])
def test_apply_scaler_leaves_its_input_untouched(method):
    ds = toy_dataset()
    before = ds.features.copy()
    scaled = apply_scaler(ds, fit_scaler(ds.features[:50], method))
    assert np.array_equal(ds.features, before)
    assert not np.shares_memory(scaled.features, ds.features)
    # out=features scales in place, to the same bits
    again = apply_scaler(ds, fit_scaler(before[:50], method), out=ds.features)
    assert again.features is ds.features
    assert np.array_equal(again.features.view(np.int64),
                          scaled.features.view(np.int64))


def test_scale_operation_fits_on_train_only():
    ds = toy_dataset()
    fit_idx = np.arange(10)
    scaled = apply_scaler(ds, fit_scaler(ds.features[fit_idx], "minmax"))
    fit_block = ds.features[fit_idx]
    expected_min = fit_block.min(axis=0)
    got = scaled.features * (fit_block.max(axis=0) - expected_min) + expected_min
    assert np.allclose(got, ds.features, rtol=1e-9)


# ---- split ----

def test_split_stratified_counts():
    ds = toy_dataset(100, 10)
    train, val, test = split(ds, 0.6, 0.2, seed=3)
    assert train.size == 60 and ds.labels[train].sum() == 0
    assert val.size == 25 and ds.labels[val].sum() == 5
    assert test.size == 25 and ds.labels[test].sum() == 5


def test_split_deterministic_and_disjoint():
    ds = toy_dataset(80, 8)
    a = split(ds, 0.5, 0.25, seed=9)
    b = split(ds, 0.5, 0.25, seed=9)
    for da, db in zip(a, b):
        assert np.array_equal(da, db)
    assert sorted(np.concatenate(a)) == list(range(ds.num_samples))


def test_split_rejects_too_few_anomalies():
    ds = toy_dataset(50, 0)
    with pytest.raises(ConfigError):
        split(ds, 0.6, 0.2, seed=0)
    ds1 = toy_dataset(50, 1)
    with pytest.raises(ConfigError):
        split(ds1, 0.6, 0.2, seed=0)


def test_split_rejects_a_train_share_of_no_normals():
    ds = toy_dataset(60, 6)
    with pytest.raises(ConfigError, match=r"^train_frac=0\.001 of 60 normals "
                       "leaves no training row$"):
        split(ds, 0.001, 0.2, seed=0)
    assert split(ds, 0.02, 0.2, seed=0)[0].size == 1


def test_split_rejects_bad_fractions():
    ds = toy_dataset()
    with pytest.raises(ConfigError):
        split(ds, 0.8, 0.3, seed=0)
    with pytest.raises(ConfigError):
        split(ds, 0.0, 0.5, seed=0)


# ---- partition_even ----

def test_partition_even_sizes():
    ds = toy_dataset(94, 6)
    splits = split(ds, 0.6, 0.2, seed=1)
    plan = partition_even(ds, splits, 3, seed=2)
    for split_name, rows in zip(("train", "val", "test"), splits):
        sizes = [len(plan.client_indices(split_name, c)) for c in range(3)]
        assert sum(sizes) == rows.size
        assert max(sizes) - min(sizes) <= 1
        all_idx = np.concatenate(
            [plan.client_indices(split_name, c) for c in range(3)])
        assert len(np.unique(all_idx)) == len(all_idx)


def test_partition_even_stratifies_anomalies():
    ds = toy_dataset(94, 12)
    splits = split(ds, 0.6, 0.2, seed=1)
    plan = partition_even(ds, splits, 3, seed=5)
    val_labels = ds.labels[splits[1]]
    per_client = [int(val_labels[plan.client_indices("val", c)].sum())
                  for c in range(3)]
    assert max(per_client) - min(per_client) <= 1
    assert sum(per_client) == val_labels.sum()


@pytest.mark.filterwarnings("ignore:test split. 7 anomalies across 10 "
                            "clients; some clients hold none:UserWarning")
def test_partition_even_rejects_more_clients_than_train_rows():
    # 10 train rows and 20 val normals, so the train rows bind first
    ds = toy_dataset(40, 20)
    splits = split(ds, 0.25, 0.5, seed=1)
    partition_even(ds, splits, 10, seed=0)
    with pytest.raises(ConfigError,
                       match="num_clients=11 exceeds the 10 training rows"):
        partition_even(ds, splits, 11, seed=0)


@pytest.mark.filterwarnings("ignore:(val|test) split. 5 anomalies across 15 "
                            "clients; some clients hold none:UserWarning")
def test_partition_even_rejects_more_clients_than_val_normals():
    # 30 train rows but 15 val normals: a 16th client would get no val
    # normal, and the summary protocol needs one on every client
    ds = toy_dataset(60, 10)
    splits = split(ds, 0.5, 0.25, seed=1)
    plan = partition_even(ds, splits, 15, seed=0)
    val_labels = ds.labels[splits[1]]
    assert all(np.any(val_labels[rows] == 0) for rows in plan.assignments["val"])
    with pytest.raises(ConfigError, match="num_clients=16 exceeds the 15 "
                                          "validation normals"):
        partition_even(ds, splits, 16, seed=0)


def test_partition_even_warns_with_more_clients_than_anomalies():
    ds = toy_dataset(200, 4)
    splits = split(ds, 0.6, 0.2, seed=1)
    with pytest.warns(UserWarning):
        partition_even(ds, splits, 5, seed=0)


# ---- kmeans ----

def test_kmeans_separated_pair():
    points = np.array([[0.0], [10.0]])
    assign = kmeans(points, 2, seed=0)
    assert assign[0] != assign[1]


def test_kmeans_k1_single_cluster(rng):
    points = rng.normal(size=(20, 2))
    assert np.all(kmeans(points, 1, seed=0) == 0)


def test_kmeans_collinear_points():
    points = np.array([[0.0], [1.0], [10.0]])
    assign = kmeans(points, 2, seed=4)
    assert assign[0] == assign[1] != assign[2]


def test_kmeans_identical_points_reseed_rule():
    points = np.zeros((7, 2))
    assign = kmeans(points, 3, seed=0)
    sizes = sorted(np.bincount(assign, minlength=3))
    assert sizes == [1, 1, 5]


def test_kmeans_deterministic(rng):
    points = rng.normal(size=(60, 3))
    a = kmeans(points, 4, seed=11)
    b = kmeans(points, 4, seed=11)
    assert np.array_equal(a, b)


def _reference_kmeans(points, k, seed, max_iters=100):
    """The per-centroid Lloyd loop that `kmeans` replaced: every distance
    from `((x - c) ** 2).sum(axis=1)`, argmin over the k x n matrix."""
    def sq_dist(rows, centroid):
        return ((rows - centroid) ** 2).sum(axis=1)

    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = sq_dist(points, centroids[0])
    for j in range(1, k):
        total = closest.sum()
        if total > 0.0:
            pick = rng.choice(n, p=closest / total)
        else:
            pick = int(rng.integers(n))
        centroids[j] = points[pick]
        closest = np.minimum(closest, sq_dist(points, centroids[j]))
    prev_assign = None
    for _ in range(max_iters):
        d2 = np.array([sq_dist(points, c) for c in centroids])
        assign = d2.argmin(axis=0)
        sizes = np.bincount(assign, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            donor = int(sizes.argmax())
            members = np.flatnonzero(assign == donor)
            far = members[int(d2[donor, members].argmax())]
            centroids[j] = points[far]
            assign[far] = j
            sizes[donor] -= 1
            sizes[j] = 1
        for j in range(k):
            centroids[j] = points[assign == j].mean(axis=0)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign.copy()
    return assign


def column_major(points):
    """points as the transpose of a (features, rows) array, the layout
    partition_noniid hands kmeans."""
    points = np.asarray(points, dtype=np.float64)
    return np.ascontiguousarray(points.reshape(points.shape[0], -1).T).T


def layouts(points):
    """points row-major, then column-major."""
    return np.asarray(points), column_major(points)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_kmeans_matches_reference_on_blobs(k):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        centres = rng.normal(0.0, 4.0, size=(5, 4))
        points = centres[rng.integers(5, size=400)] + rng.normal(size=(400, 4))
        # far from the origin the expanded distance cancels badly, so the
        # screen must send (nearly) every point to the exact recheck
        for offset in (0.0, 1e6):
            expected = _reference_kmeans(points + offset, k, seed)
            for laid_out in layouts(points + offset):
                assert np.array_equal(kmeans(laid_out, k, seed), expected)


@pytest.mark.parametrize("step", [1.0, 0.1])
def test_kmeans_matches_reference_on_grids(step):
    # grid coordinates put many points at equal distances; on the 0.1 grid
    # the two distance forms round those ties differently, so the screen's
    # argmin alone would flip about one run in two
    for seed in range(20):
        points = np.random.default_rng(seed).integers(
            0, 4, size=(300, 3)) * step
        for k in (2, 5, 9):
            expected = _reference_kmeans(points, k, seed)
            for laid_out in layouts(points):
                assert np.array_equal(kmeans(laid_out, k, seed), expected)


def test_kmeans_rechecks_exact_ties(monkeypatch):
    """With centroids on 0 and 2, the point 1 is exactly equidistant: the
    recheck must compute it with `_sq_dist` and give it centroid 0's
    cluster, as the lowest-index argmin did."""
    points = np.array([0.0, 1.0, 2.0])
    exact_rows = []
    real_sq_dist = data_module._sq_dist

    def spy(rows, centroid):
        exact_rows.append(rows.ravel().tolist())
        return real_sq_dist(rows, centroid)

    monkeypatch.setattr(data_module, "_sq_dist", spy)
    fired = 0
    for seed in range(20):
        exact_rows.clear()
        assert np.array_equal(kmeans(points, 2, seed),
                              _reference_kmeans(points, 2, seed))
        fired += [1.0] in exact_rows
    assert fired > 0


def test_kmeans_matches_reference_on_reseed_and_1d_inputs(rng):
    for k in (2, 3, 7):
        for laid_out in layouts(np.zeros((7, 2))):
            assert np.array_equal(kmeans(laid_out, k, 0),
                                  _reference_kmeans(np.zeros((7, 2)), k, 0))
    line = rng.normal(size=200)
    for k in (2, 4):
        assert np.array_equal(kmeans(line, k, 5), _reference_kmeans(line, k, 5))
    # numpy sums a lone column pairwise: a centroid summed in index order
    # differs in its last bits, and on these few-valued lines (seeds 11
    # and 23) that moves points that sit on a midpoint
    for seed in range(30):
        draw = np.random.default_rng(seed)
        values = draw.choice([0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 2.9],
                             size=draw.integers(3, 6), replace=False)
        line = draw.choice(values, size=int(draw.integers(20, 200)))
        k = int(draw.integers(2, 5))
        assert np.array_equal(kmeans(line, k, seed),
                              _reference_kmeans(line, k, seed))


def test_kmeans_recovers_separated_blobs(rng):
    blob_a = rng.normal(0.0, 0.3, size=(40, 2))
    blob_b = rng.normal(8.0, 0.3, size=(25, 2))
    points = np.vstack([blob_a, blob_b])
    assign = kmeans(points, 2, seed=1)
    # purity: each blob lands in exactly one cluster
    assert len(set(assign[:40])) == 1
    assert len(set(assign[40:])) == 1
    assert assign[0] != assign[-1]


def test_kmeans_sum_of_squares_check_allows_rounding_far_out():
    """Near 7e15 a coordinate rounds to a whole number, which alone moved
    this sum of squares from 18.4 to 22.4; the check's tolerance covers
    rounding at the points' scale."""
    rng = np.random.default_rng(13)
    far = np.array([-6.93282906e15, -4.95792934e15])
    points = np.vstack([rng.uniform(size=(9, 2)),
                        far + rng.integers(-4, 5, size=(17, 2))])
    assert kmeans(points, 6, seed=13).shape == (26,)


def test_kmeans_rejects_features_whose_squares_overflow():
    points = np.array([[0.0], [2.0], [1e200]])
    with pytest.raises(ConfigError,
                       match=r"^k-means overflows at features of 1e\+200$"):
        kmeans(points, 2, seed=0)


def test_kmeans_raises_when_the_sum_of_squares_rises(monkeypatch):
    """A centroid update that moves the centroids off their means on its
    second call raises the sum-of-squares check."""
    real_update = data_module._update_centroids
    calls = []

    def drifting(centroids, *args):
        real_update(centroids, *args)
        calls.append(len(calls))
        if len(calls) == 2:
            centroids += 10.0

    monkeypatch.setattr(data_module, "_update_centroids", drifting)
    points = np.random.default_rng(0).normal(size=(50, 3))
    with pytest.raises(RuntimeError, match="within-cluster SS increased"):
        kmeans(points, 3, seed=0)
    assert len(calls) == 2


def drifting_update(monkeypatch, on_call):
    """Patch the centroid update to move the centroids off their means on
    its on_call-th call; returns the list of calls made."""
    real_update = data_module._update_centroids
    calls = []

    def drifting(centroids, *args):
        real_update(centroids, *args)
        calls.append(len(calls))
        if len(calls) == on_call:
            centroids += 10.0

    monkeypatch.setattr(data_module, "_update_centroids", drifting)
    return calls


def count_exact_sums(monkeypatch):
    """Spy on the exact sum of squares; returns the list of its calls."""
    real_exact = data_module._exact_wcss
    calls = []

    def spy(*args):
        calls.append(1)
        return real_exact(*args)

    monkeypatch.setattr(data_module, "_exact_wcss", spy)
    return calls


def test_kmeans_exact_check_raises_when_the_sum_of_squares_rises_far_out(
        monkeypatch):
    """1e6 from the origin the screen's sum rounds too coarsely to use, so
    the exact sum catches the drifting second update."""
    calls = drifting_update(monkeypatch, 2)
    exact = count_exact_sums(monkeypatch)
    points = np.random.default_rng(0).normal(size=(50, 3)) + 1e6
    with pytest.raises(RuntimeError, match="within-cluster SS increased"):
        kmeans(points, 3, seed=0)
    assert len(calls) == 2
    assert len(exact) == 2


def test_kmeans_checks_the_update_that_ends_the_loop(monkeypatch):
    calls = drifting_update(monkeypatch, 3)
    points = np.random.default_rng([5, 0xC5F]).uniform(size=(500, 4))
    assert kmeans(points, 5, seed=1, max_iters=2).shape == (500,)
    calls.clear()
    with pytest.raises(RuntimeError, match="within-cluster SS increased"):
        kmeans(points, 5, seed=1, max_iters=3)
    assert len(calls) == 3


def test_kmeans_sums_exactly_once_near_the_origin_and_every_iteration_far_out(
        monkeypatch):
    exact = count_exact_sums(monkeypatch)
    updates = []
    real_update = data_module._update_centroids
    monkeypatch.setattr(data_module, "_update_centroids",
                        lambda *args: updates.append(1) or real_update(*args))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        centres = rng.normal(0.0, 4.0, size=(5, 4))
        points = centres[rng.integers(5, size=400)] + rng.normal(size=(400, 4))
        cube = rng.uniform(size=(500, 3))
        for k in (1, 3, 8):
            for data, offset, once in ((cube, 0.0, True),
                                       (points, 0.0, True),
                                       (points, 1e6, False)):
                exact.clear()
                updates.clear()
                kmeans(data + offset, k, seed)
                # the screen's sum is checked after each assignment, the
                # loop's last update exactly; far out every update is
                # checked with the exact sum
                assert len(exact) == (1 if once else len(updates))


@pytest.mark.parametrize("n,k", [(10, 2), (7, 3)])
def test_kmeans_on_identical_points_warns_nothing(n, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assign = kmeans(np.zeros((n, 2)), k, 0)
    assert sorted(np.bincount(assign, minlength=k))[:-1] == [1] * (k - 1)


@pytest.mark.parametrize("seed,digest", [
    # Lloyd converges at iteration 96
    (3, "d49cb6e4dbd683bbae8fcb702cb2fc72beb7e7eae66a47c0c2108a84da448160"),
    # Lloyd runs to the 100-iteration cap
    (4, "d3ba4fc08bf9bd4dfa70b7015333aa1ca69cb37cfb222c0ec798b25427eb726f"),
])
def test_kmeans_pinned_near_the_lloyd_cap(seed, digest):
    """Uniform normals and a distant blob, the shape the CSV benchmark
    clusters, at a tenth of its rows; digests of the assignment as
    computed before the screen's sum of squares replaced the exact one."""
    rng = np.random.default_rng([5, 0xC5F])
    points = np.vstack([rng.uniform(0, 1, (5000, 10)),
                        3 + 0.3 * rng.standard_normal((250, 10))])
    points = points[rng.permutation(5250)]
    for laid_out in layouts(points):
        assign = kmeans(laid_out, 8, seed)
        assert hashlib.sha256(
            assign.astype(np.int64).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("dim", [3, 10, 16])
def test_row_distances_keep_row_major_bits_on_a_column_major_view(dim):
    """numpy sums a column-major row of 8 or more values in another order;
    the distances k-means reads, taken block by block, keep the bits of the
    whole row-major array's distances in either layout."""
    rng = np.random.default_rng(dim)
    points = rng.uniform(size=(9000, dim)) * 10.0 ** rng.uniform(-3, 3, dim)
    for c in points[:3]:
        expected = ((points - c) ** 2).sum(axis=1)
        for laid_out in layouts(points):
            got = data_module._sq_dist(laid_out, c)
            assert np.array_equal(got.view(np.int64),
                                  expected.view(np.int64))


def test_kmeans_on_a_column_major_view_makes_no_copy_of_it():
    """Column-major points are clustered in place: the call's traced peak
    stays under one copy of the points."""
    rng = np.random.default_rng(0)
    points = column_major(np.vstack([rng.normal(size=(50_000, 16)),
                                     rng.normal(8.0, size=(50_000, 16))]))
    expected = kmeans(np.ascontiguousarray(points), 2, 0)
    tracemalloc.start()
    try:
        assign = kmeans(points, 2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(assign, expected)
    assert peak < points.nbytes


# ---- partition_noniid ----

def blob_splits(rng_seed=0):
    """A blob dataset and its split's row indices."""
    ds = synth_blobs(600, (40, 40), dim=4, separations=(4.0, 9.0),
                     seed=rng_seed)
    return ds, split(ds, 0.6, 0.2, seed=1)


def test_partition_noniid_binary_clusters_and_floors():
    ds, splits = blob_splits()
    plan = partition_noniid(ds, splits, num_clients=3, seed=2)
    for split_name, rows in zip(("train", "val", "test"), splits):
        all_idx = np.concatenate(
            [plan.client_indices(split_name, c) for c in range(3)])
        assert sorted(all_idx) == list(range(rows.size))
    val_labels = ds.labels[splits[1]]
    for c in range(3):
        idx = plan.client_indices("val", c)
        assert len(idx) >= 1
        assert np.any(val_labels[idx] == 0)  # summary floor: a normal each
        assert len(plan.client_indices("train", c)) >= 1
        assert len(plan.client_indices("test", c)) >= 1


def test_partition_noniid_binary_k_clusters_dealt_round_robin():
    ds, splits = blob_splits()
    pooled = ds.features[np.concatenate(splits)]
    bounds = np.cumsum([0] + [rows.size for rows in splits])
    for k in (2, 3, 5):
        plan = partition_noniid(ds, splits, num_clients=3, k=k, seed=2)
        clusters = kmeans(pooled, k, 2)
        for i, split_name in enumerate(("train", "val", "test")):
            dealt = clusters[bounds[i]:bounds[i + 1]] % 3
            # every sample sits with client cluster % 3, except the at
            # most one per client that the floors move
            moved = sum(int(np.sum(dealt[plan.client_indices(split_name, c)]
                                   != c)) for c in range(3))
            assert moved <= 3
    # k defaults to num_clients
    default = partition_noniid(ds, splits, num_clients=3, seed=2)
    same = partition_noniid(ds, splits, num_clients=3, k=3, seed=2)
    for name in default.assignments:
        for a, b in zip(default.assignments[name], same.assignments[name]):
            assert np.array_equal(a, b)
    # two clusters over three clients: client 2 holds only the one train
    # sample its floor takes
    two = partition_noniid(ds, splits, num_clients=3, k=2, seed=2)
    assert len(two.client_indices("train", 2)) == 1


def test_partition_noniid_binary_k_above_the_row_count_names_noniid_k():
    with pytest.raises(ConfigError, match="^noniid_k=681 exceeds the 680 "
                                          "rows that k-means clusters$"):
        partition_noniid(*blob_splits(), num_clients=3, k=681, seed=2)


def test_partition_noniid_separated_anomaly_blobs_stay_together():
    ds = synth_blobs(400, (30, 30), dim=3, separations=(5.0, 30.0), seed=3)
    splits = split(ds, 0.6, 0.2, seed=4)
    plan = partition_noniid(ds, splits, num_clients=2, seed=5)
    # the far blob sits at 30 sigma: whichever client holds one far-blob
    # anomaly holds them all (cluster purity on well-separated blobs)
    for rows, split_name in ((splits[1], "val"), (splits[2], "test")):
        far = set(np.where((ds.labels[rows] == 1) &
                           (ds.features[rows].mean(axis=1) > 15.0))[0])
        owners = {c for c in range(2)
                  if far & set(plan.client_indices(split_name, c).tolist())}
        assert len(owners) == 1


def test_partition_noniid_multiclass_round_robin():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(120, 3))
    labels = np.zeros(120, dtype=np.int64)
    labels[110:] = 1
    classes = tuple(str(i % 4) if i < 110 else "anom" for i in range(120))
    ds = Dataset(features=features, labels=labels, feature_names=("a", "b", "c"),
                 name="multi", classes=classes)
    splits = split(ds, 0.5, 0.25, seed=6)
    plan = partition_noniid(ds, splits, num_clients=2, seed=7)
    train_classes = ds.classes[splits[0]]
    c0 = set(train_classes[plan.client_indices("train", 0)])
    c1 = set(train_classes[plan.client_indices("train", 1)])
    # normal classes are dealt to clients as whole groups
    assert c0.isdisjoint(c1)
    assert c0 | c1 == {"0", "1", "2", "3"}


def plan_digest(plan):
    """sha256 over every client's index array, values and dtype."""
    h = hashlib.sha256()
    for name in ("train", "val", "test"):
        for indices in plan.assignments[name]:
            h.update(f"{name}:{indices.dtype}:{indices.size};".encode())
            h.update(indices.tobytes())
    return h.hexdigest()


def multiclass_splits(num_classes, num_anomaly, seed):
    rng = np.random.default_rng(seed)
    n = 30 * num_classes + num_anomaly
    labels = np.zeros(n, dtype=np.int64)
    labels[n - num_anomaly:] = 1
    classes = [f"c{i % num_classes}" if i < n - num_anomaly else "attack"
               for i in range(n)]
    features = rng.normal(size=(n, 3)) + 4.0 * labels[:, None]
    ds = Dataset(features, labels, ("a", "b", "c"), "multi", classes=classes)
    return ds, split(ds, 0.5, 0.25, seed=seed)


def test_partition_noniid_plans_are_pinned():
    """Digests of plans written by the per-index implementation that the
    owner-array one replaced; a change here changes partition_plan.csv."""
    cases = (
        # two clusters over five clients: floors move rows in every split
        (lambda: partition_noniid(*blob_splits(), 5, k=2, seed=2),
         "cb86cb6af41b98ffb6d4147e3878cbcc26f3d9bfb84d14944178cb47f0ceeed5"),
        (lambda: partition_noniid(*blob_splits(), 3, seed=2),
         "c88ef54a07eb89f0f3ec69b69da39b6021cae8be742f022522a49dc4059af64a"),
        # three normal classes over four clients: client 3 takes floors
        (lambda: partition_noniid(*multiclass_splits(3, 12, 1), 4, seed=3),
         "479a18c7d92ec5f0e85dc3229bbd5f87d9744ebbd2413683cc340432d2e4a438"),
        (lambda: partition_noniid(*multiclass_splits(5, 20, 2), 2, k=3,
                                  seed=4),
         "6ab679f954dccb49c6cf8ea9d018dd2394ae225963739e1e216e2cdebb0631d3"),
    )
    for make, expected in cases:
        assert plan_digest(make()) == expected
    with pytest.warns(UserWarning, match="k=9 exceeds the 6 anomalies"):
        plan = partition_noniid(*multiclass_splits(4, 6, 3), 3, k=9, seed=5)
    assert plan_digest(plan) == \
        "d164ccec97e09726fa667f940afb56b4f421cbd1c2c25d187bc758237c5b1890"
    tiny = synth(10, 4, 2, 5.0, seed=0)
    with pytest.raises(ConfigError,
                       match="^cannot give every client one train sample$"):
        partition_noniid(tiny, split(tiny, 0.5, 0.25, seed=0), 6, k=1, seed=0)
    small = synth(40, 4, 2, 5.0, seed=0)
    with pytest.raises(ConfigError, match="^cannot give every client one "
                                          "normal val sample$"):
        partition_noniid(small, split(small, 0.6, 0.1, seed=0), 6, k=1, seed=0)


def write_plan_by_csv_writer(plan, path):
    """The per-row `csv.writer` loop that write_plan replaced: the oracle
    for its bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# scheme={plan.scheme} seed={plan.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["split", "client_id", "sample_index"])
        for split_name in sorted(plan.assignments):
            for client_id, indices in enumerate(plan.assignments[split_name]):
                for idx in indices:
                    writer.writerow([split_name, client_id, int(idx)])


def test_write_plan_matches_the_csv_writer_rows(tmp_path):
    ds, splits = blob_splits()
    handmade = PartitionPlan("handmade", {
        "train": [np.array([3, 1, 0]), np.array([], dtype=np.int64)],
        "val": [np.array([], dtype=np.int64), np.array([2])],
        "test": [np.array([10**12]), np.array([0, 5], dtype=np.int32)]}, 9)
    for plan in (partition_noniid(ds, splits, 5, k=2, seed=2),
                 partition_random(ds, splits, 4, seed=1),
                 partition_even(ds, splits, 3, seed=0), handmade):
        write_plan(plan, tmp_path / "plan.csv")
        write_plan_by_csv_writer(plan, tmp_path / "oracle.csv")
        assert (tmp_path / "plan.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes()


# ---- partition_random ----

def test_partition_random_conserves_and_floors():
    ds, splits = blob_splits()
    plan = partition_random(ds, splits, num_clients=5, seed=8,
                            concentration=0.1)
    for split_name, rows in zip(("train", "val", "test"), splits):
        all_idx = np.concatenate(
            [plan.client_indices(split_name, c) for c in range(5)])
        assert sorted(all_idx) == list(range(rows.size))
    for c in range(5):
        assert len(plan.client_indices("train", c)) >= 1
        assert len(plan.client_indices("val", c)) >= 1


def test_partition_random_high_concentration_is_near_even():
    plan = partition_random(*blob_splits(), num_clients=4, seed=9,
                            concentration=1e6)
    sizes = [len(plan.client_indices("train", c)) for c in range(4)]
    assert max(sizes) - min(sizes) <= 2


def test_partition_random_uneven_at_low_concentration():
    plan = partition_random(*blob_splits(), num_clients=4, seed=10,
                            concentration=0.05)
    sizes = [len(plan.client_indices("train", c)) for c in range(4)]
    assert max(sizes) - min(sizes) >= 10  # visibly skewed


def test_partition_random_two_by_two():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(8, 2))
    labels = np.array([0, 0, 0, 0, 0, 0, 1, 1], dtype=np.int64)
    ds = Dataset(features=features, labels=labels, feature_names=("a", "b"),
                 name="tiny")
    splits = split(ds, 0.34, 0.33, seed=0)
    plan = partition_random(ds, splits, num_clients=2, seed=1,
                            concentration=0.2)
    train_sizes = [len(plan.client_indices("train", c)) for c in range(2)]
    assert min(train_sizes) >= 1


def test_partition_random_rejects_proportions_that_cannot_apportion():
    # a huge concentration gives all-zero Dirichlet proportions
    ds, splits = blob_splits()
    for seed in range(5):
        for num_clients in (2, 4, 6):
            with pytest.raises(ConfigError, match=r"^concentration=1e\+308 "
                               "gives Dirichlet proportions that are "
                               "non-finite or sum to 0$"):
                partition_random(ds, splits, num_clients, seed, 1e308)


def test_partition_check_rejects_an_index_outside_the_split():
    splits = split(toy_dataset(), 0.6, 0.2, seed=0)
    whole = {name: [np.arange(rows.size)]
             for name, rows in zip(data_module.SPLIT_NAMES, splits)}
    data_module._check_conservation(whole, splits)
    n = splits[0].size
    for bad in (np.r_[np.arange(n - 1), 999], np.r_[np.arange(n - 1), -1],
                np.r_[np.arange(n - 1), 0]):
        with pytest.raises(ConfigError, match="does not cover split 'train' "
                           "exactly"):
            data_module._check_conservation({**whole, "train": [bad]}, splits)


def test_largest_remainder_rejects_non_finite_weights():
    assert list(largest_remainder([2.0, 1.0], 10)) == [7, 3]
    for weights in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]):
        with pytest.raises(ConfigError, match="^weights must be finite"):
            largest_remainder(weights, 10)


# ---- corruption ----

def make_client(rng, cid=0):
    return ClientState(
        client_id=cid,
        train_data=rng.normal(size=(30, 3)),
        val_data=rng.normal(size=(20, 3)),
        val_labels=(rng.random(20) < 0.2).astype(np.int64),
        test_data=rng.normal(size=(20, 3)),
        test_labels=(rng.random(20) < 0.2).astype(np.int64))


def test_corrupt_changes_validation_features_only(rng):
    b = make_client(rng, 1)
    b2 = corrupt(b, 2.0, seed=0)
    assert not np.array_equal(b2.val_data, b.val_data)
    assert np.array_equal(b2.train_data, b.train_data)
    assert np.array_equal(b2.val_labels, b.val_labels)
    assert np.array_equal(b2.test_data, b.test_data)


def test_corrupt_zero_scale_identity(rng):
    c = make_client(rng)
    assert corrupt(c, 0.0, seed=3) is c


def test_corrupt_constant_feature_unchanged(rng):
    c = make_client(rng)
    train = c.train_data.copy()
    train[:, 1] = 4.0  # zero train std
    c = ClientState(c.client_id, train, c.val_data, c.val_labels,
                    c.test_data, c.test_labels)
    out = corrupt(c, 1.0, seed=4)
    assert np.array_equal(out.val_data[:, 1], c.val_data[:, 1])
    assert not np.array_equal(out.val_data[:, 0], c.val_data[:, 0])


def test_corrupt_per_client_streams_independent(rng):
    a, b = make_client(rng, 0), make_client(rng, 1)
    # client 1's noise is the same whether or not client 0 was corrupted
    # first, and differs from client 0's under the same seed
    alone = corrupt(b, 1.0, seed=5)
    corrupt(a, 1.0, seed=5)
    after_a = corrupt(b, 1.0, seed=5)
    assert np.array_equal(after_a.val_data, alone.val_data)
    same_rows = replace(a, val_data=b.val_data, train_data=b.train_data)
    assert not np.array_equal(corrupt(same_rows, 1.0, seed=5).val_data,
                              alone.val_data)


def test_corrupt_rejects_a_negative_scale(rng):
    with pytest.raises(ConfigError, match="^noise_sigma_scale must be in"):
        corrupt(make_client(rng), -1.0, seed=0)


@pytest.mark.parametrize("scale", [1e30, 1e308])
def test_corrupt_rejects_noise_beyond_the_feature_cap(rng, scale):
    # noise past FEATURE_CAP would overflow the error summaries; at 1e308
    # the noise itself overflows to inf, with no numpy warning
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"noise_sigma_scale={scale!r} takes client 2's validation "
            "features beyond 1e+25") + "$"):
        corrupt(make_client(rng, 2), scale, seed=0)


# ---- synth ----

def test_synth_shapes_and_determinism():
    a = synth(50, 5, 4, separation=3.0, seed=42)
    b = synth(50, 5, 4, separation=3.0, seed=42)
    assert a.num_samples == 55 and a.num_features == 4
    assert a.num_anomalies == 5
    assert np.array_equal(a.features, b.features)
    normal_mean = a.features[a.labels == 0].mean()
    anomaly_mean = a.features[a.labels == 1].mean()
    assert anomaly_mean - normal_mean > 2.0


def test_synth_normal_only():
    ds = synth(30, 0, 3, separation=2.0, seed=0)
    assert ds.num_anomalies == 0


def test_synth_blobs_draws_the_bits_of_stacked_blocks():
    for seed in range(5):
        ds = synth_blobs(300, (7, 0, 25), dim=5, separations=(3.0, 9.0, -2.5),
                         seed=seed)
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((300, 5))]
        for size, sep in zip((7, 0, 25), (3.0, 9.0, -2.5)):
            blocks.append(rng.standard_normal((size, 5)) + sep)
        assert np.array_equal(ds.features.view(np.int64),
                              np.vstack(blocks).view(np.int64))


def test_synth_blobs_labeling():
    ds = synth_blobs(100, (10, 20), dim=3, separations=(3.0, 8.0), seed=1)
    assert ds.num_samples == 130 and ds.num_anomalies == 30
    far = ds.features[110:].mean()
    near = ds.features[100:110].mean()
    assert far > near
