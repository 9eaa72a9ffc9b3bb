"""Dataset ingestion, scaling, splitting, partitioning, and synthesis.

Datasets are immutable values: features + binary anomaly labels (1 =
anomaly), with the raw source class retained when one exists so the
class-grouped partitioner can use it. A split is three arrays of row
indices into one dataset; partitioning deals each split's rows onto
clients as a PartitionPlan, written to partition_plan.csv with every run.
"""
import csv
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .util import (NON_NEGATIVE, POSITIVE, SEVERAL, UNIT, check,
                   largest_remainder)

# shapes of the widely used public benchmarks, keyed by a filename hint:
# (rows, anomalies, feature dims). Used as a sanity warning on load.
KNOWN_DATASET_SHAPES = {
    "shuttle": (49097, 3511, 9),
    "covertype": (581012, 2747, 10),
    "creditcard": (284807, 492, 29),
}

SPLIT_NAMES = ("train", "val", "test")
SCALE_METHODS = ("minmax", "zscore")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    name: str
    classes: np.ndarray | None = None  # raw source class per sample, if any

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise ConfigError("features must be a 2-d matrix")
        if labels.shape != (features.shape[0],):
            raise ConfigError("one label per sample required")
        if not np.all((labels == 0) | (labels == 1)):
            raise ConfigError("labels must be binary (1 = anomaly)")
        if len(self.feature_names) != features.shape[1]:
            raise ConfigError("one name per feature column required")
        finite = np.isfinite(features).all(axis=0)
        if not finite.all():
            name = self.feature_names[int(finite.argmin())]
            raise ConfigError(f"feature column {name!r} holds non-finite "
                              "values")
        if self.classes is not None:
            classes = np.asarray(self.classes, dtype=object)
            object.__setattr__(self, "classes", classes)
            if len(classes) != features.shape[0]:
                raise ConfigError("one class per sample required")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_anomalies(self) -> int:
        return int(self.labels.sum())


def load_csv(path, label_column: str, positive_label: str) -> Dataset:
    """Read a headered numeric CSV; label_column equal to positive_label
    marks the anomaly class. Non-numeric and non-finite cells (nan, inf)
    are rejected with their row and column.

    numpy's C parser reads the table; a file it rejects, or may read
    differently from `csv.reader` and `float()`, is read again cell by
    cell, which also names the row and column of any bad cell.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such file")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ConfigError(f"{path}: label column {label_column!r} not in "
                              f"header {header}")
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        table = _read_table(fh, len(header), label_idx)
        if table is None:
            fh.seek(0)
            next(reader)
            table = _read_cells(reader, path, header, label_idx,
                                feature_names)
    features, classes = table
    ds = Dataset(features, classes == positive_label, feature_names,
                 path.stem, classes=classes)
    for hint, (n, n_anom, dim) in KNOWN_DATASET_SHAPES.items():
        if hint in path.stem.lower():
            got = (ds.num_samples, ds.num_anomalies, ds.num_features)
            if got != (n, n_anom, dim):
                warnings.warn(f"{path.name}: shape {got} differs from the "
                              f"published {(n, n_anom, dim)}")
    return ds


def _read_table(fh, num_columns: int, label_idx: int):
    """The data rows of fh, read by np.loadtxt, as (features, classes);
    None where the result could differ from `_read_cells`'.

    Without quotes, `csv.reader` splits cells and lines as loadtxt does,
    and loadtxt's float parser accepts a subset of what `float()` accepts
    (not `_` separators nor non-ASCII digits), with the same values. So a
    label cell holding a quote, a row of another width, no data row or a
    non-finite value sends the file to the per-cell reader.
    """
    codes = {}

    def label_code(cell):
        if '"' in cell:
            raise ValueError("quoted label")
        return codes.setdefault(cell.strip(), len(codes))

    try:
        with warnings.catch_warnings():
            # an empty table warns; the per-cell reader reports it
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                               converters={label_idx: label_code})
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] != num_columns:
        return None
    features = np.delete(table, label_idx, axis=1)
    if not np.isfinite(features).all():
        return None
    classes = np.array(list(codes))[table[:, label_idx].astype(np.intp)]
    return features, classes


def _read_cells(reader, path, header, label_idx: int, feature_names):
    """The data rows of a `csv.reader` as (features, classes), one
    `float()` per cell; a bad row or cell raises ConfigError naming it."""
    rows, row_nos, classes = [], [], []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {row_no} has {len(row)} cells, "
                              f"expected {len(header)}")
        classes.append(row[label_idx].strip())
        values = []
        for col_idx, cell in enumerate(row):
            if col_idx == label_idx:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise ConfigError(
                    f"{path}: row {row_no}, column "
                    f"{header[col_idx]!r}: non-numeric cell {cell!r}"
                ) from None
        rows.append(values)
        row_nos.append(row_no)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    features = np.array(rows)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"{path}: row {row_nos[i]}, column "
                          f"{feature_names[j]!r}: non-finite cell "
                          f"{float(features[i, j])}")
    return features, np.array(classes)


@dataclass(frozen=True)
class Scaler:
    """Per-feature affine map (x - offset) / scale; constant features
    (scale 0) map to 0."""

    method: str
    offset: np.ndarray
    scale: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        safe = np.where(self.scale == 0.0, 1.0, self.scale)
        out = features - self.offset
        out /= safe  # in place: one full-size temporary, not two
        out[:, self.scale == 0.0] = 0.0
        return out


def fit_scaler(features: np.ndarray, method: str = "minmax") -> Scaler:
    check("scale_method", method, SCALE_METHODS)
    features = np.asarray(features, dtype=np.float64)
    if features.size == 0:
        raise ConfigError("cannot fit a scaler on no data")
    # a range or spread that overflows is left inf for `apply_scaler` to
    # reject by column name, without a numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "minmax":
            lo = features.min(axis=0)
            return Scaler(method, lo, features.max(axis=0) - lo)
        return Scaler(method, features.mean(axis=0), features.std(axis=0))


def apply_scaler(dataset: Dataset, scaler: Scaler) -> Dataset:
    """The dataset scaled; overflow in the scaler or in a value is rejected."""
    finite = np.isfinite(scaler.offset) & np.isfinite(scaler.scale)
    if not finite.all():
        name = dataset.feature_names[int(finite.argmin())]
        raise ConfigError(f"scale_method={scaler.method!r} overflows on "
                          f"feature column {name!r}")
    return replace(dataset, features=scaler.transform(dataset.features))


def check_fractions(train_frac: float, val_frac: float) -> None:
    """Each fraction, and their sum, lies in (0, 1)."""
    UNIT.check("train_frac", train_frac)
    UNIT.check("val_frac", val_frac)
    if train_frac + val_frac not in UNIT:
        raise ConfigError(f"train_frac + val_frac must be in {UNIT}, got "
                          f"{train_frac!r} + {val_frac!r}")


def split(dataset: Dataset, train_frac: float, val_frac: float, seed: int):
    """Stratified train/val/test split, as three arrays of row indices
    into dataset; training keeps only normal samples.

    Normals are apportioned by (train, val, test) fractions; anomalies by
    (val, test) only, at least one each. Deterministic under seed.
    """
    check_fractions(train_frac, val_frac)
    test_frac = 1.0 - train_frac - val_frac
    rng = np.random.default_rng(seed)
    normal_idx = rng.permutation(np.where(dataset.labels == 0)[0])
    anomaly_idx = rng.permutation(np.where(dataset.labels == 1)[0])
    if anomaly_idx.size < 2:
        raise ConfigError(f"{anomaly_idx.size} anomalies cannot populate both "
                          "val and test")
    n_counts = largest_remainder(
        np.array([train_frac, val_frac, test_frac]), normal_idx.size)
    if n_counts[0] == 0:
        raise ConfigError(f"train_frac={train_frac} of {normal_idx.size} "
                          "normals leaves no training row")
    a_counts = largest_remainder(
        np.array([val_frac, test_frac]), anomaly_idx.size)
    for j in range(2):  # both eval splits need at least one anomaly
        if a_counts[j] == 0:
            a_counts[j], a_counts[1 - j] = 1, a_counts[1 - j] - 1
    train_n, val_n, test_n = np.split(normal_idx, np.cumsum(n_counts)[:-1])
    val_a, test_a = np.split(anomaly_idx, [a_counts[0]])
    return (train_n, np.concatenate([val_n, val_a]),
            np.concatenate([test_n, test_a]))


@dataclass(frozen=True)
class PartitionPlan:
    """Per-split client index lists; an index is a position in its split."""

    scheme: str
    assignments: dict  # split name -> list of per-client index arrays
    seed: int

    @property
    def num_clients(self) -> int:
        return len(next(iter(self.assignments.values())))

    def client_indices(self, split_name: str, client_id: int) -> np.ndarray:
        return self.assignments[split_name][client_id]


def _check_conservation(assignments, splits):
    for name, rows in zip(SPLIT_NAMES, splits):
        joined, n = np.concatenate(assignments[name]), rows.size
        if joined.size != n or n and not (
                0 <= joined.min() and joined.max() < n and
                np.all(np.bincount(joined, minlength=n) == 1)):
            raise ConfigError(f"partition does not cover split {name!r} exactly")


def partition_even(dataset: Dataset, splits, num_clients: int,
                   seed: int) -> PartitionPlan:
    """Shuffled round-robin deal of each split's rows, anomalies first, so
    client sizes and per-client anomaly counts differ by at most one."""
    POSITIVE.check("num_clients", num_clients)
    train_rows = splits[0].size
    if num_clients > train_rows:
        raise ConfigError(f"num_clients={num_clients} exceeds the {train_rows} "
                          "training rows; every client needs one")
    # the deal gives every client a val normal only if there are enough;
    # the summary protocol needs one on each client
    val_normals = int(np.count_nonzero(dataset.labels[splits[1]] == 0))
    if num_clients > val_normals:
        raise ConfigError(f"num_clients={num_clients} exceeds the "
                          f"{val_normals} validation normals; every client "
                          "needs one")
    rng = np.random.default_rng(seed)
    assignments = {}
    for name, rows in zip(SPLIT_NAMES, splits):
        labels = dataset.labels[rows]
        anom = rng.permutation(np.where(labels == 1)[0])
        norm = rng.permutation(np.where(labels == 0)[0])
        if name != "train" and anom.size < num_clients:
            warnings.warn(f"{name} split: {anom.size} anomalies across "
                          f"{num_clients} clients; some clients hold none")
        dealt = np.concatenate([anom, norm])
        assignments[name] = [dealt[i::num_clients] for i in range(num_clients)]
    _check_conservation(assignments, splits)
    return PartitionPlan("even", assignments, seed)


def _sq_dist(points: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of points to one centroid."""
    return ((points - centroid) ** 2).sum(axis=1)


def kmeans(points: np.ndarray, k: int, seed: int, max_iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; returns the assignment.

    Each point goes to the centroid nearest by `_sq_dist`, ties to the
    lowest index. Each iteration screens all points with ‖c‖² − 2·c·xᵀ
    (one matrix product), the expanded distance less the point's own ‖x‖²,
    then recomputes with `_sq_dist` every point whose best and second-best
    screen values lie within the rounding bound of each other; the rest
    cannot change their argmin. Deterministic under seed. Empty clusters are
    re-seeded with the farthest point of the largest cluster, which is
    force-reassigned. Within-cluster sum of squares is checked to be
    non-increasing: after each assignment it is read from the screen (each
    point's best value plus its ‖x‖²) where that sum's rounding is under
    1e-3 of the check's tolerance, and otherwise summed exactly with
    `_exact_wcss`; the update that ends the loop is checked exactly.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= {n}, got k={k}")
    reach = float(max(points.max(), -points.min()))
    if not 4.0 * n * points.shape[1] * reach * reach < np.inf:
        raise ConfigError(f"k-means overflows at features of {reach:g}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = _sq_dist(points, centroids[0])
    for j in range(1, k):
        total = closest.sum()
        if total > 0.0:
            pick = rng.choice(n, p=closest / total)
        else:
            pick = int(rng.integers(n))
        centroids[j] = points[pick]
        closest = np.minimum(closest, _sq_dist(points, centroids[j]))

    # The screen is s = ‖c‖² − 2·c·x, the squared distance less ‖x‖²,
    # which is the same for every centroid of a point and so leaves its
    # argmin alone. Its rounding bound, with u = eps/2 and D = ‖x‖² + ‖c‖²:
    # ‖c‖² and c·x are sums of d products, off by at most d·u·‖c‖² and
    # d·u·‖x‖‖c‖ <= d·u·D/2 in any summation order; scaling c by −2 is
    # exact and the one addition, on values below 2D, adds 2u·D. So s is
    # within (2d+2)·u·D = (d+1)·eps·D of its true value, and `_sq_dist`
    # (d differences, squares and additions of a true value below 2D) is
    # within (d+2)·eps·D of the true distance. If the best screen value
    # beats every other by more than E = (4d+6)·eps·D, its `_sq_dist`
    # beats theirs too, so only points with a second centroid that close
    # need the exact recheck. The slack below is over 4E, for second-order
    # terms.
    n_features = points.shape[1]
    eps = np.finfo(np.float64).eps
    slack = 16.0 * (n_features + 3) * eps
    # The screen's sum of squares: a point's best screen value plus its
    # ‖x‖² (off by d·u·‖x‖²), one addition on a value below 2D (eps·D),
    # is its squared distance to the nearest centroid within
    # (d+1 + d/2 + 1)·eps·D. Where the point has one close centroid, that
    # is its nearest and D takes its ‖c‖²; else the largest ‖c‖². numpy
    # sums pairwise, at worst in blocks of 8192 added in turn, so each
    # term meets at most log2(n) + 26 + n/8192 roundings of u. The bound
    # is doubled below for second-order terms.
    term_rate = (1.5 * n_features + 2.0) * eps
    sum_rate = (np.log2(n) + 26.0 + n / 8192.0) * eps / 2.0
    # a centroid coordinate, a mean of up to n values of size <= reach, is
    # off by up to delta; the WCSS then by n·d·delta·(delta + 2·rms error)
    delta = n * eps * reach

    def tolerance(wcss):
        return wcss * 1e-9 + 1e-12 + n * n_features * delta * (
            delta + 2.0 * (wcss / (n * n_features)) ** 0.5)

    def check(prev, wcss, rounding):
        if wcss - prev > tolerance(prev) + rounding:
            raise RuntimeError(
                f"within-cluster SS increased: {prev} -> {wcss}")

    sq_norms = np.einsum("ij,ij->i", points, points)
    sq_total = float(sq_norms.sum())
    points_t = np.ascontiguousarray(points.T)
    small = np.min_scalar_type(k)
    ids = np.arange(k, dtype=small)[:, None]
    d2 = np.empty((k, n))
    close = np.empty((k, n), dtype=bool)
    tag = np.empty((k, n), dtype=small)
    best = np.empty(n)
    row = np.empty(n)  # the screen's slack bound, then its distances
    resid = np.empty(n)
    prev_assign = None
    # the last sum of squares checked, and its rounding (0 for an exact sum)
    prev, prev_err = None, 0.0
    for _ in range(max_iters):
        centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
        np.matmul(centroids * -2.0, points_t, out=d2)
        d2 += centroid_sq[:, None]
        np.min(d2, axis=0, out=best)
        np.add(sq_norms, centroid_sq.max(), out=row)
        row *= slack
        row += best
        np.less_equal(d2, row, out=close)
        # a point with one close centroid takes it (the sum of the close
        # ids is that id); one with several, or none for a NaN distance,
        # is rechecked, so its sum may wrap in the small dtype
        assign = np.add.reduce(np.multiply(close, ids, out=tag), axis=0,
                               dtype=small).astype(np.intp)
        near = np.flatnonzero(np.add.reduce(close, axis=0, dtype=small) != 1)
        if near.size:
            rows = points[near]
            assign[near] = np.array(
                [_sq_dist(rows, c) for c in centroids]).argmin(axis=0)
        sizes = np.bincount(assign, minlength=k)
        # Lloyd's sum of squares does not rise across an update and an
        # assignment, so the screen's sum after this assignment is checked
        # against the last sum checked. Where it rounds too coarsely, the
        # update before is checked with the exact sum of the assignment it
        # followed. Each check spans one update; the first has none before.
        np.add(best, sq_norms, out=row)
        wcss = max(float(row.sum()), 0.0)  # a true sum of squares is >= 0
        term_err = term_rate * (sq_total + float(sizes @ centroid_sq)
                                + near.size * float(centroid_sq.max()))
        err = 2.0 * (term_err + sum_rate * (wcss + 2.0 * term_err))
        if prev is not None \
                and prev_err + err <= 1e-3 * tolerance(min(prev, wcss)):
            check(prev, wcss, prev_err + err)
            prev, prev_err = wcss, err
        elif prev_assign is not None:
            exact = _exact_wcss(points_t, centroids, prev_assign, resid)
            if prev is not None:
                check(prev, exact, prev_err)
            prev, prev_err = exact, 0.0
        elif err <= 1e-3 * tolerance(wcss):
            prev, prev_err = wcss, err
        # the largest cluster holds >= 2 points while any is empty, so a
        # reseed never empties another cluster
        for j in np.flatnonzero(sizes == 0):
            donor = int(sizes.argmax())
            members = np.flatnonzero(assign == donor)
            far = members[int(_sq_dist(points[members],
                                       centroids[donor]).argmax())]
            centroids[j] = points[far]
            assign[far] = j
            sizes[donor] -= 1
            sizes[j] = 1
        _update_centroids(centroids, points, points_t, assign, sizes)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    wcss = _exact_wcss(points_t, centroids, assign, resid)
    if prev is not None:
        check(prev, wcss, prev_err)
    return assign


def _exact_wcss(points_t, centroids, assign, resid) -> float:
    """Within-cluster sum of squares, one feature at a time, so no (n, d)
    gather of centroid rows; resid is an n-vector it overwrites."""
    wcss = 0.0
    for f in range(points_t.shape[0]):
        np.take(centroids[:, f], assign, out=resid)
        np.subtract(points_t[f], resid, out=resid)
        wcss += float(resid @ resid)
    return wcss


def _update_centroids(centroids, points, points_t, assign, sizes) -> None:
    """Set each centroid to the mean of its cluster's rows, in place."""
    k, n_features = centroids.shape
    if n_features == 1:
        # numpy sums a single column pairwise, not in index order as
        # bincount does, so 1-D input keeps the per-cluster mean
        for j in range(k):
            centroids[j] = points[assign == j].mean(axis=0)
    else:
        # bincount sums each cluster's rows in index order, as the mean
        # over the cluster's rows does, so the centroids keep their bits
        for f in range(n_features):
            centroids[:, f] = np.bincount(assign, weights=points_t[f],
                                          minlength=k) / sizes


def _ensure_each_has(owner, eligible, num_clients: int, what: str):
    """Give every client at least one eligible row: each client without
    one takes the highest-index eligible row of the first client holding
    the most. owner (the client of each row) is updated in place."""
    counts = np.bincount(owner[eligible], minlength=num_clients)
    for cid in np.flatnonzero(counts == 0):
        donor = int(counts.argmax())
        if counts[donor] < 2:
            raise ConfigError(f"cannot give every client one {what}")
        owner[np.flatnonzero(eligible & (owner == donor))[-1]] = cid
        counts[donor] -= 1
        counts[cid] = 1


def partition_noniid(dataset: Dataset, splits, num_clients: int = 6,
                     k: int | None = None, seed: int = 0) -> PartitionPlan:
    """Cluster-skewed partition of each split's rows (indices into dataset).

    Sources with multiple normal classes: classes are grouped per client
    (round-robin over sorted class values) and anomalies are k-means
    clustered (k clusters dealt round-robin to clients). Binary sources:
    k-means over all features makes k clusters, dealt round-robin to
    clients as whole clusters. k defaults to num_clients. Clients left
    without train or val samples take one from the largest client.
    """
    SEVERAL.check("num_clients", num_clients)
    labels = [dataset.labels[rows] for rows in splits]
    k = num_clients if k is None else k
    normal_classes = [] if dataset.classes is None else [
        dataset.classes[rows][lab == 0] for rows, lab in zip(splits, labels)]
    sorted_classes = np.unique(np.concatenate(normal_classes)) \
        if normal_classes else ()

    # owners[s][i] is the client holding row i of split s; -1 is no client
    if len(sorted_classes) >= 2:
        owners = []
        for c, lab in zip(normal_classes, labels):
            owner = np.full(lab.size, -1, dtype=np.int64)
            owner[lab == 0] = np.searchsorted(sorted_classes, c) % num_clients
            owners.append(owner)
        val_anom, test_anom = labels[1] == 1, labels[2] == 1
        pooled = dataset.features[np.concatenate(
            [splits[1][val_anom], splits[2][test_anom]])]
        if k > pooled.shape[0]:
            warnings.warn(f"k={k} exceeds the {pooled.shape[0]} anomalies; "
                          f"reduced to {pooled.shape[0]}")
            k = pooled.shape[0]
        dealt = kmeans(pooled, k, seed) % num_clients
        owners[1][val_anom], owners[2][test_anom] = np.split(
            dealt, [np.count_nonzero(val_anom)])
    else:
        pooled = dataset.features[np.concatenate(splits)]
        if k > pooled.shape[0]:
            raise ConfigError(f"noniid_k={k} exceeds the {pooled.shape[0]} "
                              f"rows that k-means clusters")
        owners = np.split(kmeans(pooled, k, seed) % num_clients,
                          np.cumsum([splits[0].size, splits[1].size]))

    # training and the summary protocol need a floor: one train sample and
    # one normal val sample per client; evaluation needs a non-empty test
    _ensure_each_has(owners[0], owners[0] >= 0, num_clients, "train sample")
    _ensure_each_has(owners[1], labels[1] == 0, num_clients,
                     "normal val sample")
    _ensure_each_has(owners[2], owners[2] >= 0, num_clients, "test sample")
    final = {name: [np.flatnonzero(owner == c) for c in range(num_clients)]
             for name, owner in zip(SPLIT_NAMES, owners)}
    _check_conservation(final, splits)
    return PartitionPlan("noniid_kmeans", final, seed)


def partition_random(dataset: Dataset, splits, num_clients: int, seed: int,
                     concentration: float = 0.5) -> PartitionPlan:
    """Dirichlet-proportioned deal of each split's rows, extreme skew at low
    concentration. Normals and anomalies follow the same client proportions;
    every client keeps at least one train and one val-normal sample."""
    SEVERAL.check("num_clients", num_clients)
    POSITIVE.check("concentration", concentration)
    rng = np.random.default_rng(seed)
    proportions = rng.dirichlet(np.full(num_clients, concentration))
    if not (np.all(np.isfinite(proportions)) and proportions.sum() > 0):
        raise ConfigError(f"concentration={concentration!r} gives Dirichlet "
                          "proportions that are non-finite or sum to 0")

    def apportion(total, need_one_each):
        if not need_one_each:
            return largest_remainder(proportions, total)
        # reserve one per client up front, apportion only the remainder
        if total < num_clients:
            raise ConfigError(f"{total} samples cannot give every one of "
                              f"{num_clients} clients at least one")
        return 1 + largest_remainder(proportions, total - num_clients)

    assignments = {}
    for name, rows in zip(SPLIT_NAMES, splits):
        labels = dataset.labels[rows]
        norm = rng.permutation(np.where(labels == 0)[0])
        anom = rng.permutation(np.where(labels == 1)[0])
        n_counts = apportion(norm.size, name in ("train", "val"))
        a_counts = largest_remainder(proportions, anom.size)
        assignments[name] = [np.concatenate(parts) for parts in zip(
            np.split(norm, np.cumsum(n_counts)[:-1]),
            np.split(anom, np.cumsum(a_counts)[:-1]))]
    _check_conservation(assignments, splits)
    return PartitionPlan("random", assignments, seed)


def write_plan(plan: PartitionPlan, path) -> None:
    """One `split,client_id,sample_index` row per index, with the CRLF
    line ends of `csv.writer`; split names need no quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# scheme={plan.scheme} seed={plan.seed}\n")
        csv.writer(fh).writerow(["split", "client_id", "sample_index"])
        for split_name in sorted(plan.assignments):
            for client_id, indices in enumerate(plan.assignments[split_name]):
                prefix = f"{split_name},{client_id},"
                fh.write("".join(prefix + str(i) + "\r\n"
                                 for i in indices.tolist()))


@dataclass(frozen=True)
class CorruptionSpec:
    corrupt_client_ids: frozenset
    noise_sigma_scale: float

    def __post_init__(self):
        object.__setattr__(self, "corrupt_client_ids",
                           frozenset(self.corrupt_client_ids))
        NON_NEGATIVE.check("noise_sigma_scale", self.noise_sigma_scale)


def corrupt(client_state, spec: CorruptionSpec, seed: int):
    """Gaussian-noise a corrupt client's validation features.

    Noise std per feature is noise_sigma_scale times that feature's std in
    the client's own training data, so constant features stay untouched.
    Labels, train, and test data are never modified; clients not listed
    come back unchanged.
    """
    if client_state.client_id not in spec.corrupt_client_ids or \
            spec.noise_sigma_scale == 0.0:
        return client_state
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, client_state.client_id]))
    feature_std = client_state.train_data.std(axis=0)
    noise = rng.standard_normal(client_state.val_data.shape) * \
        (spec.noise_sigma_scale * feature_std)
    return replace(client_state, val_data=client_state.val_data + noise)


def synth(num_normal: int, num_anomaly: int, dim: int, separation: float,
          seed: int) -> Dataset:
    """Gaussian blobs: normal ~ N(0, I), anomaly ~ N(separation * 1, I)."""
    return synth_blobs(num_normal, (num_anomaly,), dim, (separation,), seed)


def synth_blobs(num_normal: int, anomaly_blob_sizes, dim: int, separations,
                seed: int) -> Dataset:
    """Multi-blob variant: anomaly blob b sits at separations[b] * 1."""
    anomaly_blob_sizes = tuple(int(s) for s in anomaly_blob_sizes)
    separations = tuple(float(s) for s in separations)
    check("sample counts", (num_normal, *anomaly_blob_sizes), NON_NEGATIVE)
    POSITIVE.check("dim", dim)
    if len(anomaly_blob_sizes) != len(separations):
        raise ConfigError(f"anomaly_blob_sizes and separations differ in "
                          f"length: {anomaly_blob_sizes}, {separations}")
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((num_normal, dim))]
    for size, sep in zip(anomaly_blob_sizes, separations):
        blocks.append(rng.standard_normal((size, dim)) + sep)
    features = np.vstack(blocks)
    labels = np.concatenate([np.zeros(num_normal, dtype=np.int64),
                             np.ones(sum(anomaly_blob_sizes), dtype=np.int64)])
    name = (f"synth(n={num_normal}, a={anomaly_blob_sizes}, dim={dim}, "
            f"sep={separations}, seed={seed})")
    return Dataset(features, labels, tuple(f"f{i}" for i in range(dim)), name)
