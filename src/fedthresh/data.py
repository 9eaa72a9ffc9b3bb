"""Dataset ingestion, scaling, splitting, partitioning, and synthesis.

Datasets are immutable values: features + binary anomaly labels (1 =
anomaly), with the raw source class retained when one exists so the
class-grouped partitioner can use it. Partitioning produces a
PartitionPlan of per-split index lists, written to partition_plan.csv
with every run.
"""
import csv
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .util import largest_remainder

# shapes of the widely used public benchmarks, keyed by a filename hint:
# (rows, anomalies, feature dims). Used as a sanity warning on load.
KNOWN_DATASET_SHAPES = {
    "shuttle": (49097, 3511, 9),
    "covertype": (581012, 2747, 10),
    "creditcard": (284807, 492, 29),
}

SPLIT_NAMES = ("train", "val", "test")


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

    def take(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices], self.labels[indices], self.feature_names,
            self.name, None if self.classes is None else self.classes[indices])


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
        out = (features - self.offset) / safe
        out[:, self.scale == 0.0] = 0.0
        return out


def fit_scaler(features: np.ndarray, method: str = "minmax") -> Scaler:
    features = np.asarray(features, dtype=np.float64)
    if features.size == 0:
        raise ConfigError("cannot fit a scaler on no data")
    if method == "minmax":
        lo = features.min(axis=0)
        return Scaler(method, lo, features.max(axis=0) - lo)
    if method == "zscore":
        return Scaler(method, features.mean(axis=0), features.std(axis=0))
    raise ConfigError(f"unknown scaling method {method!r}")


def apply_scaler(dataset: Dataset, scaler: Scaler) -> Dataset:
    return replace(dataset, features=scaler.transform(dataset.features))


def check_fractions(train_frac: float, val_frac: float) -> None:
    if not (train_frac > 0 and val_frac > 0 and train_frac + val_frac < 1):
        raise ConfigError(f"bad fractions train={train_frac}, val={val_frac}; "
                          "need positive values with a test remainder")


def split(dataset: Dataset, train_frac: float, val_frac: float, seed: int):
    """Stratified train/val/test split; training keeps only normal samples.

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
    a_counts = largest_remainder(
        np.array([val_frac, test_frac]), anomaly_idx.size)
    for j in range(2):  # both eval splits need at least one anomaly
        if a_counts[j] == 0:
            a_counts[j], a_counts[1 - j] = 1, a_counts[1 - j] - 1
    train_n, val_n, test_n = np.split(normal_idx, np.cumsum(n_counts)[:-1])
    val_a, test_a = np.split(anomaly_idx, [a_counts[0]])
    return (dataset.take(train_n),
            dataset.take(np.concatenate([val_n, val_a])),
            dataset.take(np.concatenate([test_n, test_a])))


@dataclass(frozen=True)
class PartitionPlan:
    """Per-split client index lists; indices address that split's dataset."""

    scheme: str
    assignments: dict  # split name -> list of per-client index arrays
    seed: int

    @property
    def num_clients(self) -> int:
        return len(next(iter(self.assignments.values())))

    def client_indices(self, split_name: str, client_id: int) -> np.ndarray:
        return self.assignments[split_name][client_id]


def _check_conservation(assignments, split_datasets):
    for name, ds in zip(SPLIT_NAMES, split_datasets):
        joined = np.concatenate(assignments[name])
        if joined.size != ds.num_samples or \
                np.unique(joined).size != joined.size:
            raise ConfigError(f"partition does not cover split {name!r} exactly")


def _deal(indices: np.ndarray, num_clients: int):
    return [indices[i::num_clients] for i in range(num_clients)]


def partition_even(split_datasets, num_clients: int, seed: int) -> PartitionPlan:
    """Shuffled round-robin deal, anomalies first so both the client sizes
    and the per-client anomaly counts differ by at most one."""
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    train_rows = split_datasets[0].num_samples
    if num_clients > train_rows:
        raise ConfigError(f"num_clients={num_clients} exceeds the {train_rows} "
                          "training rows; every client needs one")
    # the deal gives every client a val normal only if there are enough;
    # the summary protocol needs one on each client
    val_normals = int(np.count_nonzero(split_datasets[1].labels == 0))
    if num_clients > val_normals:
        raise ConfigError(f"num_clients={num_clients} exceeds the "
                          f"{val_normals} validation normals; every client "
                          "needs one")
    rng = np.random.default_rng(seed)
    assignments = {}
    for name, ds in zip(SPLIT_NAMES, split_datasets):
        anom = rng.permutation(np.where(ds.labels == 1)[0])
        norm = rng.permutation(np.where(ds.labels == 0)[0])
        if name != "train" and anom.size < num_clients:
            warnings.warn(f"{name} split: {anom.size} anomalies across "
                          f"{num_clients} clients; some clients hold none")
        assignments[name] = _deal(np.concatenate([anom, norm]), num_clients)
    _check_conservation(assignments, split_datasets)
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
    non-increasing.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= {n}, got k={k}")
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
    slack = 16.0 * (n_features + 3) * np.finfo(np.float64).eps
    sq_norms = np.einsum("ij,ij->i", points, points)
    points_t = np.ascontiguousarray(points.T)
    ids = np.arange(k)
    d2 = np.empty((k, n))
    resid = np.empty(n)
    prev_assign = None
    prev_wcss = np.inf
    for _ in range(max_iters):
        centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
        np.matmul(centroids * -2.0, points_t, out=d2)
        d2 += centroid_sq[:, None]
        close = d2 <= d2.min(axis=0) + slack * (sq_norms + centroid_sq.max())
        # a point with one close centroid takes it (the sum of the close
        # ids is that id); one with several, or none for a NaN distance,
        # is rechecked
        assign = np.einsum("j,jn->n", ids, close)
        near = np.flatnonzero(np.count_nonzero(close, axis=0) != 1)
        if near.size:
            rows = points[near]
            assign[near] = np.array(
                [_sq_dist(rows, c) for c in centroids]).argmin(axis=0)
        sizes = np.bincount(assign, minlength=k)
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
        # one feature at a time, so no (n, d) gather of centroid rows
        wcss = 0.0
        for f in range(n_features):
            np.take(centroids[:, f], assign, out=resid)
            np.subtract(points_t[f], resid, out=resid)
            wcss += float(resid @ resid)
        if wcss > prev_wcss * (1.0 + 1e-9) + 1e-12:
            raise RuntimeError(
                f"within-cluster SS increased: {prev_wcss} -> {wcss}")
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign.copy()
        prev_wcss = wcss
    return assign


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


def partition_noniid(split_datasets, num_clients: int = 6, k: int | None = None,
                     seed: int = 0) -> PartitionPlan:
    """Cluster-skewed partition.

    Sources with multiple normal classes: classes are grouped per client
    (round-robin over sorted class values) and anomalies are k-means
    clustered (k clusters dealt round-robin to clients). Binary sources:
    k-means over all features makes k clusters, dealt round-robin to
    clients as whole clusters. k defaults to num_clients. Clients left
    without train or val samples take one from the largest client.
    """
    if num_clients < 2:
        raise ConfigError(f"num_clients must be >= 2, got {num_clients}")
    train, val, test = split_datasets
    if k is None:
        k = num_clients
    normal_classes = None
    if train.classes is not None:
        normal_classes = np.unique(np.concatenate([
            np.asarray(ds.classes)[ds.labels == 0]
            for ds in split_datasets if ds.classes is not None]))

    # owners[s][i] is the client holding row i of split s; -1 is no client
    if normal_classes is not None and normal_classes.size >= 2:
        owners = []
        for ds in split_datasets:
            owner = np.full(ds.num_samples, -1, dtype=np.int64)
            normal = ds.labels == 0
            owner[normal] = np.searchsorted(
                normal_classes, ds.classes[normal]) % num_clients
            owners.append(owner)
        val_anom, test_anom = val.labels == 1, test.labels == 1
        pooled = np.vstack([val.features[val_anom], test.features[test_anom]])
        if k > pooled.shape[0]:
            warnings.warn(f"k={k} exceeds the {pooled.shape[0]} anomalies; "
                          f"reduced to {pooled.shape[0]}")
            k = pooled.shape[0]
        dealt = kmeans(pooled, k, seed) % num_clients
        owners[1][val_anom], owners[2][test_anom] = np.split(
            dealt, [np.count_nonzero(val_anom)])
    else:
        pooled = np.vstack([ds.features for ds in split_datasets])
        owners = np.split(kmeans(pooled, k, seed) % num_clients,
                          np.cumsum([train.num_samples, val.num_samples]))

    # training and the summary protocol need a floor: one train sample and
    # one normal val sample per client; evaluation needs a non-empty test
    _ensure_each_has(owners[0], owners[0] >= 0, num_clients, "train sample")
    _ensure_each_has(owners[1], val.labels == 0, num_clients,
                     "normal val sample")
    _ensure_each_has(owners[2], owners[2] >= 0, num_clients, "test sample")
    final = {name: [np.flatnonzero(owner == c) for c in range(num_clients)]
             for name, owner in zip(SPLIT_NAMES, owners)}
    _check_conservation(final, split_datasets)
    return PartitionPlan("noniid_kmeans", final, seed)


def check_concentration(concentration: float) -> None:
    if not concentration > 0:
        raise ConfigError(f"concentration must be positive, got {concentration}")
    if not np.isfinite(concentration):
        raise ConfigError(f"concentration must be finite, got {concentration}")


def partition_random(split_datasets, num_clients: int, seed: int,
                     concentration: float = 0.5) -> PartitionPlan:
    """Dirichlet-proportioned uneven partition; low concentration = extreme
    skew. Normals and anomalies follow the same client proportions; every
    client keeps at least one train and one val-normal sample."""
    if num_clients < 2:
        raise ConfigError(f"num_clients must be >= 2, got {num_clients}")
    check_concentration(concentration)
    rng = np.random.default_rng(seed)
    proportions = rng.dirichlet(np.full(num_clients, concentration))

    def apportion(total, need_one_each):
        if not need_one_each:
            return largest_remainder(proportions, total)
        # reserve one per client up front, apportion only the remainder
        if total < num_clients:
            raise ConfigError(f"{total} samples cannot give every one of "
                              f"{num_clients} clients at least one")
        return 1 + largest_remainder(proportions, total - num_clients)

    assignments = {}
    for name, ds in zip(SPLIT_NAMES, split_datasets):
        norm = rng.permutation(np.where(ds.labels == 0)[0])
        anom = rng.permutation(np.where(ds.labels == 1)[0])
        n_counts = apportion(norm.size, name in ("train", "val"))
        a_counts = largest_remainder(proportions, anom.size)
        assignments[name] = [np.concatenate(parts) for parts in zip(
            np.split(norm, np.cumsum(n_counts)[:-1]),
            np.split(anom, np.cumsum(a_counts)[:-1]))]
    _check_conservation(assignments, split_datasets)
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
        if self.noise_sigma_scale < 0:
            raise ConfigError("noise_sigma_scale must be >= 0")
        if not np.isfinite(self.noise_sigma_scale):
            raise ConfigError(f"noise_sigma_scale must be finite, got "
                              f"{self.noise_sigma_scale}")


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
    if num_normal < 0 or any(s < 0 for s in anomaly_blob_sizes) or dim < 1:
        raise ConfigError("counts must be >= 0 and dim >= 1")
    if len(anomaly_blob_sizes) != len(separations):
        raise ConfigError("one separation per anomaly blob required")
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
