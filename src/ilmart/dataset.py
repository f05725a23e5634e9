"""Query-grouped ranking data in LETOR/SVMLight text format, plus feature binning.

A data file holds one query-document pair per line::

    <label> qid:<qid> <fid>:<value> <fid>:<value> ... # optional comment

Labels are integer relevance grades, feature ids are 1-based, and absent
feature ids default to 0. Feature values must be finite: NaN and +-inf are
rejected. Rows are grouped by query id in order of first appearance.
Histogram boundaries for tree learning are computed once on the training
split and reused everywhere else.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Gains are 2**label - 1; anything above this would lose exactness in float64.
MAX_LABEL = 31

DEFAULT_MAX_BINS = 255


class DatasetError(ValueError):
    """Malformed ranking data or inconsistent dataset configuration."""


@dataclass
class Dataset:
    """Dense feature matrix with per-row labels and query grouping.

    ``features[r, k]`` holds feature id ``k + 1`` of row ``r`` (feature ids
    are 1-based to match the file format). ``query_groups`` partitions row
    indices by query id, groups ordered by first appearance in the file.
    """

    features: np.ndarray
    labels: np.ndarray
    qids: list[str]
    query_groups: list[np.ndarray]

    @classmethod
    def from_rows(cls, labels, qids, features, where=None) -> "Dataset":
        """Build a dataset, rejecting non-finite feature values.

        ``where(r)`` names row ``r`` in the error message (default "row r").
        """
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int32)
        qids = [str(q) for q in qids]
        if features.ndim != 2:
            raise DatasetError("features must be a 2-d matrix")
        n = features.shape[0]
        if labels.shape != (n,) or len(qids) != n:
            raise DatasetError("labels, qids and features must have equal length")
        if n == 0:
            raise DatasetError("dataset has no rows")
        if labels.min() < 0 or labels.max() > MAX_LABEL:
            raise DatasetError(f"labels must be integers in [0, {MAX_LABEL}]")
        finite = np.isfinite(features)
        if not finite.all():
            r, k = np.argwhere(~finite)[0].tolist()
            at = where(r) if where else f"row {r}"
            raise DatasetError(f"{at}: non-finite value {float(features[r, k])!r} "
                               f"for feature {k + 1}")
        groups: dict[str, list[int]] = {}
        for i, q in enumerate(qids):
            groups.setdefault(q, []).append(i)
        query_groups = [np.asarray(rows, dtype=np.intp) for rows in groups.values()]
        return cls(features, labels, qids, query_groups)

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_queries(self) -> int:
        return len(self.query_groups)

    @property
    def group_qids(self) -> list[str]:
        return [self.qids[g[0]] for g in self.query_groups]

    @cached_property
    def query_sizes(self) -> np.ndarray:
        """Number of rows of each query, in ``query_groups`` order."""
        return np.array([rows.size for rows in self.query_groups], dtype=np.intp)

    @cached_property
    def query_index(self) -> np.ndarray:
        """Position in ``query_groups`` of each row's query."""
        index = np.empty(self.num_rows, dtype=np.intp)
        index[np.concatenate(self.query_groups)] = np.repeat(
            np.arange(self.num_queries), self.query_sizes)
        return index

    def digest(self) -> str:
        """Content hash recorded in trained model metadata."""
        h = hashlib.sha256()
        h.update(np.asarray(self.features.shape, dtype=np.int64).tobytes())
        h.update(self.labels.tobytes())
        h.update(self.features.tobytes())
        h.update("\x00".join(self.qids).encode("utf-8"))
        return h.hexdigest()

    def save_svmlight(self, path) -> None:
        """Write all rows back out in LETOR text form (all features explicit)."""
        with open(path, "w", encoding="utf-8") as fh:
            for r in range(self.num_rows):
                feats = " ".join(
                    f"{k + 1}:{float(self.features[r, k])!r}" for k in range(self.num_features)
                )
                line = f"{self.labels[r]} qid:{self.qids[r]}"
                fh.write(line + (" " + feats if feats else "") + "\n")


def _parse_label(token: str, where: str) -> int:
    try:
        value = float(token)
    except ValueError:
        raise DatasetError(f"{where}: non-integer label {token!r}") from None
    if not value.is_integer():
        raise DatasetError(f"{where}: non-integer label {token!r}")
    label = int(value)
    if label < 0:
        raise DatasetError(f"{where}: label must be >= 0, got {label}")
    if label > MAX_LABEL:
        raise DatasetError(f"{where}: label {label} exceeds the maximum of {MAX_LABEL}")
    return label


def load_svmlight(path, num_features: int | None = None) -> Dataset:
    """Parse a LETOR/SVMLight ranking file into a :class:`Dataset`.

    ``num_features`` overrides the inferred dimensionality (the maximum
    feature id seen in the file) so that train/validation/test splits agree
    even when one split never uses the last feature.
    """
    labels: list[int] = []
    qids: list[str] = []
    linenos: list[int] = []
    parsed_rows: list[tuple[np.ndarray, np.ndarray]] = []
    max_fid = 0

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            tokens = line.split()
            if len(tokens) < 2 or not tokens[1].startswith("qid:"):
                raise DatasetError(f"{where}: expected '<label> qid:<qid> ...'")
            qid = tokens[1][4:]
            if not qid:
                raise DatasetError(f"{where}: empty query id")
            label = _parse_label(tokens[0], where)

            fids: list[int] = []
            vals: list[float] = []
            seen: set[int] = set()
            for tok in tokens[2:]:
                fid_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise DatasetError(f"{where}: malformed feature token {tok!r}")
                try:
                    fid = int(fid_s)
                except ValueError:
                    raise DatasetError(f"{where}: non-integer feature id {fid_s!r}") from None
                if fid <= 0:
                    raise DatasetError(f"{where}: feature id must be >= 1, got {fid}")
                if fid in seen:
                    raise DatasetError(f"{where}: duplicate feature id {fid}")
                seen.add(fid)
                try:
                    val = float(val_s)
                except ValueError:
                    raise DatasetError(f"{where}: bad feature value {val_s!r}") from None
                fids.append(fid)
                vals.append(val)
            max_fid = max(max_fid, max(fids, default=0))
            labels.append(label)
            qids.append(qid)
            linenos.append(lineno)
            parsed_rows.append((np.asarray(fids, dtype=np.intp), np.asarray(vals)))

    if not parsed_rows:
        raise DatasetError(f"{path}: empty file")

    d = max_fid if num_features is None else int(num_features)
    if num_features is not None and max_fid > d:
        raise DatasetError(
            f"{path}: feature id {max_fid} exceeds --num-features {d}"
        )
    features = np.zeros((len(parsed_rows), d), dtype=np.float64)
    for r, (fids, vals) in enumerate(parsed_rows):
        if fids.size:
            features[r, fids - 1] = vals
    return Dataset.from_rows(labels, qids, features, where=lambda r: f"{path}:{linenos[r]}")


@dataclass
class BinMapper:
    """Per-feature histogram boundaries plus the binned training matrix.

    ``boundaries[k]`` is a strictly increasing array of thresholds for
    feature id ``k + 1``; values map to bin ``searchsorted(boundaries, x,
    'left')``, i.e. bin ``b`` covers the half-open interval
    ``(boundaries[b-1], boundaries[b]]``. A constant feature has no
    boundaries and a single bin.

    :func:`build_bins` stores ``binned`` feature-major, so ``binned[:, k]``
    is a contiguous column. ``counts[k]`` holds the number of rows in each
    bin of feature ``k + 1`` (the same at the root of every tree).
    """

    boundaries: list[np.ndarray]
    binned: np.ndarray
    counts: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.counts = [np.bincount(self.binned[:, k], minlength=b.size + 1)
                       for k, b in enumerate(self.boundaries)]

    @property
    def num_features(self) -> int:
        return len(self.boundaries)

    @property
    def num_rows(self) -> int:
        return self.binned.shape[0]

    def num_bins(self, fid: int) -> int:
        return len(self.boundaries[fid - 1]) + 1


def _midpoints(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Boundaries ``m`` with ``lower <= m < upper``, halfway where possible.

    ``lower / 2 + upper / 2`` is used only where ``lower + upper`` overflows,
    and ``lower`` itself where the halfway point of two adjacent floats
    rounds up to ``upper`` (which would put both values in one bin).
    """
    with np.errstate(over="ignore"):
        total = lower + upper
    mid = np.where(np.isfinite(total), total / 2.0, lower / 2.0 + upper / 2.0)
    return np.where(mid < upper, mid, lower)


def build_bins(ds: Dataset, max_bins: int = DEFAULT_MAX_BINS) -> BinMapper:
    """Choose per-feature bin boundaries at quantiles of the distinct values.

    Yields at most ``max_bins`` bins per feature; when a feature has no more
    distinct values than ``max_bins``, every distinct value gets its own bin.
    Boundaries sit halfway between consecutive distinct values so that
    ``value <= boundary`` routing is exact on the training data.
    """
    if max_bins < 2:
        raise DatasetError(f"max_bins must be >= 2, got {max_bins}")
    dtype = np.uint8 if max_bins <= 256 else np.int32
    binned = np.zeros((ds.num_rows, ds.num_features), dtype=dtype, order="F")
    boundaries: list[np.ndarray] = []
    for k in range(ds.num_features):
        # Bin the distinct values once; every row takes its value's bin.
        distinct, inverse = np.unique(ds.features[:, k], return_inverse=True)
        m = distinct.size
        if m <= 1:
            bounds = np.empty(0, dtype=np.float64)
        elif m <= max_bins:
            bounds = _midpoints(distinct[:-1], distinct[1:])
        else:
            cut = np.floor(np.arange(1, max_bins) * m / max_bins).astype(np.intp)
            bounds = _midpoints(distinct[cut - 1], distinct[cut])
        boundaries.append(bounds)
        binned[:, k] = np.searchsorted(bounds, distinct, side="left")[inverse]
    return BinMapper(boundaries, binned)
