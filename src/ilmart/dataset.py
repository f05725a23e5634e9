"""Query-grouped ranking data in LETOR/SVMLight text format, plus feature binning.

A data file holds one query-document pair per line::

    <label> qid:<qid> <fid>:<value> <fid>:<value> ... # optional comment

Labels are integer relevance grades, feature ids are 1-based, and absent
feature ids default to 0. Feature values must be finite: NaN and +-inf are
rejected. Rows are grouped by query id in order of first appearance.
Histogram boundaries for tree learning are computed once on the training
split and reused everywhere else.

The loader reads a file in blocks of lines and parses each block's numbers
with one ``np.loadtxt`` call. A block goes line by line through
:func:`_parse_line`, which defines the grammar and words every error, when
any of its lines is not plain ASCII ``<label> qid:<qid> <fid>:<value> ...``
with single spaces between tokens and numbers that ``int()``/``float()`` and
numpy read alike, or breaks a rule of the format (a label outside
``[0, MAX_LABEL]``, a feature id below 1, a repeated id in a line, a value
that is not finite). That
covers bad lines, so the first one in the file is the one reported, and odd
but valid ones: tabs or runs of spaces, ``1_0``, non-ASCII digits. Each
parsed block goes straight into its rows of the final matrix.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import warnings
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
    def from_rows(cls, labels, qids, features) -> "Dataset":
        """Build a dataset, rejecting non-finite feature values."""
        features = np.ascontiguousarray(features, dtype=np.float64)
        # Checked as floats: the int32 cast would truncate a fraction and wrap a wide integer.
        labels = np.asarray(labels, dtype=np.float64)
        qids = [str(q) for q in qids]
        if features.ndim != 2:
            raise DatasetError("features must be a 2-d matrix")
        n = features.shape[0]
        if labels.shape != (n,) or len(qids) != n:
            raise DatasetError("labels, qids and features must have equal length")
        if n == 0:
            raise DatasetError("dataset has no rows")
        if not np.all((labels >= 0) & (labels <= MAX_LABEL) & (labels == np.floor(labels))):
            raise DatasetError(f"labels must be integers in [0, {MAX_LABEL}]")
        labels = labels.astype(np.int32)
        # In blocks of rows, so that the check holds one block's mask at a time.
        for start in range(0, n, _BLOCK_LINES):
            finite = np.isfinite(features[start:start + _BLOCK_LINES])
            if not finite.all():
                r, k = np.argwhere(~finite)[0].tolist()
                r += start
                raise DatasetError(f"row {r}: non-finite value {float(features[r, k])!r} "
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
        """Content hash recorded in trained model metadata.

        The arrays' buffers go to the hash as they are, and the query ids a
        block at a time, so hashing copies nothing the size of the dataset
        (an array that is not C-contiguous is copied first).
        """
        h = hashlib.sha256()
        h.update(np.asarray(self.features.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.labels))
        h.update(np.ascontiguousarray(self.features))
        # The ids joined by "\x00", as one string would join them.
        for start in range(0, len(self.qids), _BLOCK_LINES):
            if start:
                h.update(b"\x00")
            h.update("\x00".join(self.qids[start:start + _BLOCK_LINES]).encode("utf-8"))
        return h.hexdigest()

    def save_svmlight(self, path) -> None:
        """Write all rows back out in LETOR text form (all features explicit).

        Each value is written as ``repr`` writes it, the shortest text that
        reads back to the same float, so a file read back holds the same bits
        (``-0.0`` included). Rows go out a block of ``_BLOCK_LINES`` at a
        time: each distinct value of a block is formatted once and each line
        with one template. A query id that would not read back as written
        (empty, or holding whitespace or ``#``) is refused before the file is
        opened.
        """
        _check_writable(self.qids)
        line = "{} qid:{}" + "".join(f" {k}:{{}}" for k in range(1, self.num_features + 1)) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            for start in range(0, self.num_rows, _BLOCK_LINES):
                stop = start + _BLOCK_LINES
                block = np.ascontiguousarray(self.features[start:stop], dtype=np.float64)
                # Distinct bit patterns, so that -0.0 and 0.0 keep their own text.
                bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
                text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
                cells = text[inverse.reshape(block.shape)].tolist()
                fh.write("".join([line.format(label, qid, *row) for label, qid, row in
                                  zip(self.labels[start:stop].tolist(), self.qids[start:stop],
                                      cells)]))


def _check_writable(qids) -> None:
    """Refuse the first query id that would not read back as written: the
    loader splits a line at whitespace and drops what follows ``#``."""
    for qid in dict.fromkeys(qids):
        text = str(qid)
        if text.split() != [text] or "#" in text:
            raise DatasetError(f"row {qids.index(qid)}: query id {text!r} cannot be written: "
                               "a query id must be non-empty, with no whitespace and no '#'")


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


def _parse_line(tokens: list[str], where: str):
    """``(label, qid, fids, values)`` of one line's whitespace-split tokens.

    This is the grammar's definition: every line the bulk parser refuses is
    read here, and every error message comes from here.
    """
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
        if not math.isfinite(val):
            raise DatasetError(f"{where}: non-finite value {val!r} for feature {fid}")
        fids.append(fid)
        vals.append(val)
    return label, qid, np.asarray(fids, dtype=np.intp), np.asarray(vals)


# Rows per block of the whole-dataset passes: lines parsed per bulk call and
# lines formatted per write, rows per finiteness check and query ids per
# hash update. It bounds each pass's working memory beside the matrix: the
# block's text, its copies and numpy's parse buffers.
_BLOCK_LINES = 512

# Bytes a line's separator signature drops: all but " ", ":" and the control
# characters, so that a tab or any other control byte spoils the signature.
_NOT_SEPARATOR = bytes(b for b in range(32, 256) if b not in b" :")


def _parse_block(lines: list[str]):
    """Parse stripped, non-empty lines with one ``np.loadtxt`` call, or return None.

    Returns ``(labels, qids, fids, values)``: row ``r`` of the ``(rows,
    width)`` arrays holds line ``r``'s tokens in file order, padded with
    feature id 0 and value 0.0 to the widest line. The fields are float64
    labels and values and int64 feature ids; numpy reads floats with the
    routine ``float()`` uses, so every number it accepts reads as
    :func:`_parse_line` reads it. None means the block is for
    :func:`_parse_line` (see the module docstring).
    """
    qids, texts = [], []
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[1].startswith("qid:") or parts[1] == "qid:":
            return None
        qids.append(parts.pop(1)[4:])
        texts.append(" ".join(parts))
    try:
        signatures = "\n".join(texts).encode("ascii").translate(None, _NOT_SEPARATOR)
    except UnicodeEncodeError:
        return None
    # Each line's signature must be " :" once per token: this refuses a token
    # with no colon or two, a run of spaces, and tabs or other control bytes.
    if signatures.replace(b" :", b"") != b"\n" * (len(lines) - 1):
        return None
    counts = np.fromiter(map(len, signatures.split(b"\n")), np.intp, len(lines)) // 2
    width = int(counts.max())
    texts = [text.replace(":", " ") + " 0 0" * (width - c)
             for text, c in zip(texts, counts.tolist())]
    dtype = np.dtype({"names": [f"f{k}" for k in range(2 * width + 1)],
                      "formats": ["f8"] + ["i8", "f8"] * width})
    try:
        # Older numpy reads "1.0" into an int64 field and only warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(texts, dtype=dtype, delimiter=" ", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    table = table.view(np.int64).reshape(len(lines), 2 * width + 1)
    labels = table[:, 0].view(np.float64)
    fids = table[:, 1::2]
    values = table[:, 2::2].view(np.float64)
    # The padding ids are 0, so every real id is >= 1 when counts.sum() ids are.
    if not (np.all((labels >= 0) & (labels <= MAX_LABEL) & (labels == np.floor(labels)))
            and np.count_nonzero(fids > 0) == counts.sum() and _distinct_per_row(fids)
            and np.isfinite(values).all()):
        return None
    return labels.astype(np.int32), qids, fids, values


def _distinct_per_row(fids: np.ndarray) -> bool:
    """Whether no row of ``fids`` repeats a positive id, given that each row's
    zeros follow its positive ids. Rows are sorted only if some row is not
    already increasing."""
    def increasing(a):
        return bool(np.all((a[:, 1:] > a[:, :-1]) | (a[:, 1:] == 0)))
    return increasing(fids) or increasing(np.sort(fids, axis=1))


def _parse_lines(rows: list[tuple[int, str]], path):
    """:func:`_parse_block`'s result for ``(lineno, line)`` pairs, read one
    line at a time by :func:`_parse_line`; raises on the first bad line."""
    parsed = [_parse_line(line.split(), f"{path}:{lineno}") for lineno, line in rows]
    width = max(fids.size for _, _, fids, _ in parsed)
    fids = np.zeros((len(parsed), width), dtype=np.intp)
    values = np.zeros((len(parsed), width), dtype=np.float64)
    for r, (_, _, row_fids, row_values) in enumerate(parsed):
        fids[r, :row_fids.size] = row_fids
        values[r, :row_values.size] = row_values
    return np.array([p[0] for p in parsed], dtype=np.int32), [p[1] for p in parsed], fids, values


def _widen(features: np.ndarray, rows: int, width: int) -> None:
    """Give ``features`` ``width`` columns in place, keeping its first ``rows``
    rows; the new cells are 0. Rows move a block at a time, last block first,
    so that no row is overwritten before it has moved."""
    capacity, old = features.shape
    features.resize((capacity, width), refcheck=False)
    flat = features.reshape(-1)
    for stop in range(rows, 0, -_BLOCK_LINES):
        start = max(stop - _BLOCK_LINES, 0)
        features[start:stop, :old] = flat[start * old:stop * old].reshape(stop - start, old).copy()
        features[start:stop, old:] = 0.0


def _scatter(rows: np.ndarray, fids: np.ndarray, values: np.ndarray) -> None:
    """``rows[r, fid - 1] = value`` for each real (non-zero) id of ``fids``."""
    real = fids > 0
    rows[real.nonzero()[0], fids[real] - 1] = values[real]


def load_svmlight(path, num_features: int | None = None) -> Dataset:
    """Parse a LETOR/SVMLight ranking file into a :class:`Dataset`.

    ``num_features`` overrides the inferred dimensionality (the maximum
    feature id seen in the file) so that train/validation/test splits agree
    even when one split never uses the last feature.

    Each block of lines is parsed and copied straight into its rows of the
    final matrix. The matrix grows its rows in place, by a sixteenth at a time,
    and is cut to the rows read at the end; without ``num_features``, a block
    wider than the matrix widens it in place. A matrix that numpy cannot shape
    or allocate is a :class:`DatasetError` that names its width.
    """
    d = None if num_features is None else int(num_features)
    capacity = _BLOCK_LINES
    features = None                 # made at the first block, when the width is known
    labels = np.zeros(capacity, dtype=np.int32)
    qids: list[str] = []
    names: dict[str, str] = {}      # one string per query id, shared by its rows
    rows = max_fid = 0

    try:
        with open(path, encoding="utf-8") as fh:
            numbered = enumerate(fh, start=1)
            while chunk := list(itertools.islice(numbered, _BLOCK_LINES)):
                kept = [(lineno, line) for lineno, raw in chunk
                        if (line := raw.split("#", 1)[0].strip())]
                del chunk                   # the raw lines; the stripped ones are kept
                if not kept:
                    continue
                block_labels, block_qids, fids, values = (
                    _parse_block([line for _, line in kept]) or _parse_lines(kept, path))
                width = int(fids.max(initial=0))
                max_fid = max(max_fid, width)
                stop = rows + len(kept)
                try:
                    if features is None:
                        features = np.zeros((capacity, max(width if d is None else d, 0)))
                    if stop > capacity:
                        capacity = stop + stop // 16
                        features.resize((capacity, features.shape[1]), refcheck=False)
                        labels.resize(capacity, refcheck=False)
                    if d is None and width > features.shape[1]:
                        _widen(features, rows, width)
                except (ValueError, MemoryError):   # a width numpy cannot shape or allocate
                    raise DatasetError(f"{path}: {max_fid if d is None else d} features "
                                       "are too many for one matrix") from None
                labels[rows:stop] = block_labels
                qids.extend([names.setdefault(q, q) for q in block_qids])
                # A block wider than --num-features fails below; it is not stored.
                if d is None or width <= d:
                    _scatter(features[rows:stop], fids, values)
                rows = stop
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason})") from None

    if not rows:
        raise DatasetError(f"{path}: empty file")
    if d is not None and max_fid > d:
        raise DatasetError(
            f"{path}: feature id {max_fid} exceeds --num-features {d}"
        )
    features.resize((rows, features.shape[1]), refcheck=False)
    labels.resize(rows, refcheck=False)
    return Dataset.from_rows(labels, qids, features)


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
