"""Weld-parameter datasets: CSV ingest, synthesis, transforms, and partitioning.

A dataset pairs a feature matrix (process control signals such as voltage,
current, and travel speed) with a target matrix (bead geometry such as
penetration depth and width).  CSV files mark the role of each column with
an ``iwp:`` (feature) or ``dwp:`` (target) header prefix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    BadColumnName,
    ConstantColumn,
    DegreeOutOfRange,
    DuplicateColumn,
    EmptyDataset,
    IoError,
    MissingHeader,
    NonFiniteInput,
    ParseError,
    SchemaMismatch,
    TooFewRows,
    UnprefixedColumn,
)

IWP_PREFIX = "iwp:"
DWP_PREFIX = "dwp:"

MIN_DEGREE, MAX_DEGREE = 0, 6


@dataclass
class Dataset:
    """Feature matrix (m x d) and target matrix (m x N) with column names."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: list
    target_names: list

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.feature_names = list(self.feature_names)
        self.target_names = list(self.target_names)
        if self.features.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("features and targets must be 2-D matrices")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("features and targets must have the same row count")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if self.features.shape[1] < 1 or self.targets.shape[1] < 1:
            raise ValueError("dataset needs at least one feature and one target column")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length does not match feature columns")
        if len(self.target_names) != self.targets.shape[1]:
            raise ValueError("target_names length does not match target columns")
        if not np.all(np.isfinite(self.features)) or not np.all(np.isfinite(self.targets)):
            raise ValueError("dataset contains NaN or infinite entries")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[1]

    def take(self, indices) -> "Dataset":
        """New Dataset holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.targets[idx],
                       self.feature_names, self.target_names)


@dataclass
class ScalerParams:
    """Per-feature shift/scale learned by standardize()."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means and stds must be 1-D vectors of equal length")
        if np.any(self.stds <= 0):
            raise ValueError("stds must be strictly positive")

    def apply(self, mat: np.ndarray) -> np.ndarray:
        return (np.asarray(mat, dtype=np.float64) - self.means) / self.stds


def load_csv(path) -> Dataset:
    """Read a prefixed-header CSV into a Dataset.

    Header columns must start with ``iwp:`` or ``dwp:``; features take all
    iwp columns in header order, targets all dwp columns.  Body cells must
    all parse as finite decimal numbers.  LF and CRLF line endings are
    accepted; a file that is not UTF-8 text is an IoError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    lines = [ln.rstrip("\r") for ln in lines]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MissingHeader(f"{path} is empty")

    header = [c.strip() for c in lines[0].split(",")]
    if _all_numeric(header):
        raise MissingHeader(f"{path} first line looks like data, not a header")
    for j, name in enumerate(header):
        if name in header[:j]:
            raise DuplicateColumn(name)

    feat_idx, feat_names, targ_idx, targ_names = [], [], [], []
    for j, name in enumerate(header):
        if name.startswith(IWP_PREFIX):
            feat_idx.append(j)
            feat_names.append(name[len(IWP_PREFIX):])
        elif name.startswith(DWP_PREFIX):
            targ_idx.append(j)
            targ_names.append(name[len(DWP_PREFIX):])
        else:
            raise UnprefixedColumn(name)

    body = lines[1:]
    if not body:
        raise EmptyDataset(f"{path} has a header but no data rows")
    if not feat_idx or not targ_idx:
        raise EmptyDataset(f"{path} must have at least one iwp: and one dwp: column")

    rows = _parse_body(body, len(header))
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        i, j = bad[0]
        raise ParseError(i + 1, j + 1, body[i].split(",")[j].strip())

    return Dataset(rows[:, feat_idx], rows[:, targ_idx], feat_names, targ_names)


def _parse_body(body, width: int) -> np.ndarray:
    """The body lines as one (rows, width) float array: one float map over
    every cell when each line has width cells and the body is ASCII without
    "_", else the row-by-row loop, which raises ParseError at the first bad
    row or cell."""
    text = ",".join(body)
    if (text.isascii() and "_" not in text
            and all(line.count(",") == width - 1 for line in body)):
        try:
            return np.fromiter(map(float, text.split(",")), dtype=np.float64,
                               count=len(body) * width).reshape(len(body), width)
        except ValueError:
            pass
    rows = np.empty((len(body), width), dtype=np.float64)
    for i, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(i + 1, len(cells), line)
        for j, cell in enumerate(cells):
            # Python's float also reads digit grouping ("1_0") and
            # non-ASCII digits and spaces, which no decimal number holds
            if "_" in cell or not cell.isascii():
                raise ParseError(i + 1, j + 1, cell.strip())
            try:
                rows[i, j] = float(cell)
            except ValueError:
                raise ParseError(i + 1, j + 1, cell.strip()) from None
    return rows


def write_csv(path, header, rows) -> None:
    """Write a header line and then each row as it is produced.

    This is the one CSV writer: a float cell is its shortest round-trip
    repr, an int is written with str, None is an empty cell and a str is
    written as is (quoted only if it holds a comma, a quote, a line feed or
    a carriage return).  rows is an iterable of rows, or a 2-D float array,
    which is written through one "%r" row template with the same bytes.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            # csv.writer quotes a cell holding any character of its line
            # terminator and writes each row in one call: rows are made
            # with "\r\n", so a lone "\r" is quoted, and end in "\n".
            lf = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
            out = csv.writer(lf, lineterminator="\r\n")
            out.writerow(header)
            if isinstance(rows, np.ndarray):
                line = ",".join(["%r"] * rows.shape[1]) + "\n"
                fh.writelines(line % tuple(row) for row in rows.tolist())
            else:
                out.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_csv(data: Dataset, path) -> None:
    """Write a Dataset as a prefixed-header CSV (lossless float round trip).

    Raises BadColumnName, before writing, for a feature or target name that
    load_csv could not read back.
    """
    for name in data.feature_names + data.target_names:
        if any(c in name for c in ',"\r\n') or name != name.rstrip():
            raise BadColumnName(name)
    write_csv(path, [IWP_PREFIX + n for n in data.feature_names]
              + [DWP_PREFIX + n for n in data.target_names],
              np.hstack([data.features, data.targets]))


def _all_numeric(cells) -> bool:
    if not cells or all(c == "" for c in cells):
        return False
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


def standardize(data: Dataset) -> tuple[Dataset, ScalerParams]:
    """Shift/scale each feature column to mean 0, sample std 1.

    Targets are left untouched so error metrics stay in original units.
    Raises ConstantColumn if any feature column has zero sample std.
    """
    scaler, (scaled,) = prepare_features(data.features, [0], fit=True)
    return Dataset(scaled, data.targets, data.feature_names,
                   data.target_names), scaler


def expand_features(mat: np.ndarray, degree: int) -> np.ndarray:
    """Append per-column powers x^2 .. x^(degree+1) to a feature matrix.

    Degree 0 returns the input unchanged.  No cross terms; column blocks
    are ordered by exponent: [x | x^2 block | ... | x^(degree+1) block].
    """
    if not (MIN_DEGREE <= degree <= MAX_DEGREE):
        raise DegreeOutOfRange(
            f"degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {degree}")
    if degree == 0:
        return mat
    blocks = [mat] + [mat ** e for e in range(2, degree + 2)]
    return np.hstack(blocks)


def prepare_features(features: np.ndarray, degrees,
                     scaler: ScalerParams | None = None, fit: bool = False):
    """(scaler, one block-input matrix per degree) for raw feature rows.

    With fit, the scaler is fitted on these (training) rows; the scaler,
    if any, is applied before expand_features.
    """
    features = np.asarray(features, dtype=np.float64)
    if fit:
        if features.shape[0] < 2:
            raise TooFewRows("standardize needs at least 2 rows")
        with np.errstate(over="ignore", invalid="ignore"):
            means = features.mean(axis=0)
            stds = features.std(axis=0, ddof=1)
        for j, s in enumerate(stds):
            if s == 0.0:
                raise ConstantColumn(j)
            if not np.isfinite(s):  # its sum or its squares overflowed
                raise NonFiniteInput(f"feature column {j} spreads beyond the "
                                     f"float range; cannot standardize")
        scaler = ScalerParams(means, stds)
    if scaler is not None:
        features = scaler.apply(features)
    return scaler, [expand_features(features, d) for d in degrees]


def append_bias(mat: np.ndarray) -> np.ndarray:
    """Prepend an all-ones column (the bias input) to a matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("append_bias expects a 2-D matrix")
    ones = np.ones((mat.shape[0], 1), dtype=np.float64)
    return np.hstack([ones, mat])


def split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (train, test).

    Test size is floor(m * test_fraction) clamped to [1, m - 1].  Row order
    within each part follows the original dataset.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    if data.m < 2:
        raise TooFewRows("split needs at least 2 rows")
    n_test = int(np.floor(data.m * test_fraction))
    n_test = min(max(n_test, 1), data.m - 1)
    perm = np.random.default_rng(seed).permutation(data.m)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return data.take(train_idx), data.take(test_idx)


def combine(datasets) -> Dataset:
    """Row-wise concatenation of datasets sharing identical column names."""
    datasets = list(datasets)
    if not datasets:
        raise EmptyDataset("combine needs at least one dataset")
    first = datasets[0]
    for ds in datasets[1:]:
        if ds.feature_names != first.feature_names or ds.target_names != first.target_names:
            raise SchemaMismatch(
                f"column names differ: {ds.feature_names}/{ds.target_names} "
                f"vs {first.feature_names}/{first.target_names}")
    if len(datasets) == 1:
        return first
    return Dataset(np.vstack([ds.features for ds in datasets]),
                   np.vstack([ds.targets for ds in datasets]),
                   first.feature_names, first.target_names)


def bead_surfaces(voltage, current, speed):
    """Ground-truth penetration/width surfaces of the synthetic generator.

    Both are smooth nonlinear functions of the heat input v*i/(1000*s)
    (kJ/mm scale) and stay strictly positive over the sampled ranges.
    """
    voltage = np.asarray(voltage, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    speed = np.asarray(speed, dtype=np.float64)
    heat = voltage * current / (1000.0 * speed)
    penetration = 1.2 + 2.4 * np.tanh(0.5 * heat) + 0.18 * np.sin(voltage / 4.0)
    width = 3.0 + 0.09 * voltage + 1.1 * np.log1p(heat) - 0.12 * speed
    return penetration, width


def synthesize_weld(rows: int, noise_std: float, seed: int) -> Dataset:
    """Generate a synthetic welding dataset, deterministic per seed.

    Features: voltage in [20, 40] V, current in [100, 300] A, travel speed
    in [2, 10] mm/s, each sampled uniformly.  Targets: penetration and
    width from bead_surfaces() plus independent N(0, noise_std^2) noise.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    rng = np.random.default_rng(seed)
    voltage = rng.uniform(20.0, 40.0, rows)
    current = rng.uniform(100.0, 300.0, rows)
    speed = rng.uniform(2.0, 10.0, rows)
    penetration, width = bead_surfaces(voltage, current, speed)
    penetration = penetration + rng.normal(0.0, noise_std, rows)
    width = width + rng.normal(0.0, noise_std, rows)
    return Dataset(np.column_stack([voltage, current, speed]),
                   np.column_stack([penetration, width]),
                   ["voltage", "current", "speed"],
                   ["penetration", "width"])
