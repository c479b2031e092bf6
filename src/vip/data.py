"""Dataset loading, standardization, splitting, and synthetic generators.

CSV convention: comma separated, '.' decimal point, optional single header
row, last column is the regression target.  Standardization statistics are
always computed on training rows and carried along so predictions can be
mapped back to the original scale.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError
from .numkit import STREAM_DATA, STREAM_SPLIT, Rng


@dataclass
class Stats:
    """Per-column standardization statistics (population std, ddof=0)."""

    feature_means: np.ndarray
    feature_stds: np.ndarray
    target_mean: float
    target_std: float

    def to_dict(self) -> dict:
        return {
            "feature_means": [float(v) for v in self.feature_means],
            "feature_stds": [float(v) for v in self.feature_stds],
            "target_mean": float(self.target_mean),
            "target_std": float(self.target_std),
        }

    @staticmethod
    def from_dict(d: dict) -> "Stats":
        return Stats(
            feature_means=np.asarray(d["feature_means"], dtype=float),
            feature_stds=np.asarray(d["feature_stds"], dtype=float),
            target_mean=float(d["target_mean"]),
            target_std=float(d["target_std"]),
        )


@dataclass
class Dataset:
    """Feature matrix plus target vector; stats present once standardized."""

    x: np.ndarray
    y: np.ndarray
    stats: Stats = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2:
            raise ParameterError("x must be 2-d")
        if self.y.ndim != 1 or self.y.shape[0] != self.x.shape[0]:
            raise ParameterError("y must be a vector with one entry per row of x")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def take(self, idx) -> "Dataset":
        return Dataset(self.x[idx], self.y[idx], stats=self.stats)


def _parse_cells(path: str, ln: int, cells) -> list:
    """One row's cells as floats after ``str.strip()``, naming the first bad cell.

    ``float()`` strips ASCII whitespace but not the separators U+001C to
    U+001F, which ``str.strip()`` also removes, so a row that ``float()``
    rejects may still parse here.
    """
    row = []
    for j, cell in enumerate(cells):
        try:
            row.append(float(cell.strip()))
        except ValueError:
            raise ParseError(
                f"{path}: non-numeric cell {cell.strip()!r}", row=ln, col=j + 1
            ) from None
    return row


def _to_matrix(path: str, width: int, data_rows) -> np.ndarray:
    """The (line number, cells) rows as a float matrix, ``width`` cells a row.

    numpy converts each string with float() in one pass over the whole
    table when every row is ``width`` cells wide (a matching total is not
    enough, as rows of width - 1 and width + 1 cells add up to it) and every
    cell converts. Otherwise ``_parse_cells``, which accepts every string
    float() does with the same value, walks the rows in file order, so the
    error names the first ragged row or bad cell.
    """
    out = np.empty((len(data_rows), width))
    if all(len(cells) == width for _, cells in data_rows):
        try:
            out.reshape(-1)[:] = [cell for _, cells in data_rows for cell in cells]
            return out
        except ValueError:
            pass
    for i, (ln, cells) in enumerate(data_rows):
        if len(cells) != width:
            raise ParseError(
                f"{path}: expected {width} cells, found {len(cells)}", row=ln, col=1
            )
        out[i] = _parse_cells(path, ln, cells)
    return out


def load_table(path: str, has_header: bool = False, min_width: int = 1, positive=()):
    """Parse a numeric CSV into (header cells or None, float matrix).

    Blank lines are skipped; the header and every data row must be as wide
    as the first data row, which needs at least ``min_width`` cells. A
    well-formed table converts in one numpy pass, not row by row. Every
    cell must be finite, and a column whose header cell is named in
    ``positive`` must hold only values > 0. Errors cite 1-based (row, col)
    file coordinates, counting any header row; a file that is not UTF-8 or
    a cell over the csv module's field limit is a ParseError too.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise ParseError(f"{path}: {e}", row=reader.line_num) from None
    header = [c.strip() for c in rows[0]] if has_header and rows else None
    start = 1 if has_header else 0
    data_rows = [(i + 1, r) for i, r in enumerate(rows) if i >= start and r]
    if not data_rows:
        raise ParseError(f"{path}: no data rows")
    width = len(data_rows[0][1])
    if width < min_width:
        raise ParseError(
            f"{path}: need at least {min_width} columns, found {width}",
            row=data_rows[0][0],
            col=1,
        )
    if header is not None and len(header) != width:
        raise ParseError(
            f"{path}: header has {len(header)} cells, data rows have {width}", row=1, col=1
        )
    out = _to_matrix(path, width, data_rows)
    bad = ~np.isfinite(out)
    what = "non-finite cell"
    if positive and not bad.any():
        cols = [j for j, name in enumerate(header or ()) if name in positive]
        bad[:, cols] = out[:, cols] <= 0
        what = "non-positive cell"
    bad = np.argwhere(bad)
    if bad.size:
        i, j = bad[0].tolist()
        ln, cells = data_rows[i]
        raise ParseError(f"{path}: {what} {cells[j].strip()!r}", row=ln, col=j + 1)
    return header, out


def load_csv(path: str, has_header: bool = False) -> Dataset:
    """Parse a regression CSV: feature columns, then the target last."""
    _, table = load_table(path, has_header, min_width=2)
    return Dataset(table[:, :-1], table[:, -1])


_MIN_STD = 1e-12


def compute_stats(data: Dataset) -> Stats:
    """Column means/stds of a training set; a constant column, or one whose
    mean or std overflows, is rejected naming its 1-based column (the target
    is the last)."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.append(data.x.mean(axis=0), data.y.mean())
        stds = np.append(data.x.std(axis=0), data.y.std())
    for j, (m, s) in enumerate(zip(means, stds)):
        what = "target" if j == data.d else "feature"
        if not (math.isfinite(m) and math.isfinite(s)):
            raise ParseError(
                f"{what} column {j + 1} overflows: mean {m}, std {s}", col=j + 1
            )
        if s <= _MIN_STD:
            raise ParseError(f"{what} column {j + 1} is constant", col=j + 1)
    return Stats(means[:-1], stds[:-1], float(means[-1]), float(stds[-1]))


def apply_stats(data: Dataset, stats: Stats) -> Dataset:
    if stats.feature_means.shape[0] != data.d:
        raise ParameterError("stats dimension does not match data")
    x = (data.x - stats.feature_means) / stats.feature_stds
    y = (data.y - stats.target_mean) / stats.target_std
    return Dataset(x, y, stats=stats)


def standardize(data: Dataset) -> Dataset:
    """Standardize in place of the data's own statistics (training use)."""
    return apply_stats(data, compute_stats(data))


def destandardize_moments(mean, var, stats: Stats):
    """Map a predictive mean and variance from the standardized target scale
    back to original units; without ``stats`` both pass through unchanged."""
    if stats is None:
        return mean, var
    sd = stats.target_std
    return mean * sd + stats.target_mean, var * sd * sd


def split(data: Dataset, train_frac: float, seed: int):
    """Random train/test split; both halves keep original row order."""
    if not 0.0 < train_frac < 1.0:
        raise ParameterError("train_frac must lie in (0, 1)")
    n = data.n
    if n < 2:
        raise ParameterError("need at least 2 rows to split")
    n_train = min(max(int(train_frac * n), 1), n - 1)
    perm = Rng(seed, STREAM_SPLIT).permutation(n)
    tr = np.sort(perm[:n_train])
    te = np.sort(perm[n_train:])
    return data.take(tr), data.take(te)


def interp_split(data: Dataset, n_segments: int, segment_len: int, seed: int):
    """Remove n_segments disjoint contiguous index runs of segment_len as test.

    Placement is uniform over all non-overlapping arrangements: k starts are
    drawn sorted from a compressed range of size N - k*L + k and expanded by
    i*(L-1) so consecutive choices cannot collide.
    """
    if n_segments < 1 or segment_len < 1:
        raise ParameterError("segment counts must be positive")
    n, k, seg = data.n, n_segments, segment_len
    if k * seg >= n:
        raise ParameterError(
            f"{k} segments of length {seg} leave no training rows in {n}"
        )
    rng = Rng(seed, STREAM_SPLIT)
    compressed = rng.choose_sorted(n - k * seg + k, k)
    test_idx = []
    for i, c in enumerate(compressed):
        start = int(c) + i * (seg - 1)
        test_idx.extend(range(start, start + seg))
    test_idx = np.asarray(test_idx)
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    return data.take(np.nonzero(mask)[0]), data.take(test_idx)


def toy_fn(x: np.ndarray) -> np.ndarray:
    """cos(5x) / (|x| + 1), the bumpy 1-d target used throughout."""
    x = np.asarray(x, dtype=float)
    return np.cos(5.0 * x) / (np.abs(x) + 1.0)


def synth_toy(n: int, seed: int, noise: str = "var") -> Dataset:
    """n rows of x ~ N(0,1) with y = toy_fn(x) plus Gaussian noise.

    noise: "var" treats the 0.1 noise level as a variance, "std" as a
    standard deviation, "none" disables it.  Inputs are drawn before the
    noise from the same stream, so all modes share the same x.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    scales = {"var": math.sqrt(0.1), "std": 0.1, "none": 0.0}
    if noise not in scales:
        raise ParameterError(f"unknown noise mode {noise!r}")
    rng = Rng(seed, STREAM_DATA)
    x = rng.standard_normal(n)
    eps = rng.standard_normal(n)
    y = toy_fn(x) + scales[noise] * eps
    return Dataset(x.reshape(n, 1), y)


def toy_grid(n: int = 1000) -> Dataset:
    """Noiseless evaluation grid: n evenly spaced points on [-3, 3]."""
    if n < 2:
        raise ParameterError("grid needs at least 2 points")
    x = np.linspace(-3.0, 3.0, n)
    return Dataset(x.reshape(n, 1), toy_fn(x))
