"""Readers, writers, and generators for batched sensor datasets.

On-disk format is one sample per line: a leading ``label`` or
``label;concentration`` token followed by space-separated ``index:value``
pairs with 1-based, strictly increasing feature indices.  Batch membership
is carried by the file name (``batch3.dat`` is batch 3); the lines
themselves hold no batch information.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

N_FEATURES = 128
GAS_LABELS = frozenset({1, 2, 3, 4, 5, 6})

# Months covered by each batch of the public gas-sensor drift dataset.
BATCH_MONTH_IDS = {
    1: (1, 2),
    2: (3, 4, 8, 9, 10),
    3: (11, 12, 13),
    4: (14, 15),
    5: (16,),
    6: (17, 18, 19, 20),
    7: (21,),
    8: (22, 23),
    9: (24, 30),
    10: (36,),
}

# Scale of the synthetic class means; pairwise mean distance is roughly
# CLASS_MEAN_SPREAD * sqrt(2) against unit within-class noise.
CLASS_MEAN_SPREAD = 3.0


class DataFormatError(ValueError):
    """Raised when an input file violates the sample-line grammar."""


@dataclass
class ParseStats:
    """Counters accumulated while parsing sample lines."""

    lines: int = 0
    zero_filled: int = 0
    samples_with_missing: int = 0


@dataclass(frozen=True)
class Batch:
    """One batch as read-only columns, validated once on construction.

    ``features`` is (n, D) and finite, ``labels`` (n,) integers, each >= 1,
    and ``concentrations`` (n,) with each value positive or NaN (absent);
    passing ``None`` marks every concentration absent.
    """

    batch_id: int
    features: np.ndarray
    labels: np.ndarray
    concentrations: np.ndarray | None = None
    month_ids: tuple[int, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float).view()
        if X.ndim != 2:
            raise ValueError(f"features must be a 2-D (n, D) array, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        n = X.shape[0]
        given = np.asarray(self.labels)
        # a float outside int64's range (NaN and inf included) cannot be cast cleanly
        if given.dtype.kind == "f" and not np.all(np.abs(given) < 2.0**63):
            raise ValueError("labels must be integers")
        y = given.astype(int, copy=False).view()
        if not np.array_equal(y, given):
            raise ValueError("labels must be integers")
        if y.shape != (n,):
            raise ValueError(f"labels shape {y.shape} does not match {n} feature rows")
        if n and y.min() < 1:
            raise ValueError(f"labels must be >= 1, got {y.min()}")
        if self.concentrations is None:
            conc = np.full(n, math.nan)
        else:
            conc = np.asarray(self.concentrations, dtype=float).view()
        if conc.shape != (n,):
            raise ValueError(f"concentrations shape {conc.shape} does not match {n} feature rows")
        present = conc[~np.isnan(conc)]
        if not np.all(np.isfinite(present) & (present > 0)):
            raise ValueError("concentrations must be positive or NaN (absent)")
        for name, arr in (("features", X), ("labels", y), ("concentrations", conc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "month_ids", tuple(self.month_ids))

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Batches keyed by id; ids must form a contiguous run starting at 1."""

    batches: dict[int, Batch]

    def __post_init__(self):
        ids = sorted(self.batches)
        if not ids:
            raise ValueError("dataset has no batches")
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"batch ids must be contiguous from 1, got {ids}")
        for bid, batch in self.batches.items():
            if batch.batch_id != bid:
                raise ValueError(f"batch keyed {bid} carries id {batch.batch_id}")

    @property
    def batch_ids(self) -> list[int]:
        return sorted(self.batches)

    def batch(self, batch_id: int) -> Batch:
        return self.batches[batch_id]

    @property
    def n_samples(self) -> int:
        return sum(len(b) for b in self.batches.values())

    @property
    def feature_dim(self) -> int:
        return self.batches[CALIBRATION_BATCH_ID].features.shape[1]


def _number(convert, text: str):
    """``convert(text)`` for ``int`` or ``float``, which also take ``_``
    separators and non-ASCII digits; the line grammar does not, so those
    raise ValueError here as any other unparseable text does."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return convert(text)


def parse_sample_line(
    line: str,
    line_no: int | None = None,
    stats: ParseStats | None = None,
) -> tuple[int, float, np.ndarray]:
    """Parse one data line into ``(label, concentration, features)``.

    The concentration is NaN when the line carries none.

    Feature indices absent from the line are zero-filled and counted in
    ``stats`` rather than rejected; the canonical files are dense, so a
    nonzero counter flags an unusual writer.

    Raises:
        DataFormatError: malformed token, index out of range or not strictly
            increasing, unparseable number, or label outside {1..6}.  The
            message names the offending token and, when given, the line number.

    This is the only parser of the line grammar.  A change to what it accepts
    or returns must bump ``_CACHE_VERSION``, since cached columns are its
    output.
    """
    at = f"line {line_no}: " if line_no is not None else ""
    tokens = line.split()
    if not tokens:
        raise DataFormatError(f"{at}empty line")
    head = tokens[0]
    lab_s, sep, conc_s = head.partition(";")
    try:
        label = _number(int, lab_s)
    except ValueError:
        raise DataFormatError(f"{at}malformed label token '{head}'") from None
    if label not in GAS_LABELS:
        raise DataFormatError(f"{at}label {label} outside {{1..6}} in token '{head}'")
    concentration = math.nan
    if sep:
        try:
            concentration = _number(float, conc_s)
        except ValueError:
            raise DataFormatError(f"{at}unparseable concentration in token '{head}'") from None
        if not math.isfinite(concentration) or concentration <= 0:
            raise DataFormatError(f"{at}concentration must be positive in token '{head}'")
    values = np.zeros(N_FEATURES)
    prev = 0
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise DataFormatError(f"{at}malformed feature token '{tok}'")
        try:
            idx = _number(int, idx_s)
        except ValueError:
            raise DataFormatError(f"{at}malformed feature index in token '{tok}'") from None
        if not 1 <= idx <= N_FEATURES:
            raise DataFormatError(
                f"{at}feature index {idx} outside [1, {N_FEATURES}] in token '{tok}'"
            )
        if idx <= prev:
            raise DataFormatError(
                f"{at}feature indices must be strictly increasing at token '{tok}'"
            )
        try:
            val = _number(float, val_s)
        except ValueError:
            raise DataFormatError(f"{at}unparseable value in token '{tok}'") from None
        if not math.isfinite(val):
            raise DataFormatError(f"{at}non-finite value in token '{tok}'")
        values[idx - 1] = val
        prev = idx
    listed = len(tokens) - 1
    if stats is not None:
        stats.lines += 1
        if listed < N_FEATURES:
            stats.samples_with_missing += 1
            stats.zero_filled += N_FEATURES - listed
    return label, concentration, values


def format_sample_line(label: int, concentration: float, features: Sequence[float]) -> str:
    """Serialize one row back to the line grammar (dense, round-trip exact).

    A NaN concentration is absent and writes the label-only form.
    """
    if math.isnan(concentration):
        head = str(label)
    else:
        head = f"{label};{float(concentration)!r}"
    pairs = " ".join(f"{i + 1}:{float(v)!r}" for i, v in enumerate(features))
    return f"{head} {pairs}"


def _parse_lines(
    name: str, lines: list[bytes], stats: ParseStats
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a file line by line with ``parse_sample_line``, collecting every
    line's error into one ``DataFormatError`` named after the file."""
    rows: list[tuple[int, float, np.ndarray]] = []
    errors: list[str] = []
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            errors.append(
                f"line {line_no}: byte 0x{raw[exc.start]:02x} at offset {exc.start} is not UTF-8"
            )
            continue
        if not line.strip():
            continue
        try:
            rows.append(parse_sample_line(line, line_no, stats))
        except DataFormatError as exc:
            errors.append(str(exc))
    if errors:
        shown = "; ".join(errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        raise DataFormatError(f"{name}: {len(errors)} malformed line(s): {shown}{more}")
    if not rows:
        raise DataFormatError(f"{name}: no samples")
    if stats.samples_with_missing:
        logger.warning(
            "%s: %d sample(s) had missing feature indices; %d value(s) zero-filled",
            name,
            stats.samples_with_missing,
            stats.zero_filled,
        )
    labels, concentrations, features = zip(*rows)
    return np.array(labels), np.array(concentrations), np.stack(features)


# Parsed columns of batch files whose every line lists all 128 features, one
# entry per file, beside the data: ``<data dir>/.driftbench-cache/batch<N>.dat.npy``.
# An entry is four arrays saved one after another with ``np.save``: the
# SHA-256 of _CACHE_VERSION and the file's bytes, then the labels,
# concentrations and features.  Any edit of the file misses, and a changed
# file's entry is replaced.  Bump _CACHE_VERSION whenever the parse rules
# change: GAS_LABELS, _number, parse_sample_line or _parse_lines.
CACHE_DIR = ".driftbench-cache"
_CACHE_VERSION = 1


def _cache_digest() -> hashlib._Hash:
    """A SHA-256 that gives a file's cache key once fed the file's bytes."""
    return hashlib.sha256(b"driftbench parsed columns v%d\n" % _CACHE_VERSION)


def _file_key(path: Path) -> bytes:
    """The cache key of the file's current bytes, read in chunks."""
    digest = _cache_digest()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 18):
            digest.update(chunk)
    return digest.digest()


def _read_entry(entry: Path, path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The columns ``entry`` holds for the file at ``path``, as a fresh parse
    gives them, or None if it is missing, unreadable, stale or not what a
    parse makes.  The file is hashed only when an entry exists."""
    try:
        with open(entry, "rb") as fh:
            if np.load(fh, allow_pickle=False).tobytes() != _file_key(path):
                return None
            labels, concentrations, features = [np.load(fh, allow_pickle=False) for _ in range(3)]
    except Exception:
        # Any failure is a miss.  A damaged entry makes np.load raise
        # ValueError, EOFError, MemoryError (a header asking for an absurd
        # shape) or tokenize.TokenError, and the file itself OSError.
        return None
    n = labels.size
    if not (
        n >= 1
        and labels.dtype == np.dtype(int)
        and labels.shape == concentrations.shape == (n,)
        and concentrations.dtype == features.dtype == np.dtype(float)
        and features.shape == (n, N_FEATURES)
        and np.all(np.isin(labels, sorted(GAS_LABELS)))
    ):
        return None
    return labels, concentrations, np.ascontiguousarray(features)


def _write_entry(entry: Path, key: bytes, columns: tuple[np.ndarray, ...]) -> None:
    """Store the columns of a parse that zero-filled nothing; a directory that
    cannot be written to leaves the load as it was, with nothing stored."""

    def write(fh):
        for array in (np.frombuffer(key, dtype=np.uint8), *columns):
            np.save(fh, array, allow_pickle=False)

    try:
        atomic_write(entry, write, mode="wb")
    except OSError:
        pass


def load_batch_file(path: Path | str, batch_id: int) -> tuple[Batch, ParseStats]:
    """Parse one batch file; line errors are aggregated into a single failure.

    The file is read whole and parsed line by line with
    ``parse_sample_line``, which also words every error.  When every line
    lists all 128 features, the columns are cached in ``.driftbench-cache/``
    beside the file, keyed by the SHA-256 of the bytes just parsed, so the
    entry describes what was parsed even if the file changes during the
    load.  A later load of the same bytes hashes the file in a streamed read
    and reads the entry instead, with the same arrays and ``ParseStats``.  A
    missing, stale or unreadable entry, or a directory that cannot be written
    to, only means the file is parsed.  A file with a sparse or malformed
    line is never cached, so its warning or error comes on every load.  The
    file is read as UTF-8 whatever the locale, and a line that is not valid
    UTF-8 is one more malformed line.
    """
    path = Path(path)
    entry = path.parent / CACHE_DIR / f"{path.name}.npy"
    stats = ParseStats()
    columns = _read_entry(entry, path)
    if columns is not None:
        stats.lines = len(columns[0])
    else:
        data = path.read_bytes()
        columns = _parse_lines(path.name, data.splitlines(), stats)
        if not stats.samples_with_missing:
            key = _cache_digest()
            key.update(data)
            _write_entry(entry, key.digest(), columns)
    labels, concentrations, features = columns
    batch = Batch(batch_id, features, labels, concentrations, BATCH_MONTH_IDS.get(batch_id, ()))
    return batch, stats


_BATCH_FILE = re.compile(r"batch([1-9][0-9]*)\.dat")

# The labeled batch every model is fitted on: batch1.dat, which a directory must hold.
CALIBRATION_BATCH_ID = 1


def load_dataset(directory: Path | str) -> Dataset:
    """Load ``batch1.dat .. batchN.dat`` from a directory, for any N.

    Every regular file named ``batch<N>.dat`` (N >= 1, no leading zero) is a
    batch; a gap in the sequence or a missing ``batch1.dat`` (the
    calibration data) is fatal.  Each file goes through ``load_batch_file``,
    so a directory loaded before is served from its ``.driftbench-cache/``.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DataFormatError(f"data directory not found: {directory}")
    present = {
        int(m[1])
        for path in directory.iterdir()
        if (m := _BATCH_FILE.fullmatch(path.name)) and path.is_file()
    }
    if CALIBRATION_BATCH_ID not in present:
        raise DataFormatError(f"{directory}: batch1.dat (calibration batch) is required")
    ids = sorted(present)
    # Name each gap as a range: one stray batch20240101.dat must not list millions.
    gaps = [(a + 1, b - 1) for a, b in zip(ids, ids[1:]) if b > a + 1]
    if gaps:
        raise DataFormatError(
            f"{directory}: gap in batch sequence, missing "
            + ", ".join(
                f"batch{lo}.dat" if lo == hi else f"batch{lo}.dat .. batch{hi}.dat"
                for lo, hi in gaps
            )
        )
    batches = {}
    for n in ids:
        batch, _ = load_batch_file(directory / f"batch{n}.dat", n)
        batches[n] = batch
    return Dataset(batches)


def write_batch_file(path: Path | str, batch: Batch) -> None:
    """Write a batch's rows in the line grammar, atomically."""
    rows = zip(batch.labels.tolist(), batch.concentrations.tolist(), batch.features.tolist())
    text = "\n".join(format_sample_line(*row) for row in rows) + "\n"
    atomic_write_text(path, text)


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path`` with ``atomic_write``."""
    atomic_write(path, lambda fh: fh.write(text))


def atomic_write(path: Path | str, write: Callable[[IO], object], mode: str = "w") -> None:
    """Call ``write`` on a unique sibling temp file opened with ``mode``, then
    rename it over ``path``, so readers never see partials and concurrent
    writers to one path never share a temp file.  Missing parent directories
    are made first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(6).hex()}.tmp")
    # Created 0o666 like a plain open(), so the kernel applies the umask.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class SyntheticConfig:
    """Shape of a generated drift dataset; a fixed seed pins every draw."""

    n_classes: int = 6
    dim: int = 16
    per_class: int = 50
    n_batches: int = 10
    drift_step: float = 0.5
    seed: int = 7

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.per_class < 2:
            raise ValueError(f"per_class must be >= 2, got {self.per_class}")
        if self.n_batches < 1:
            raise ValueError(f"n_batches must be >= 1, got {self.n_batches}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Generate Gaussian class clusters whose means translate batch by batch.

    Batch b is shifted by (b - 1) * drift_step along one fixed random unit
    direction, so the drift is a pure translation shared by every class.
    The draw sequence does not depend on drift_step, which makes datasets
    generated with different steps (same seed) exact translations of each
    other, batch for batch.
    """
    rng = np.random.default_rng(config.seed)
    direction = rng.standard_normal(config.dim)
    direction /= np.linalg.norm(direction)
    spread = CLASS_MEAN_SPREAD / math.sqrt(config.dim)
    class_means = rng.standard_normal((config.n_classes, config.dim)) * spread
    labels = np.repeat(np.arange(1, config.n_classes + 1), config.per_class)
    batches = {}
    for b in range(1, config.n_batches + 1):
        shift = (b - 1) * config.drift_step * direction
        points = [
            class_means[c] + shift + rng.standard_normal((config.per_class, config.dim))
            for c in range(config.n_classes)
        ]
        batches[b] = Batch(b, np.vstack(points), labels)
    return Dataset(batches)


def dataset_checksum(dataset: Dataset) -> str:
    """SHA-256 over a canonical byte serialization of the dataset.

    Per batch in id order: ``<ii`` (batch id, row count); per row: ``<id``
    (label, concentration, NaN when absent) then the features as
    little-endian float64.
    """
    h = hashlib.sha256()
    for bid in dataset.batch_ids:
        batch = dataset.batch(bid)
        h.update(struct.pack("<ii", bid, len(batch)))
        d = batch.features.shape[1]
        rows = np.empty(len(batch), dtype=[("label", "<i4"), ("conc", "<f8"), ("x", "<f8", (d,))])
        rows["label"] = batch.labels
        rows["conc"] = batch.concentrations
        rows["x"] = batch.features
        h.update(rows)
    return h.hexdigest()
