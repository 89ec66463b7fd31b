"""Canonical-shaped stand-in for the ten gas-sensor drift batch files.

The real batches (Vergara et al., Sensors and Actuators B, 2012) are not
bundled, so the benchmark writes files of the same shape: the canonical
batch sizes, 128 features, 6 classes and the ``label;concentration`` line
format.  The simulated sensor array (class means, a log-normal scale per
feature, a multiplicative gain drift per feature and a translation drift)
and its readings are fixed; the seed orders the samples of every batch and
draws their concentrations, so each seed writes different files that cost
the program the same work (see README.md).  Every written number has
at most six decimals and is generated as an integer count of millionths, so
the values held here are exactly what any correct parser reads back.

The lines are formatted here, never with the program's own writer, so a
change to that writer cannot change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BATCH_SIZES = (445, 1244, 1586, 161, 197, 2300, 3613, 294, 470, 3600)
N_FEATURES = 128
N_CLASSES = 6

# Seed of the simulated array and its readings; --seed orders the samples
# of every batch and draws their concentrations.
ARRAY_SEED = 2012
CLASS_SPREAD = 0.35  # per-feature std of the class means, in noise units
GAIN_DRIFT = 0.35  # log-gain std per feature at the last batch
SHIFT_DRIFT = 4.5  # translation at the last batch, in noise units
LOG_SCALE_MEAN = math.log(50.0)
LOG_SCALE_STD = 1.5


@dataclass(frozen=True)
class StandIn:
    """Per-batch arrays exactly as written; batch ids run from 1."""

    features: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]
    concentrations: tuple[np.ndarray, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(y) for y in self.labels)


def make_standin(seed: int, sizes=BATCH_SIZES) -> StandIn:
    """Draw every batch of the stand-in for one seed."""
    world = np.random.default_rng(ARRAY_SEED)
    class_means = world.normal(0.0, CLASS_SPREAD, (N_CLASSES, N_FEATURES))
    scale = np.exp(world.normal(LOG_SCALE_MEAN, LOG_SCALE_STD, N_FEATURES))
    offset = world.normal(0.0, 2.0, N_FEATURES) * scale
    gain_dir = world.normal(0.0, GAIN_DRIFT, N_FEATURES)
    # Drift pushes every class towards class 1, plus a random component.
    shift_dir = class_means[0] - class_means.mean(axis=0)
    shift_dir /= np.linalg.norm(shift_dir)
    shift_dir += world.normal(0.0, 1.0 / math.sqrt(N_FEATURES), N_FEATURES)
    shift_dir *= SHIFT_DRIFT / np.linalg.norm(shift_dir)

    rng = np.random.default_rng(seed)
    last = max(len(sizes) - 1, 1)
    features, labels, concentrations = [], [], []
    for b, n in enumerate(sizes):
        t = b / last
        y = np.arange(n) % N_CLASSES + 1
        latent = class_means[y - 1] + world.standard_normal((n, N_FEATURES))
        raw = (latent * np.exp(t * gain_dir) + t * shift_dir) * scale + offset
        order = rng.permutation(n)
        features.append(np.rint(raw[order] * 1e6).astype(np.int64) / 1e6)
        labels.append(y[order])
        concentrations.append(rng.integers(250, 100_001, n) / 100.0)
    return StandIn(tuple(features), tuple(labels), tuple(concentrations))


_LINE_FORMAT = "%d;%.2f " + " ".join(f"{i}:%.6f" for i in range(1, N_FEATURES + 1)) + "\n"


def write_standin(standin: StandIn, directory: Path) -> None:
    """Write ``batch1.dat`` .. ``batchN.dat`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for b, (X, y, conc) in enumerate(
        zip(standin.features, standin.labels, standin.concentrations), start=1
    ):
        with open(directory / f"batch{b}.dat", "w") as fh:
            fh.writelines(
                _LINE_FORMAT % (label, c, *row)
                for label, c, row in zip(y.tolist(), conc.tolist(), X.tolist())
            )


def standin_checksum(standin: StandIn) -> str:
    """SHA-256 of the stand-in in the serialization ``dataset_checksum`` documents.

    Per batch in id order: ``<ii`` (batch id, sample count); per sample:
    ``<id`` (label, concentration) and the 128 features as little-endian
    float64.
    """
    h = hashlib.sha256()
    for b, (X, y, conc) in enumerate(
        zip(standin.features, standin.labels, standin.concentrations), start=1
    ):
        h.update(struct.pack("<ii", b, len(y)))
        rows = np.ascontiguousarray(X, dtype="<f8")
        for label, c, row in zip(y.tolist(), conc.tolist(), rows):
            h.update(struct.pack("<id", label, c))
            h.update(row.tobytes())
    return h.hexdigest()
