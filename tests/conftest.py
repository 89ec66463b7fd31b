import os
import sys
from pathlib import Path

# One BLAS thread, as the driftbench command runs, set before numpy loads so
# in-process fits stop where the command's do on any core count; a value the
# user sets still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from driftbench.classifier import _kernel, _label_picks
from driftbench.config import resolve_config
from driftbench.data_io import SyntheticConfig, generate_synthetic
from driftbench.harness import run_experiment

# The benchmark's stand-in data and workload configs live in perfbench/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from standin import make_standin, write_standin  # noqa: E402

CANONICAL_ENV = "DRIFTBENCH_DATA_DIR"


@pytest.fixture(scope="session")
def canonical_dir():
    """Directory with the real batch1.dat..batch10.dat files, if supplied."""
    path = os.environ.get(CANONICAL_ENV)
    if not path:
        pytest.skip(f"{CANONICAL_ENV} not set; canonical-dataset check skipped")
    path = Path(path)
    if not (path / "batch1.dat").exists():
        pytest.skip(f"{path} does not contain batch1.dat; canonical-dataset check skipped")
    return path


@pytest.fixture(scope="session")
def standin_dir(tmp_path_factory):
    """The benchmark's stand-in batch files (``perfbench/standin.py``, seed 1)."""
    data_dir = tmp_path_factory.mktemp("standin")
    write_standin(make_standin(1), data_dir)
    return data_dir


@pytest.fixture(scope="session")
def standin_report(standin_dir):
    """The default-config report on the stand-in, built once per session."""
    return run_experiment(resolve_config({"data.dir": str(standin_dir)}))


@pytest.fixture(scope="session")
def small_synth():
    """A compact drifting dataset shared by orchestration tests."""
    return generate_synthetic(
        SyntheticConfig(n_classes=4, dim=10, per_class=30, n_batches=4, drift_step=1.2, seed=23)
    )


def objective_and_gradient(params, X, y_idx, reg_strength):
    """The shipped training kernel's objective and (C, k+1) gradient on the
    caller's ``(W, b)``: centre 0 and scale 1, where its variables are the
    uncentred weights."""
    params = np.asarray(params, dtype=float)
    X = np.asarray(X, dtype=float)
    C = params.shape[0]
    picks = _label_picks(y_idx, X.shape[0])
    loss, grad = _kernel(params.ravel(), X, np.zeros(X.shape[1]), 1.0, picks, C, reg_strength)
    return loss, grad.reshape(C, -1)


def make_cluster_pair(rng, n=40, dim=6, separation=3.0, within_scale=1.0):
    """Two labeled Gaussian clusters split along the second axis."""
    offset = np.zeros(dim)
    offset[1] = separation / 2
    a = rng.normal(size=(n, dim)) * within_scale + offset
    b = rng.normal(size=(n, dim)) * within_scale - offset
    X = np.vstack([a, b])
    y = np.array([1] * n + [2] * n)
    return X, y
