"""The grid is the optimum's grid, not the optimizer's path's.

``classifier.tol`` stops each fit near its optimum, not at it, and where a
fit stops depends on where it starts: ``selftrain`` and DRCA/LDSP warm-start
each fit from the model before it.  A borderline prediction can therefore
follow the path.  The default report must equal a report in which every fit
starts cold (``init_weights`` dropped) and runs to ``classifier.tol`` 1e-9.
On the benchmark's ``adapt-synthetic`` config at drift step 0.3, cold fits
at the default ``tol`` move a cell, so that case is the one that shows a
path-dependent grid.  At drift step 0.6 the DRCA/LDSP batch-6 cell
depends on the coordinates the shared chain is fitted in.  With all five
methods, ``selftrain``'s warm-started fits on a growing pool join the
grid; at drift step 0.6 two of their cold fits reach the floating-point
floor before 1e-9 with single-threaded BLAS, and stop when the loss stalls.
Below full complement (``components`` 60) every DRCA/LDSP target takes an
eigen fit, warm-started from the calibration model and then from the fit
before it.
"""

import pytest

from driftbench import adaptation
from driftbench.adaptation import METHOD_NAMES
from driftbench.config import resolve_config
from driftbench.harness import report_to_csv, run_experiment

from run import SYNTHETIC  # perfbench/run.py: the adapt-synthetic workload's config


def cold_tight_csv(monkeypatch, keys: dict) -> str:
    """report.csv of a run whose fits all start from zero and stop at tol 1e-9."""
    train = adaptation.train_with_config

    def cold(X, y, config, init_weights=None):
        return train(X, y, config)

    monkeypatch.setattr(adaptation, "train_with_config", cold)
    return report_to_csv(run_experiment(resolve_config({**keys, "classifier.tol": 1e-9})))


@pytest.mark.parametrize("drift_step", [0.3, 0.4, 0.5, 0.6])
def test_adapt_synthetic_grid_is_the_cold_tight_grid(monkeypatch, drift_step):
    keys = {**SYNTHETIC, "synthetic.drift_step": drift_step}
    default = report_to_csv(run_experiment(resolve_config(keys)))
    assert cold_tight_csv(monkeypatch, keys) == default


@pytest.mark.parametrize("drift_step", [0.3, 0.6])
def test_five_method_grid_is_the_cold_tight_grid(monkeypatch, drift_step):
    keys = {**SYNTHETIC, "synthetic.drift_step": drift_step, "methods": ",".join(METHOD_NAMES)}
    default = report_to_csv(run_experiment(resolve_config(keys)))
    assert cold_tight_csv(monkeypatch, keys) == default


def test_eigen_path_grid_is_the_cold_tight_grid(monkeypatch):
    # Below full complement every target takes an eigen fit, and the first
    # one starts from the calibration model rather than from zero.
    keys = {
        **SYNTHETIC,
        "synthetic.drift_step": 0.5,
        "methods": "drca,ldsp",
        "drca.components": 60,
        "ldsp.components": 60,
    }
    default = report_to_csv(run_experiment(resolve_config(keys)))
    assert cold_tight_csv(monkeypatch, keys) == default


def test_standin_grid_is_the_cold_tight_grid(monkeypatch, standin_dir, standin_report):
    keys = {"data.dir": str(standin_dir)}
    assert cold_tight_csv(monkeypatch, keys) == report_to_csv(standin_report)
