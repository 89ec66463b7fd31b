"""Method orderings on the benchmark's stand-in data, beside C1-C6.

C1-C6 need the real batch files and skip without them.  The stand-in
(``perfbench/standin.py``, seed 1) has the canonical batch sizes and a gain
drift that separates the methods, so the orderings it shows with a clear
margin are pinned here.  The stand-in is used as it is, never retuned.
C2's own calls are also made here, so a change to their signatures fails
without the real files.
"""

import pytest

from driftbench.data_io import load_dataset
from driftbench.preprocess import apply_minmax_matrix, fit_minmax

LATE = (8, 9, 10)
MARGIN = 0.05


@pytest.fixture(scope="module")
def accuracy(standin_report):
    return {key: cell.accuracy for key, cell in standin_report.grid.items()}


def test_none_decays_from_batch2_to_late_batches(accuracy):
    for b in LATE:
        assert accuracy[("none", 2)] - accuracy[("none", b)] >= MARGIN, b


def test_drca_beats_none_on_late_batches(accuracy):
    for b in LATE:
        assert accuracy[("drca", b)] - accuracy[("none", b)] >= MARGIN, b


def test_means_stays_within_a_band(accuracy):
    means = [accuracy[("means", b)] for b in range(2, 11)]
    assert max(means) - min(means) <= 0.03


def test_c2_calls_scale_batch1_into_the_unit_interval_and_not_batch2(standin_dir):
    dataset = load_dataset(standin_dir)
    params = fit_minmax(dataset.batch(1))
    b1 = apply_minmax_matrix(params, dataset.batch(1).features)
    b2 = apply_minmax_matrix(params, dataset.batch(2).features)
    assert b1.min() >= 0.0 and b1.max() <= 1.0
    assert b2.min() < 0.0 and b2.max() > 1.0, (b2.min(), b2.max())
