"""Method orderings on the benchmark's stand-in data, beside C1-C6.

C1-C6 need the real batch files and skip without them.  The stand-in
(``perfbench/standin.py``, seed 1) has the canonical batch sizes and a gain
drift that separates the methods, so the orderings it shows with a clear
margin are pinned here.  The stand-in is used as it is, never retuned.
"""

import pytest

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
