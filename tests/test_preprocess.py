import numpy as np
import pytest

from driftbench.data_io import Batch
from driftbench.preprocess import (
    NormalizationParams,
    apply_minmax_matrix,
    fit_minmax,
    normalize_batch,
    normalize_dataset,
)


def make_batch(rows, batch_id=1):
    X = np.asarray(rows, float)
    return Batch(batch_id, X, np.ones(X.shape[0], dtype=int))


class TestMinMax:
    def test_fit_exact_extrema(self):
        params = fit_minmax(make_batch([[2.0, -1.0], [6.0, 3.0]]))
        assert np.array_equal(params.min, [2.0, -1.0])
        assert np.array_equal(params.max, [6.0, 3.0])

    def test_fit_constant_feature(self):
        params = fit_minmax(make_batch([[5.0, 1.0], [5.0, 2.0]]))
        assert params.min[0] == params.max[0] == 5.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_minmax(Batch(1, np.empty((0, 2)), np.empty(0, dtype=int)))

    def test_own_batch_lands_in_unit_interval(self):
        rng = np.random.default_rng(0)
        batch = make_batch(rng.normal(size=(40, 7)) * 50)
        params = fit_minmax(batch)
        out = normalize_batch(params, batch)
        assert out.features.min() >= 0.0 and out.features.max() <= 1.0
        assert np.array_equal(out.labels, batch.labels) and out.batch_id == batch.batch_id

    def test_endpoints_map_to_zero_and_one(self):
        params = fit_minmax(make_batch([[2.0, 0.0], [6.0, 4.0]]))
        out = apply_minmax_matrix(params, np.array([[2.0, 4.0]]))
        assert np.array_equal(out, [[0.0, 1.0]])

    def test_degenerate_feature_maps_to_zero(self):
        params = fit_minmax(make_batch([[5.0, 1.0], [5.0, 3.0]]))
        out = apply_minmax_matrix(params, np.array([[99.0, 2.0], [5.0, 1.0]]))
        assert np.array_equal(out[:, 0], [0.0, 0.0])

    def test_out_of_range_not_clipped(self):
        params = fit_minmax(make_batch([[0.0], [1.0]]))
        out = apply_minmax_matrix(params, np.array([[-57.8], [2624.0]]))
        assert out[0, 0] == -57.8
        assert out[1, 0] == 2624.0

    def test_affine_and_order_preserving(self):
        rng = np.random.default_rng(3)
        params = fit_minmax(make_batch(rng.normal(size=(20, 4))))
        x = np.sort(rng.normal(size=(30, 4)) * 10, axis=0)
        out = apply_minmax_matrix(params, x)
        assert np.all(np.diff(out, axis=0) >= 0)
        # affine: midpoint maps to midpoint
        mid = apply_minmax_matrix(params, (x[0:1] + x[1:2]) / 2)
        assert np.allclose(mid, (out[0] + out[1]) / 2, atol=1e-12)

    def test_matches_the_three_step_formula_bit_for_bit(self):
        rng = np.random.default_rng(4)
        calibration = rng.normal(size=(30, 5)) * 40
        calibration[:, 2] = 7.5  # a zero-span feature
        params = fit_minmax(make_batch(calibration))
        X = rng.normal(size=(50, 5)) * 80
        span = params.max - params.min
        expected = np.where(span > 0, (X - params.min) / np.where(span > 0, span, 1.0), 0.0)
        out = apply_minmax_matrix(params, X)
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(out[:, 2], np.zeros(50))

    def test_params_validate_ordering(self):
        with pytest.raises(ValueError, match="min"):
            NormalizationParams(np.array([1.0]), np.array([0.0]))

    def test_normalize_dataset_keeps_structure(self, small_synth):
        out = normalize_dataset(small_synth)
        assert out.batch_ids == small_synth.batch_ids
        X1 = out.batch(1).features
        assert X1.min() >= 0.0 and X1.max() <= 1.0
        assert np.array_equal(out.batch(2).labels, small_synth.batch(2).labels)

    def test_normalize_dataset_leaves_its_input_as_it_was(self, small_synth):
        before = dict(small_synth.batches)
        copies = {bid: b.features.copy() for bid, b in before.items()}
        out = normalize_dataset(small_synth)
        assert small_synth.batches == before
        for bid, batch in small_synth.batches.items():
            assert batch is before[bid]
            assert np.array_equal(batch.features, copies[bid])
            assert out.batch(bid) is not batch

