import numpy as np
import pytest

from driftbench.metrics import accuracy, f1_score

from oracles import confusion_accuracy, confusion_macro_f1


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1, 1], [2, 2, 2]) == 0.0

    def test_hand_counted_half(self):
        assert accuracy([1, 1, 2, 3], [1, 2, 2, 2]) == 0.5

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestMacroF1:
    def test_perfect(self):
        assert f1_score([1, 2, 3, 1], [1, 2, 3, 1]) == 1.0

    def test_hand_computed_one_third(self):
        # class 1: P=0.5 R=1 -> 2/3; class 2: 0 -> macro 1/3
        assert f1_score([1, 1, 1, 1], [1, 1, 2, 2]) == pytest.approx(1 / 3, abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        p = rng.integers(1, 5, size=60)
        a = rng.integers(1, 5, size=60)
        relabel = {1: 9, 2: 7, 3: 3, 4: 1}
        p2 = np.array([relabel[v] for v in p])
        a2 = np.array([relabel[v] for v in a])
        assert f1_score(p, a) == pytest.approx(f1_score(p2, a2), abs=1e-15)

    def test_predicted_only_class_counts_as_zero(self):
        # class 3 never occurs in actual but is predicted: F1 contribution 0
        val = f1_score([3, 1], [1, 1])
        assert val == pytest.approx((2 / 3) / 2, abs=1e-15)


class TestOracleEquivalence:
    def test_random_pairs_match_confusion_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            k = int(rng.integers(2, 7))
            p = rng.integers(1, k + 1, size=n)
            a = rng.integers(1, k + 1, size=n)
            assert accuracy(p, a) == confusion_accuracy(list(p), list(a))
            assert abs(f1_score(p, a) - confusion_macro_f1(list(p), list(a))) <= 1e-12
