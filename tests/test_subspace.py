import numpy as np
import pytest

from driftbench.subspace import (
    DrcaConfig,
    LdspConfig,
    covariance,
    deflation_threshold,
    drca_fit,
    lda_fit,
    ldsp_fit,
    pca_fit,
    project,
    scatter_matrices,
)

from oracles import (
    angle_between,
    brute_covariance,
    fisher_ratio,
    full_space_objective_matrix,
    grid_search_discriminant_2d,
    two_class_discriminant_closed_form,
)


class TestCovariance:
    def test_single_sample_is_zero(self):
        assert np.array_equal(covariance(np.array([[3.0, -1.0, 2.0]])), np.zeros((3, 3)))

    def test_hand_computed_two_points(self):
        C = covariance(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(C, np.diag([1.0, 0.0]), atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(5, 3)) * 4
        assert np.abs(covariance(X) - brute_covariance(X)).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            covariance(np.zeros((0, 3)))


class TestScatter:
    def test_singleton_classes_give_zero_within(self):
        X = np.array([[0.0, 1.0], [4.0, -1.0]])
        s_w, s_b = scatter_matrices(X, [1, 2])
        assert np.abs(s_w).max() == 0.0
        assert np.abs(s_b).max() > 0

    def test_single_class_gives_zero_between(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        s_w, s_b = scatter_matrices(X, [5] * 10)
        assert np.abs(s_b).max() < 1e-14

    def test_total_variance_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            d = int(rng.integers(2, 6))
            X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3)
            y = rng.integers(0, 3, size=n)
            y[:3] = [0, 1, 2]  # ensure several classes
            s_w, s_b = scatter_matrices(X, y)
            C = covariance(X)
            scale = max(np.abs(C).max(), 1.0)
            assert np.abs(s_w + s_b - C).max() < 1e-12 * scale


def test_covariance_and_scatter_are_exactly_symmetric():
    # Neither function symmetrises its result: numpy's Xc.T @ Xc and
    # np.outer(d, d) are symmetric bit for bit, in any memory layout.
    rng = np.random.default_rng(3)
    for _ in range(30):
        n, d = int(rng.integers(1, 400)), int(rng.integers(1, 140))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 50) + rng.normal(size=d)
        y = rng.integers(0, 4, size=n)
        for view in (X, np.asfortranarray(X), X[:, ::-1]):
            C = covariance(view)
            s_w, s_b = scatter_matrices(view, y)
            for M in (C, s_w, s_b):
                assert np.array_equal(M, M.T)


class TestPca:
    def test_collinear_points(self):
        t = np.array([[-1.0], [0.5], [2.0], [-0.25]])
        X = t @ np.array([[1.0, 1.0]])
        proj = pca_fit(X, 2)
        assert np.allclose(proj.matrix[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_eigen_residuals_and_order(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.1])
        proj = pca_fit(X, 6)
        C = covariance(X)
        residual = np.linalg.norm(C @ proj.matrix - proj.matrix * proj.eigenvalues, axis=0).max()
        assert residual <= 1e-8 * (1 + np.linalg.norm(C))
        assert np.all(np.diff(proj.eigenvalues) <= 1e-12)
        gram = proj.matrix.T @ proj.matrix
        assert np.linalg.norm(gram - np.eye(6)) <= 1e-8

    def test_sign_anchor_positive(self):
        rng = np.random.default_rng(4)
        proj = pca_fit(rng.normal(size=(30, 5)), 5)
        anchors = np.abs(proj.matrix).argmax(axis=0)
        assert all(proj.matrix[anchors[j], j] > 0 for j in range(5))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            pca_fit(np.zeros((4, 3)), 4)


class TestLda:
    def test_two_class_direction_matches_oracles(self):
        rng = np.random.default_rng(11)
        n = 400
        X = np.vstack(
            [
                rng.normal(size=(n, 2)) * 0.3 + [1.5, 0.0],
                rng.normal(size=(n, 2)) * 0.3 + [-1.5, 0.0],
            ]
        )
        y = np.array([1] * n + [2] * n)
        proj = lda_fit(X, y, 1)
        v = proj.matrix[:, 0]
        closed = two_class_discriminant_closed_form(X, y)
        assert angle_between(v, closed) < 1e-6
        s_w, s_b = scatter_matrices(X, y)
        eps = 1e-6 * np.trace(s_w) / 2
        gridded = grid_search_discriminant_2d(s_w, s_b, eps)
        assert angle_between(v, gridded) < 1e-3
        assert angle_between(v, np.array([1.0, 0.0])) < 0.15  # displaced along axis 1

    def test_columns_unit_length(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 5))
        y = rng.integers(1, 4, size=60)
        y[:3] = [1, 2, 3]
        proj = lda_fit(X, y, 2)
        assert np.allclose(np.linalg.norm(proj.matrix, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("duplicated", [False, True])
    def test_generalized_eigen_residuals_at_full_dimension(self, duplicated):
        # 6 classes, D = 128; duplicated columns make S_w rank-deficient
        rng = np.random.default_rng(13)
        y = np.repeat(np.arange(1, 7), 60)
        X = rng.normal(size=(6, 128))[y - 1] + rng.normal(size=(360, 128)) * rng.uniform(
            0.2, 3.0, size=128
        )
        if duplicated:
            X[:, 64:] = X[:, :64]
        s_w, s_b = scatter_matrices(X, y)
        assert np.linalg.matrix_rank(s_w) == (64 if duplicated else 128)
        proj = lda_fit(X, y, 5)
        B = s_w + 1e-6 * np.trace(s_w) / 128 * np.eye(128)
        b_norm = np.linalg.norm(B, 2)
        for eta, v in zip(proj.eigenvalues, proj.matrix.T):
            residual = np.linalg.norm(s_b @ v - eta * (B @ v))
            assert residual <= 1e-9 * b_norm * np.linalg.norm(v)
        assert np.all(np.diff(proj.eigenvalues) <= 0)
        assert np.allclose(np.linalg.norm(proj.matrix, axis=0), 1.0, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            lda_fit(np.zeros((5, 3)), [1] * 5, 1)

    def test_k_bounded_by_class_count(self):
        X = np.random.default_rng(0).normal(size=(10, 5))
        y = [1] * 5 + [2] * 5
        with pytest.raises(ValueError, match="k must be"):
            lda_fit(X, y, 2)

    def test_zero_within_scatter_still_fits(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        proj = lda_fit(X, [1, 2, 3], 2)
        assert np.all(np.isfinite(proj.matrix))


class TestDrca:
    def test_identical_domains_reduce_to_pca_subspace(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(80, 5)) @ np.diag([4, 2.5, 1.5, 0.8, 0.3])
        proj = drca_fit(X, X.copy(), DrcaConfig(target_weight=0.1, components=3))
        ref = pca_fit(X, 3)
        gap = np.linalg.norm(
            proj.matrix @ proj.matrix.T - ref.matrix @ ref.matrix.T
        )
        assert gap <= 1e-8

    def test_deflation_removes_mean_difference(self):
        rng = np.random.default_rng(22)
        src = rng.normal(size=(40, 6))
        tgt = rng.normal(size=(35, 6)) + rng.normal(size=6) * 2
        proj = drca_fit(src, tgt, DrcaConfig(components=5))
        d = src.mean(axis=0) - tgt.mean(axis=0)
        assert np.linalg.norm(proj.matrix.T @ d) <= 1e-8 * np.linalg.norm(d)

    def test_shift_along_first_axis_is_excluded(self):
        rng = np.random.default_rng(23)
        src = np.vstack([rng.normal(size=(30, 4)) + 2, rng.normal(size=(30, 4)) - 2])
        tgt = src + np.array([5.0, 0.0, 0.0, 0.0])
        proj = drca_fit(src, tgt, DrcaConfig(components=3))
        assert np.abs(proj.matrix[0, :]).max() <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        src = rng.normal(size=(30, 5))
        tgt = rng.normal(size=(25, 5)) + 1.0
        a = drca_fit(src, tgt, DrcaConfig(components=4))
        b = drca_fit(src.copy(), tgt.copy(), DrcaConfig(components=4))
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_k_exceeding_deflated_dim_rejected(self):
        rng = np.random.default_rng(25)
        src = rng.normal(size=(10, 4))
        tgt = rng.normal(size=(10, 4)) + 3
        with pytest.raises(ValueError, match="deflation"):
            drca_fit(src, tgt, DrcaConfig(components=4))

    def test_random_fit_invariants(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            d = int(rng.integers(3, 9))
            src = rng.normal(size=(int(rng.integers(5, 40)), d)) * rng.uniform(0.5, 4)
            tgt = rng.normal(size=(int(rng.integers(5, 40)), d)) + rng.normal(size=d)
            cfg = DrcaConfig(target_weight=float(rng.uniform(0, 2)), components=d - 1)
            proj = drca_fit(src, tgt, cfg)
            A = covariance(src) + cfg.target_weight * covariance(tgt)
            diff = proj.source_center - proj.target_center
            deflated = np.linalg.norm(diff) > deflation_threshold(d)
            M = full_space_objective_matrix(A, diff, deflated)
            res = np.linalg.norm(M @ proj.matrix - proj.matrix * proj.eigenvalues, axis=0).max()
            assert res <= 1e-8 * (1 + np.linalg.norm(M))
            assert np.linalg.norm(proj.matrix.T @ proj.matrix - np.eye(d - 1)) <= 1e-8


class TestLdsp:
    def seeded_instance(self, seed=31):
        rng = np.random.default_rng(seed)
        n = 50
        # classes split along axis 2; axis 1 carries large unlabeled variance
        scale = np.array([3.0, 1.0, 0.5, 0.5])
        a = rng.normal(size=(n, 4)) * scale + [0, 1.2, 0, 0]
        b = rng.normal(size=(n, 4)) * scale - [0, 1.2, 0, 0]
        src = np.vstack([a, b])
        y = np.array([1] * n + [2] * n)
        tgt = src + np.array([0.0, 0.0, 4.0, 0.0]) + rng.normal(size=src.shape) * 0.1
        return src, y, tgt

    def test_zero_weights_match_drca(self):
        src, y, tgt = self.seeded_instance()
        ldsp = ldsp_fit(src, y, tgt, LdspConfig(0.1, 0.0, 0.0, 3))
        drca = drca_fit(src, tgt, DrcaConfig(0.1, 3))
        assert np.allclose(ldsp.matrix, drca.matrix, atol=1e-12)

    def test_deflation_invariant(self):
        src, y, tgt = self.seeded_instance()
        proj = ldsp_fit(src, y, tgt, LdspConfig(components=3))
        d = proj.source_center - proj.target_center
        assert np.linalg.norm(proj.matrix.T @ d) <= 1e-8 * np.linalg.norm(d)

    def test_top_direction_more_discriminative_than_drca(self):
        src, y, tgt = self.seeded_instance()
        s_w, s_b = scatter_matrices(src, y)
        v_ldsp = ldsp_fit(src, y, tgt, LdspConfig(0.1, 10.0, 100.0, 3)).matrix[:, 0]
        v_drca = drca_fit(src, tgt, DrcaConfig(0.1, 3)).matrix[:, 0]
        assert fisher_ratio(v_ldsp, s_w, s_b) > fisher_ratio(v_drca, s_w, s_b)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            ldsp_fit(np.zeros((4, 3)), [1] * 4, np.ones((4, 3)), LdspConfig(components=2))


class TestComplementFit:
    """The full-rank fits that the shared chain stands in for (``run_complement``)."""

    def drifted_pair(self, seed=51, d=7):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(40, d)) * rng.uniform(0.5, 3, size=d)
        tgt = rng.normal(size=(30, d)) + rng.normal(size=d) * 2
        return src, tgt

    @pytest.mark.parametrize("method", ["drca", "ldsp"])
    def test_orthonormal_complement_of_mean_difference(self, method):
        # Either method's full-rank fit is an orthonormal basis of the
        # complement of the mean difference, centred on the two domain means.
        src, tgt = self.drifted_pair()
        d = src.shape[1]
        if method == "drca":
            fitted = drca_fit(src, tgt, DrcaConfig(components=d - 1))
        else:
            fitted = ldsp_fit(src, np.repeat([1, 2], 20), tgt, LdspConfig(components=d - 1))
        diff = src.mean(axis=0) - tgt.mean(axis=0)
        assert fitted.matrix.shape == (d, d - 1)
        assert np.linalg.norm(fitted.matrix.T @ fitted.matrix - np.eye(d - 1)) <= 1e-12
        assert np.linalg.norm(fitted.matrix.T @ diff) <= 1e-12 * np.linalg.norm(diff)
        assert np.array_equal(fitted.source_center, src.mean(axis=0))
        assert np.array_equal(fitted.target_center, tgt.mean(axis=0))
        assert fitted.eigenvalues.shape == (d - 1,)

    def test_spans_the_full_rank_eigen_subspaces(self):
        # Both full-rank projectors equal I - u uᵀ, u the unit mean
        # difference: the subspace that run_complement's data is projected on.
        src, tgt = self.drifted_pair(seed=52)
        y = np.repeat([1, 2], 20)
        k = src.shape[1] - 1
        diff = src.mean(axis=0) - tgt.mean(axis=0)
        u = diff / np.linalg.norm(diff)
        P = np.eye(k + 1) - np.outer(u, u)
        for fitted in (
            drca_fit(src, tgt, DrcaConfig(components=k)),
            ldsp_fit(src, y, tgt, LdspConfig(components=k)),
        ):
            W = fitted.matrix
            assert np.linalg.norm(P - W @ W.T) <= 1e-12

    @pytest.mark.parametrize(
        "src, tgt, message",
        [
            (np.zeros((0, 3)), np.ones((4, 3)), "non-empty"),
            (np.zeros((4, 3)), np.ones((0, 3)), "non-empty"),
            (np.zeros(3), np.ones((4, 3)), "non-empty"),
            (np.zeros((4, 3)), np.ones((4, 2)), "source dim 3 does not match target dim 2"),
        ],
    )
    def test_rejects_what_drca_rejects_with_its_message(self, src, tgt, message):
        with pytest.raises(ValueError, match=message):
            drca_fit(src, tgt, DrcaConfig(components=1))


class TestProject:
    def test_source_mean_maps_to_zero(self):
        rng = np.random.default_rng(41)
        src = rng.normal(size=(20, 4))
        tgt = rng.normal(size=(20, 4)) + 2
        proj = drca_fit(src, tgt, DrcaConfig(components=3))
        out = project(proj, src.mean(axis=0, keepdims=True), "source")
        assert np.abs(out).max() < 1e-12

    def test_identity_projection(self):
        from driftbench.subspace import LinearProjection

        p = LinearProjection(np.eye(3), np.zeros(3), np.zeros(3), np.ones(3))
        X = np.random.default_rng(42).normal(size=(5, 3))
        assert np.array_equal(project(p, X, "source"), X)

    def test_orthonormal_projection_contracts(self):
        rng = np.random.default_rng(43)
        src = rng.normal(size=(30, 5))
        tgt = rng.normal(size=(30, 5)) + 1
        proj = drca_fit(src, tgt, DrcaConfig(components=3))
        X = rng.normal(size=(10, 5))
        out = project(proj, X, "target")
        centered = X - proj.target_center
        assert np.all(
            np.linalg.norm(out, axis=1) <= np.linalg.norm(centered, axis=1) + 1e-12
        )

    def test_domain_and_dim_validated(self):
        rng = np.random.default_rng(44)
        proj = pca_fit(rng.normal(size=(10, 3)), 2)
        with pytest.raises(ValueError, match="domain"):
            project(proj, np.zeros((2, 3)), "both")
        with pytest.raises(ValueError, match="dim"):
            project(proj, np.zeros((2, 4)), "source")
