"""Parity pins: vectorized hot paths reproduce the seed row-loop outputs.

Every vectorized implementation was designed to consume the RNG stream in
exactly the order its seed row-loop predecessor did, so under a fixed seed
the outputs must match **bit-for-bit** — not approximately.  The batched
tree split searches must likewise pick the same split, with the same gain,
as the seed per-feature loops, ties included.  The seed implementations
live in :mod:`repro.perf.seed_reference`.
"""

import numpy as np
import pytest

from repro.data import Table, make_schema
from repro.models import RandomForestClassifier, boosting, tree
from repro.neighbors.brute import _topk_from_dists
from repro.perf import seed_reference as seed_ref
from repro.rules import Predicate
from repro.sampling import (
    SMOTE,
    RuleConstrainedGenerator,
    classify_borderline,
    majority_categorical_batch,
    pick_categorical_batch,
    sample_in_window_batch,
)
from repro.sampling.borderline import DEFAULT_WEIGHTS
from repro.sampling.rule_generation import NumericWindow
from repro.rules import FeedbackRule, clause


class TestTopKParity:
    def _dist_matrix(self, seed, n_q=60, n_x=80, with_self=True):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(n_x, 3))
        Q = X[:n_q] if with_self else rng.uniform(0, 1, size=(n_q, 3))
        # Duplicate some rows to exercise zero-distance ties.
        X[1] = X[0]
        diff = Q[:, None, :] - X[None, :, :]
        return np.sqrt((diff**2).sum(-1))

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("k", [1, 5, 79, 200])
    def test_bit_for_bit(self, k, exclude_self):
        D = self._dist_matrix(0)
        sd, si = seed_ref.seed_topk_from_dists(D, k, exclude_self=exclude_self)
        cd, ci = _topk_from_dists(D, k, exclude_self=exclude_self)
        np.testing.assert_array_equal(sd, cd)
        np.testing.assert_array_equal(si, ci)

    def test_queries_not_in_fitted_set(self):
        D = self._dist_matrix(1, with_self=False)
        sd, si = seed_ref.seed_topk_from_dists(D, 5, exclude_self=True)
        cd, ci = _topk_from_dists(D, 5, exclude_self=True)
        np.testing.assert_array_equal(sd, cd)
        np.testing.assert_array_equal(si, ci)


class TestMajorityParity:
    @pytest.mark.parametrize("n_cats,k", [(2, 2), (3, 5), (6, 4)])
    def test_bit_for_bit_including_ties(self, n_cats, k):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, n_cats, size=(500, k))
        a = seed_ref.seed_majority_batch(codes, np.random.default_rng(7))
        b = majority_categorical_batch(codes, n_cats, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


WINDOWS = [
    NumericWindow(lo=0.3, hi=0.7),
    NumericWindow(lo=0.3, hi=0.7, lo_strict=True, hi_strict=True),
    NumericWindow(eq=0.5),
    NumericWindow(lo=5.0, hi=9.0),      # entirely outside the sampled data
    NumericWindow(lo=5.0),              # half-open, outside observed range
    NumericWindow(hi=-5.0),             # half-open below
    NumericWindow(lo=0.5, hi=0.5),      # degenerate point window
]


class TestWindowParity:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_bit_for_bit(self, window):
        rng = np.random.default_rng(11)
        base = rng.uniform(0, 1, size=400)
        nbr = rng.uniform(0, 1, size=400)
        a = seed_ref.seed_sample_in_window_batch(
            window, base, nbr, (0.0, 1.0), np.random.default_rng(5)
        )
        b = sample_in_window_batch(
            window, base, nbr, (0.0, 1.0), np.random.default_rng(5)
        )
        np.testing.assert_array_equal(a, b)


class TestPickCategoricalParity:
    CATS = ("a", "b", "c")

    @pytest.mark.parametrize(
        "conds",
        [
            (),
            (Predicate("c", "!=", "a"),),
            (Predicate("c", "==", "b"),),
            (Predicate("c", "!=", "a"), Predicate("c", "!=", "b")),
        ],
    )
    def test_bit_for_bit(self, conds):
        rng = np.random.default_rng(13)
        codes = rng.integers(0, 2, size=(400, 5))  # never observes 'c':
        a = seed_ref.seed_pick_categorical_batch(
            codes, conds, self.CATS, np.random.default_rng(9)
        )
        b = pick_categorical_batch(codes, conds, self.CATS, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestSmoteGenerateParity:
    def test_bit_for_bit(self, mixed_table):
        a = seed_ref.seed_smote_generate(
            mixed_table, 120, k=5, rng=np.random.default_rng(21)
        )
        b = SMOTE(5).generate(mixed_table, 120, rng=np.random.default_rng(21))
        for name in mixed_table.schema.names:
            np.testing.assert_array_equal(a.column(name), b.column(name))


class TestBorderlineWeightsParity:
    def test_weight_vector_matches_seed_mapping(self, mixed_table):
        labels = (mixed_table.column("age") < 45).astype(np.int64)
        analysis = classify_borderline(mixed_table, labels, k=7)
        np.testing.assert_array_equal(
            analysis.weights,
            seed_ref.seed_borderline_weights(analysis.categories, DEFAULT_WEIGHTS),
        )


class TestGeneratorIndexCache:
    def _gen_and_pool(self, mixed_table):
        rule = FeedbackRule.deterministic(
            clause(
                Predicate("age", "<", 50.0), Predicate("marital", "==", "single")
            ),
            1,
            2,
        )
        gen = RuleConstrainedGenerator(rule, mixed_table, k=5)
        pool = mixed_table.loc_mask(rule.coverage_mask(mixed_table))
        return gen, pool

    def test_cached_index_reproduces_uncached_output(self, mixed_table):
        gen_a, pool = self._gen_and_pool(mixed_table)
        gen_b, _ = self._gen_and_pool(mixed_table)
        positions = np.arange(min(15, pool.n_rows))
        # Uncached: every call refits.  Cached: second call reuses the fit.
        _ = gen_a.generate(pool, positions, np.random.default_rng(1), cache_token=7)
        a = gen_a.generate(pool, positions, np.random.default_rng(2), cache_token=7)
        assert gen_a._index_cache is not None
        b = gen_b.generate(pool, positions, np.random.default_rng(2))
        for name in mixed_table.schema.names:
            np.testing.assert_array_equal(a.table.column(name), b.table.column(name))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_token_change_invalidates(self, mixed_table):
        gen, pool = self._gen_and_pool(mixed_table)
        positions = np.arange(min(10, pool.n_rows))
        gen.generate(pool, positions, np.random.default_rng(0), cache_token=1)
        first = gen._index_cache
        smaller = pool.take(np.arange(pool.n_rows // 2))
        out = gen.generate(smaller, positions[:3], np.random.default_rng(0), cache_token=2)
        assert gen._index_cache is not first
        assert out.n == 3


def _tie_heavy(seed, n=240, n_classes=2):
    """Integer columns full of ties, a duplicated column (so two features
    tie on every gain), two constant columns, labels."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, 9)).astype(np.float64)
    X[:, 5] = X[:, 0]
    X[:, 2] = 7.0
    X[:, 6] = -1.0
    X[:, 8] = rng.normal(size=n)
    y = (X[:, 0] + X[:, 3] + rng.integers(0, 3, size=n)) % n_classes
    return X, y.astype(np.int64)


def _node_subsets(n, seed):
    rng = np.random.default_rng(seed)
    return [
        np.arange(n, dtype=np.intp),
        np.sort(rng.choice(n, size=n // 3, replace=False)),
        rng.choice(n, size=n // 2, replace=False),  # unsorted rows
        np.arange(5, dtype=np.intp),
    ]


class TestHistSplitParity:
    """GBDT split search: (gain, feature, bin) equals the per-feature loop."""

    def _problem(self, seed, n_classes, max_bins=16):
        X, y = _tie_heavy(seed, n_classes=n_classes)
        binner = boosting._Binner(max_bins).fit(X)
        B = binner.transform(X)
        n_bins = np.array([binner.n_bins(f) for f in range(X.shape[1])])
        # One class's Newton targets at a scattered prediction, so every
        # histogram cell sums inexact floats and summation order shows.
        p = np.random.default_rng(seed).uniform(0.05, 0.95, size=y.size)
        g = p - (y == n_classes - 1)
        h = np.maximum(p * (1 - p), 1e-12)
        return B, g, h, n_bins

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("min_child_samples", [0, 1, 20, 200])
    @pytest.mark.parametrize("reg_lambda", [1.0, 0.1])
    def test_bit_for_bit(self, n_classes, min_child_samples, reg_lambda):
        B, g, h, n_bins = self._problem(0, n_classes)
        kw = dict(min_child_samples=min_child_samples, reg_lambda=reg_lambda)
        best_split = boosting._split_search(B, g, h, n_bins, **kw)
        for idx in _node_subsets(B.shape[0], 1):
            assert best_split(idx) == seed_ref.seed_hist_best_split(
                B, g, h, idx, n_bins, **kw
            )

    def test_no_valid_split(self):
        B, g, h, n_bins = self._problem(2, 2)
        kw = dict(min_child_samples=B.shape[0], reg_lambda=1.0)
        idx = np.arange(B.shape[0], dtype=np.intp)
        expected = (-np.inf, -1, -1)
        assert seed_ref.seed_hist_best_split(B, g, h, idx, n_bins, **kw) == expected
        assert boosting._split_search(B, g, h, n_bins, **kw)(idx) == expected

    def test_single_bin_feature_is_skipped(self):
        # Every threshold gains exactly 0, so only validity decides: the
        # winner must be a real bin, not the padding of 1-bin feature 0.
        B, _, h, n_bins = self._problem(2, 2)
        B[:, 0] = 0
        n_bins[0] = 1
        g = np.zeros(B.shape[0])
        kw = dict(min_child_samples=0, reg_lambda=1.0)
        idx = np.arange(B.shape[0], dtype=np.intp)
        expected = seed_ref.seed_hist_best_split(B, g, h, idx, n_bins, **kw)
        assert expected == (0.0, 1, 0)
        assert boosting._split_search(B, g, h, n_bins, **kw)(idx) == expected

    def test_all_columns_constant(self):
        B, g, h, _ = self._problem(3, 2)
        B = np.zeros_like(B)
        n_bins = np.ones(B.shape[1], dtype=np.int64)
        kw = dict(min_child_samples=1, reg_lambda=1.0)
        idx = np.arange(B.shape[0], dtype=np.intp)
        assert boosting._split_search(B, g, h, n_bins, **kw)(idx) == (
            seed_ref.seed_hist_best_split(B, g, h, idx, n_bins, **kw)
        )

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_whole_fit_matches_seed_search(self, monkeypatch, n_classes):
        X, y = _tie_heavy(4, n_classes=n_classes)

        def fit():
            model = boosting.GradientBoostingClassifier(n_estimators=8, max_bins=32)
            return model.fit(X, y).predict_proba(X)

        batched = fit()

        def seed_search(B, g, h, n_bins, **kw):
            return lambda idx: seed_ref.seed_hist_best_split(B, g, h, idx, n_bins, **kw)

        monkeypatch.setattr(boosting, "_split_search", seed_search)
        np.testing.assert_array_equal(batched, fit())

    @staticmethod
    def _mixed_width(seed, n=600):
        """Binned columns spanning width classes 2, 4, 32 and 256, in an
        order that interleaves them, plus a 1-bin column and duplicated
        columns (so features tie within a class)."""
        rng = np.random.default_rng(seed)
        wide = rng.integers(0, 220, size=n)
        wide[:220] = np.arange(220)  # every bin present: 220 bins
        mid = rng.integers(0, 30, size=n)
        mid[:30] = np.arange(30)
        B = np.column_stack([
            rng.integers(0, 2, size=n),  # 2 bins
            wide,  # 220 bins
            np.zeros(n, dtype=np.int64),  # 1 bin: no threshold
            mid,  # 30 bins
            rng.integers(0, 4, size=n),  # 4 bins
            wide,  # 220 bins, ties feature 1
            rng.integers(0, 3, size=n),  # 3 bins
            mid,  # 30 bins, ties feature 3
        ])
        n_bins = B.max(axis=0) + 1
        p = rng.uniform(0.05, 0.95, size=n)
        g = p - (wide + rng.integers(0, 60, size=n) > 140)
        h = np.maximum(p * (1 - p), 1e-12)
        return B, g, h, n_bins

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("min_child_samples", [1, 5, 60])
    @pytest.mark.parametrize("reg_lambda", [1.0, 0.0])
    @pytest.mark.filterwarnings("ignore:.*encountered in divide:RuntimeWarning")
    def test_mixed_width_classes(self, seed, min_child_samples, reg_lambda):
        # reg_lambda=0 divides by an empty side's zero hessian in cells
        # that are invalid anyway (both searches mask them to -inf).
        B, g, h, n_bins = self._mixed_width(seed)
        assert sorted(n_bins) == [1, 2, 3, 4, 30, 30, 220, 220]
        kw = dict(min_child_samples=min_child_samples, reg_lambda=reg_lambda)
        best_split = boosting._split_search(B, g, h, n_bins, **kw)
        for idx in _node_subsets(B.shape[0], seed + 1):
            assert best_split(idx) == seed_ref.seed_hist_best_split(
                B, g, h, idx, n_bins, **kw
            )

    @pytest.mark.parametrize("wide_first", [True, False])
    def test_cross_class_tie_picks_lower_feature(self, wide_first):
        # A 200-bin column whose bins <= 99 hold exactly the rows where a
        # 2-bin column is 0: both split the node the same way.  Dyadic g
        # and h keep every sum exact, so the two gains are equal to the
        # bit and only the tie-break decides; the per-feature loop keeps
        # the lower feature index whichever width class it sits in.
        rng = np.random.default_rng(12)
        n = 400
        binary = np.repeat([0, 1], n // 2)
        wide = np.where(binary == 0, rng.integers(0, 100, size=n),
                        rng.integers(100, 200, size=n))
        wide[:100], wide[-100:] = np.arange(100), np.arange(100, 200)
        noise = rng.integers(0, 4, size=n)
        cols = [wide, binary] if wide_first else [binary, wide]
        B = np.column_stack(cols + [noise])
        n_bins = B.max(axis=0) + 1
        g = np.where(binary == 0, -0.5, 0.5) + 0.25 * rng.integers(-1, 2, size=n)
        h = 0.25 * rng.integers(1, 3, size=n)
        kw = dict(min_child_samples=1, reg_lambda=1.0)
        idx = np.arange(n, dtype=np.intp)
        expected = seed_ref.seed_hist_best_split(B, g, h, idx, n_bins, **kw)
        assert expected[1:] == ((0, 99) if wide_first else (0, 0))
        # Each column on its own reaches exactly the winning gain.
        wide_col = 0 if wide_first else 1
        for col, threshold in ((wide_col, 99), (1 - wide_col, 0)):
            alone = seed_ref.seed_hist_best_split(
                B[:, [col]], g, h, idx, n_bins[[col]], **kw
            )
            assert alone == (expected[0], 0, threshold)
        assert boosting._split_search(B, g, h, n_bins, **kw)(idx) == expected

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_whole_fit_mixed_widths_matches_seed_search(self, monkeypatch, n_classes):
        # At max_bins=255 the quantile edges put these columns in four
        # width classes: 256 (the normal column, 255 bins), 64 (20 levels,
        # 38 bins), 8 (the tie-heavy integers, 7-8 bins) and 2 (the
        # constants, whose single edge leaves bin 0 empty).
        X, y = _tie_heavy(13, n=300, n_classes=n_classes)
        X[:, 7] = np.random.default_rng(14).integers(0, 20, size=X.shape[0])

        def fit():
            model = boosting.GradientBoostingClassifier(n_estimators=8, max_bins=255)
            model.fit(X, y)
            return model, model.predict_proba(X)

        model, batched = fit()
        widths = {1 << (int(nb) - 1).bit_length() for nb in model.binner_.n_bins_}
        assert widths == {2, 8, 64, 256}

        def seed_search(B, g, h, n_bins, **kw):
            return lambda idx: seed_ref.seed_hist_best_split(B, g, h, idx, n_bins, **kw)

        monkeypatch.setattr(boosting, "_split_search", seed_search)
        np.testing.assert_array_equal(batched, fit()[1])


class TestCartSplitParity:
    """CART split search: (feature, threshold) equals the per-feature loop."""

    @pytest.mark.parametrize("n_classes", [2, 4])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("max_features", ["sqrt", None, 5])
    @pytest.mark.parametrize("min_samples_leaf", [1, 15])
    def test_bit_for_bit(self, n_classes, criterion, max_features, min_samples_leaf):
        X, y = _tie_heavy(5, n_classes=n_classes)
        clf = tree.DecisionTreeClassifier(max_features=max_features)
        n_split = clf._resolve_max_features(X.shape[1])
        rng = np.random.default_rng(6)
        kw = dict(criterion=criterion, min_samples_leaf=min_samples_leaf)
        for idx in _node_subsets(X.shape[0], 7):
            features = rng.choice(X.shape[1], size=n_split, replace=False)
            args = (X, y, idx, features, n_classes)
            assert tree._split_search(*args, **kw) == (
                seed_ref.seed_cart_best_split(*args, **kw)
            )

    def test_no_valid_split(self):
        X, y = _tie_heavy(8)
        idx = np.arange(X.shape[0], dtype=np.intp)
        features = np.arange(X.shape[1])
        kw = dict(criterion="gini", min_samples_leaf=X.shape[0])
        assert seed_ref.seed_cart_best_split(X, y, idx, features, 2, **kw) == (-1, 0.0)
        assert tree._split_search(X, y, idx, features, 2, **kw) == (-1, 0.0)

    def test_constant_columns_only(self):
        X, y = _tie_heavy(9)
        idx = np.arange(X.shape[0], dtype=np.intp)
        features = np.array([6, 2])
        kw = dict(criterion="entropy", min_samples_leaf=1)
        assert tree._split_search(X, y, idx, features, 2, **kw) == (-1, 0.0)
        assert seed_ref.seed_cart_best_split(X, y, idx, features, 2, **kw) == (-1, 0.0)

    @pytest.mark.parametrize("max_features", ["sqrt", None, 3])
    def test_whole_fit_matches_seed_search(self, monkeypatch, max_features):
        X, y = _tie_heavy(10, n_classes=3)

        def fit():
            model = RandomForestClassifier(
                n_estimators=6, max_depth=4, max_features=max_features,
                criterion="entropy", random_state=11,
            )
            return model.fit(X, y).predict_proba(X)

        batched = fit()
        monkeypatch.setattr(tree, "_split_search", seed_ref.seed_cart_best_split)
        np.testing.assert_array_equal(batched, fit())
