"""Histogram-based gradient boosting classifier (LightGBM substitute).

Implements the core LightGBM recipe the paper's third model relies on:

* features quantile-binned once up front (``max_bins`` histogram bins);
* regression trees grown **leaf-wise** (best-gain-first) on first- and
  second-order gradients (Newton boosting);
* split gain ``G_L^2/(H_L+λ) + G_R^2/(H_R+λ) - G^2/(H+λ)``;
* logistic loss for binary problems, softmax (one tree per class per
  round) for multiclass.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_array_1d, check_array_2d


class _Binner:
    """Quantile binning of float features into integer histogram bins."""

    def __init__(self, max_bins: int = 255) -> None:
        if not 2 <= max_bins <= 255:
            raise ValueError(f"max_bins must be in [2, 255], got {max_bins}")
        self.max_bins = max_bins
        self.edges_: list[np.ndarray] | None = None
        self.n_bins_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "_Binner":
        edges = []
        for f in range(X.shape[1]):
            col = X[:, f]
            qs = np.quantile(col, np.linspace(0, 1, self.max_bins + 1)[1:-1])
            edges.append(np.unique(qs))
        self.edges_ = edges
        self.n_bins_ = np.array([len(e) + 1 for e in edges])
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("_Binner is not fitted")
        out = np.empty(X.shape, dtype=np.int32)
        for f, e in enumerate(self.edges_):
            out[:, f] = np.searchsorted(e, X[:, f], side="right")
        return out

    def n_bins(self, f: int) -> int:
        assert self.n_bins_ is not None
        return int(self.n_bins_[f])


@dataclass
class _SplitNode:
    feature: int
    bin_threshold: int
    left: "int"
    right: "int"


@dataclass
class _HistTree:
    """Flattened tree: ``nodes[i]`` is a _SplitNode or a float leaf value."""

    nodes: list = field(default_factory=list)

    def predict_binned(self, B: np.ndarray) -> np.ndarray:
        out = np.zeros(B.shape[0])
        frontier = [(0, np.arange(B.shape[0], dtype=np.intp))]
        while frontier:
            node_id, rows = frontier.pop()
            if rows.size == 0:
                continue
            node = self.nodes[node_id]
            if isinstance(node, float):
                out[rows] = node
                continue
            go_left = B[rows, node.feature] <= node.bin_threshold
            frontier.append((node.left, rows[go_left]))
            frontier.append((node.right, rows[~go_left]))
        return out


def _split_search(
    B: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    n_bins: np.ndarray,
    *,
    min_child_samples: int,
    reg_lambda: float,
) -> Callable[[np.ndarray], tuple[float, int, int]]:
    """Set up one tree's split search; return ``best_split(idx)``.

    Features with at least two bins are grouped into **width classes**:
    a feature with ``n_bins`` bins gets ``W`` = the next power of two
    ``>= n_bins`` columns, so no feature is padded to more than twice its
    bin count (at most 8 classes for ``max_bins <= 255``).  The classes
    are laid out one after another in one compact id space, each as a
    ``(k, W)`` grid of its ``k`` features in ascending index order;
    1-bin features have no threshold and are left out.

    ``best_split`` scores every (feature, bin) threshold of the node
    holding rows ``idx``: one ``bincount`` each for g, h and count over
    the compact ids, an in-place row-wise prefix sum of each class's grid
    (restarting at every feature), the gain over the whole space with
    invalid cells set to −inf, and one flat argmax per class.  Class
    winners merge on larger gain, and on an exact tie the
    lower feature index wins; within a class the flat argmax already
    picks the lowest feature, then the lowest bin.  That is the
    tie-break of a per-feature loop that keeps the first strictly
    greater gain, and since every cell sums its rows in ``idx`` order,
    gains match that loop bit for bit.  Returns ``(gain, feature,
    bin_threshold)``, or ``(-inf, -1, -1)`` when no threshold is valid.
    """
    features = np.flatnonzero(n_bins >= 2)
    if features.size == 0:
        return lambda idx: (-np.inf, -1, -1)
    widths = np.array([1 << (int(nb) - 1).bit_length() for nb in n_bins[features]])
    classes = []  # (start, stop, width, features) spans of the id space
    offsets = np.empty(features.size, dtype=np.intp)
    real_rows = []
    start = 0
    for width in np.unique(widths):
        cols = np.flatnonzero(widths == width)  # positions in `features`
        members = features[cols]
        stop = start + cols.size * width
        offsets[cols] = start + np.arange(cols.size) * width
        # Threshold b sends bins <= b left; it exists for b < n_bins(f) - 1.
        real_rows.append((np.arange(width) < n_bins[members, None] - 1).ravel())
        classes.append((start, stop, int(width), members))
        start = stop
    size = start
    real = np.concatenate(real_rows)
    # The binner never makes a 1-bin feature, so a fit's trees skip the
    # copy; take() keeps C order (B[:, features] would not), so each
    # node's row gather reads contiguous rows.
    kept = B if features.size == B.shape[1] else B.take(features, axis=1)
    B_compact = kept + offsets
    n_cols = features.size
    lam = reg_lambda

    def best_split(idx: np.ndarray) -> tuple[float, int, int]:
        g_idx, h_idx = g[idx], h[idx]
        G, H = g_idx.sum(), h_idx.sum()
        parent = G * G / (H + lam)
        bins = B_compact[idx].ravel()
        GL = np.bincount(bins, np.repeat(g_idx, n_cols), size)
        HL = np.bincount(bins, np.repeat(h_idx, n_cols), size)
        NL = np.bincount(bins, minlength=size)
        for start, stop, width, _ in classes:
            for hist in (GL, HL, NL):
                grid = hist[start:stop].reshape(-1, width)
                np.cumsum(grid, axis=1, out=grid)
        GR, HR, NR = G - GL, H - HL, idx.size - NL
        valid = real & (NL >= min_child_samples) & (NR >= min_child_samples)
        gain = GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent
        gain[~valid] = -np.inf
        best = (-np.inf, -1, -1)
        for start, stop, width, members in classes:
            k = start + int(np.argmax(gain[start:stop]))
            if not valid[k]:
                continue
            row, b = divmod(k - start, width)
            cand = (float(gain[k]), int(members[row]), b)
            if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
        return best

    return best_split


class _HistTreeBuilder:
    """Leaf-wise tree growth on (gradient, hessian) targets."""

    def __init__(
        self,
        n_bins: np.ndarray,
        *,
        max_leaves: int,
        max_depth: int | None,
        min_child_samples: int,
        reg_lambda: float,
        min_gain: float,
    ) -> None:
        self.n_bins = n_bins
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.min_child_samples = min_child_samples
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain

    def build(self, B: np.ndarray, g: np.ndarray, h: np.ndarray) -> _HistTree:
        lam = self.reg_lambda

        def leaf_value(idx: np.ndarray) -> float:
            return float(-g[idx].sum() / (h[idx].sum() + lam))

        best_split = _split_search(
            B, g, h, self.n_bins,
            min_child_samples=self.min_child_samples, reg_lambda=lam,
        )

        tree = _HistTree()
        root_idx = np.arange(B.shape[0], dtype=np.intp)
        tree.nodes.append(leaf_value(root_idx))
        if root_idx.size < 2 * self.min_child_samples:
            return tree

        # Leaf-wise growth: a heap of candidate splits keyed by -gain.
        heap: list[tuple[float, int, int, int, int, np.ndarray, int]] = []
        counter = 0  # tiebreaker so ndarray never gets compared

        def push(node_id: int, idx: np.ndarray, depth: int) -> None:
            nonlocal counter
            if self.max_depth is not None and depth >= self.max_depth:
                return
            if idx.size < 2 * self.min_child_samples:
                return
            gain, f, b = best_split(idx)
            if gain > self.min_gain:
                heapq.heappush(heap, (-gain, counter, node_id, f, b, idx, depth))
                counter += 1

        push(0, root_idx, 0)
        n_leaves = 1
        while heap and n_leaves < self.max_leaves:
            _, _, node_id, f, b, idx, depth = heapq.heappop(heap)
            go_left = B[idx, f] <= b
            left_idx, right_idx = idx[go_left], idx[~go_left]
            left_id = len(tree.nodes)
            tree.nodes.append(leaf_value(left_idx))
            right_id = len(tree.nodes)
            tree.nodes.append(leaf_value(right_idx))
            tree.nodes[node_id] = _SplitNode(f, b, left_id, right_id)
            n_leaves += 1
            push(left_id, left_idx, depth + 1)
            push(right_id, right_idx, depth + 1)
        return tree


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class GradientBoostingClassifier:
    """Newton-boosted histogram GBDT with leaf-wise trees.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's leaf values.
    max_leaves / max_depth / min_child_samples / reg_lambda:
        Tree growth controls (LightGBM-style defaults).
    max_bins:
        Histogram resolution.
    """

    def __init__(
        self,
        n_estimators: int = 60,
        *,
        learning_rate: float = 0.1,
        max_leaves: int = 31,
        max_depth: int | None = None,
        min_child_samples: int = 20,
        reg_lambda: float = 1.0,
        max_bins: int = 255,
        min_gain: float = 1e-12,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.min_child_samples = min_child_samples
        self.reg_lambda = reg_lambda
        self.max_bins = max_bins
        self.min_gain = min_gain
        self.binner_: _Binner | None = None
        self.trees_: list[list[_HistTree]] = []  # [round][class]
        self.base_score_: np.ndarray | None = None
        self.n_classes_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "GradientBoostingClassifier":
        X = check_array_2d(X, name="X")
        y = check_array_1d(y, name="y", dtype=np.int64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        self.n_classes_ = n_classes
        n = X.shape[0]
        self.binner_ = _Binner(self.max_bins).fit(X)
        B = self.binner_.transform(X)
        builder = _HistTreeBuilder(
            self.binner_.n_bins_,
            max_leaves=self.max_leaves,
            max_depth=self.max_depth,
            min_child_samples=min(self.min_child_samples, max(1, n // 10)),
            reg_lambda=self.reg_lambda,
            min_gain=self.min_gain,
        )
        self.trees_ = []
        if n_classes == 2:
            pos_rate = np.clip(y.mean(), 1e-6, 1 - 1e-6)
            self.base_score_ = np.array([np.log(pos_rate / (1 - pos_rate))])
            F = np.full(n, self.base_score_[0])
            y_f = y.astype(np.float64)
            for _ in range(self.n_estimators):
                p = _sigmoid(F)
                g = p - y_f
                h = np.maximum(p * (1 - p), 1e-12)
                tree = builder.build(B, g, h)
                F += self.learning_rate * tree.predict_binned(B)
                self.trees_.append([tree])
        else:
            prior = np.bincount(y, minlength=n_classes) / n
            self.base_score_ = np.log(np.clip(prior, 1e-6, None))
            F = np.tile(self.base_score_, (n, 1))
            Y = np.zeros((n, n_classes))
            Y[np.arange(n), y] = 1.0
            for _ in range(self.n_estimators):
                Z = F - F.max(axis=1, keepdims=True)
                P = np.exp(Z)
                P /= P.sum(axis=1, keepdims=True)
                round_trees: list[_HistTree] = []
                for c in range(n_classes):
                    g = P[:, c] - Y[:, c]
                    h = np.maximum(P[:, c] * (1 - P[:, c]), 1e-12)
                    tree = builder.build(B, g, h)
                    F[:, c] += self.learning_rate * tree.predict_binned(B)
                    round_trees.append(tree)
                self.trees_.append(round_trees)
        return self

    # ------------------------------------------------------------------ #
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.binner_ is None or self.base_score_ is None or self.n_classes_ is None:
            raise RuntimeError("GradientBoostingClassifier is not fitted")
        X = check_array_2d(X, name="X")
        B = self.binner_.transform(X)
        if self.n_classes_ == 2:
            F = np.full(X.shape[0], self.base_score_[0])
            for (tree,) in self.trees_:
                F += self.learning_rate * tree.predict_binned(B)
            return F
        F = np.tile(self.base_score_, (X.shape[0], 1))
        for round_trees in self.trees_:
            for c, tree in enumerate(round_trees):
                F[:, c] += self.learning_rate * tree.predict_binned(B)
        return F

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        F = self.decision_function(X)
        if self.n_classes_ == 2:
            p1 = _sigmoid(F)
            return np.column_stack([1 - p1, p1])
        Z = F - F.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        return P

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)
