"""CART decision tree classifier (gini / entropy) built from scratch.

The split search is batched across the node's sampled features: sort every
feature's values in one call, take prefix sums of one-hot class counts, and
evaluate the impurity decrease of every (feature, threshold) candidate in
one pass.  This follows the scikit-learn performance guidance of replacing
inner Python loops with NumPy array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RandomState, check_random_state
from repro.utils.validation import check_array_1d, check_array_2d


@dataclass
class _TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: int = -1  # child node ids
    right: int = -1
    proba: np.ndarray | None = None  # leaf class distribution


def _impurity_from_counts(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of distributions given as rows of class counts."""
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, counts / total, 0.0)
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    # entropy
    logp = np.zeros_like(p)
    np.log2(p, out=logp, where=p > 0)
    return -(p * logp).sum(axis=-1)


def _split_search(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    n_classes: int,
    *,
    criterion: str,
    min_samples_leaf: int,
) -> tuple[int, float]:
    """Best (feature, threshold) over ``features`` for the node at ``idx``.

    One batched pass over the node's ``(features, rows)`` block: a stable
    sort of every feature's values, prefix sums of the sorted one-hot
    class counts, and the impurity decrease of every (feature, position)
    candidate.  A candidate needs distinct neighbouring values (so constant
    columns drop out) and ``min_samples_leaf`` rows per side; the winner
    must gain more than ``1e-12``, else ``(-1, 0.0)``.  The flat row-major
    argmax picks the first feature (in ``features`` order) reaching the
    maximum gain and the first position within it, the tie-break of a
    per-feature loop that keeps the first strictly greater gain; gains
    match that loop bit for bit.
    """
    n = idx.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y[idx]] = 1.0
    class_counts = onehot.sum(axis=0)
    parent_imp = _impurity_from_counts(class_counts[None, :], criterion)[0]

    block = X[np.ix_(idx, features)].T  # (features, rows)
    order = np.argsort(block, axis=1, kind="stable")
    xs = np.take_along_axis(block, order, axis=1)
    left_counts = np.cumsum(onehot[order], axis=1)[:, :-1]  # split after i
    right_counts = class_counts - left_counts
    n_left = np.arange(1, n)
    n_right = n - n_left
    valid = (
        (xs[:, :-1] < xs[:, 1:])
        & (n_left >= min_samples_leaf)
        & (n_right >= min_samples_leaf)
    )
    imp_left = _impurity_from_counts(left_counts, criterion)
    imp_right = _impurity_from_counts(right_counts, criterion)
    weighted = (n_left * imp_left + n_right * imp_right) / n
    gain = parent_imp - weighted
    gain[~valid] = -np.inf
    k = int(np.argmax(gain))
    if not gain.flat[k] > 1e-12:
        return -1, 0.0
    f, pos = divmod(k, n - 1)
    # Midpoint threshold, matching CART convention.
    return int(features[f]), float((xs[f, pos] + xs[f, pos + 1]) / 2.0)


class DecisionTreeClassifier:
    """Binary-split CART tree on dense float matrices.

    Parameters
    ----------
    max_depth:
        Depth cap (the paper uses ``max_depth=3`` inside its random forest).
        ``None`` grows until purity or the sample minimums bind.
    min_samples_split / min_samples_leaf:
        Standard pre-pruning controls.
    max_features:
        Number of features scanned per split: ``None`` (all), ``"sqrt"``,
        or an int.
    criterion:
        ``"gini"`` (default) or ``"entropy"``.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        *,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        criterion: str = "gini",
        random_state: RandomState = None,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.random_state = random_state
        self.nodes_: list[_TreeNode] = []
        self.n_classes_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "DecisionTreeClassifier":
        X = check_array_2d(X, name="X")
        y = check_array_1d(y, name="y", dtype=np.int64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        self.n_classes_ = n_classes
        rng = check_random_state(self.random_state)
        self.nodes_ = []
        self._n_split_features = self._resolve_max_features(X.shape[1])
        self._build(X, y, np.arange(X.shape[0], dtype=np.intp), depth=0, rng=rng)
        return self

    def _resolve_max_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(self.max_features, (int, np.integer)):
            return int(np.clip(self.max_features, 1, d))
        raise ValueError(f"invalid max_features: {self.max_features!r}")

    def _leaf(self, y: np.ndarray) -> int:
        assert self.n_classes_ is not None
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        node = _TreeNode(proba=counts / counts.sum())
        self.nodes_.append(node)
        return len(self.nodes_) - 1

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        *,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        y_node = y[idx]
        n = idx.size
        pure = np.all(y_node == y_node[0])
        depth_done = self.max_depth is not None and depth >= self.max_depth
        if pure or depth_done or n < self.min_samples_split:
            return self._leaf(y_node)

        feat, thr = self._best_split(X, y, idx, rng)
        if feat < 0:
            return self._leaf(y_node)

        node_id = len(self.nodes_)
        self.nodes_.append(_TreeNode(feature=feat, threshold=thr))
        go_left = X[idx, feat] <= thr
        left_id = self._build(X, y, idx[go_left], depth=depth + 1, rng=rng)
        right_id = self._build(X, y, idx[~go_left], depth=depth + 1, rng=rng)
        self.nodes_[node_id].left = left_id
        self.nodes_[node_id].right = right_id
        return node_id

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float]:
        """Return (feature, threshold) of the best split, or (-1, 0) if none."""
        assert self.n_classes_ is not None
        d = X.shape[1]
        features = (
            rng.choice(d, size=self._n_split_features, replace=False)
            if self._n_split_features < d
            else np.arange(d)
        )
        return _split_search(
            X, y, idx, features, self.n_classes_,
            criterion=self.criterion, min_samples_leaf=self.min_samples_leaf,
        )

    # ------------------------------------------------------------------ #
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.nodes_ or self.n_classes_ is None:
            raise RuntimeError("DecisionTreeClassifier is not fitted")
        X = check_array_2d(X, name="X")
        n = X.shape[0]
        out = np.zeros((n, self.n_classes_))
        # Iterative routing: frontier of (node_id, row indices).
        frontier = [(0, np.arange(n, dtype=np.intp))]
        while frontier:
            node_id, rows = frontier.pop()
            if rows.size == 0:
                continue
            node = self.nodes_[node_id]
            if node.feature < 0:
                out[rows] = node.proba
                continue
            go_left = X[rows, node.feature] <= node.threshold
            frontier.append((node.left, rows[go_left]))
            frontier.append((node.right, rows[~go_left]))
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes_)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if not self.nodes_:
            raise RuntimeError("DecisionTreeClassifier is not fitted")

        def walk(node_id: int) -> int:
            node = self.nodes_[node_id]
            if node.feature < 0:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0)
