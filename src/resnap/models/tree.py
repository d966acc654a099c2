"""Flat-array decision trees: the core shared by CART, forests and boosting.

One split rule serves every tree learner. Each training row carries a
vector of statistics: a one-hot class row for the CART classifier, the
softmax gradient for a boosting tree. A split candidate is the midpoint
of two consecutive distinct values of a feature, and the best candidate
maximises, over the two children, the squared statistic sums divided by
the child size, ``sum(left)**2 / n_left + sum(right)**2 / n_right``.
For class counts this is minimising the weighted Gini impurity; for
gradients it is minimising the children's squared error.

Ties resolve to the lowest feature index, then the lowest threshold.
Integer statistics make the score a small-integer rational, so
candidates within a float window of the best are re-compared with exact
integer arithmetic; float statistics take the first float maximum.
Training is therefore fully deterministic.

Only cuts are scored: the positions where a column's sorted values rise,
the counterpart of LightGBM's thresholds on bin boundaries. On encoded
prefix matrices, with a few distinct values per column, a node has far
fewer cuts than rows. Every CART tree, alone or in a forest, is fitted
by :meth:`DecisionTree.fit_many`, which grows it on the distinct rows of
its data, each carrying its class counts; a row of integer statistics
weighs as many rows as its counts sum to, and a bootstrap sample
repeats most of its rows. Neither changes a tree: the cumulative sums
read at the cuts are the ones the scan over every row computed.

Forest trees are mostly small nodes, where numpy's per-call cost is the
cost of a node, so a forest grows all its trees at once
(:func:`grow_trees`), and a grid search grows the forests of all its
CV folds in one call. At each step every unfinished tree walks its own
preorder to its next node that needs a split search, and the nodes of
all trees are searched in one batch: each numpy call serves a node of
every tree. A node of one distinct row has no cut and is not searched.
Integer sums are exact, so a child's class counts come from its
parent's search instead of a sum over its rows, and one cumulative sum
over a whole batch gives every node's cuts. A node's candidate features
are the sorted draw of ``rng.choice(d, m, replace=False)``; a tree makes
its draws in batches from the same random words
(:class:`_CandidateDraws`), which costs a node a few microseconds
instead of numpy's per-call overhead; the generator is read ahead and
dropped with its tree. Every tree of class counts grows there,
a lone CART tree as a batch of one. Boosting's trees, of float
gradients, score every feature at every node: they sort each column
once instead and grow one at a time (:func:`grow`), stopping unsearched
a node under ``2 * min_samples_leaf`` rows, which has no cut. The trees
of a fitted forest or boosting model descend together (:func:`apply_trees`).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import ValidationError, check_deadline
from .params import (
    MAX_DEPTH,
    MAX_FEATURES,
    MIN_SAMPLES_LEAF,
    MIN_SAMPLES_SPLIT,
    check_params,
    params_of,
)

# float pre-filter window; exact integer comparison decides inside it
_NEAR_RTOL = 1e-7
# sorted-value blocks up to this many entries find their cuts in two dimensions
_SMALL_BLOCK = 512


@dataclass
class Tree:
    """Binary tree as parallel arrays over its nodes in preorder.

    Node ``i`` sends a row to ``left[i]`` when
    ``row[feature[i]] <= threshold[i]`` and to ``right[i]`` otherwise.
    Leaves have ``feature == left == right == -1``. ``value[i]`` is the
    node's output: class counts for CART, the Newton step for boosting.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of every row: :func:`apply_trees` of this tree alone."""
        return next(apply_trees([self], X))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


# a block of apply_trees descends at most this many (tree, row) pairs,
# unless one tree alone has more rows
_APPLY_ELEMENTS = 1 << 14


def apply_trees(trees: Sequence[Tree], X: np.ndarray) -> Iterator[np.ndarray]:
    """Yield each tree's leaf index of every row of ``X``, tree by tree.

    The trees descend in blocks: a block's node arrays are stacked, its
    children renumbered past the nodes of the trees before, and every
    (tree, row) pair of the block goes down one level per step, so a
    step's numpy calls serve every tree of the block. A pair follows the
    comparison ``X[row, feature] <= threshold`` of a lone descent, so it
    ends in the same leaf.
    """
    n = X.shape[0]
    per_block = max(1, _APPLY_ELEMENTS // max(n, 1))
    for start in range(0, len(trees), per_block):
        block = trees[start:start + per_block]
        sizes = np.array([tree.feature.size for tree in block])
        offset = sizes.cumsum() - sizes
        feature = np.concatenate([tree.feature for tree in block])
        threshold = np.concatenate([tree.threshold for tree in block])
        left = np.concatenate([tree.left for tree in block]) + offset.repeat(sizes)
        right = np.concatenate([tree.right for tree in block]) + offset.repeat(sizes)
        node = offset.repeat(n)
        row = np.tile(np.arange(n), len(block))
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            at = node[active]
            go_left = X[row[active], feature[at]] <= threshold[at]
            node[active] = np.where(go_left, left[at], right[at])
            active = active[feature[node[active]] >= 0]
        yield from node.reshape(len(block), n) - offset[:, None]


def presort(X: np.ndarray) -> np.ndarray:
    """(columns x rows) row ids of ``X``: row ``c`` lists the rows in
    ascending order of column ``c``, equal values in ascending row id."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def subset_order(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The :func:`presort` of ``X[rows]``, given the presort ``order`` of ``X``.

    ``rows`` must be ascending. Filtering keeps each column's stable
    order, and the running count of kept rows renumbers them.
    """
    keep = np.zeros(order.shape[1], dtype=bool)
    keep[rows] = True
    local = np.cumsum(keep) - 1
    return local[order[keep[order]].reshape(order.shape[0], -1)]


def sorted_cuts(X: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The root's split-search inputs when every column is a candidate.

    Returns ``X``'s values in the :func:`presort` ``order`` (columns x
    rows) and their cuts: the (column, position) pairs, in C order, where
    a column's sorted value rises from position to position + 1. Every
    tree grown on ``X`` with all columns as candidates starts from these,
    so boosting computes them once and passes them to :func:`grow`.
    """
    xs = np.take_along_axis(X.T, order, axis=1)
    return xs, _cuts(xs)


def _cuts(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if xs.size <= _SMALL_BLOCK:  # fixed costs dominate: one 2-D comparison
        return (xs[:, :-1] < xs[:, 1:]).nonzero()
    n = xs.shape[1]
    values = xs.ravel()  # one pass over all rows; a rise between two columns is no cut
    column, position = np.divmod((values[:-1] < values[1:]).nonzero()[0], n)
    inside = position < n - 1
    return column[inside], position[inside]


def _midpoint(lo, hi):
    """Thresholds between ``lo < hi``: the midpoints, or ``lo`` where one rounds up to ``hi``."""
    threshold = (lo + hi) / 2.0
    return np.where(threshold >= hi, lo, threshold)


def _exact_top(near, sq_left, sq_right, left_n, right_n) -> int:
    """The first of the ``near`` cuts with the highest exact score."""
    best = None
    best_num = best_den = 0  # exact python ints
    for t in near.tolist():
        nl, nr = int(left_n[t]), int(right_n[t])
        num = int(sq_left[t]) * nr + int(sq_right[t]) * nl
        if best is None or num * best_den > best_num * nl * nr:
            best, best_num, best_den = t, num, nl * nr
    return best


_LOW32 = np.uint64(0xFFFFFFFF)


class _CandidateDraws:
    """The sorted candidates of successive ``rng.choice(d, m, replace=False)``
    calls, drawn in batches from the same 32-bit words.

    Unless ``d > 10_000`` and ``m > d // 50``, numpy draws by Floyd's
    algorithm: for ``j`` from ``d - m`` to ``d - 1`` an integer in
    ``[0, j]``, or ``j`` itself when that one is taken; then it shuffles
    the ``m`` indices with integers in ``[0, i]``, ``i`` from ``m - 1``
    down to 1. Each integer is Lemire's method on one 32-bit word of the
    generator, repeated while the word is rejected (Lemire, "Fast Random
    Integer Generation in an Interval", 2019). A PCG64 output gives its
    low half first and buffers its high half for the next word
    (``has_uint32``). So a draw reads ``2m - 1`` words unless one is
    rejected, which happens to about one word in 10⁹.

    A batch reads the words of many draws with the generator's
    ``random_raw``, tests them all for rejection at once, and picks every
    draw's indices one column at a time. The draw at the first rejection,
    if any, reads its words one by one and ends the batch. The shuffle
    only reorders indices that are sorted anyway.

    A batch reads ahead, so ``rng`` must be this object's alone: it ends
    past the words of the last batch, not where the ``rng.choice`` calls
    would have left it. Other bit generators, and numpy's tail shuffle
    for large ``d``, draw with ``rng.choice``.
    """

    _MAX_WORDS = 1 << 15  # words per batch, which bounds a batch's memory

    def __init__(self, rng: np.random.Generator, d: int, m: int):
        self.rng, self.d, self.m = rng, d, m
        self.rows, self.next, self.batch = (), 0, 64
        pcg = isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM))
        tail_shuffle = d > 10_000 and m > d // 50  # numpy's choice without Floyd
        self.exact = pcg and not tail_shuffle
        if self.exact:
            state = rng.bit_generator.state  # a buffered high half is the first word
            buffered = [state["uinteger"]] if state["has_uint32"] else []
            self.words = np.array(buffered, dtype=np.uint64)
            self.taken = 0  # words of self.words read
            # each word's exclusive bound: Floyd's words, then the shuffle's
            spans = np.concatenate((np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)))
            self.spans = spans.astype(np.uint64)
            self.limits = (1 << 32) % self.spans  # Lemire rejects a low half below this

    def __next__(self) -> np.ndarray:
        if self.next == len(self.rows):
            self.rows, self.next = self._batch(), 0
        self.next += 1
        return self.rows[self.next - 1]

    def _batch(self) -> np.ndarray:
        d, m = self.d, self.m
        if not self.exact:
            return np.sort(self.rng.choice(d, m, replace=False))[None]
        k = 2 * m - 1
        n = max(1, min(self.batch, self._MAX_WORDS // k))
        self.batch *= 2
        product = self._peek(n * k).reshape(n, k) * self.spans
        rejected = ((product & _LOW32) < self.limits).any(axis=1).nonzero()[0]
        if rejected.size:
            n = int(rejected[0])
        picks = (product[:n, :m] >> 32).astype(np.int64)
        for c in range(1, m):  # Floyd: a taken index gives way to j
            taken = (picks[:, :c] == picks[:, c, None]).any(axis=1)
            picks[taken, c] = d - m + c
        self.taken += n * k
        if rejected.size:
            picks = np.vstack((picks, self._one_by_one()))
        picks.sort(axis=1)
        return picks

    def _peek(self, count: int) -> np.ndarray:
        """The next ``count`` words, not yet taken."""
        if self.words.size - self.taken < count:
            raw = self.rng.bit_generator.random_raw((count + 1) // 2)
            fresh = np.stack((raw & _LOW32, raw >> 32), axis=1).ravel()
            self.words = np.concatenate((self.words[self.taken:], fresh))
            self.taken = 0
        return self.words[self.taken:self.taken + count]

    def _bounded(self, top: int) -> int:
        """numpy's integer in ``[0, top]``, read word by word."""
        span = top + 1
        while True:
            product = int(self._peek(1)[0]) * span
            self.taken += 1
            if product & 0xFFFFFFFF >= (1 << 32) % span:
                return product >> 32

    def _one_by_one(self) -> list[int]:
        d, m = self.d, self.m
        picks: list[int] = []
        for j in range(d - m, d):
            pick = self._bounded(j)
            picks.append(j if pick in picks else pick)
        for i in range(m - 1, 0, -1):
            self._bounded(i)
        return picks


def _column_ranks(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's rank among its column's distinct values, and those values.

    Returns (columns x rows) ranks, numbered on from the previous
    column's so that every (column, value) pair has its own rank, and
    the distinct values of all columns in rank order. Equal values share
    a rank, so ``X[r, f] <= X[s, f]`` exactly when the ranks compare so.
    """
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    rise = np.ones((n, d), dtype=bool)
    rise[1:] = xs[1:] > xs[:-1]
    rank = np.cumsum(rise.T.ravel()).reshape(d, n) - 1  # counts on across columns
    ranks = np.empty((d, n), dtype=np.int64)
    np.put_along_axis(ranks, order.T, rank, axis=1)
    return ranks, xs.T[rise.T]


# a lock-step batch holds at most this many (node, candidate, row) values,
# unless one node alone has more
_STEP_ELEMENTS = 1 << 14


class _Nodes:
    """A growing tree's node arrays as lists, nodes added in preorder."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list = []

    def add(self, parent: int, value) -> int:
        """Add a leaf of ``value``, the right child of ``parent`` unless -1."""
        node = len(self.feature)
        if parent >= 0:
            self.right[parent] = node
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return node

    def tree(self) -> Tree:
        return Tree(
            np.array(self.feature, dtype=np.int64),
            np.array(self.threshold, dtype=float),
            np.array(self.left, dtype=np.int64),
            np.array(self.right, dtype=np.int64),
            np.array(self.value),
        )


class _Grower(_Nodes):
    """One tree of :func:`grow_trees`: its pending nodes and its node arrays."""

    def __init__(self, entries: np.ndarray, total, several: bool, draws):
        super().__init__()
        self.draws = draws
        # (entries, class sums, size, depth, parent whose right child this is
        #  or -1, whether it holds two classes, whether it holds two rows)
        mixed = np.count_nonzero(total) > 1
        self.stack = [(entries, total, int(total.sum()), 0, -1, mixed, several)]


def grow_trees(
    X: np.ndarray,
    samples: list[tuple[np.ndarray, np.ndarray, np.random.Generator | None]],
    *,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    max_features: int | None = None,
    deadline: float | None = None,
) -> list[Tree]:
    """Grow one tree of class counts per sample, all in lock-step.

    A sample is ``(rows, counts, rng)``: ascending row ids into ``X``
    and each row's integer class counts, with the same number of classes
    in every sample. A negative count, or a row whose counts sum to 0,
    raises :class:`ValidationError`: no leaf would hold such a row.

    Node ids are preorder (depth-first, left child first), and a node's
    value is its class sums. A node stays a leaf at ``max_depth``, below
    ``min_samples_split`` rows, when it holds one class, or when no split
    leaves ``min_samples_leaf`` rows on each side. A row counts as many
    rows as its counts sum to, in these limits and in the split score,
    so class counts over the distinct rows of a data set grow the tree of
    its one-hot rows. Before its descendants, a node draws the sorted
    ``rng.choice(X.shape[1], max_features, replace=False)``, in batches
    from :class:`_CandidateDraws`: the draws are those of the calls. Each
    sample's ``rng`` must be its own, and it ends past the words its
    batches read ahead, not where the calls would have left it.

    The trees advance together. At each step, every unfinished tree
    walks its own preorder, making its candidate draws, past the nodes
    that stay leaves without a search, up to its next node that needs
    one; those nodes are searched together in one batch (see
    :func:`_search`). Before each batch, :class:`CellTimeoutError` is
    raised once ``time.monotonic()`` has passed ``deadline``.
    """
    features = np.arange(X.shape[1])
    subsample = max_features is not None and max_features < features.size
    ranks, values = _column_ranks(X)
    n_classes = samples[0][1].shape[1]
    # a tree's rows as entries, (row, class, count) for every nonzero count, in row order
    parts = []
    for rows, counts, _ in samples:
        if counts.min(initial=0) < 0 or not counts.sum(axis=1).all():
            raise ValidationError("class counts must be >= 0 and sum to at least 1 per row")
        i, c = counts.nonzero()
        parts.append((rows[i], c, counts[i, c]))
    ent_row, ent_class, ent_count = (np.concatenate(column) for column in zip(*parts))
    bounds = np.cumsum([0] + [part[0].size for part in parts])
    trees = [
        _Grower(
            np.arange(bounds[t], bounds[t + 1]),
            counts.sum(axis=0),
            rows.size > 1,
            _CandidateDraws(rng, features.size, max_features) if subsample else None,
        )
        for t, (rows, counts, rng) in enumerate(samples)
    ]
    shared = (ranks, values, ent_row, ent_class, ent_count, n_classes, min_samples_leaf)
    live = list(trees)
    while live:
        batch = []  # (tree, node, entries, candidates, class sums, size, depth)
        for tree in live:
            node = _advance(tree, features, max_depth, min_samples_split)
            if node is not None:
                batch.append(node)
        live = [node[0] for node in batch]
        elements = [node[2].size * node[3].size for node in batch]
        start = 0
        while start < len(batch):  # batches of at most _STEP_ELEMENTS values
            stop, held = start + 1, elements[start]
            while stop < len(batch) and held + elements[stop] <= _STEP_ELEMENTS:
                held += elements[stop]
                stop += 1
            check_deadline(deadline)
            _search(batch[start:stop], shared)
            start = stop
    return [tree.tree() for tree in trees]


def _advance(tree: _Grower, features, max_depth, min_samples_split):
    """Add ``tree``'s nodes in preorder up to the next one that needs a
    split search, and return that node's search inputs, or None when the
    tree is grown."""
    while tree.stack:
        entries, total, size, depth, parent, mixed, several = tree.stack.pop()
        node = tree.add(parent, total)
        stop = (max_depth is not None and depth >= max_depth) or size < min_samples_split
        if mixed and not stop:
            candidates = features if tree.draws is None else next(tree.draws)
            if several and candidates.size:  # a node of one row has no cut
                return tree, node, entries, candidates, total, size, depth
    return None


def _search(batch: list, shared: tuple) -> None:
    """Split search over the nodes of ``batch``, then their children.

    The values of every (node, candidate, entry) are sorted by segment
    (one node's candidate) and rank in one sort; equal ranks form a
    block. Every block's class sums come from one ``bincount`` over the
    entries' counts. Subtracting each segment's node total at the next
    segment's first block makes one cumulative sum over all blocks the
    left sums of every cut inside each segment; integer sums are exact,
    so these are the sums of a scan over every sorted row. Each node's
    best cut is the first, in C order, of its highest exact score, and
    the children's entries come from one comparison over the entries of
    every node.
    """
    ranks, values, ent_row, ent_class, ent_count, n_classes, min_samples_leaf = shared
    n_rows = ranks.shape[1]
    n_ranks = values.size
    nodes = len(batch)
    entries = np.concatenate([node[2] for node in batch])
    width = np.array([node[2].size for node in batch])
    candidates = np.concatenate([node[3] for node in batch])
    total = np.array([node[4] for node in batch])
    size = np.array([node[5] for node in batch])
    rows = ent_row[entries]
    # segments: one per (node, candidate), node by node, candidates in order;
    # element e of segment s is entry first_entry[node] + e - seg_start[s]
    seg_node = np.arange(nodes).repeat([node[3].size for node in batch])
    seg_len = width[seg_node]
    seg_start = seg_len.cumsum() - seg_len
    first_entry = width.cumsum() - width
    per_seg = np.empty((seg_node.size, 3), dtype=np.int64)
    per_seg[:, 0] = first_entry[seg_node] - seg_start
    per_seg[:, 1] = np.arange(seg_node.size) * n_ranks
    per_seg[:, 2] = candidates * n_rows
    shift, seg_key, column = per_seg.repeat(seg_len, axis=0).T
    element = shift + np.arange(shift.size)
    key = seg_key + ranks.ravel()[column + rows[element]]
    key_order = key.argsort()
    key = key[key_order]
    element = entries[element[key_order]]
    starts = np.empty(key.size, dtype=bool)
    starts[0] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    key = key[starts]
    block_seg, block_rank = np.divmod(key, n_ranks)
    sums = np.bincount(
        (starts.cumsum() - 1) * n_classes + ent_class[element],
        weights=ent_count[element],
        minlength=key.size * n_classes,
    ).astype(np.int64).reshape(key.size, n_classes)
    seg_first = np.empty(key.size, dtype=bool)
    seg_first[0] = True
    np.not_equal(block_seg[1:], block_seg[:-1], out=seg_first[1:])
    sums[seg_first.nonzero()[0][1:]] -= total[seg_node[:-1]]  # a segment sums to its node's total
    cut = (~seg_first[1:]).nonzero()[0]  # a block followed by another of its segment
    left = sums.cumsum(axis=0)[cut]
    cut_node = seg_node[block_seg[cut]]
    left_n = left.sum(axis=1)
    right_n = size[cut_node] - left_n
    if min_samples_leaf > 1:
        valid = ((left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)).nonzero()[0]
        cut, cut_node, left, left_n, right_n = (
            a[valid] for a in (cut, cut_node, left, left_n, right_n)
        )
    right = total[cut_node] - left
    sq_left = (left * left).sum(axis=1)
    sq_right = (right * right).sum(axis=1)
    score = sq_left / left_n + sq_right / right_n
    per_node = np.bincount(cut_node, minlength=nodes)
    has = per_node.nonzero()[0]  # the nodes that split
    if not has.size:
        return
    top = np.maximum.reduceat(score, (per_node.cumsum() - per_node)[has]).repeat(per_node[has])
    near = (score >= top - np.abs(top) * _NEAR_RTOL).nonzero()[0]
    lead_flag = np.empty(near.size, dtype=bool)
    lead_flag[0] = True
    np.not_equal(cut_node[near[1:]], cut_node[near[:-1]], out=lead_flag[1:])
    lead = near[lead_flag]
    # a near cut of the same left sums' squares and size scores exactly the same
    near_lead = lead_flag.cumsum() - 1
    lead_of = lead[near_lead]
    differ = (
        (sq_left[near] != sq_left[lead_of])
        | (sq_right[near] != sq_right[lead_of])
        | (left_n[near] != left_n[lead_of])
    )
    for k in set(near_lead[differ].tolist()):
        lead[k] = _exact_top(near[near_lead == k], sq_left, sq_right, left_n, right_n)
    best = cut[lead]
    cut_rank = np.full(nodes, -1)
    cut_rank[has] = block_rank[best]
    feature = np.zeros(nodes, dtype=np.int64)
    feature[has] = candidates[block_seg[best]]
    threshold = _midpoint(values[block_rank[best]], values[block_rank[best + 1]])
    # the children's entries: one rank comparison over every entry, and one
    # stable sort that puts each split node's right child, then its left
    # child, together (split node k's children are 2k and 2k + 1)
    child_of = np.full(nodes, has.size)
    child_of[has] = np.arange(has.size)
    entry_node = np.arange(nodes).repeat(width)
    goes_left = ranks.ravel()[feature[entry_node] * n_rows + rows] <= cut_rank[entry_node]
    child = 2 * child_of[entry_node] + goes_left  # past the last child: not split
    child_order = child.argsort(kind="stable")
    count = np.bincount(child, minlength=2 * has.size)[:2 * has.size]
    end = count.cumsum()
    begin = end - count
    child_rows = rows[child_order]
    several = child_rows[begin] != child_rows[end - 1]  # entries are in row order
    child_sums = np.empty((2 * has.size, n_classes), dtype=np.int64)
    child_sums[1::2] = left[lead]
    child_sums[::2] = total[has] - child_sums[1::2]
    sizes = np.empty(2 * has.size, dtype=np.int64)
    sizes[1::2] = left_n[lead]
    sizes[::2] = right_n[lead]
    mixed = (child_sums > 0).sum(axis=1) > 1
    flags = list(zip(begin.tolist(), end.tolist(), sizes.tolist(), mixed.tolist(), several.tolist()))
    child_entries = entries[child_order]
    for k, (j, f, cut_at) in enumerate(zip(has.tolist(), feature[has].tolist(), threshold.tolist())):
        tree, node, depth = batch[j][0], batch[j][1], batch[j][6] + 1
        tree.feature[node], tree.threshold[node], tree.left[node] = f, cut_at, node + 1
        for c, parent in ((2 * k, node), (2 * k + 1, -1)):
            begin, end, n, mixed, several = flags[c]
            tree.stack.append(
                (child_entries[begin:end], child_sums[c], n, depth, parent, mixed, several)
            )


def grow(
    X: np.ndarray,
    grad: np.ndarray,
    *,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    features: np.ndarray | None = None,
    order: np.ndarray | None = None,
    root: tuple[np.ndarray, tuple] | None = None,
    node_value: Callable[[np.ndarray, float], float] | None = None,
    reached: np.ndarray | None = None,
) -> Tree:
    """Grow a regression tree on ``X`` with one float gradient per row.

    Node ids are preorder, and every node scores every column of
    ``features`` (default: all). A node stays a leaf at ``max_depth`` or
    when no split leaves ``min_samples_leaf`` rows on each side, as in
    every node under ``2 * min_samples_leaf`` rows. Its gradients are
    summed once; its value is that ``total``, or
    ``node_value(rows, total)``. When given, ``reached`` is filled with
    the leaf each row of ``X`` ends in, which is ``tree.apply(X)``.

    The columns are sorted once: ``order`` is :func:`presort` of ``X``
    (computed when omitted), and a child gets its parent's sorted rows
    filtered by the split. ``root`` may pass the root's
    :func:`sorted_cuts` when ``features`` is every column. Only cuts are
    scored, from cumulative gradient sums along every sorted order; the
    best is the first, in C order, of the highest float score.
    """
    block = presort(X) if order is None else order
    if features is None:
        features = np.arange(X.shape[1])
    elif features.size < X.shape[1]:
        block = block[features]
    columns = np.ascontiguousarray(X.T)  # X[r, f] is columns[f, r]
    # X[r, features[c]] is flat[r + offsets[c]]
    flat = columns.ravel()
    offsets = (features * X.shape[0])[:, None]
    side = np.zeros(X.shape[0], dtype=bool)
    min_rows = 2 * min_samples_leaf  # a smaller node has no cut that leaves the floor
    nodes = _Nodes()
    # (rows, depth, parent whose right child this is or -1, sorted rows or None)
    stack = [(np.arange(X.shape[0]), 0, -1, block)]
    while stack:
        rows, depth, parent, block = stack.pop()
        total = grad[rows].sum()
        node = nodes.add(parent, total if node_value is None else node_value(rows, total))
        stop = (max_depth is not None and depth >= max_depth) or rows.size < min_rows
        if not stop:
            if node == 0 and root is not None:
                xs, (column, position) = root
            else:
                xs = flat.take(block + offsets)
                column, position = _cuts(xs)
            left_n = position + 1
            right_n = rows.size - left_n
            if min_samples_leaf > 1:
                valid = (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
                column, position, left_n, right_n = (
                    a[valid] for a in (column, position, left_n, right_n)
                )
            stop = not column.size
        if stop:
            if reached is not None:
                reached[rows] = node
            continue
        left_sum = grad.take(block[:, :-1]).cumsum(axis=1)[column, position]
        right_sum = total - left_sum
        best = (left_sum * left_sum / left_n + right_sum * right_sum / right_n).argmax()
        j, i = column[best], position[best]
        f = int(features[j])
        cut = float(_midpoint(xs[j, i], xs[j, i + 1]))
        nodes.feature[node], nodes.threshold[node], nodes.left[node] = f, cut, node + 1
        mask = columns[f, rows] <= cut
        left_rows, right_rows = rows[mask], rows[~mask]
        left_block = right_block = None
        if max_depth is None or depth + 1 < max_depth:
            side[rows] = mask
            goes_left = side[block].ravel()
            if left_rows.size >= min_rows:
                left_block = block.compress(goes_left).reshape(features.size, -1)
            if right_rows.size >= min_rows:
                right_block = block.compress(~goes_left).reshape(features.size, -1)
        stack.append((right_rows, depth + 1, node, right_block))
        stack.append((left_rows, depth + 1, -1, left_block))
    return nodes.tree()


def check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` as a float matrix and ``y`` as an array, or ValidationError.

    ``X`` must be a non-empty 2-D matrix of finite values and ``y`` a 1-D
    array with one label per row of ``X``.
    """
    X = check_features(X, None)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValidationError("training data must be a non-empty 2-D matrix")
    if y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError("X and y must have equal length")
    return X, y


def check_features(X, n_features: int | None) -> np.ndarray:
    """``X`` as a float matrix, or ValidationError.

    ``X`` must be 2-D and finite, with the ``n_features`` columns of the
    fitted data; ``n_features=None`` takes training data of any width.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-D matrix")
    if not np.isfinite(X).all():
        raise ValidationError("X must not hold NaN or infinite values")
    if n_features is not None and X.shape[1] != n_features:
        raise ValidationError(f"X has {X.shape[1]} columns, the model was fitted on {n_features}")
    return X


def row_groups(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``X`` that differ bit for bit, and each row's index among them.

    One lexsort over the rows' bit patterns puts equal rows next to each
    other; the distinct rows come out in that order.
    """
    bits = np.ascontiguousarray(X).view(np.uint64)
    order = np.lexsort(bits.T) if X.shape[1] else np.arange(X.shape[0])
    ranked = bits[order]
    first = np.ones(X.shape[0], dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(X.shape[0], dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    return X[order[first]], group


class DecisionTree:
    """CART classifier with optional per-node feature subsampling."""

    PARAMETERS = {
        "max_depth": MAX_DEPTH,
        "min_samples_split": MIN_SAMPLES_SPLIT,
        "min_samples_leaf": MIN_SAMPLES_LEAF,
        "max_features": MAX_FEATURES,
    }

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self.tree_: Tree | None = None
        self.n_features_in_: int | None = None

    def fit(self, X, y, deadline: float | None = None) -> "DecisionTree":
        """Fit on all of ``X`` and ``y``: :meth:`fit_many` of this tree alone."""
        DecisionTree.fit_many([self], X, y, [np.arange(np.size(y))], deadline)
        return self

    @staticmethod
    def fit_many(trees, X, y, row_sets, deadline: float | None = None) -> None:
        """Fit ``trees[i]`` on the rows ``row_sets[i]`` of ``X`` and ``y``,
        which may repeat, growing every tree in one :func:`grow_trees` call.

        Each tree ends exactly as ``fit(X[rows], y[rows])`` leaves it: it
        grows on the distinct rows of ``X`` (:func:`row_groups`) that its
        rows hit, with their class counts coded over the classes of ``y``.
        A class its rows lack is a zero column, which no split score or
        stopping rule sees, and is cut from the tree's ``value``. The
        trees may differ in ``seed`` only. Before each lock-step batch,
        raise :class:`CellTimeoutError` once ``time.monotonic()`` has
        passed ``deadline``.
        """
        for tree in trees:
            check_params(tree)
        params = params_of(trees[0])
        if any(params_of(tree) != params for tree in trees):
            raise ValidationError("trees fitted together must share their tree parameters")
        X, y = check_training_data(X, y)
        classes, codes = np.unique(y, return_inverse=True)
        k = len(classes)
        distinct, group = row_groups(X)
        samples, present = [], []
        for tree, rows in zip(trees, row_sets):
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size == 0:
                raise ValidationError("training data must be a non-empty 2-D matrix")
            counts = np.bincount(group[rows] * k + codes[rows], minlength=distinct.shape[0] * k)
            counts = counts.reshape(-1, k)
            kept = counts.any(axis=1).nonzero()[0]
            samples.append((kept, counts[kept], np.random.default_rng(tree.seed)))
            present.append(counts.any(axis=0).nonzero()[0])
        grown = grow_trees(distinct, samples, deadline=deadline, **params)
        for tree, fitted, kept_classes in zip(trees, grown, present):
            fitted.value = fitted.value[:, kept_classes]
            tree.n_features_in_, tree.classes_ = X.shape[1], classes[kept_classes]
            tree.tree_ = fitted

    def predict(self, X) -> np.ndarray:
        if self.tree_ is None:
            raise ValidationError("model is not fitted")
        X = check_features(X, self.n_features_in_)
        counts = self.tree_.value[self.tree_.apply(X)]
        return self.classes_[np.argmax(counts, axis=1)]  # first max = lowest class id

    def root_split(self) -> tuple[int, float] | None:
        """The fitted root's (feature, threshold), or None for a leaf root."""
        if self.tree_ is None:
            raise ValidationError("model is not fitted")
        if self.tree_.feature[0] < 0:
            return None
        return int(self.tree_.feature[0]), float(self.tree_.threshold[0])

    def to_dict(self) -> dict:
        return {
            "kind": "tree",
            "seed": self.seed,
            "params": params_of(self),
            "classes": [int(c) for c in self.classes_],
            "tree": self.tree_.to_dict(),
        }


class MajorityClassifier:
    """Always predicts the most frequent training label.

    Frequency ties resolve to the lowest label id, which is the
    lexicographically smallest activity because the log's activity codes
    follow its sorted alphabet.
    """

    PARAMETERS: dict = {}

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self.label_: int | None = None
        self.n_features_in_: int | None = None

    def fit(self, X, y, deadline: float | None = None) -> "MajorityClassifier":
        X, y = check_training_data(X, y)
        self.n_features_in_ = X.shape[1]
        self.classes_, counts = np.unique(y, return_counts=True)
        self.label_ = int(self.classes_[counts == counts.max()].min())
        return self

    def predict(self, X) -> np.ndarray:
        if self.label_ is None:
            raise ValidationError("model is not fitted")
        X = check_features(X, self.n_features_in_)
        return np.full(X.shape[0], self.label_, dtype=np.int64)

    def to_dict(self) -> dict:
        return {
            "kind": "majority",
            "seed": self.seed,
            "classes": [int(c) for c in self.classes_],
            "label": self.label_,
        }
