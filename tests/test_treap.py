"""Treap construction, mutation, and invariant tests.

The reference for every structural check is ``Treap.build`` (recursive
max-priority construction) together with ``naive_depths``; the array-based
spine builder and the incremental operations must agree with them node for
node because distinct priorities admit exactly one treap.
"""

import itertools
import math
import random
import re

import pytest

from conftest import depth_list, random_priorities
from scoretreap.errors import DuplicateKeyError
from scoretreap.oracle import naive_depths
from scoretreap.priorities import RandomStream, raw_score_priority
from scoretreap.sequences import TraceSpec, gen_distribution
from scoretreap.treap import Treap

THREE = {1: (0, 0.9), 2: (0, 0.5), 3: (0, 0.7)}


def shape(t: Treap) -> list[tuple[int, int, int, int]]:
    """Canonical (key, parent, left, right) table for tree equality checks."""
    return [(k, t.parent_of(k), t.left_of(k), t.right_of(k)) for k in sorted(t.keys())]


class TestBuild:
    def test_three_key_example(self):
        t = Treap.build(THREE)
        assert t.root == 1
        assert t.right_of(1) == 3
        assert t.left_of(3) == 2
        assert t.depths() == [0, 1, 3, 2]
        assert t.validate() is None

    def test_singleton(self):
        t = Treap.build({1: (0, 0.5)})
        assert t.root == 1
        assert t.size == 1
        assert t.depth(1) == 1

    def test_decreasing_priorities_make_a_right_chain(self):
        n = 12
        pris = {k: (0, 1.0 - k / (n + 1)) for k in range(1, n + 1)}
        t = Treap.build(pris)
        for k in range(1, n + 1):
            assert t.depth(k) == k
            assert t.left_of(k) == 0

    def test_build_matches_naive_depths(self, py_rng):
        for _ in range(200):
            n = py_rng.randint(1, 10)
            pris = random_priorities(py_rng, n)
            t = Treap.build(pris)
            assert t.validate() is None
            assert t.depths() == depth_list(naive_depths(pris), n)

    def test_build_arrays_matches_build(self, py_rng):
        for _ in range(100):
            n = py_rng.randint(1, 40)
            pris = random_priorities(py_rng, n)
            tiers, offsets = zip(*(pris[k] for k in range(1, n + 1)))
            via_arrays = Treap.build_arrays(tiers, offsets)
            assert shape(via_arrays) == shape(Treap.build(pris))

    def test_equal_tier_and_offset_resolved_by_smaller_key(self):
        pris = {1: (2, 0.25), 2: (2, 0.25), 3: (2, 0.25)}
        t = Treap.build(pris)
        assert t.root == 1
        assert t.depth(1) == 1 and t.depth(2) == 2 and t.depth(3) == 3


def reference_sweep(self: Treap, keys) -> None:
    """The list-stack right-spine sweep, kept literal as the reference for
    ``Treap._sweep``, which keeps its spine in the parent links."""
    tier = self._tier
    off = self._off
    left = self._left
    right = self._right
    parent = self._parent
    stack: list[int] = []
    for k in keys:
        tk = tier[k]
        ok = off[k]
        last = 0
        # pop spine nodes that k beats; equal (tier, offset) resolves to
        # the smaller key, which is already on the stack, so no pop
        while stack:
            s = stack[-1]
            ts = tier[s]
            if ts > tk or (ts == tk and off[s] < ok):
                stack.pop()
                last = s
            else:
                break
        if last:
            left[k] = last
            parent[last] = k
        if stack:
            right[stack[-1]] = k
            parent[k] = stack[-1]
        stack.append(k)
    self.root = stack[0]
    self.size = len(keys)


class TestSweepLockstep:
    """``Treap._sweep`` links the same arrays as the list-stack sweep, and
    leaves slot 0 of every array at 0."""

    @staticmethod
    def check(pris: dict[int, tuple[int, float]], n: int, built: Treap) -> None:
        ref = Treap(n)
        for k, (tier, offset) in pris.items():
            ref._tier[k], ref._off[k], ref._present[k] = tier, offset, 1
        reference_sweep(ref, sorted(pris))
        assert (built.root, built.size) == (ref.root, ref.size)
        assert built._left == ref._left
        assert built._right == ref._right
        assert built._parent == ref._parent
        slot0 = (built._parent[0], built._left[0], built._right[0],
                 built._tier[0], built._off[0], built._present[0])
        assert slot0 == (0, 0, 0, 0, 0.0, 0)
        assert built.validate() is None

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 500])
    def test_few_tiers_and_repeated_offsets(self, py_rng, n):
        # whole (tier, offset) pairs repeat, so the smaller-key rule decides
        pool = [0.25, 0.5, 0.75]
        for _ in range(20):
            tiers = [py_rng.randint(0, 2) for _ in range(n)]
            offsets = [py_rng.choice(pool) for _ in range(n)]
            pris = {k: (tiers[k - 1], offsets[k - 1]) for k in range(1, n + 1)}
            self.check(pris, n, Treap.build_arrays(tiers, offsets))
            self.check(pris, n, Treap.build(pris))

    def test_key_subsets_below_the_universe(self, py_rng):
        for _ in range(100):
            n = py_rng.randint(2, 60)
            keys = py_rng.sample(range(1, n), py_rng.randint(1, n - 1))
            pris = {k: (py_rng.randint(0, 2), py_rng.choice([0.25, 0.5, py_rng.random()]))
                    for k in keys}
            self.check(pris, n, Treap.build(pris, n))

    def test_raw_score_chain(self):
        n = 256
        dist = gen_distribution(TraceSpec("linear", n=n, m=0, seed=0))
        pris = {k: raw_score_priority(dist[k]) for k in range(1, n + 1)}
        t = Treap.build(pris, n=n)
        self.check(pris, n, t)
        assert t.depths() == list(range(n + 1))

    def test_single_key(self):
        for tier in (0, 3):
            pris = {1: (tier, 0.5)}
            self.check(pris, 1, Treap.build(pris))
            self.check(pris, 1, Treap.build_arrays([tier], [0.5]))


class TestDepths:
    def test_absent_keys_and_index_zero_read_zero(self):
        assert Treap(4).depths() == [0, 0, 0, 0, 0]
        subset = Treap.build({2: (0, 0.5), 5: (1, 0.25), 6: (0, 0.25)}, n=8)
        assert subset.depths() == [0, 0, 1, 0, 0, 3, 2, 0, 0]
        t = Treap.build(THREE)
        t.delete(1)
        assert t.depths() == [0, 0, 2, 1]
        t.delete(3)
        assert t.depths() == [0, 0, 1, 0]
        t.delete(2)
        assert t.depths() == [0, 0, 0, 0]


class TestInsertDelete:
    def test_insert_into_empty(self):
        t = Treap(5)
        rot = t.insert(3, 0, 0.5)
        assert rot == 0
        assert t.root == 3 and t.size == 1

    def test_duplicate_insert_rejected(self):
        t = Treap(5)
        t.insert(3, 0, 0.5)
        with pytest.raises(DuplicateKeyError):
            t.insert(3, 0, 0.25)

    def test_insertion_order_invariance(self, py_rng):
        # Uniqueness: all insertion orders for n <= 4, sampled orders beyond.
        for _ in range(120):
            n = py_rng.randint(2, 8)
            pris = random_priorities(py_rng, n)
            want = shape(Treap.build(pris))
            keys = list(pris)
            if n <= 4:
                orders = list(itertools.permutations(keys))
            else:
                orders = [tuple(py_rng.sample(keys, n)) for _ in range(12)]
            for order in orders:
                t = Treap(n)
                for k in order:
                    t.insert(k, *pris[k])
                assert shape(t) == want

    def test_max_priority_insert_becomes_root(self, py_rng):
        for _ in range(60):
            n = py_rng.randint(2, 8)
            pris = random_priorities(py_rng, n - 1)
            t = Treap(n)
            for k, p in pris.items():
                t.insert(k, *p)
            # key n goes in as the right-spine leaf, then rotates to the root;
            # one rotation per node it passes, i.e. the old spine length
            spine, node = 0, t.root
            while node:
                spine += 1
                node = t.right_of(node)
            rot = t.insert(n, -1, 0.5)
            assert t.root == n
            assert rot == spine

    def test_insert_rotations_equal_rise_from_leaf(self, py_rng):
        # a key of the lowest tier stays at the leaf its search ends on; the
        # reference rise from that leaf to the real priority is the insert
        for _ in range(60):
            n = py_rng.randint(2, 20)
            pris = random_priorities(py_rng, n)
            key = py_rng.randint(1, n)
            rest = {k: p for k, p in pris.items() if k != key}
            low, real = Treap.build(rest, n), Treap.build(rest, n)
            assert low.insert(key, 4, 0.5) == 0
            leaf_depth = low.depth(key)
            rot = real.insert(key, *pris[key])
            assert rot == reference_update_priority(low, key, *pris[key])
            assert arrays(real) == arrays(low)
            assert rot == leaf_depth - real.depth(key)
            assert real.validate() is None

    def test_delete_rotations_equal_sink_to_leaf(self, py_rng):
        # delete rotates the key down to a leaf exactly as the reference
        # demotion below every other priority does; a leaf leaves unrotated
        for _ in range(60):
            n = py_rng.randint(1, 20)
            pris = random_priorities(py_rng, n)
            key = py_rng.randint(1, n)
            deleted, demoted = Treap.build(pris), Treap.build(pris)
            sink = reference_update_priority(demoted, key, 4, 0.5)
            assert deleted.delete(key) == sink
            assert demoted.delete(key) == 0
            assert shape(deleted) == shape(demoted)

    def test_delete_root_of_two_node_tree(self):
        t = Treap.build({1: (0, 0.9), 2: (0, 0.3)})
        t.delete(1)
        assert t.root == 2 and t.size == 1
        assert t.validate() is None

    def test_delete_matches_rebuild_without_key(self, py_rng):
        for _ in range(150):
            n = py_rng.randint(1, 8)
            pris = random_priorities(py_rng, n)
            for k in pris:
                t = Treap.build(pris)
                t.delete(k)
                rest = {j: p for j, p in pris.items() if j != k}
                assert t.depths() == depth_list(naive_depths(rest), n)
                assert t.validate() is None

    def test_delete_then_reinsert_restores_tree(self, py_rng):
        for _ in range(80):
            n = py_rng.randint(1, 10)
            pris = random_priorities(py_rng, n)
            t = Treap.build(pris)
            want = shape(t)
            k = py_rng.choice(list(pris))
            t.delete(k)
            t.insert(k, *pris[k])
            assert shape(t) == want

    def test_absent_key_operations_raise(self):
        t = Treap.build(THREE)
        for op in (t.delete, t.access, t.depth):
            with pytest.raises(KeyError):
                op(9)
        with pytest.raises(KeyError):
            t.update_priority(9, 0, 0.1)
        with pytest.raises(KeyError):  # outside the universe 1..3
            t.insert(9, 0, 0.5)


def descent(t: Treap, key: int) -> int:
    """Nodes on the search path from the root down to ``key``."""
    cur = t.root
    d = 1
    while cur != key:
        cur = t.left_of(cur) if key < cur else t.right_of(cur)
        d += 1
    return d


class TestAccess:
    def test_access_root_costs_one(self):
        t = Treap.build(THREE)
        assert t.access(1) == 1

    def test_access_on_chain_costs_key(self):
        n = 9
        pris = {k: (0, 1.0 - k / (n + 1)) for k in range(1, n + 1)}
        t = Treap.build(pris)
        for k in range(1, n + 1):
            assert t.access(k) == k

    def test_three_key_access_example(self):
        assert Treap.build(THREE).access(2) == 3

    def test_access_accumulates_nodes_touched(self):
        t = Treap.build(THREE)
        total = t.access(2) + t.access(1) + t.access(3)
        assert total == t.depth(2) + t.depth(1) + t.depth(3) == 3 + 1 + 2

    def test_access_cost_equals_depth(self, py_rng):
        for _ in range(30):
            n = py_rng.randint(1, 40)
            t = Treap.build(random_priorities(py_rng, n))
            want = [descent(t, k) for k in range(1, n + 1)]
            assert [t.access(k) for k in range(1, n + 1)] == want
            assert [t.depth(k) for k in range(1, n + 1)] == want

    def test_access_matches_naive_depths_and_descent_through_churn(self, py_rng):
        # the count walks parent links, so it is checked after updates,
        # inserts and deletes have rewritten them, not only on fresh builds
        for n in (1, 2, 9, 60):
            t = Treap.build(random_priorities(py_rng, n))
            for _ in range(200):
                k = py_rng.randint(1, n)
                roll = py_rng.random()
                if k not in t:
                    t.insert(k, py_rng.randint(0, 3), py_rng.random())
                elif roll < 0.2 and t.size > 1:
                    t.delete(k)
                else:
                    t.update_priority(k, py_rng.randint(0, 3), py_rng.random())
                want = naive_depths({k: t.priority(k) for k in t.keys()})
                assert {k: t.access(k) for k in t.keys()} == want
                assert {k: descent(t, k) for k in t.keys()} == want

    def test_access_on_a_5000_deep_chain(self):
        n = 5000
        t = Treap.build_arrays([0] * n, [1.0 - k / (n + 1) for k in range(1, n + 1)])
        assert t.access(n) == descent(t, n) == n
        assert t.access(1) == 1
        with pytest.raises(KeyError):
            t.access(n + 1)


class TestUpdatePriority:
    def test_same_priority_is_a_no_op(self):
        t = Treap.build(THREE)
        want = shape(t)
        assert t.update_priority(2, *THREE[2]) == 0
        assert shape(t) == want

    def test_raise_to_maximum_moves_key_to_root(self, py_rng):
        for _ in range(40):
            n = py_rng.randint(2, 10)
            t = Treap.build(random_priorities(py_rng, n))
            k = py_rng.randint(1, n)
            t.update_priority(k, -5, 0.5)
            assert t.root == k
            assert t.validate() is None

    def test_update_matches_delete_plus_insert(self, py_rng):
        for _ in range(150):
            n = py_rng.randint(1, 8)
            pris = random_priorities(py_rng, n)
            k = py_rng.choice(list(pris))
            new = (py_rng.randint(0, 3), py_rng.random())
            t = Treap.build(pris)
            t.update_priority(k, *new)
            want = depth_list(naive_depths({**pris, k: new}), n)
            assert t.depths() == want
            # delete-then-insert must land on the same unique tree
            t2 = Treap.build(pris)
            t2.delete(k)
            t2.insert(k, *new)
            assert t2.depths() == want

    def test_rotation_count_equals_depth_change(self, py_rng):
        for _ in range(300):
            n = py_rng.randint(2, 8)
            t = Treap.build(random_priorities(py_rng, n))
            k = py_rng.randint(1, n)
            before = t.depth(k)
            rot = t.update_priority(k, py_rng.randint(0, 3), py_rng.random())
            assert rot == abs(before - t.depth(k))


def rotate_up(t: Treap, x: int) -> None:
    """One textbook rotation: ``x`` takes its parent's place."""
    p = t._parent[x]
    g = t._parent[p]
    if t._left[p] == x:
        b = t._right[x]
        t._left[p] = b
        t._right[x] = p
    else:
        b = t._left[x]
        t._right[p] = b
        t._left[x] = p
    if b:
        t._parent[b] = p
    t._parent[p] = x
    t._parent[x] = g
    if not g:
        t.root = x
    elif t._left[g] == p:
        t._left[g] = x
    else:
        t._right[g] = x


def reference_update_priority(t: Treap, key: int, tier: int, offset: float) -> int:
    """The comparison-and-rotation form of ``Treap.update_priority``: every
    comparison through ``_wins`` and every rotation through ``rotate_up``."""
    t._tier[key] = tier
    t._off[key] = offset
    rot = 0
    parent = t._parent
    if parent[key] and t._wins(key, parent[key]):
        while parent[key] and t._wins(key, parent[key]):
            rotate_up(t, key)
            rot += 1
    else:
        while True:
            l, r = t._left[key], t._right[key]
            if l and r:
                c = l if t._wins(l, r) else r
            else:
                c = l or r
            if not c or not t._wins(c, key):
                break
            rotate_up(t, c)
            rot += 1
    return rot


def arrays(t: Treap) -> tuple:
    return t.root, t.size, t._parent, t._left, t._right, t._tier, t._off, t._present


class TestUpdatePriorityTies:
    """Exact (tier, offset) ties resolve toward the smaller key, on the way
    up and on the way down."""

    def chain(self) -> Treap:
        # root 2 with children 1 and 3; 3's right child is 5, whose left is 4
        return Treap.build({1: (1, 0.3), 2: (0, 0.5), 3: (1, 0.6), 4: (2, 0.2), 5: (1, 0.4)})

    def test_rise_onto_a_tie_with_a_larger_parent_wins(self):
        t = self.chain()
        assert t.parent_of(1) == 2
        rot = t.update_priority(1, *t.priority(2))  # key 1 < parent 2: 1 wins
        assert rot == 1 and t.root == 1 and t.right_of(1) == 2
        assert t.depths() == depth_list(naive_depths({k: t.priority(k) for k in t.keys()}), t.n)
        assert t.validate() is None

    def test_rise_onto_a_tie_with_a_smaller_parent_stays(self):
        t = self.chain()
        assert t.parent_of(3) == 2
        want = shape(t)
        assert t.update_priority(3, *t.priority(2)) == 0  # 3 > 2: 2 keeps it
        assert shape(t) == want
        assert t.depths() == depth_list(naive_depths({k: t.priority(k) for k in t.keys()}), t.n)

    def test_sink_onto_a_tie_with_a_smaller_child_loses(self):
        t = self.chain()
        # 5's left child is 4; sinking 5 to 4's exact pair lets 4 win the tie
        assert t.left_of(5) == 4
        rot = t.update_priority(5, *t.priority(4))
        assert rot == 1 and t.parent_of(5) == 4
        assert t.depths() == depth_list(naive_depths({k: t.priority(k) for k in t.keys()}), t.n)
        assert t.validate() is None

    def test_sink_onto_a_tie_with_a_larger_child_stays(self):
        t = self.chain()
        assert t.right_of(3) == 5
        want = shape(t)
        assert t.update_priority(3, *t.priority(5)) == 0  # 3 < 5: 3 keeps it
        assert shape(t) == want
        assert t.depths() == depth_list(naive_depths({k: t.priority(k) for k in t.keys()}), t.n)

    def test_two_tied_children_the_left_one_rises(self):
        t = Treap.build({1: (1, 0.5), 2: (0, 0.9), 3: (1, 0.5)})
        assert (t.left_of(2), t.right_of(2)) == (1, 3)
        assert t.update_priority(2, 2, 0.5) == 2
        assert t.root == 1 and t.right_of(1) == 3 and t.left_of(3) == 2
        assert t.depths() == depth_list(naive_depths({1: (1, 0.5), 2: (2, 0.5), 3: (1, 0.5)}), 3)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_lockstep_with_the_reference(self, py_rng, n):
        tiers = range(0, 3)
        pool = [0.25, 0.5, 0.75]  # shared offsets: offset-only ties
        pris = {k: (py_rng.choice(tiers), py_rng.choice(pool)) for k in range(1, n + 1)}
        new, ref = Treap.build(pris), Treap.build(pris)
        for step in range(3000):
            key = py_rng.randint(1, n)
            roll = py_rng.random()
            if roll < 0.3 and n > 1:  # the exact pair of another key
                pair = new.priority(py_rng.randint(1, n))
            elif roll < 0.5:  # a tier-only tie: same tier, fresh offset
                pair = (new.priority(key)[0], py_rng.random())
            elif roll < 0.7:  # an offset-only tie: same offset, other tier
                pair = (py_rng.choice(tiers), new.priority(key)[1])
            else:
                pair = (py_rng.choice(tiers), py_rng.choice(pool + [py_rng.random()]))
            assert new.update_priority(key, *pair) == reference_update_priority(ref, key, *pair)
            assert arrays(new) == arrays(ref), step
        assert new.validate() is None
        assert new.depths() == depth_list(naive_depths({k: new.priority(k) for k in new.keys()}), n)


class RotationTreap(Treap):
    """A treap whose ``update_priority`` rotates the key one level at a time,
    kept literal as the reference for the unzip/zip form; ``insert`` and
    ``delete`` reach it through ``self``, as they reach the real one."""

    def update_priority(self, key: int, tier: int, offset: float) -> int:
        if not 0.0 < offset < 1.0:
            raise ValueError(f"offset for key {key} not in (0, 1): {offset!r}")
        if not (1 <= key <= self.n and self._present[key]):
            raise KeyError(key)
        tiers = self._tier
        offs = self._off
        left = self._left
        right = self._right
        parent = self._parent
        tiers[key] = tier
        offs[key] = offset
        rot = 0
        p = parent[key]
        while p:
            tp = tiers[p]
            if tier > tp or (tier == tp and (offset < offs[p] or (offset == offs[p] and key > p))):
                break
            g = parent[p]
            if key < p:
                b = right[key]
                left[p] = b
                right[key] = p
            else:
                b = left[key]
                right[p] = b
                left[key] = p
            if b:
                parent[b] = p
            parent[p] = key
            rot += 1
            p = g
        if rot:
            parent[key] = p
            if not p:
                self.root = key
            elif key < p:
                left[p] = key
            else:
                right[p] = key
            return rot
        while True:
            l = left[key]
            r = right[key]
            if l:
                c = l
                if r:
                    tl = tiers[l]
                    tr = tiers[r]
                    if tr < tl or (tr == tl and offs[r] > offs[l]):
                        c = r
            elif r:
                c = r
            else:
                break
            tc = tiers[c]
            if tc > tier or (tc == tier and (offs[c] < offset or (offs[c] == offset and c > key))):
                break
            if c == l:
                b = right[c]
                left[key] = b
                right[c] = key
            else:
                b = left[c]
                right[key] = b
                left[c] = key
            if b:
                parent[b] = key
            parent[c] = p
            if not p:
                self.root = c
            elif key < p:
                left[p] = c
            else:
                right[p] = c
            p = c
            rot += 1
        parent[key] = p
        return rot


class TestUnzipZipLockstep:
    """``update_priority`` unzips and zips; ``RotationTreap`` rotates.  Driven
    side by side, the two must write the same arrays and return the same
    counts, through ties, tier moves both ways, inserts and deletes."""

    @staticmethod
    def pair(pris: dict[int, tuple[int, float]], n: int) -> tuple[Treap, Treap]:
        return Treap.build(pris, n), RotationTreap.build(pris, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 300])
    def test_random_treaps_with_ties(self, py_rng, n):
        pool = [0.25, 0.5, 0.75]  # shared offsets, so whole pairs tie
        for trial in range(4):
            pris = {k: (py_rng.randint(0, 3), py_rng.choice(pool))
                    for k in range(1, n + 1) if py_rng.random() < 0.9 or k == 1}
            new, ref = self.pair(pris, n)
            for step in range(200):
                key = py_rng.randint(1, n)
                roll = py_rng.random()
                if key not in new:
                    pair = (py_rng.randint(0, 3), py_rng.choice(pool))
                    got, want = new.insert(key, *pair), ref.insert(key, *pair)
                elif roll < 0.15:
                    got, want = new.delete(key), ref.delete(key)
                else:
                    tier, off = new.priority(key)
                    if roll < 0.35 and new.size > 1:  # another key's exact pair
                        pair = new.priority(py_rng.choice(list(new.keys())))
                    elif roll < 0.5:  # up a few tiers
                        pair = (tier - py_rng.randint(1, 3), off)
                    elif roll < 0.65:  # down a few tiers
                        pair = (tier + py_rng.randint(1, 3), off)
                    elif roll < 0.75:  # unchanged
                        pair = (tier, off)
                    else:
                        pair = (py_rng.randint(-1, 4), py_rng.choice(pool + [py_rng.random()]))
                    got = new.update_priority(key, *pair)
                    want = ref.update_priority(key, *pair)
                assert got == want, (trial, step)
                assert arrays(new) == arrays(ref), (trial, step)
            assert new.validate() is None

    def test_a_5000_deep_chain(self):
        n = 5000
        # key 1 on top, each key the right child of the one before
        pris = {k: (0, 1.0 - k / (n + 1)) for k in range(1, n + 1)}
        new, ref = self.pair(pris, n)
        ops = [
            ("update", n, -1, 0.5),  # the deepest key rises to the root
            ("update", n, 1, 0.5),  # and sinks back past every other key
            ("update", 1, 0, 1.0 / (n + 1)),  # the top key sinks below its right child
            ("update", 2500, -1, 0.5),  # a middle key splits the chain
            ("delete", 1),
            ("insert", 1, -2, 0.5),  # a new root over the whole tree
            ("delete", n),
            ("insert", n, 0, 0.5),
        ]
        counts = []
        for op in ops:
            if op[0] == "update":
                got, want = new.update_priority(*op[1:]), ref.update_priority(*op[1:])
            elif op[0] == "delete":
                got, want = new.delete(op[1]), ref.delete(op[1])
            else:
                got, want = new.insert(*op[1:]), ref.insert(*op[1:])
            assert got == want, op
            assert arrays(new) == arrays(ref), op
            counts.append(got)
        assert counts[:2] == [n - 1, n - 1]  # a rise and a zip through the whole chain
        assert new.validate() is None

    def test_offset_error_text_is_unchanged(self):
        new, ref = self.pair(THREE, 3)
        for bad in (0.0, 1.0, float("nan"), -0.5):
            want = f"offset for key 2 not in (0, 1): {bad!r}"
            for t in (new, ref):
                with pytest.raises(ValueError, match=re.escape(want)):
                    t.update_priority(2, 0, bad)
        assert arrays(new) == arrays(ref)


class TestValidate:
    def test_fresh_tree_is_ok(self, py_rng):
        t = Treap.build(random_priorities(py_rng, 20))
        assert t.validate() is None

    def test_swapped_children_reported_as_bst_violation(self):
        t = Treap.build({1: (0, 0.9), 2: (0, 0.8), 3: (0, 0.7)})
        # chain 1 -> 2 -> 3; graft 3 as left child of 1 to break key order
        t._right[2] = 0
        t._right[1] = 0
        t._left[1] = 3
        t._parent[3] = 1
        report = t.validate()
        assert report is not None and "order" in report

    def test_child_priority_above_parent_reported(self):
        t = Treap.build({1: (1, 0.5), 2: (2, 0.5)})
        t._tier[2] = 0  # now 2 outranks its parent
        report = t.validate()
        assert report is not None and "heap" in report


@pytest.mark.parametrize("corrupt", [
    "size", "empty root", "absent root", "root parent",
    "absent linked key", "parent link", "unreached key",
])
def test_validate_names_drift_after_churn(corrupt):
    """Each failure branch of ``validate`` past the search and heap order
    names its field, on a tree that inserts and deletes left half full."""
    py = random.Random(11)
    t = Treap(40)
    for _ in range(300):
        k = py.randint(1, t.n)
        if k in t:
            t.delete(k)
        else:
            t.insert(k, py.randint(0, 3), py.random() or 0.5)
    assert t.validate() is None
    root, size = t.root, t.size
    child = t.left_of(root) or t.right_of(root)
    absent = next(k for k in range(1, t.n + 1) if k not in t)
    assert child and 0 < size < t.n
    if corrupt == "size":
        t.size += 1
        want = f"size {size + 1} != {size} present flags"
    elif corrupt == "empty root":
        t.root = 0
        want = "empty root with nonzero size"
    elif corrupt == "absent root":
        t._present[root], t._present[absent] = 0, 1
        want = f"root {root} is not present"
    elif corrupt == "root parent":
        t._parent[root] = child
        want = f"root {root} has parent {child}"
    elif corrupt == "absent linked key":
        t._present[child], t._present[absent] = 0, 1
        want = f"linked key {child} is not present"
    elif corrupt == "parent link":
        t._parent[child] = absent
        want = f"parent link of {child} is {absent}, expected {root}"
    else:
        t._present[absent] = 1
        t.size += 1
        want = f"reached {size} nodes, size says {size + 1}"
    assert t.validate() == want


@pytest.mark.parametrize("offset", [0.0, 1.0, float("nan")])
@pytest.mark.parametrize("entry", ["build_arrays", "build", "insert", "update_priority"])
def test_entry_points_reject_offsets_outside_open_interval(entry, offset):
    t = Treap.build(THREE, n=4)
    want = shape(t)
    with pytest.raises(ValueError):
        if entry == "build_arrays":
            Treap.build_arrays([0, 0], [0.5, offset])
        elif entry == "build":
            Treap.build({1: (0, 0.5), 2: (0, offset)})
        elif entry == "insert":
            t.insert(4, 0, offset)
        else:
            t.update_priority(2, 0, offset)
    # a rejected insert or update leaves the tree as it was
    assert shape(t) == want and t.priority(2) == THREE[2] and 4 not in t
    assert t.validate() is None


@pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.0, math.inf, -0.25])
@pytest.mark.parametrize("key", [1, 4, 7])
def test_build_arrays_names_the_key_of_a_bad_offset(key, bad):
    # the bulk check must catch a bad offset anywhere, NaN included, and the
    # message must name the first such key, as the per-key check does
    offsets = [(k + 0.5) / 8 for k in range(7)]
    offsets[key - 1] = bad
    with pytest.raises(ValueError, match=re.escape(f"offset for key {key} not in (0, 1): {bad!r}")):
        Treap.build_arrays([0] * 7, offsets)
    offsets[6] = bad
    with pytest.raises(ValueError, match=re.escape(f"offset for key {key} not in (0, 1): {bad!r}")):
        Treap.build_arrays([0] * 7, offsets)


def test_deterministic_build_across_identical_streams():
    n = 200
    a = RandomStream(99)
    b = RandomStream(99)
    offs_a = [a.next_offset() for _ in range(n)]
    offs_b = [b.next_offset() for _ in range(n)]
    assert offs_a == offs_b
    t1 = Treap.build_arrays([0] * n, offs_a)
    t2 = Treap.build_arrays([0] * n, offs_b)
    assert shape(t1) == shape(t2)
