"""Block structures: the B-tree, the tiered component forest, the
deterministic score buckets, and the self-organizing recency forest."""

import bisect
import collections
import copy
import hashlib
import heapq
import math
import random
import re

import pytest

from conftest import btree_height, left_of, parent_of, right_of
from scoretreap import dynamic
from scoretreap.em import (
    Block,
    BTree,
    Component,
    DetScoreForest,
    RankForest,
    TierForestBTreap,
    UpdateCost,
    bulk_depth,
    bulk_written,
)
from scoretreap.errors import ConfigError, DuplicateKeyError
from scoretreap.priorities import RandomStream, tier_value
from scoretreap.sequences import TraceSpec, gen_sequence
from scoretreap.treap import Treap


class ReplayStream:
    """Stands in for ``RandomStream``: hands out queued offsets in order, so
    a forest and its reference draw the same offsets."""

    def __init__(self, offsets):
        self.queue = collections.deque(offsets)

    def next_offset(self) -> float:
        return self.queue.popleft()

    def offsets(self, k: int) -> list[float]:
        return [self.queue.popleft() for _ in range(k)]

    def draws(self):
        """The queue as an iterator that pops only when advanced."""
        return iter(self.queue.popleft, None)


class TreeComponent:
    """``FullRepartitionForest``'s component record: a bulk-built ``BTree``
    with the tier and top the forest keeps beside it.  The tree is never
    edited, so its in-order keys are read once, as ``members``."""

    def __init__(self, tier: int, top: int, tree: BTree):
        self.tier = tier
        self.top = top
        self.tree = tree
        self.members = tree.keys_inorder()


class FullRepartitionForest(TierForestBTreap):
    """Reference update rule: on every tier change, re-partition all n keys
    and match old to new components by (tier, member set).  Each component
    is a real bulk-built ``BTree``, so the rebuild writes it returns are the
    blocks its new trees hold.  Its glued path is found top-down: the
    chain of components on the root path first, then one search per
    component tree, with the tiers checked afterwards.  Its first forest,
    too, comes from its own DFS, not from ``_members``.  Its
    ``update_weight`` takes the new weight and maps it to its tier with
    ``tier_value(w, B, 4)``."""

    def __init__(self, tiers, B: int, rng=None):
        self.B = B
        self.n = len(tiers)
        self._rng = rng if rng is not None else RandomStream(0)
        offsets = [self._rng.next_offset() for _ in range(self.n)]
        self.base = Treap.build_arrays(tiers, offsets)
        self.comp_of = [None] * (self.n + 1)
        for top, ks in self._groups().items():
            comp = TreeComponent(self.base._tier[top], top, BTree(B, ks))
            for k in ks:
                self.comp_of[k] = comp

    def _tree(self, comp: TreeComponent) -> BTree:
        return comp.tree

    def _chain(self, key: int) -> list[TreeComponent]:
        """Components on the root path, top component first."""
        chain = [self.comp_of[key]]
        while True:
            p = self.base._parent[chain[-1].top]
            if not p:
                break
            chain.append(self.comp_of[p])
        chain.reverse()
        return chain

    def path_pairs(self, key: int) -> list[tuple[Block, int]]:
        """(block, tier) pairs on the glued search path to ``key``, top first."""
        chain = self._chain(key)
        out: list[tuple[Block, int]] = []
        for i, comp in enumerate(chain):
            if i + 1 < len(chain):
                target = self.base._parent[chain[i + 1].top]
            else:
                target = key
            found, path = self._tree(comp).search(target)
            assert found, f"key {target} missing from its component tree"
            out.extend((blk, comp.tier) for blk in path)
        tiers = [t for _, t in out]
        assert tiers == sorted(tiers), f"tiers not monotone along access path: {tiers}"
        return out

    def access(self, key: int) -> int:
        return len({blk for blk, _ in self.path_pairs(key)})

    def _partition(self) -> list[int]:
        base = self.base
        left, right, parent, tier = base._left, base._right, base._parent, base._tier
        comp = [0] * (self.n + 1)
        stack = [base.root]
        while stack:
            k = stack.pop()
            p = parent[k]
            comp[k] = comp[p] if p and tier[p] == tier[k] else k
            if left[k]:
                stack.append(left[k])
            if right[k]:
                stack.append(right[k])
        return comp

    def _groups(self) -> dict[int, list[int]]:
        """Each component's sorted members, by top, from ``_partition``."""
        comp_top = self._partition()
        groups: dict[int, list[int]] = {}
        for k in range(1, self.n + 1):
            groups.setdefault(comp_top[k], []).append(k)
        return groups

    def _rebuild(self) -> int:
        groups = self._groups()
        members: dict[TreeComponent, list[int]] = {}
        for k in range(1, self.n + 1):
            members.setdefault(self.comp_of[k], []).append(k)
        # keyed by the recorded tier: the updated key's base tier moved
        old_by_sig = {(comp.tier, frozenset(ks)): comp for comp, ks in members.items()}
        new_comp_of: list[TreeComponent | None] = [None] * (self.n + 1)
        written = 0
        for top, ks in groups.items():
            comp = old_by_sig.pop((self.base._tier[top], frozenset(ks)), None)
            if comp is None:
                comp = TreeComponent(self.base._tier[top], top, BTree(self.B, ks))
                written += len(reachable_blocks([comp.tree]))
            comp.top = top
            for k in ks:
                new_comp_of[k] = comp
        self.comp_of = new_comp_of
        return written

    def update_weight(self, key: int, w_new: float) -> UpdateCost:
        removal = len({blk for blk, _ in self.path_pairs(key)})
        old_tier = self.base._tier[key]
        new_tier = tier_value(w_new, self.B, 4)
        offset = self._rng.next_offset()
        rot = self.base.update_priority(key, new_tier, offset)
        written = 0
        if new_tier != old_tier:
            written = self._rebuild()
        elif rot:
            self._refresh_root(key)
        insertion = len({blk for blk, _ in self.path_pairs(key)})
        return UpdateCost(removal + insertion, written)


class AncestorSetForest(TierForestBTreap):
    """Reference update rule: the tier forest's update as it stood before
    re-tiering read the rotation count.  ``update_weight``, ``_neighbours``,
    ``_retier``, ``_tops``, ``_components``, ``_refresh_root`` and
    ``_path_length`` are literal copies of that code: a re-tier takes the
    symmetric difference of two full ancestor sets, re-groups the sorted
    tops, a same-tier update always walks up to the top, offsets come from
    ``next_offset`` and the cost from ``UpdateCost``'s own constructor."""

    def __init__(self, tiers, B: int, rng):
        super().__init__(tiers, B, rng)
        self._rng = rng

    def _tops(self, keys):
        parent, tier = self.base._parent, self.base._tier
        return [k for k in keys if not parent[k] or tier[parent[k]] != tier[k]]

    def _components(self, tops):
        left, right, tier = self.base._left, self.base._right, self.base._tier
        keys_of_tier = self.keys_of_tier
        out = []
        for top in tops:
            lo = hi = top
            while left[lo]:
                lo = left[lo]
            while right[hi]:
                hi = right[hi]
            ks = keys_of_tier[tier[top]]
            out.append((top, ks[bisect.bisect_left(ks, lo):bisect.bisect_right(ks, hi)]))
        return out

    def _neighbours(self, key):
        parent = self.base._parent
        ancestors = set()
        p = parent[key]
        while p:
            ancestors.add(p)
            p = parent[p]
        return ancestors, (self.base._left[key], self.base._right[key])

    def _retier(self, key, ancestors, children):
        parent, tier = self.base._parent, self.base._tier
        comp_of = self.comp_of
        after_anc, after_kids = self._neighbours(key)
        moved = (ancestors ^ after_anc).union(children, after_kids)
        moved.add(key)
        moved.discard(0)
        dirty = set()
        for x in moved:
            dirty.add(comp_of[x])
            p = parent[x]
            if p and tier[p] == tier[x]:
                dirty.add(comp_of[p])
        tops = self._tops(sorted(moved.union([comp.top for comp in dirty])))
        written = 0
        for top, members in self._components(tops):
            comp = comp_of[top]
            if comp.tier != tier[top] or comp.members != members:
                written += self._new_component(top, members)
        return written

    def _refresh_root(self, key):
        parent, tier = self.base._parent, self.base._tier
        cur = key
        while parent[cur] and tier[parent[cur]] == tier[cur]:
            cur = parent[cur]
        self.comp_of[key].top = cur

    def _path_length(self, key):
        comp_of, parent, B = self.comp_of, self.base._parent, self.B
        count = 0
        target = key
        comp = comp_of[key]
        below = comp.tier
        while True:
            if comp.tier > below:
                raise AssertionError(f"tiers not monotone on the path to {key}: "
                                     f"tier {comp.tier} above tier {below}")
            members = comp.members
            rank = bisect.bisect_left(members, target)
            if rank == len(members) or members[rank] != target:
                raise AssertionError(f"key {target} missing from its component")
            count += bulk_depth(len(members), B, rank)
            below = comp.tier
            target = parent[comp.top]
            if not target:
                return count
            comp = comp_of[target]

    def update_weight(self, key, new_tier):
        walked, self._walked = self._walked, None
        if not 1 <= key <= self.n:
            raise KeyError(key)
        removal = walked[1] if walked and walked[0] == key else self._path_length(key)
        old_tier = self.base._tier[key]
        offset = self._rng.next_offset()
        before = self._neighbours(key) if new_tier != old_tier else None
        rot = self.base.update_priority(key, new_tier, offset)
        written = 0
        if before is not None:
            ks = self.keys_of_tier[old_tier]
            del ks[bisect.bisect_left(ks, key)]
            bisect.insort(self.keys_of_tier.setdefault(new_tier, []), key)
            written = self._retier(key, *before)
        elif rot:
            self._refresh_root(key)
        insertion = removal if before is None else self._path_length(key)
        return UpdateCost(removal + insertion, written)


class WeightDetScoreForest(DetScoreForest):
    """Reference update rule: ``update_weight`` takes the new weight and
    maps it to its bucket itself, with ``tier_value(w, B, 2)``."""

    def update_weight(self, key: int, w_new: float) -> int:
        if not 1 <= key <= self.n:
            raise KeyError(key)
        new_idx = tier_value(w_new, self.B, 2)
        old_idx = self.tree_index[key]
        if new_idx == old_idx:
            return 0
        touched = set(self.trees[old_idx].delete(key))
        if new_idx not in self.trees:
            self.trees[new_idx] = BTree(self.B)
            self.trees = dict(sorted(self.trees.items()))
        touched.update(self.trees[new_idx].insert(key))
        self.tree_index[key] = new_idx
        return len(touched)


def tiers_of(weights, B: int, forest=TierForestBTreap) -> list[int]:
    """Each weight's tier under ``forest``'s rule, as the driver maps it."""
    return [tier_value(w, B, forest.OUTER_BASE) for w in weights]


def churned_forest(n: int = 200, B: int = 4, updates: int = 300, seed: int = 11,
                   forest: type[TierForestBTreap] = TierForestBTreap) -> TierForestBTreap:
    """A valid tier forest (of class ``forest``) after ``updates`` random
    weight updates over tiers 0..3."""
    py = random.Random(seed)

    def tier() -> int:  # log_B(1/w) = 4^u spans tiers 0..3
        return tier_value(float(B) ** -(4.0 ** py.uniform(-0.5, 3.5)), B, 4)

    st = forest([tier() for _ in range(n)], B, rng=RandomStream(seed))
    for _ in range(updates):
        st.update_weight(py.randint(1, n), tier())
    assert st.validate() is None
    return st


def glued_top(st: TierForestBTreap) -> int:
    """The smallest component top that hangs below another component."""
    return min(comp.top for comp in st._comps() if parent_of(st.base, comp.top))


def reachable_blocks(trees) -> list[Block]:
    """Every block reached from the roots of ``trees``, once per link."""
    out: list[Block] = []
    stack = [tree.root for tree in trees]
    while stack:
        blk = stack.pop()
        out.append(blk)
        stack.extend(blk.children)
    return out


def tree_dump(blk: Block) -> tuple:
    """The structure below ``blk`` as nested (keys, children) tuples."""
    return tuple(blk.keys), tuple(tree_dump(c) for c in blk.children)


class StampHeapRankForest:
    """Reference recency forest: each access stamps its key with the next
    value of a plain counter, never renumbered, so a key's rank is one plus
    the number of larger stamps; each tree's least recent key comes from a
    lazy min-heap of ``(stamp, key)``.

    ``S = ceil(log2 log_B n)`` trees (at least one); tree ``i`` (1-based) may
    hold at most ``2 * B^(2^(i+1))`` items before it sheds its ``B^(2^(i+1))``
    least recent ones into tree ``i + 1``; the last tree absorbs everything.
    An access moves the item to recency rank 1 and into the first tree.
    """

    def __init__(self, n: int, B: int):
        if n < 1:
            raise ConfigError(f"universe size must be >= 1, got {n}")
        self.B = B
        self.n = n
        S = 1
        while B ** (2 ** S) < n:
            S += 1
        self.S = S
        self._clock = 0
        self._stamp = [0] * (n + 1)
        self._by_stamp: list[int] | None = None  # sorted stamps, for rank
        for k in range(n, 0, -1):  # initial recency rank equals the key
            self._touch(k)
        self.tree_of = [0] * (n + 1)
        # fill trees front to back
        self.trees: list[BTree | None] = [None] * (S + 1)
        start = 1
        for i in range(1, S + 1):
            cap = n - start + 1 if i == S else min(self.cap_hi(i), n - start + 1)
            ks = list(range(start, start + max(cap, 0)))
            self.trees[i] = BTree(B, ks)
            for k in ks:
                self.tree_of[k] = i
            start += len(ks)
            if start > n:
                for j in range(i + 1, S + 1):
                    self.trees[j] = BTree(B)
                break
        # per-tree min-heaps of (stamp, key), for finding each tree's oldest
        self._heaps: list[list[tuple[int, int]]] = [[] for _ in range(S + 1)]
        for k in range(1, n + 1):
            self._heaps[self.tree_of[k]].append((self._stamp[k], k))
        for heap in self._heaps:
            heapq.heapify(heap)

    def cap_hi(self, i: int) -> int:
        return 2 * self.B ** (2 ** (i + 1))

    def chunk(self, i: int) -> int:
        return self.B ** (2 ** (i + 1))

    def _touch(self, key: int) -> None:
        self._clock += 1
        self._stamp[key] = self._clock
        self._by_stamp = None

    def rank(self, key: int) -> int:
        """1 = most recently accessed: one plus the number of larger stamps."""
        if self._by_stamp is None:
            self._by_stamp = sorted(self._stamp[1:])
        return self.n - bisect.bisect_right(self._by_stamp, self._stamp[key]) + 1

    def _oldest(self, i: int) -> tuple[int, int] | None:
        heap = self._heaps[i]
        while heap:
            stamp, key = heap[0]
            if self.tree_of[key] == i and self._stamp[key] == stamp:
                return stamp, key
            heapq.heappop(heap)
        return None

    def access(self, key: int) -> int:
        """Probe trees in order, promote the item, cascade overflow chunks."""
        if not 1 <= key <= self.n:
            raise KeyError(key)
        touched: set[int] = set()
        found_at = 0
        for i in range(1, self.S + 1):
            tree = self.trees[i]
            if not len(tree):
                continue
            found, path = tree.search(key)
            touched.update(path)
            if found:
                found_at = i
                break
        if not found_at:
            raise KeyError(key)
        self._touch(key)
        if found_at != 1:
            touched.update(self.trees[found_at].delete(key))
            touched.update(self.trees[1].insert(key))
            self.tree_of[key] = 1
        heapq.heappush(self._heaps[1], (self._stamp[key], key))
        for i in range(1, self.S):
            tree = self.trees[i]
            while len(tree) > self.cap_hi(i):
                for _ in range(self.chunk(i)):
                    entry = self._oldest(i)
                    if entry is None:
                        break
                    _, victim = entry
                    touched.update(tree.delete(victim))
                    touched.update(self.trees[i + 1].insert(victim))
                    self.tree_of[victim] = i + 1
                    heapq.heappush(self._heaps[i + 1], (self._stamp[victim], victim))
        return len(touched)

    def check_invariant(self) -> str | None:
        """Size and max-rank bands; the last non-empty tree is exempt from
        the size band (it absorbs whatever the geometric prefix cannot)."""
        last_nonempty = 0
        for i in range(1, self.S + 1):
            if len(self.trees[i]):
                last_nonempty = i
        for i in range(1, self.S + 1):
            tree = self.trees[i]
            if not len(tree):
                continue
            if i != last_nonempty:
                lo = self.B ** (2 ** i)
                if not lo <= len(tree) <= self.cap_hi(i):
                    return f"tree {i} has {len(tree)} items, band [{lo}, {self.cap_hi(i)}]"
            entry = self._oldest(i)
            if entry is not None:
                worst = self.rank(entry[1])
                cap = 4 * self.B ** (2 ** (i + 1))
                if worst > cap:
                    return f"tree {i} holds rank {worst}, cap {cap}"
        return None

    def validate(self) -> str | None:
        stamp = self._stamp
        total = 0
        for i in range(1, self.S + 1):
            tree = self.trees[i]
            err = tree.validate()
            if err:
                return f"tree {i}: {err}"
            keys = tree.keys_inorder()
            for k in keys:
                if self.tree_of[k] != i:
                    return f"key {k} marked in tree {self.tree_of[k]}, stored in {i}"
            if keys:
                live = min((stamp[k], k) for k in keys)
                entry = self._oldest(i)
                if entry != live:
                    return f"tree {i}: oldest (stamp, key) is {live}, its heap gives {entry}"
            total += len(tree)
        if total != self.n:
            return f"forest holds {total} keys, expected {self.n}"
        return self.check_invariant()


def test_fanout_floor():
    """Every block structure refuses a fanout below 4 before it serves a key."""
    builders = {"BTree": lambda B: BTree(B, [1, 2, 3]),
                "TierForestBTreap":
                    lambda B: TierForestBTreap([0, 1, 0, 2], B, rng=RandomStream(0)),
                "DetScoreForest": lambda B: DetScoreForest([0, 1, 0, 2], B),
                "RankForest": lambda B: RankForest(64, B)}
    for name, build in builders.items():
        for B in (3, 0):
            with pytest.raises(ConfigError, match=f"block fanout must be >= 4, got {B}"):
                build(B)
        assert build(4).B == 4, name


@pytest.mark.parametrize("forest", [TierForestBTreap, DetScoreForest])
def test_nonpositive_or_nonfinite_weight_rejected(forest):
    # a forest takes tiers: a bad weight is refused where its rule maps it to one
    for bad in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive finite"):
            tier_value(bad, 4, forest.OUTER_BASE)


@pytest.mark.parametrize("forest", [
    lambda tiers, B: TierForestBTreap(tiers, B, rng=RandomStream(0)), DetScoreForest,
], ids=["TierForestBTreap", "DetScoreForest"])
def test_weights_in_place_of_tiers_rejected(forest):
    """The old call shape, weights where the tiers go, fails at build."""
    for given, key, bad in (([0.5, 0.25, 0.125, 1e-9], 1, 0.5), ([0.5, 0.25, 1e-9], 1, 0.5),
                            ([0, 1, 2.0, 1], 3, 2.0), ([0, 1, True], 3, True)):
        with pytest.raises(ConfigError, match=re.escape(f"key {key} has tier {bad!r}, not an int")):
            forest(given, 4)


@pytest.mark.parametrize("forest", ["det-forest", "rank-forest"])
def test_access_to_a_key_its_tree_lost_raises(forest):
    """A key in 1..n that no tree holds, deleted from its tree behind the
    forest's back, fails the probe with a KeyError rather than a count."""
    if forest == "det-forest":
        st = DetScoreForest([0, 1, 0, 2], 4)
        st.trees[st.tree_index[3]].delete(3)
    else:
        st = RankForest(8, 4)  # one tree holds every key
        st.trees[1].delete(3)
    with pytest.raises(KeyError, match="^3$"):
        st.access(3)
    assert st.validate() is not None


class LiteralBTree(BTree):
    """Reference updates: ``insert`` and ``delete`` are literal copies of the
    B-tree's updates before their no-split and no-underflow fast paths and
    the depth memo, always copying the descent path."""

    def insert(self, key: int) -> list[Block]:
        path: list[Block] = []
        blk = self.root
        while True:
            path.append(blk)
            i = bisect.bisect_left(blk.keys, key)
            if i < len(blk.keys) and blk.keys[i] == key:
                raise DuplicateKeyError(f"key {key} already present")
            if not blk.children:
                break
            blk = blk.children[i]
        blk.keys.insert(i, key)
        self.size += 1
        touched = list(path)
        pos = len(path) - 1
        while len(blk.keys) > self.max_keys:
            mid = len(blk.keys) // 2
            sep = blk.keys[mid]
            right = Block(blk.keys[mid + 1 :], blk.children[mid + 1 :])
            blk.keys = blk.keys[:mid]
            blk.children = blk.children[: mid + 1]
            touched.append(right)
            if pos == 0:
                self.root = Block([sep], [blk, right])
                touched.append(self.root)
                break
            parent = path[pos - 1]
            j = bisect.bisect_left(parent.keys, sep)
            parent.keys.insert(j, sep)
            parent.children.insert(j + 1, right)
            blk = parent
            pos -= 1
        return touched

    def delete(self, key: int) -> list[Block]:
        path: list[Block] = []
        blk = self.root
        while True:
            path.append(blk)
            i = bisect.bisect_left(blk.keys, key)
            if i < len(blk.keys) and blk.keys[i] == key:
                break
            if not blk.children:
                raise KeyError(key)
            blk = blk.children[i]
        if blk.children:
            # swap with the predecessor so the removal happens at a leaf
            leaf = blk.children[i]
            while leaf.children:
                path.append(leaf)
                leaf = leaf.children[-1]
            path.append(leaf)
            blk.keys[i] = leaf.keys.pop()
        else:
            blk.keys.pop(i)
        self.size -= 1
        touched = list(path)
        gone: list[Block] = []  # blocks merged away or collapsed
        pos = len(path) - 1
        while pos > 0:
            cur = path[pos]
            if len(cur.keys) >= self.min_keys:
                break
            parent = path[pos - 1]
            ci = parent.children.index(cur)
            if ci > 0 and len(parent.children[ci - 1].keys) > self.min_keys:
                left = parent.children[ci - 1]
                touched.append(left)
                cur.keys.insert(0, parent.keys[ci - 1])
                parent.keys[ci - 1] = left.keys.pop()
                if left.children:
                    cur.children.insert(0, left.children.pop())
                break
            if ci < len(parent.children) - 1 and len(parent.children[ci + 1].keys) > self.min_keys:
                right = parent.children[ci + 1]
                touched.append(right)
                cur.keys.append(parent.keys[ci])
                parent.keys[ci] = right.keys.pop(0)
                if right.children:
                    cur.children.append(right.children.pop(0))
                break
            # merge with a sibling and recurse on the parent
            li = ci - 1 if ci > 0 else ci
            left, right = parent.children[li], parent.children[li + 1]
            touched.append(left)
            touched.append(right)
            left.keys.append(parent.keys.pop(li))
            left.keys.extend(right.keys)
            left.children.extend(right.children)
            parent.children.pop(li + 1)
            gone.append(right)
            pos -= 1
        if not self.root.keys and self.root.children:
            gone.append(self.root)
            self.root = self.root.children[0]
        return [b for b in touched if b not in gone] if gone else touched


def twin_blocks(a: BTree, b: BTree) -> dict[int, Block]:
    """The id of each block of ``a`` -> the block of ``b`` in its place; the
    two trees must have the same keys in the same shape."""
    out: dict[int, Block] = {}
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        assert x.keys == y.keys and len(x.children) == len(y.children)
        out[id(x)] = y
        stack.extend(zip(x.children, y.children))
    return out


def leaf_depths(tree: BTree) -> set[int]:
    out: set[int] = set()
    stack = [(tree.root, 1)]
    while stack:
        blk, d = stack.pop()
        if blk.children:
            stack.extend((c, d + 1) for c in blk.children)
        else:
            out.add(d)
    return out


def churned_tree() -> BTree:
    """A valid B = 4 tree after 400 random inserts and deletes over keys 1..300."""
    py = random.Random(17)
    tree, present = BTree(4), set()
    for _ in range(400):
        k = py.randint(1, 300)
        if k in present and py.random() < 0.5:
            tree.delete(k)
            present.discard(k)
        elif k not in present:
            tree.insert(k)
            present.add(k)
    assert tree.validate() is None
    return tree


def leaves(tree: BTree) -> list[tuple[Block, int, Block]]:
    """(parent, child index, leaf) for every leaf, left to right."""
    out = []
    stack = [tree.root]
    while stack:
        blk = stack.pop()
        for j, child in enumerate(blk.children):
            if child.children:
                stack.append(child)
            else:
                out.append((blk, j, child))
    return sorted(out, key=lambda t: t[2].keys[0])


class TestBTree:
    def test_bulk_build_is_sorted_and_balanced(self):
        # every size up to 400: validate reports leaves at mixed depths, so
        # this shows the packing is uniform-depth without a check of its own
        for B in (4, 5, 7, 16):
            for n in [*range(1, 401), 3 * B * B, 500]:
                keys = list(range(1, n + 1))
                tree = BTree(B, keys)
                assert tree.keys_inorder() == keys
                assert tree.validate() is None
                assert len(leaf_depths(tree)) == 1
                assert len(tree) == n

    @pytest.mark.parametrize("B", [4, 5, 7, 16, 33])
    def test_bulk_arithmetic_matches_the_built_tree(self, B):
        """``bulk_depth`` is the search path length to every rank, and
        ``bulk_written`` the blocks the bulk-built tree holds, for sizes
        0..399, 30 seeded random sizes up to 20,000, and B^k - 1, B^k and
        B^k + 1 for every B^k up to 20,000, where the height steps."""
        py = random.Random(B)
        powers = [B ** k for k in range(1, 8) if B ** k <= 20_000]
        for n in [*range(400), *(py.randint(400, 20_000) for _ in range(30)),
                  *(p + d for p in powers for d in (-1, 0, 1))]:
            tree = BTree(B, range(1, n + 1))
            assert bulk_written(n, B) == len(reachable_blocks([tree])), n
            got = [bulk_depth(n, B, rank) for rank in range(n)]
            assert got == [len(tree.search(k)[1]) for k in range(1, n + 1)], n

    def test_small_tree_is_one_block(self):
        tree = BTree(8, list(range(1, 8)))
        assert btree_height(tree) == 1
        found, path = tree.search(3)
        assert found and len(path) == 1

    @pytest.mark.parametrize("keys", [
        [1, 2, 2, 3], [3, 1, 3], [5, 5], [9, 8, 7, 8], list(range(1, 60)) + [30],
    ])
    def test_bulk_keys_with_a_repeat_rejected(self, keys):
        with pytest.raises(DuplicateKeyError, match="bulk keys contain duplicates"):
            BTree(4, keys)

    def test_bulk_keys_in_any_order_build_the_sorted_tree(self):
        py = random.Random(5)
        for n in (2, 3, 40, 300):
            want = sorted(py.sample(range(1, 10 * n), n))
            for keys in (want[::-1], py.sample(want, n), want[1:] + want[:1]):
                given = list(keys)
                tree = BTree(5, keys)
                assert keys == given  # the caller's list is not sorted in place
                assert tree.keys_inorder() == want
                assert tree_dump(tree.root) == tree_dump(BTree(5, want).root)
                assert tree.validate() is None
            tree = BTree(5, iter(want))  # any iterable, read once
            assert tree.keys_inorder() == want and len(tree) == n

    def test_duplicate_insert_rejected(self):
        tree = BTree(4, [1, 2, 3])
        with pytest.raises(DuplicateKeyError):
            tree.insert(2)

    def test_contains_and_search_path(self):
        tree = BTree(4, list(range(1, 101)))
        assert tree.search(57)[0] and not tree.search(0)[0] and not tree.search(101)[0]
        found, path = tree.search(57)
        assert found and 1 <= len(path) <= btree_height(tree)
        found, path = tree.search(1000)
        assert not found and path  # still walks to a leaf

    @pytest.mark.parametrize("B", [4, 6, 16])
    def test_fuzz_against_sorted_set(self, B):
        py = random.Random(1000 + B)
        tree = BTree(B, [])
        ref: set[int] = set()
        for step in range(1200):
            k = py.randint(1, 300)
            if k in ref and py.random() < 0.5:
                tree.delete(k)
                ref.discard(k)
            elif k not in ref:
                tree.insert(k)
                ref.add(k)
            assert tree.search(k)[0] == (k in ref)
            if step % 100 == 0:
                assert tree.validate() is None
                assert tree.keys_inorder() == sorted(ref)
        assert tree.keys_inorder() == sorted(ref)
        assert tree.validate() is None

    def test_delete_missing_key(self):
        tree = BTree(4, [1, 2, 3])
        with pytest.raises(KeyError):
            tree.delete(9)
        tree = churned_tree()
        missing = next(k for k in range(1, 301) if not tree.search(k)[0])
        before = (tree.keys_inorder(), len(tree))
        with pytest.raises(KeyError):
            tree.delete(missing)  # the descent ends at a leaf without the key
        with pytest.raises(DuplicateKeyError):
            tree.insert(tree.root.keys[0])  # the descent meets the key at the root
        assert (tree.keys_inorder(), len(tree)) == before
        assert tree.validate() is None

    @pytest.mark.parametrize("B", [4, 5, 16])
    def test_updates_match_the_literal_reference(self, B):
        """Grow-and-shrink rounds that reach every split, borrow, merge and
        root change: after each update both trees hold the same keys in the
        same shape, and the returned lists name the blocks in the same
        places in the same order."""
        py = random.Random(B)
        start = py.sample(range(1, 5_000), 40)
        tree, ref = BTree(B, start), LiteralBTree(B, start)
        present = set(start)
        seen = collections.Counter()
        for rnd in range(4):
            goal = 250 if rnd % 2 == 0 else 3
            while len(present) != goal:
                grow = py.random() < (0.8 if len(present) < goal else 0.2)
                blocks, height = len(twin_blocks(tree, ref)), btree_height(tree)
                if grow:
                    k = py.randrange(1, 5_000)
                    while k in present:
                        k = py.randrange(1, 5_000)
                    got, want = tree.insert(k), ref.insert(k)
                    present.add(k)
                else:
                    k = py.choice(list(present))
                    got, want = tree.delete(k), ref.delete(k)
                    present.discard(k)
                twins = twin_blocks(tree, ref)
                assert len(got) == len(want)
                assert all(twins[id(g)] is w for g, w in zip(got, want)), (rnd, k)
                if grow:
                    seen["split"] += len(twins) > blocks
                    seen["root split"] += btree_height(tree) > height
                else:
                    seen["merge"] += len(twins) < blocks
                    seen["root collapse"] += btree_height(tree) < height
                    seen["borrow"] += len(twins) == blocks and len(got) > height
                    seen["repeat"] += len({id(g) for g in got}) < len(got)
                assert tree.keys_inorder() == ref.keys_inorder() == sorted(present)
                assert len(tree) == len(ref) == len(present)
                assert tree.validate() is None and ref.validate() is None
            for k in (min(present), py.randint(5_000, 6_000)):  # a refused update
                with pytest.raises((DuplicateKeyError, KeyError)):
                    tree.insert(k) if k in present else tree.delete(k)
        assert min(seen[e] for e in ("split", "root split", "merge", "root collapse",
                                     "borrow", "repeat")) > 0, seen

    @pytest.mark.parametrize("corrupt", [
        "unsorted keys", "key range", "overfull", "underfull", "missing child",
        "ragged leaves", "size",
    ])
    def test_validate_names_drift_after_churn(self, corrupt):
        tree = churned_tree()
        root, n, h = tree.root, len(tree), btree_height(tree)
        parent, j, leaf = next(t for t in leaves(tree) if len(t[2].keys) == 3)
        if corrupt == "unsorted keys":
            leaf.keys.reverse()
            message = f"block {leaf.keys} keys not strictly increasing"
        elif corrupt == "key range":
            # a leaf between two separators of its parent
            parent, j, leaf = next(t for t in leaves(tree) if 1 <= t[1] < len(t[0].keys))
            leaf.keys[0] = parent.keys[j - 1]  # equal to the separator on its left
            message = f"block {leaf.keys} violates key range ({parent.keys[j - 1]}, {parent.keys[j]})"
        elif corrupt == "overfull":
            leaf.keys.insert(1, leaf.keys[0] + 0.5)
            message = f"block {leaf.keys} overfull (4 keys)"
        elif corrupt == "underfull":
            leaf.keys.clear()
            message = "block [] underfull (0 keys)"
        elif corrupt == "missing child":
            root.children.pop()
            message = f"block {root.keys} has {len(root.keys)} children for {len(root.keys)} keys"
        elif corrupt == "ragged leaves":
            # split the leaf in place into a one-key block over two one-key leaves
            a, b, c = leaf.keys
            left, right = Block([a], []), Block([c], [])
            parent.children[j] = Block([b], [left, right])
            message = f"leaves at mixed depths [{h}, {h + 1}]"
        else:
            tree.size += 1  # an insert that counted a key it did not place
            message = f"tree holds {n} keys, size says {n + 1}"
        assert tree.validate() == message


class TestTierForest:
    def test_uniform_square_universe_is_one_flat_component(self):
        for B in (4, 16):
            n = B * B
            st = TierForestBTreap(tiers_of([1.0 / n] * n, B), B, rng=RandomStream(0))
            assert st.validate() is None
            assert len(st._comps()) == 1
            assert all(st.tier_of(k) == 0 for k in range(1, n + 1))
            assert max(st.access(k) for k in range(1, n + 1)) <= 3

    def test_heavy_item_reads_one_block(self):
        n, B = 257, 4
        w = [1.0] + [1.0 / 256.0] * (n - 1)
        st = TierForestBTreap(tiers_of(w, B), B, rng=RandomStream(5))
        assert st.tier_of(1) == 0
        assert all(st.tier_of(k) == 1 for k in range(2, n + 1))
        assert st.access(1) == 1

    def test_block_cost_grows_with_tier(self, stream):
        py = random.Random(77)
        n, B = 300, 4
        raw = [py.random() ** 6 for _ in range(n)]
        tot = sum(raw)
        st = TierForestBTreap(tiers_of([r / tot for r in raw], B), B, rng=stream)
        per_tier: dict[int, list[int]] = {}
        for k in range(1, n + 1):
            per_tier.setdefault(st.tier_of(k), []).append(st.access(k))
        tiers = sorted(per_tier)
        means = [sum(per_tier[t]) / len(per_tier[t]) for t in tiers]
        assert all(a <= b for a, b in zip(means, means[1:]))
        maxes = [max(per_tier[t]) for t in tiers]
        assert all(a <= b for a, b in zip(maxes, maxes[1:]))
        # keys outside the root tier must cross at least one foreign block
        for t in tiers[1:]:
            assert min(per_tier[t]) >= 2

    def test_update_matches_scratch_rebuild(self):
        py = random.Random(9)
        n, B = 24, 4
        tiers = tiers_of([1.0 / (n + 1)] * n, B)
        rng = RandomStream(31)
        offsets = [rng.next_offset() for _ in range(n)]
        replay = ReplayStream(offsets)
        st = TierForestBTreap(tiers, B, rng=replay)
        for _ in range(60):
            k = py.randint(1, n)
            tier = tier_value(2.0 ** -py.uniform(0.1, 24), B, 4)
            off = py.random()
            replay.queue.append(off)
            st.update_weight(k, tier)
            assert not replay.queue
            tiers[k - 1] = tier
            offsets[k - 1] = off
            fresh = TierForestBTreap(tiers, B, rng=ReplayStream(offsets))
            assert st.dump() == fresh.dump()
            assert st.validate() is None

    @pytest.mark.parametrize("seed, n, B", [
        (0, 8, 4), (1, 40, 4), (2, 150, 8), (3, 400, 16), (4, 1000, 4), (5, 1000, 16),
    ])
    def test_incremental_retier_matches_full_repartition(self, seed, n, B):
        """The local re-tier keeps every counted cost and the whole forest
        equal to re-partitioning all n keys on each tier change.  Each step
        compares the component records and the base treaps' parent links,
        which fix the forest; every tenth step also compares ``dump()``."""
        py = random.Random(seed)

        def records(comps) -> set:
            return {(comp.tier, comp.top, tuple(comp.members)) for comp in comps}

        def weight() -> float:  # log_B(1/w) = 4^u spans tiers 0..3
            return float(B) ** -(4.0 ** py.uniform(-0.5, 3.5))

        weights = [weight() for _ in range(n)]
        offsets = [py.random() or 0.5 for _ in range(n)]
        replays = ReplayStream(offsets), ReplayStream(offsets)
        st = TierForestBTreap(tiers_of(weights, B), B, rng=replays[0])
        ref = FullRepartitionForest(tiers_of(weights, B), B, rng=replays[1])
        assert st.dump() == ref.dump()
        retiers = 0
        # summed returned costs of (st, ref): search touches, rebuild writes
        touches, writes = [0, 0], [0, 0]
        for step in range(300):
            k = py.randint(1, n)
            w_new = weight()
            off = py.random() or 0.5
            retiers += st.tier_of(k) != tier_value(w_new, B, 4)
            for replay in replays:
                replay.queue.append(off)
            got = st.update_weight(k, tier_value(w_new, B, 4))
            want = ref.update_weight(k, w_new)
            assert got == want, step
            touches[0] += got.search
            touches[1] += want.search
            writes[0] += got.rebuild_writes
            writes[1] += want.rebuild_writes
            assert not any(r.queue for r in replays), step
            st_comps, ref_comps = st._comps(), ref._comps()
            assert records(st_comps) == records(ref_comps), step
            assert st.base._parent == ref.base._parent, step
            if step % 10 == 9:
                assert st.dump() == ref.dump(), step
            # the blocks st counts for its live components are the blocks
            # the reference's real trees hold
            assert (sum(bulk_written(len(comp.members), B) for comp in st_comps)
                    == len(reachable_blocks([comp.tree for comp in ref_comps]))), step
            assert touches[0] == touches[1], step
            assert writes[0] == writes[1], step
            assert st.validate() is None, step
            for _ in range(3):
                k = py.randint(1, n)
                got_access, want_access = st.access(k), ref.access(k)
                assert got_access == want_access, step
                touches[0] += got_access
                touches[1] += want_access
            assert touches[0] == touches[1], step
        assert retiers >= 100

    @pytest.mark.parametrize("B, n, m", [(4, 64, 300), (16, 300, 150)])
    def test_update_matches_the_ancestor_set_forest_in_lockstep(self, B, n, m, monkeypatch):
        """Driven by ``run_dynamic`` on zipf, block-repeat and round-robin
        traces under interval-set and past-ws-crude, the forest and
        ``AncestorSetForest``, each on a copy of one stream, return equal
        accesses and ``UpdateCost``s, and after every update hold equal tier
        lists, equal component records per key and equal ``dump()``s.  Tier
        changes that rise past nodes, sink past nodes and pass no node each
        occur (B=16 needs n > 256 for a second tier)."""
        kinds = collections.Counter()

        def records(st):
            return [(comp.tier, comp.top, comp.members) for comp in st.comp_of[1:]]

        class Lockstep(TierForestBTreap):
            def __init__(self, tiers, B, rng):
                self.ref = AncestorSetForest(tiers, B, copy.deepcopy(rng))
                super().__init__(tiers, B, rng)
                assert self.dump() == self.ref.dump()

            def access(self, key):
                got = super().access(key)
                assert got == self.ref.access(key)
                return got

            def update_weight(self, key, new_tier):
                old_tier, depth = self.tier_of(key), self.base.access(key)
                got = super().update_weight(key, new_tier)
                assert type(got) is UpdateCost
                assert got == self.ref.update_weight(key, new_tier)
                assert self.keys_of_tier == self.ref.keys_of_tier
                assert records(self) == records(self.ref)
                assert self.dump() == self.ref.dump()
                if new_tier != old_tier:
                    rot = abs(depth - self.base.access(key))
                    kinds["zero" if not rot else "rise" if new_tier < old_tier else "sink"] += 1
                return got

        monkeypatch.setattr(dynamic, "TierForestBTreap", Lockstep)
        for family in ("zipf", "block-repeat", "round-robin"):
            seq = gen_sequence(TraceSpec(family, n=n, m=m, seed=B))
            for scheme in ("interval-set", "past-ws-crude"):
                dynamic.run_dynamic(seq, scheme, "tier-forest", B=B, rng=RandomStream(B))
        assert kinds["rise"] >= 50 and kinds["sink"] >= 50 and kinds["zero"] >= 5, kinds

    @pytest.mark.parametrize("glued", [True, False], ids=["glued", "root"])
    def test_same_tier_updates_re_top_only_what_moved(self, glued):
        """A same-tier update re-tops its component in three ways: a key
        that rises above its whole component becomes the top, a top that
        sinks below a same-tier child hands the top to the node now above
        it, and a key that moves below the top leaves the top alone.  After
        each, the forest validates and every key's record names the top a
        fresh walk up the same-tier parent links finds.  With ``glued`` the
        component hangs below key 1 of tier 0; otherwise its top is the
        root."""
        offsets = [0.5, 0.9, 0.1, 0.7, 0.3, 0.8, 0.2, 0.6]
        tiers = [0 if glued else 1] + [1] * 7
        replay = ReplayStream(offsets)
        st = TierForestBTreap(tiers, 4, rng=replay)
        assert st.comp_of[2].top == 2

        def update(key: int, offset: float) -> int:
            """Updates ``key`` to ``offset`` in tier 1; returns the top before."""
            depth, top = st.base.access(key), st.comp_of[key].top
            replay.queue.append(offset)
            uc = st.update_weight(key, 1)
            assert not replay.queue
            assert type(uc) is UpdateCost and uc.rebuild_writes == 0
            assert st.base.access(key) != depth  # the key passed a node
            assert st.validate() is None
            for k in range(1, st.n + 1):
                cur = k
                while (p := parent_of(st.base, cur)) and st.tier_of(p) == st.tier_of(cur):
                    cur = p
                assert st.comp_of[k].top == cur, k
            return top

        assert update(7, 0.95) == 2  # rises above the top, key 2
        assert st.comp_of[7].top == 7
        assert update(7, 0.05) == 7  # the top sinks below key 2
        assert st.comp_of[7].top == 2
        assert update(5, 0.75) == 2  # rises, but not past key 2
        assert st.comp_of[5].top == 2

    def test_noop_update_leaves_dump_alone(self):
        n = 20
        rng = RandomStream(2)
        offsets = [rng.next_offset() for _ in range(n)]
        replay = ReplayStream(offsets + [offsets[6]])
        st = TierForestBTreap(tiers_of([1.0 / n] * n, 4), 4, rng=replay)
        before = st.dump()
        uc = st.update_weight(7, tier_value(1.0 / n, 4, 4))
        assert not replay.queue
        assert uc.rebuild_writes == 0
        assert st.dump() == before

    def test_weight_raise_never_slows_access(self, stream):
        py = random.Random(4)
        n = 200
        raw = [py.random() ** 4 for _ in range(n)]
        tot = sum(raw)
        st = TierForestBTreap(tiers_of([r / tot for r in raw], 4), 4, rng=stream)
        key = max(range(1, n + 1), key=st.access)
        before = st.access(key)
        st.update_weight(key, tier_value(0.9, 4, 4))
        assert st.tier_of(key) == 0
        assert st.access(key) <= before
        assert st.validate() is None

    def test_store_holds_each_key_once_after_updates(self):
        # retiering drops the records it replaces: the blocks of the
        # component trees, built from the members, hold each key once
        py = random.Random(3)
        n = 120
        raw = [py.random() ** 3 for _ in range(n)]
        tot = sum(raw)
        st = TierForestBTreap(tiers_of([r / tot for r in raw], 4), 4, rng=RandomStream(8))
        for step in range(301):
            if step % 50 == 0:
                reachable = reachable_blocks([BTree(4, comp.members) for comp in st._comps()])
                assert len({id(blk) for blk in reachable}) == len(reachable)
                stored = [k for blk in reachable for k in blk.keys]
                assert sorted(stored) == list(range(1, n + 1))
            k = py.randint(1, n)
            st.update_weight(k, tier_value(2.0 ** -py.uniform(0.1, 20), 4, 4))
        assert st.validate() is None

    def test_io_counters_split_by_phase(self):
        n = 64
        st = TierForestBTreap(tiers_of([1.0 / n] * n, 4), 4, rng=RandomStream(8))
        before = st.access(10)
        uc = st.update_weight(10, tier_value(2.0 ** -40, 4, 4))
        # search touches are the paths before and after the update, summed;
        # rebuild writes are counted apart
        assert UpdateCost._fields == ("search", "rebuild_writes")
        assert uc.search == before + st.access(10)
        assert uc.rebuild_writes > 0  # the tier changed, so components did

    @pytest.mark.parametrize("corrupt, message", [
        ("stale root", "is not the root"),
        ("split neighbours", "same-tier key"),
    ])
    def test_validate_catches_decomposition_drift(self, corrupt, message):
        n = 64  # uniform weights: one tier-0 component
        st = TierForestBTreap(tiers_of([1.0 / n] * n, 4), 4, rng=RandomStream(3))
        assert st.validate() is None
        comp, = st._comps()
        top = comp.top
        child = left_of(st.base, top) or right_of(st.base, top)
        if corrupt == "stale root":
            comp.top = child
            message = f"top key {top} {message} of its component {child}"
        else:
            comp.members.remove(child)
            st.comp_of[child] = Component(st.tier_of(child), child, [child])
            # the child's own children keep the old tree, and key order
            # reaches the smallest of the mismatched pairs first
            k = min(c for c in range(1, n + 1)
                    if c == child or parent_of(st.base, c) == child)
            p = parent_of(st.base, k)
            message = (f"{message} {k} and parent {p} in components "
                       f"{st.comp_of[k].top} and {st.comp_of[p].top}")
        assert st.validate() == message

    def test_path_walk_rejects_a_tier_that_grows_upward(self):
        st = churned_forest()
        top = glued_top(st)
        low = st.comp_of[top].tier
        st.comp_of[parent_of(st.base, top)].tier = low + 1
        msg = re.escape(f"tiers not monotone on the path to {top}: tier {low + 1} above tier {low}")
        with pytest.raises(AssertionError, match=msg):
            st.access(top)
        with pytest.raises(AssertionError, match=msg):  # the removal walk checks it too
            st.update_weight(top, low)

    @pytest.mark.parametrize("gone", ["target", "glue key"])
    def test_path_walk_rejects_a_key_missing_from_its_tree(self, gone):
        st = churned_forest()
        top = glued_top(st)
        key = top if gone == "target" else parent_of(st.base, top)
        st.comp_of[key].members.remove(key)
        with pytest.raises(AssertionError, match=f"key {key} missing from its component$"):
            st.access(top)

    @pytest.mark.parametrize("B", [4, 16])
    @pytest.mark.parametrize("scheme", ["interval-set", "past-ws-crude"])
    def test_driven_access_matches_the_top_down_walk(self, scheme, B, monkeypatch):
        """Under ``run_dynamic``, after every re-tier, the arithmetic path
        counts of the updated key and of a sample of others equal the
        reference's top-down glued path (``FullRepartitionForest.path_pairs``)
        through trees built from the members."""
        py = random.Random(B)
        retiers = []

        class Checked(TierForestBTreap):
            _chain = FullRepartitionForest._chain
            path_pairs = FullRepartitionForest.path_pairs

            def _tree(self, comp):
                return BTree(self.B, comp.members)

            def update_weight(self, key, new_tier):
                retier = new_tier != self.tier_of(key)
                removal = len({blk for blk, _ in self.path_pairs(key)})
                cost = super().update_weight(key, new_tier)
                if retier:
                    retiers.append(key)
                    for k in (key, *(py.randint(1, self.n) for _ in range(4))):
                        want = len({blk for blk, _ in self.path_pairs(k)})
                        assert self.access(k) == want, (len(retiers), k)
                    insertion = len({blk for blk, _ in self.path_pairs(key)})
                    assert cost.search == removal + insertion
                return cost

        monkeypatch.setattr(dynamic, "TierForestBTreap", Checked)
        seq = gen_sequence(TraceSpec("zipf", n=300, m=4_000, seed=B))
        dynamic.run_dynamic(seq, scheme, "tier-forest", B=B, rng=RandomStream(3))
        assert len(retiers) >= 100

    @pytest.mark.parametrize("corrupt", [
        "base heap order", "tree tier", "unsorted members", "foreign tier",
        "foreign component", "stale slice", "lost key",
    ])
    def test_validate_names_drift_after_churn(self, corrupt):
        """Each drift in the component records is named by its own message.
        ``validate`` checks the key total first, then each component in top
        order, so a member moved between components is named by the check
        of whichever of the two comes first."""
        st = churned_forest()
        tier = st.base._tier
        top = glued_top(st)
        own = st.comp_of[top]
        comps = st._comps()

        def moved(same_tier: bool, into_earlier: bool) -> tuple[Component, Component, int]:
            """Move the last member of one component into another of the
            same tier or not, as asked; the destination is the earlier of
            the two by top when ``into_earlier``.  Returns (source,
            destination, key)."""
            for i, a in enumerate(comps):
                for b in comps[i + 1:]:
                    if (a.tier == b.tier) == same_tier:
                        src, dest = (b, a) if into_earlier else (a, b)
                        key = src.members.pop()
                        bisect.insort(dest.members, key)
                        return src, dest, key
            raise AssertionError("no such pair of components")

        if corrupt == "base heap order":
            p = parent_of(st.base, top)
            tier[top] = tier[p] - 1  # top now outranks its parent, and only it
            message = f"base treap: heap order violated between {p} and child {top}"
        elif corrupt == "tree tier":
            own.tier += 1
            message = f"component {top} records tier {tier[top] + 1}, its root has {tier[top]}"
        elif corrupt == "unsorted members":
            comp = next(c for c in comps if len(c.members) >= 2)
            comp.members[0], comp.members[1] = comp.members[1], comp.members[0]
            message = f"component {comp.top} members are not strictly increasing"
        elif corrupt == "foreign tier":
            _, dest, key = moved(same_tier=False, into_earlier=True)
            message = f"component {dest.top} mixes tiers at key {key}"
        elif corrupt == "foreign component":
            src, dest, key = moved(same_tier=True, into_earlier=True)
            message = f"key {key} marked in component {src.top}, listed in component {dest.top}"
        elif corrupt == "stale slice":
            src, _, _ = moved(same_tier=True, into_earlier=False)
            message = f"component {src.top} members differ from its slice of tier {src.tier}'s keys"
        else:  # lost key
            own.members.remove(top)
            message = f"forest holds {st.n - 1} keys, expected {st.n}"
        assert st.validate() == message

    def test_access_only_reads_the_records(self):
        """``access`` keeps no depth memo and writes one record only, the
        ``(key, count)`` of its walk that an update of that key reads: reading
        every key twice gives the same counts, each equal to the distinct
        blocks on the reference's top-down glued path through trees built
        from the members, and leaves the component records and the dump as
        they were."""

        class Walked(TierForestBTreap):
            _chain = FullRepartitionForest._chain
            path_pairs = FullRepartitionForest.path_pairs

            def _tree(self, comp):
                return BTree(self.B, comp.members)

        st = churned_forest(forest=Walked)
        keys = range(1, st.n + 1)
        records = [(id(c), c.tier, c.top, list(c.members)) for c in st._comps()]
        dump = st.dump()
        counts = [st.access(k) for k in keys]
        assert counts == [len({blk for blk, _ in st.path_pairs(k)}) for k in keys]
        assert [st.access(k) for k in keys] == counts
        assert [(id(c), c.tier, c.top, c.members) for c in st._comps()] == records
        assert st.dump() == dump
        assert st.validate() is None

    @pytest.mark.parametrize("scheme", ["interval-set", "past-ws-crude"])
    def test_driven_steps_walk_each_glued_path_once(self, scheme, monkeypatch):
        """Under ``run_dynamic`` the update of the key just accessed takes
        its removal count from that access, so the walks are one per access
        and one per re-tier's insertion path; under the crude scheme each
        row after the served one is of another key and walks for removal."""
        walks = retiers = 0
        rows = []
        real_walk = TierForestBTreap._path_length
        real_retier = TierForestBTreap._retier
        real_step = dynamic.CrudeOracle.step

        def walk(self, key):
            nonlocal walks
            walks += 1
            return real_walk(self, key)

        def retier(self, *args):
            nonlocal retiers
            retiers += 1
            return real_retier(self, *args)

        def step(self, key):
            out = real_step(self, key)
            rows.append(len(out) - 1)  # the served key's row comes first
            return out

        monkeypatch.setattr(TierForestBTreap, "_path_length", walk)
        monkeypatch.setattr(TierForestBTreap, "_retier", retier)
        monkeypatch.setattr(dynamic.CrudeOracle, "step", step)
        seq = gen_sequence(TraceSpec("zipf", n=256, m=3_000, seed=5))
        res = dynamic.run_dynamic(seq, scheme, "tier-forest", B=4, rng=RandomStream(5))
        assert retiers >= 100 and res.update_events >= 1_000
        assert walks == seq.m + retiers + sum(rows)
        if scheme == "past-ws-crude":
            assert sum(rows) >= 1_000
        else:
            assert rows == []

    def test_update_reads_only_the_record_of_the_last_completed_access(self, monkeypatch):
        """The record of ``access(k)`` is spent by the next update, of any key,
        and a later update of ``k`` walks again; an access that raises, on a
        corrupted forest or at a key outside 1..n, leaves no record."""
        st = churned_forest()
        walked = []
        real_walk = st._path_length
        monkeypatch.setattr(st, "_path_length", lambda key: walked.append(key) or real_walk(key))
        k, j = glued_top(st), parent_of(st.base, glued_top(st))

        def update_walks(key: int) -> list[int]:
            """The keys walked by an update of ``key`` that keeps its tier."""
            walked.clear()
            st.update_weight(key, st.tier_of(key))
            return walked

        st.access(k)
        assert update_walks(k) == []
        assert update_walks(k) == [k]
        st.access(k)
        assert update_walks(j) == [j]
        assert update_walks(k) == [k]

        st.access(k)
        above = st.comp_of[parent_of(st.base, st.comp_of[k].top)]
        above_tier = above.tier
        above.tier = st.comp_of[k].tier + 1  # the tier above k's component grows upward
        with pytest.raises(AssertionError, match="tiers not monotone"):
            st.access(k)
        above.tier = above_tier
        assert update_walks(k) == [k]
        st.access(k)
        with pytest.raises(KeyError):
            st.access(st.n + 1)
        assert update_walks(k) == [k]
        assert st.validate() is None

    def test_components_match_the_treap_walk_partition(self):
        """Each top's key-range slice of its tier's keys is the component
        that the reference's DFS over parent links finds."""
        py = random.Random(21)
        for trial in range(200):
            n, B = py.randint(1, 300), py.choice((4, 8, 16))
            hi = py.randint(0, 4)
            if trial % 2:  # runs of one tier, as in segmented profiles
                tiers = []
                while len(tiers) < n:
                    tiers += [py.randint(0, hi)] * py.randint(1, 40)
                tiers = tiers[:n]
            else:
                tiers = [py.randint(0, hi) for _ in range(n)]
            st = TierForestBTreap(tiers, B, rng=RandomStream(trial))
            assert [st.tier_of(k) for k in range(1, n + 1)] == tiers
            tier = st.base._tier
            got = {top: (tier[top], st._members(top)) for top in range(1, n + 1)
                   if not parent_of(st.base, top) or tier[parent_of(st.base, top)] != tier[top]}
            comp = FullRepartitionForest._partition(st)
            want: dict[int, tuple[int, list[int]]] = {}
            for k in range(1, n + 1):
                want.setdefault(comp[k], (tier[comp[k]], []))[1].append(k)
            assert got == want, trial

    @pytest.mark.parametrize("corrupt", ["wrong tier", "out of order", "missing", "empty list"])
    def test_validate_names_drift_in_the_tier_key_lists(self, corrupt):
        st = churned_forest()
        lists = st.keys_of_tier
        t, ks = next((t, ks) for t, ks in sorted(lists.items()) if len(ks) >= 2)
        if corrupt == "empty list":
            # no drift: updates that move a tier's last key away leave its
            # list in place, empty, and the forest valid
            t, ks = min(lists.items(), key=lambda item: len(item[1]))
            other = next(u for u in sorted(lists) if u != t)
            for key in list(ks):
                st.update_weight(key, other)
            assert lists[t] == []
            message = None
        elif corrupt == "wrong tier":
            other = next(u for u in sorted(lists) if u != t)
            key = ks.pop()
            bisect.insort(lists[other], key)
            message = f"key {key} listed in tier {other}, has tier {t}"
        elif corrupt == "out of order":
            ks[0], ks[1] = ks[1], ks[0]
            message = f"tier {t} key list is not strictly increasing"
        else:
            ks.pop()
            message = f"tier lists hold {st.n - 1} keys, expected {st.n}"
        assert st.validate() == message

    @pytest.mark.parametrize("n, B, updates, seed, digest", [
        (200, 4, 300, 11, "754bd0a9de2bce3e618416a1a8bce249a464453df871909a6576d35ce5d589b1"),
        (1000, 16, 2000, 5, "af03037dc37ffbba8e5caed6ad1867f41a31901b01a1a0baa381b9ed7cf2effa"),
    ], ids=["n200-B4", "n1000-B16"])
    def test_dump_digest_is_pinned(self, n, B, updates, seed, digest):
        """The canonical form of a churned forest does not move: the tiers,
        the component trees' packing, the glue order and the dump format all
        feed these sha256 literals."""
        dump = churned_forest(n, B, updates, seed).dump()
        assert hashlib.sha256(dump.encode()).hexdigest() == digest

    def test_dump_is_deterministic(self):
        n = 40
        mk = lambda: TierForestBTreap(
            tiers_of([2.0 ** -(1 + (k % 9)) / 4 for k in range(n)], 4), 4,
            rng=ReplayStream((k * 0.61803398875) % 1.0 or 0.5 for k in range(1, n + 1)))
        assert mk().dump() == mk().dump()


class TestDetScoreForest:
    def test_bucket_placement(self):
        B = 4
        w = [0.5, 4.0 ** -1, 4.0 ** -2, 4.0 ** -4, 4.0 ** -8, 4.0 ** -16]
        st = DetScoreForest(tiers_of(w, B, DetScoreForest), B)
        assert st.tree_index[1:] == [0, 0, 1, 2, 3, 4]
        assert st.validate() is None

    def test_access_cost_geometric_in_bucket_index(self, py_rng):
        raw = [py_rng.random() ** 5 for _ in range(300)]
        tot = sum(raw)
        st = DetScoreForest(tiers_of([r / tot for r in raw], 4, DetScoreForest), 4)
        for k in range(1, 301):
            assert st.access(k) <= 2 ** (st.tree_index[k] + 2)

    def test_update_moves_between_buckets(self):
        st = DetScoreForest(tiers_of([0.5, 0.25, 4.0 ** -4], 4, DetScoreForest), 4)
        assert st.update_weight(1, tier_value(0.4, 4, 2)) == 0  # same bucket, free
        touched = st.update_weight(1, tier_value(4.0 ** -16, 4, 2))
        assert touched > 0
        assert st.tree_index[1] == 4
        assert st.access(1) >= 1
        assert st.validate() is None

    @pytest.mark.parametrize("seed, n, B", [(0, 30, 4), (1, 300, 4), (2, 500, 16)])
    def test_tier_update_matches_weight_update(self, seed, n, B):
        """Taking the bucket index keeps every return, bucket and block equal
        to mapping the weight inside the forest."""
        py = random.Random(seed)

        def weight() -> float:  # log_B(1/w) = 2^u spans buckets 0..4
            return float(B) ** -(2.0 ** py.uniform(-0.5, 4.5))

        # one start bucket, as in the driver, so updates open the others
        tiers = tiers_of([1.0 / (n + 1) ** 2] * n, B, DetScoreForest)
        st = DetScoreForest(tiers, B)
        ref = WeightDetScoreForest(tiers, B)
        moves = 0
        touches = [0, 0]  # summed returned costs of st and ref
        for step in range(400):
            k, w_new = py.randint(1, n), weight()
            idx = tier_value(w_new, B, 2)
            moves += idx != st.tree_index[k]
            got, want = st.update_weight(k, idx), ref.update_weight(k, w_new)
            assert got == want, step
            touches[0] += got
            touches[1] += want
            assert st.tree_index == ref.tree_index, step
            assert list(st.trees) == list(ref.trees), step
            assert ({i: tree_dump(t.root) for i, t in st.trees.items()}
                    == {i: tree_dump(t.root) for i, t in ref.trees.items()}), step
            assert touches[0] == touches[1], step
        assert moves >= 200
        assert st.validate() is None

    def test_validate_names_a_corrupt_tree(self):
        py = random.Random(8)
        n, B = 300, 4
        st = DetScoreForest(tiers_of([1.0 / (n + 1) ** 2] * n, B, DetScoreForest), B)
        for _ in range(400):
            st.update_weight(py.randint(1, n),
                             tier_value(float(B) ** -(2.0 ** py.uniform(-0.5, 4.5)), B, 2))
        assert st.validate() is None
        i, tree = next((i, t) for i, t in st.trees.items() if i and len(t.root.keys) >= 2)
        tree.root.keys.reverse()
        assert st.validate() == f"tree {i}: block {tree.root.keys} keys not strictly increasing"

    def test_access_counts_the_union_of_probed_paths(self):
        """After churn, each access equals the distinct blocks on the search
        paths of the non-empty trees probed in index order up to the key's."""
        py = random.Random(2)
        n, B = 400, 4
        st = DetScoreForest(tiers_of([1.0 / (n + 1) ** 2] * n, B, DetScoreForest), B)
        for _ in range(600):
            st.update_weight(py.randint(1, n),
                             tier_value(float(B) ** -(2.0 ** py.uniform(-0.5, 4.5)), B, 2))
        probed = collections.Counter()
        for k in range(1, n + 1):
            seen: set[int] = set()
            for i, tree in st.trees.items():
                if len(tree):
                    found, path = tree.search(k)
                    seen.update(map(id, path))
                    probed[k] += 1
                    if found:
                        break
            assert st.access(k) == len(seen), k
        assert max(probed.values()) >= 3

    def test_validate_names_a_tier_that_is_not_an_int(self):
        st = DetScoreForest([0, 1, 0, 2], 4)
        st.tree_index[2] = 1.0  # equal to its tree's index, but a float
        assert st.validate() == "key 2 has tier 1.0, not an int"
        ts = TierForestBTreap([0, 1, 0, 2], 4, rng=RandomStream(0))
        ts.base._tier[4] = 2.0
        assert ts.validate() == "key 4 has tier 2.0, not an int"

    def test_validate_catches_unsorted_tree_order(self):
        # access probes trees in dict order, so that order must stay ascending
        st = DetScoreForest([0, 1, 2, 4], 4)
        assert list(st.trees) == [0, 1, 2, 4]
        assert st.validate() is None
        st.trees = dict(reversed(st.trees.items()))
        assert "ascending" in st.validate()


def recency(st: RankForest) -> list[int]:
    """All keys, most recent first: each tree's list reversed, front tree first."""
    return [k for i in range(1, st.S + 1) for k in reversed(st.order[i])]


def tree_of(st: RankForest) -> list[int]:
    """Each key's tree index, read from the recency lists (slot 0 unused)."""
    out = [0] * (st.n + 1)
    for i, keys in st.order.items():
        for k in keys:
            out[k] = i
    return out


class TestRankForest:
    def test_tree_count_is_minimal(self):
        assert RankForest(16, 4).S == 1
        assert RankForest(17, 4).S == 2
        assert RankForest(256, 4).S == 2
        assert RankForest(257, 4).S == 3
        assert RankForest(65_536, 16).S == 2
        assert RankForest(65_537, 16).S == 3

    def test_initial_rank_equals_key(self):
        st = RankForest(100, 4)
        assert recency(st) == list(range(1, 101))

    def test_second_access_stays_in_the_front_tree(self):
        st = RankForest(600, 4)
        assert 590 in st.order[2]  # initial fill puts ranks 513.. in tree 2
        a1 = st.access(590)
        a2 = st.access(590)
        assert 590 in st.order[1] and st.trees[1].search(590)[0]
        assert a2 == 5  # one root-to-leaf path in the front tree
        assert a2 <= a1

    def test_overflow_cascades_and_holds_invariants(self):
        py = random.Random(6)
        n = 600  # tree 1 caps at 2 * 4^4 = 512, so promotions must cascade
        st = RankForest(n, 4)
        demoted = 0
        for _ in range(1500):
            before = set(st.order[1])
            st.access(py.randint(1, n))
            assert st.check_invariant() is None
            demoted += len(before & st.order[2].keys())
        assert demoted > 0
        assert st.validate() is None

    def test_block_repeat_trace_is_cheap(self):
        n, B = 512, 4
        seq = gen_sequence(TraceSpec("block-repeat", n=n, m=4096))
        st = RankForest(n, B)
        total = sum(st.access(x) for x in seq.items)
        assert st.validate() is None
        assert total / seq.m <= 16.0

    def test_round_robin_amortized_bound(self):
        n, B = 1024, 16
        seq = gen_sequence(TraceSpec("round-robin", n=n, m=3 * n))
        st = RankForest(n, B)
        total = sum(st.access(x) for x in seq.items)
        assert total / seq.m <= 8.0 * (1.0 + math.log(n, B))

    def test_degenerate_single_tree_universe(self):
        st = RankForest(1024, 16)  # everything fits in tree 1
        for k in (1, 512, 1024):
            assert st.access(k) >= 1
        assert st.check_invariant() is None

    def test_recency_order_follows_move_to_front(self):
        """Every access of a long random trace leaves the trees' recency
        lists equal to a literal move-to-front list and the forest valid."""
        n = 64
        st = RankForest(n, 4)
        py = random.Random(1)
        front = list(range(1, n + 1))
        for i in range(1, 2001):
            key = py.randint(1, n)
            st.access(key)
            front.remove(key)
            front.insert(0, key)
            assert recency(st) == front, i
            assert st.validate() is None, i

    def test_one_access_cascades_through_two_trees(self):
        """At B = 4 tree 2 holds up to 2 * 4^8 = 131,072 keys, so n = 140,000
        starts with trees of 512, 131,072 and 8,416 keys and an empty tree 4.
        Promoting one tree-3 key overfills tree 1, which sheds its 256 least
        recent keys into tree 2; tree 2 then sheds its 65,536 least recent
        into tree 3.  Each tree ends up holding its run of a literal
        move-to-front list."""
        n = 140_000
        st = RankForest(n, 4)
        assert st.S == 4
        assert [len(st.trees[i]) for i in range(1, 5)] == [512, 131_072, 8_416, 0]
        key = n  # the least recent key, in tree 3
        # the union of the probed, deleted and inserted blocks, as
        # StampHeapRankForest counts it for the same access
        assert st.access(key) == 90_487
        front = [key, *range(1, n)]
        assert recency(st) == front
        sizes = [257, 65_792, 73_951, 0]  # 513 - 256, 131_072 + 256 - 65_536, 8_415 + 65_536
        start = 0
        for i, size in enumerate(sizes, start=1):
            assert st.trees[i].keys_inorder() == sorted(front[start:start + size]), i
            start += size
        assert st.validate() is None

    @pytest.mark.parametrize("corrupt", ["key moved between lists", "key dropped from list",
                                         "key dropped from tree", "key in two trees",
                                         "key lost"])
    def test_validate_catches_state_drift(self, corrupt):
        st = RankForest(600, 4)  # ranks 513.. start in tree 2
        for k in (5, 9, 590):
            st.access(k)
        assert st.validate() is None
        if corrupt == "key moved between lists":
            del st.order[1][9]
            st.order[2][9] = None
            message = "tree 1: its recency list does not hold exactly its keys"
        elif corrupt == "key dropped from list":
            del st.order[2][600]
            message = "tree 2: its recency list does not hold exactly its keys"
        elif corrupt == "key dropped from tree":  # left on its recency list
            st.trees[2].delete(600)
            message = "tree 2: its recency list does not hold exactly its keys"
        elif corrupt == "key in two trees":  # each list holds its tree's keys
            st.trees[2].insert(9)
            st.order[2][9] = None
            message = "key 9 marked in tree 2, stored in tree 1"
        else:  # from its tree and from its list
            st.trees[2].delete(600)
            del st.order[2][600]
            message = "forest holds 599 keys, expected 600"
        assert st.validate() == message

    @pytest.mark.parametrize("corrupt", ["size band", "rank cap", "empty front tree"])
    def test_check_invariant_catches_drift(self, corrupt):
        py = random.Random(12)
        n = 1100  # at B = 4, tree 1 keeps 16..512 items and ranks up to 1024
        st = RankForest(n, 4)
        for _ in range(300):
            st.access(py.randint(1, n))
        assert st.validate() is None

        def move(keys, src: int, dst: int) -> None:
            for k in list(keys):
                st.trees[src].delete(k)
                st.trees[dst].insert(k)

        if corrupt == "size band":
            move(st.trees[1].keys_inorder()[15:], 1, 2)
            message = "tree 1 has 15 items, band [16, 512]"
        elif corrupt == "empty front tree":  # the access probe relies on none
            move(st.trees[1].keys_inorder(), 1, 2)
            message = "tree 2 holds keys after an empty tree"
        else:  # tree 1 is now the last non-empty tree, so only its rank cap applies
            for i in range(2, st.S + 1):
                move(st.trees[i].keys_inorder(), i, 1)
            message = f"tree 1 holds rank {n}, cap 1024"
        assert st.check_invariant() == message

    @pytest.mark.parametrize("family, n, m, B", [
        ("uniform", 600, 6000, 4),  # cascades into tree 2
        ("zipf", 1024, 8000, 4),
        ("uniform", 64, 5000, 4),  # every key stays in tree 1
        ("block-repeat", 5000, 10_000, 4),
        ("uniform", 1, 200, 4),
        ("uniform", 17, 2000, 4),
    ], ids=lambda v: str(v))
    def test_matches_stamp_heap_forest(self, family, n, m, B):
        seq = gen_sequence(TraceSpec(family, n=n, m=m, seed=4))
        st = RankForest(n, B)
        ref = StampHeapRankForest(n, B)
        touches = [0, 0]  # summed returned costs of st and ref

        def same_state() -> None:
            assert recency(st) == sorted(range(1, n + 1), key=ref.rank)
            for i in range(1, st.S + 1):
                assert st.trees[i].keys_inorder() == ref.trees[i].keys_inorder()
            assert touches[0] == touches[1]
            assert st.validate() is None
            assert ref.validate() is None

        for step, x in enumerate(seq.items, start=1):
            got, want = st.access(x), ref.access(x)
            assert got == want, step
            touches[0] += got
            touches[1] += want
            assert tree_of(st) == ref.tree_of, step
            if step % 500 == 0:
                same_state()
        same_state()

    def test_out_of_range_key(self):
        st = RankForest(8, 4)
        with pytest.raises(KeyError):
            st.access(9)
        with pytest.raises(ConfigError):
            RankForest(0, 4)
