"""Block-resident search structures with exact I/O accounting.

A ``Block`` holds at most ``B - 1`` keys and links to at most ``B`` child
blocks.  Each forest operation returns the number of distinct blocks it
touches.

* ``BTree`` -- a plain B-tree (bulk build, search, insert, delete) whose
  operations return the blocks they touch; its blocks are the only record
  of its keys.
* ``bulk_depth`` and ``bulk_written`` -- the search-path length to each
  rank, and the blocks written, of ``BTree``'s bulk build, by arithmetic
  on the key count and ``B`` alone; ``bulk_written`` is the one count of
  a bulk build's blocks.
* ``TierForestBTreap`` -- a treap under the doubly-logarithmic block rule,
  decomposed into maximal same-tier components, each counted as a
  bulk-built B-tree glued below the block holding its root's parent.  A
  component is its sorted members; its blocks are built only for ``dump``.
  An update returns ``UpdateCost(search, rebuild_writes)``, the pair that
  ``dynamic.run_dynamic`` adds up; an access records the count of its walk,
  so an update of the same key right after it does not walk that path again.
  A tier change re-groups only the components around the nodes the key's
  rotations passed, which it reads from the rotation count (the spines
  between the key and its old children after a rise, the key's lowest
  ancestors after a sink), and a same-tier update re-walks its component's
  top only when the top itself sank.
* ``DetScoreForest`` -- deterministic score bucketing into doubly
  exponentially growing trees, probed smallest-first.
* ``RankForest`` -- a self-organizing forest keyed by recency rank.

Every structure takes the fanout ``B`` as a plain int; ``BTree``,
``TierForestBTreap`` and ``RankForest`` reject ``B < 4``.  The two score
forests take per-key int tiers, on build and on update, never weights (a
build refuses a tier that is not an int): each names the outer base of its
tier rule as ``OUTER_BASE`` (the inner base is ``B``), and the caller maps
a weight to its tier (``dynamic.run_dynamic`` does).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from functools import cache, partial
from operator import lt
from typing import NamedTuple, Sequence

from .errors import ConfigError, DuplicateKeyError
from .priorities import RandomStream
from .treap import Treap

__all__ = [
    "Block",
    "BTree",
    "bulk_depth",
    "bulk_written",
    "UpdateCost",
    "Component",
    "TierForestBTreap",
    "DetScoreForest",
    "RankForest",
]


class Block:
    __slots__ = ("keys", "children")

    def __init__(self, keys: list[int], children: list[Block]):
        self.keys = keys
        self.children = children  # [] for leaves, else len(keys)+1 blocks


class BTree:
    """B-tree of fanout ``B`` whose blocks link to their children.

    Blocks hold at most ``B - 1`` keys; non-root blocks keep at least
    ``ceil(B/2) - 1`` after deletions.  The blocks are the only record of
    the keys the tree holds, and ``size`` counts them.
    """

    def __init__(self, B: int, keys: Sequence[int] = ()):
        if B < 4:
            raise ConfigError(f"block fanout must be >= 4, got {B}")
        self.B = B
        self.max_keys = B - 1
        self.min_keys = (B + 1) // 2 - 1
        ks = list(keys)
        # one C-level pass shows the usual input strictly increasing;
        # anything else is sorted and checked for a repeat
        if not all(map(lt, ks, ks[1:])):
            ks.sort()
            if len(set(ks)) != len(ks):
                raise DuplicateKeyError("bulk keys contain duplicates")
        self.size = len(ks)
        self.root = self._bulk(ks) if ks else Block([], [])

    def __len__(self) -> int:
        return self.size

    # -- bulk construction -------------------------------------------------

    def _bulk(self, keys: list[int]) -> Block:
        """Minimal uniform-depth packing of sorted keys, which the result
        owns; returns its root (``bulk_written`` counts its blocks)."""
        B = self.B
        if len(keys) < B:
            return Block(keys, [])
        fanout, base, extra = _split(len(keys), B)
        sizes = [base + 1] * extra + [base] * (fanout - extra)
        node_keys: list[int] = []
        children: list[Block] = []
        leaves = len(keys) < B * B  # the children are leaves, built here
        idx = 0
        for j, size in enumerate(sizes):
            chunk = keys[idx : idx + size]
            children.append(Block(chunk, []) if leaves else self._bulk(chunk))
            idx += size
            if j < fanout - 1:
                node_keys.append(keys[idx])
                idx += 1
        return Block(node_keys, children)

    # -- queries -----------------------------------------------------------

    def search(self, key: int) -> tuple[bool, list[Block]]:
        """Descend toward ``key``; returns (found, root-to-end block path)."""
        path: list[Block] = []
        blk = self.root
        while True:
            path.append(blk)
            i = bisect_left(blk.keys, key)
            if i < len(blk.keys) and blk.keys[i] == key:
                return True, path
            if not blk.children:
                return False, path
            blk = blk.children[i]

    def keys_inorder(self) -> list[int]:
        out: list[int] = []

        def walk(blk: Block) -> None:
            if not blk.children:
                out.extend(blk.keys)
                return
            for i, k in enumerate(blk.keys):
                walk(blk.children[i])
                out.append(k)
            walk(blk.children[-1])

        walk(self.root)
        return out

    # -- updates -----------------------------------------------------------

    def insert(self, key: int) -> list[Block]:
        """Insert ``key``; returns the blocks touched: the descent path,
        extended in place by the blocks splits make."""
        path: list[Block] = []
        blk = self.root
        while True:
            path.append(blk)
            i = bisect_left(blk.keys, key)
            if i < len(blk.keys) and blk.keys[i] == key:
                raise DuplicateKeyError(f"key {key} already present")
            if not blk.children:
                break
            blk = blk.children[i]
        blk.keys.insert(i, key)
        self.size += 1
        # the splits append to ``path`` but read it only below its descent
        pos = len(path) - 1
        while len(blk.keys) > self.max_keys:
            mid = len(blk.keys) // 2
            sep = blk.keys[mid]
            right = Block(blk.keys[mid + 1 :], blk.children[mid + 1 :])
            blk.keys = blk.keys[:mid]
            blk.children = blk.children[: mid + 1]
            path.append(right)
            if pos == 0:
                self.root = Block([sep], [blk, right])
                path.append(self.root)
                break
            parent = path[pos - 1]
            j = bisect_left(parent.keys, sep)
            parent.keys.insert(j, sep)
            parent.children.insert(j + 1, right)
            blk = parent
            pos -= 1
        return path

    def delete(self, key: int) -> list[Block]:
        """Delete ``key``; returns the blocks touched that are still in the
        tree: the descent path, extended in place by the blocks rebalances
        touch.  A block can be listed twice."""
        path: list[Block] = []
        blk = self.root
        while True:
            path.append(blk)
            i = bisect_left(blk.keys, key)
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
        # the root never empties without a merge below it
        if len(path) == 1 or len(path[-1].keys) >= self.min_keys:
            return path
        gone: list[Block] = []  # blocks merged away or collapsed
        # the rebalances append to ``path`` but read it only below its descent
        pos = len(path) - 1
        while pos > 0:
            cur = path[pos]
            if len(cur.keys) >= self.min_keys:
                break
            parent = path[pos - 1]
            ci = parent.children.index(cur)
            if ci > 0 and len(parent.children[ci - 1].keys) > self.min_keys:
                left = parent.children[ci - 1]
                path.append(left)
                cur.keys.insert(0, parent.keys[ci - 1])
                parent.keys[ci - 1] = left.keys.pop()
                if left.children:
                    cur.children.insert(0, left.children.pop())
                break
            if ci < len(parent.children) - 1 and len(parent.children[ci + 1].keys) > self.min_keys:
                right = parent.children[ci + 1]
                path.append(right)
                cur.keys.append(parent.keys[ci])
                parent.keys[ci] = right.keys.pop(0)
                if right.children:
                    cur.children.append(right.children.pop(0))
                break
            # merge with a sibling and recurse on the parent
            li = ci - 1 if ci > 0 else ci
            left, right = parent.children[li], parent.children[li + 1]
            path.append(left)
            path.append(right)
            left.keys.append(parent.keys.pop(li))
            left.keys.extend(right.keys)
            left.children.extend(right.children)
            parent.children.pop(li + 1)
            gone.append(right)
            pos -= 1
        if not self.root.keys and self.root.children:
            gone.append(self.root)
            self.root = self.root.children[0]
        return [b for b in path if b not in gone] if gone else path

    # -- validation ---------------------------------------------------------

    def validate(self) -> str | None:
        """None, or the first drift found; blocks are named by their keys."""
        leaf_depths: set[int] = set()
        count = 0
        stack: list[tuple[Block, int, float, float]] = [(self.root, 1, -math.inf, math.inf)]
        while stack:
            blk, depth, lo, hi = stack.pop()
            ks = blk.keys
            count += len(ks)
            if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
                return f"block {ks} keys not strictly increasing"
            if ks and not (lo < ks[0] and ks[-1] < hi):
                return f"block {ks} violates key range ({lo}, {hi})"
            if len(ks) > self.max_keys:
                return f"block {ks} overfull ({len(ks)} keys)"
            if blk is not self.root and len(ks) < self.min_keys:
                return f"block {ks} underfull ({len(ks)} keys)"
            if blk.children:
                if len(blk.children) != len(ks) + 1:
                    return f"block {ks} has {len(blk.children)} children for {len(ks)} keys"
                bounds = [lo] + list(ks) + [hi]
                for i, child in enumerate(blk.children):
                    stack.append((child, depth + 1, bounds[i], bounds[i + 1]))
            else:
                leaf_depths.add(depth)
        if len(leaf_depths) > 1:
            return f"leaves at mixed depths {sorted(leaf_depths)}"
        if count != self.size:
            return f"tree holds {count} keys, size says {self.size}"
        return None


def _split(size: int, B: int) -> tuple[int, int, int]:
    """``BTree._bulk``'s root split of ``size >= B`` sorted keys: (fanout,
    base, extra).  The first ``extra`` children take ``base + 1`` keys, the
    rest ``base``, and one separator key stands between neighbours."""
    max_keys = B - 1
    child_cap = max_keys
    while child_cap * B + max_keys < size:
        child_cap = child_cap * B + max_keys
    fanout = -((size + 1) // -(child_cap + 1))
    base, extra = divmod(size - (fanout - 1), fanout)
    return fanout, base, extra


def bulk_depth(size: int, B: int, rank: int) -> int:
    """The blocks on the search path to the key of 0-based ``rank`` in a
    bulk-built ``BTree`` of ``size`` keys: the root is 1, and the path ends
    at the block where the key is a separator or a leaf key.  Each level
    does ``_split``'s arithmetic inline: ``power``, the largest power of
    ``B`` at most ``size``, is the child capacity plus one, and a child
    that is split in turn (``B`` keys or more) holds fewer than ``power``
    keys and at least ``power / B``, so the power drops by a factor of
    ``B`` at each level."""
    power = B
    while power * B <= size:
        power *= B
    depth = 1
    while size >= B:
        fanout = -((size + 1) // -power)
        base, extra = divmod(size - (fanout - 1), fanout)
        span = extra * (base + 2)  # the larger children, each with the separator after it
        if rank < span:
            size = base + 1
            rank %= base + 2
        else:
            size = base
            rank = (rank - span) % (base + 1)
        if rank == size:  # the separator after the child
            return depth
        depth += 1
        power //= B
    return depth


@cache
def bulk_written(size: int, B: int) -> int:
    """The blocks a ``BTree`` bulk build of ``size`` keys writes (an empty
    build writes its empty root); memoised, so its recursion runs once per
    distinct (size, B)."""
    if size < B:
        return 1
    fanout, base, extra = _split(size, B)
    return (1 + extra * bulk_written(base + 1, B)
            + (fanout - extra) * bulk_written(base, B))


class UpdateCost(NamedTuple):
    """The counted cost of one weight update: block touches of its searches
    (the path walked before the update plus the path after it) and the
    blocks its rebuilds write."""

    search: int
    rebuild_writes: int


# builds an ``UpdateCost`` from a (search, rebuild_writes) pair without the
# named tuple's Python-level ``__new__``
_update_cost = partial(tuple.__new__, UpdateCost)


class Component:
    """One tier-forest component: its ``tier``, its ``top`` (its root in the
    base treap) and its sorted ``members``, which never change."""

    __slots__ = ("tier", "top", "members")

    def __init__(self, tier: int, top: int, members: list[int]):
        self.tier = tier
        self.top = top
        self.members = members


class TierForestBTreap:
    """Block-tree over a score-tiered treap.

    The base treap orders keys by their tiers, ``tiers[k-1]`` for key ``k``;
    tiers never fall going down the treap, so maximal same-tier regions form a
    forest of components.  The component topped by g is exactly the keys of
    g's tier inside g's subtree: every node between g and such a key has a
    tier between theirs.  All of 1..n are present, so g's subtree is the key
    range from the end of its left spine to the end of its right spine, and
    the component is one slice of ``keys_of_tier[tier]``, the sorted keys of
    that tier (a tier's list stays, empty, once an update moves its last key
    away).  Each component stands for one bulk-built B-tree of its
    members, glued (conceptually) below the block containing its top's
    treap parent; ``comp_of[k]`` is the ``Component`` record of ``k``'s
    component.  Rebuild writes are counted apart from search touches.

    A component tree is never edited, only replaced by a bulk build (the
    forest is uniquely represented, like Golovin's B-treaps), and a bulk
    build's packing depends only on the key count and ``B``.  So the forest
    builds no blocks: it counts a search path with ``bulk_depth`` at the
    key's rank among the members, and a rebuild with ``bulk_written``.
    ``dump`` builds each component's ``BTree`` from its members.

    ``_walked`` is the one record an ``access`` writes: ``(key, count)`` of
    the last access that completed.  ``update_weight``, the only method that
    changes the forest, clears it on entry and takes the count as its removal
    path when the keys match, so a record never outlives a change.

    A weight update re-prioritizes one key of the base treap, and its
    rotations re-hang only the key, the nodes it passes and the children
    between them.  ``Treap.update_priority`` returns how many nodes it
    passed, and a tier change moves the key one way, so ``_retier`` reads
    the passed nodes in that many steps after the update, with no ancestor
    set.  Only the components holding such a node, or gaining one from
    below, are re-grouped from their new tops: a group equal to an old
    component (same tier, same members) keeps its record, every other group
    gets a new record and counts a bulk build, and an old record that no
    ``comp_of`` entry names any more is simply dropped.  All other
    components keep their members, tier and top.  A same-tier update keeps
    every component's members; ``_refresh_root`` moves its component's top
    to the key when it rose above the top, and walks up for a new top only
    when the key was the top and sank.

    ``rng`` draws the base treap's offsets: n on build, then one per update,
    the later ones through one ``rng.draws()`` iterator.
    """

    OUTER_BASE = 4  # the tier rule: floor(log4 log_B (1/w)), clamped at 0

    def __init__(self, tiers: Sequence[int], B: int, rng: RandomStream):
        if B < 4:
            raise ConfigError(f"block fanout must be >= 4, got {B}")
        err = _non_int_tier(tiers)
        if err:
            raise ConfigError(err)
        self.B = B
        self.n = len(tiers)
        self.base = Treap.build_arrays(tiers, rng.offsets(self.n))
        self._draws = rng.draws()  # one offset per update, continuing the build's
        self.keys_of_tier: dict[int, list[int]] = {}
        for k, t in enumerate(tiers, start=1):
            self.keys_of_tier.setdefault(t, []).append(k)
        self.comp_of: list[Component | None] = [None] * (self.n + 1)  # slot 0 unused
        self._walked: tuple[int, int] | None = None  # (key, count) of the last access
        parent, tier = self.base._parent, self.base._tier
        for k in range(1, self.n + 1):
            p = parent[k]
            if not p or tier[p] != tier[k]:
                self._new_component(k, self._members(k))

    # -- component decomposition -------------------------------------------

    def tier_of(self, key: int) -> int:
        return self.base._tier[key]

    def _members(self, top: int) -> list[int]:
        """The sorted members of the component that ``top`` tops: the keys
        of its tier between the ends of its left and right spines, which
        bound its subtree's key range."""
        left, right = self.base._left, self.base._right
        lo = hi = top
        while left[lo]:
            lo = left[lo]
        while right[hi]:
            hi = right[hi]
        ks = self.keys_of_tier[self.base._tier[top]]
        return ks[bisect_left(ks, lo):bisect_right(ks, hi)]

    def _new_component(self, top: int, members: list[int]) -> int:
        """Record one component; returns the blocks its bulk build writes."""
        comp = Component(self.base._tier[top], top, members)
        comp_of = self.comp_of
        for k in members:
            comp_of[k] = comp
        return bulk_written(len(members), self.B)

    def _retier(self, key: int, rot: int, old_kids: tuple[int, int], rose: bool) -> int:
        """Re-group the components that ``key``'s tier change can alter.

        ``rot`` is the number of nodes the base treap update passed,
        ``old_kids`` are ``key``'s two child slots before it (0 when empty),
        and ``rose`` says whether its tier fell; ``keys_of_tier`` already
        lists ``key`` under its new tier.  The base treap's update reaches the
        tree that rotating ``key`` past each node it passes would, and each
        such rotation re-hangs ``key``, the node it passes and one child
        between them; the argument below reads only the trees before and
        after the update, not how the update got there.  So every node whose
        parent changed is ``key``, a passed node, or a child of ``key`` before
        or after; ``key``'s children are also the only nodes whose parent
        changed tier.  A tier change moves ``key``'s priority strictly one
        way, so the passed nodes are its lowest ``rot`` ancestors before a
        rise, which the rise hangs on the right spine of its new left subtree
        and the left spine of its new right subtree above its old children,
        and its lowest ``rot`` ancestors after a sink; both are read here
        after the update, in ``rot`` steps.  A component that holds none of
        these nodes, and that none of them now hangs below in its tier, keeps
        its members and top.  Only a moved node changes its parent, its
        parent's tier or its own tier, so no other member of a dirty
        component gains or loses top status: the new tops are among the
        moved nodes and the dirty components' old tops, and each new group is
        ``_members`` of its top.  Returns the blocks written for rebuilt
        components.
        """
        left, right = self.base._left, self.base._right
        parent, tier = self.base._parent, self.base._tier
        comp_of = self.comp_of
        moved = {key, left[key], right[key], *old_kids}
        if rose:
            x = left[key]
            while x != old_kids[0]:
                moved.add(x)
                x = right[x]
            x = right[key]
            while x != old_kids[1]:
                moved.add(x)
                x = left[x]
        else:
            x = key
            for _ in range(rot):
                x = parent[x]
                moved.add(x)
        moved.discard(0)
        dirty = set()
        for x in moved:
            dirty.add(comp_of[x])
            p = parent[x]
            if p and tier[p] == tier[x]:
                dirty.add(comp_of[p])
        moved.update([comp.top for comp in dirty])  # with the old tops, every candidate top
        written = 0
        # the groups are disjoint, so no group's records overwrite another's
        # top: comp_of still holds each group's old record whatever the
        # order, and the written count is a sum
        for top in moved:
            p = parent[top]
            if p and tier[p] == tier[top]:
                continue
            members = self._members(top)
            comp = comp_of[top]
            if comp.tier != tier[top] or comp.members != members:
                written += self._new_component(top, members)
        return written

    def _refresh_root(self, key: int) -> None:
        """Re-top ``key``'s component after same-tier rotations: ``key`` is
        the top when it rose above every node of its tier, and the top is
        walked up from ``key`` only when ``key`` was the top and sank below
        a same-tier node; any other move leaves the top in place."""
        parent, tier = self.base._parent, self.base._tier
        comp = self.comp_of[key]
        p = parent[key]
        if not p or tier[p] != tier[key]:
            comp.top = key
        elif comp.top == key:
            cur = p
            while parent[cur] and tier[parent[cur]] == tier[cur]:
                cur = parent[cur]
            comp.top = cur

    # -- access -------------------------------------------------------------

    def _path_length(self, key: int) -> int:
        """The number of blocks on the glued search path to ``key``, walked
        upward: each component's tree is searched for ``key`` or for the
        treap parent of the top of the component below, and component tiers
        never grow on the way up.  A top's treap parent has a strictly
        smaller tier, so each tree lies on the path at most once and no
        block repeats: the count is the sum of the search depths, each
        ``bulk_depth`` of the searched key's rank among its component's
        members."""
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
            rank = bisect_left(members, target)
            if rank == len(members) or members[rank] != target:
                raise AssertionError(f"key {target} missing from its component")
            size = len(members)
            count += 1 if size < B else bulk_depth(size, B, rank)  # one block: depth 1
            below = comp.tier
            target = parent[comp.top]
            if not target:
                return count
            comp = comp_of[target]

    def access(self, key: int) -> int:
        """The number of distinct blocks on the path to ``key``.  Its one
        write is the record ``_walked = (key, count)``, cleared first and set
        only once the walk returns, so a walk that raises leaves no record."""
        self._walked = None
        if not 1 <= key <= self.n:
            raise KeyError(key)
        count = self._path_length(key)
        self._walked = (key, count)
        return count

    # -- updates ------------------------------------------------------------

    def update_weight(self, key: int, new_tier: int) -> UpdateCost:
        """Re-prioritize one item at its new score's tier; returns
        ``(search, rebuild_writes)``: the glued paths to ``key`` before and
        after the update, summed, and the blocks written for rebuilt
        components.  The path before is the count of the ``access`` just
        before, recorded in ``_walked``, when that access was of ``key``, and
        is walked otherwise; the record is spent here whatever the key.  A
        tier change hands ``_retier`` the rotation count that
        ``update_priority`` returns, ``key``'s old children and the direction
        of the move, from which it reads the passed nodes; a same-tier update
        that passed a node calls ``_refresh_root``, which re-walks the top
        only when ``key`` was the top and sank."""
        walked, self._walked = self._walked, None
        if not 1 <= key <= self.n:
            raise KeyError(key)
        removal = walked[1] if walked and walked[0] == key else self._path_length(key)
        base = self.base
        old_tier = base._tier[key]
        if new_tier == old_tier:
            # key rotates only past nodes of its own tier: its component
            # keeps its members and the treap parent of its top, so the glued
            # path to key is the one walked for removal
            if base.update_priority(key, new_tier, next(self._draws)):
                self._refresh_root(key)
            return _update_cost((removal + removal, 0))
        old_kids = (base._left[key], base._right[key])
        rot = base.update_priority(key, new_tier, next(self._draws))
        ks = self.keys_of_tier[old_tier]
        del ks[bisect_left(ks, key)]
        insort(self.keys_of_tier.setdefault(new_tier, []), key)
        written = self._retier(key, rot, old_kids, new_tier < old_tier)
        return _update_cost((removal + self._path_length(key), written))

    # -- serialization / checks ----------------------------------------------

    def _comps(self) -> list[Component]:
        """The components that ``comp_of`` names, each once, by top."""
        return sorted(set(self.comp_of[1:]), key=lambda comp: comp.top)

    def dump(self) -> str:
        """Canonical text form: one block per line (id, tier, keys, children).

        Each component's B-tree is bulk-built here from its members.  Ids
        are reassigned in a deterministic traversal of the glued forest,
        with component roots appended to their glue block's child list, so
        two structurally identical forests dump to identical strings.
        """
        trees = {comp: BTree(self.B, comp.members) for comp in self._comps()}
        glue_children: dict[Block, list[tuple[Block, int]]] = {}
        queue: list[tuple[Block, int]] = []  # (block, its tree's tier)
        for comp, tree in trees.items():
            p = self.base._parent[comp.top]
            if p:
                host = trees[self.comp_of[p]].search(p)[1][-1]
                glue_children.setdefault(host, []).append((tree.root, comp.tier))
            else:
                queue.append((tree.root, comp.tier))
        number: dict[Block, int] = {}
        qi = 0
        while qi < len(queue):
            blk, tier = queue[qi]
            qi += 1
            number[blk] = qi
            queue.extend((c, tier) for c in blk.children)
            queue.extend(glue_children.get(blk, []))
        lines = []
        for blk, tier in queue:
            kids = [number[c] for c in blk.children] + [number[c] for c, _ in glue_children.get(blk, [])]
            keys = " ".join(str(k) for k in blk.keys)
            ks = " ".join(str(c) for c in kids)
            lines.append(f"{number[blk]}, {tier}, [{keys}], [{ks}]")
        return "\n".join(lines) + "\n"

    def validate(self) -> str | None:
        err = _non_int_tier(self.base._tier[1:])
        if err:
            return err
        err = self.base.validate()
        if err:
            return f"base treap: {err}"
        tier = self.base._tier
        # each list is sorted and holds only keys of its tier, so n listed
        # keys in all means every key sits in its own tier's list once
        for t, ks in self.keys_of_tier.items():
            if any(a >= b for a, b in zip(ks, ks[1:])):
                return f"tier {t} key list is not strictly increasing"
            for k in ks:
                if tier[k] != t:
                    return f"key {k} listed in tier {t}, has tier {tier[k]}"
        listed = sum(map(len, self.keys_of_tier.values()))
        if listed != self.n:
            return f"tier lists hold {listed} keys, expected {self.n}"
        # the decomposition must be the one the base treap implies now; a
        # component is named by its top
        parent, comp_of = self.base._parent, self.comp_of
        for k in range(1, self.n + 1):
            p = parent[k]
            if p and tier[p] == tier[k]:
                if comp_of[k] is not comp_of[p]:
                    return (f"same-tier key {k} and parent {p} in components "
                            f"{comp_of[k].top} and {comp_of[p].top}")
            elif comp_of[k].top != k:
                return f"top key {k} is not the root of its component {comp_of[k].top}"
        # so each named component's top is a key whose component it is, and
        # tops differ; its members must be the keys that name it, all of its
        # tier, and the slice of its tier's keys that its top implies
        comps = self._comps()
        total = sum(len(comp.members) for comp in comps)
        if total != self.n:
            return f"forest holds {total} keys, expected {self.n}"
        for comp in comps:
            top, members = comp.top, comp.members
            if comp.tier != tier[top]:
                return f"component {top} records tier {comp.tier}, its root has {tier[top]}"
            if any(a >= b for a, b in zip(members, members[1:])):
                return f"component {top} members are not strictly increasing"
            for k in members:
                if tier[k] != comp.tier:
                    return f"component {top} mixes tiers at key {k}"
                if comp_of[k] is not comp:
                    return f"key {k} marked in component {comp_of[k].top}, listed in component {top}"
            if members != self._members(top):
                return f"component {top} members differ from its slice of tier {comp.tier}'s keys"
        return None


def _non_int_tier(tiers: Sequence) -> str | None:
    """None, or the first key (``tiers[k-1]`` is key ``k``'s) whose tier is
    not an int: a weight passed in a tier's place, say."""
    if set(map(type, tiers)) <= {int}:
        return None
    k, t = next((k, t) for k, t in enumerate(tiers, start=1) if type(t) is not int)
    return f"key {k} has tier {t!r}, not an int"


def _check_trees(trees: dict[int, BTree], tree_of: list[int], n: int) -> str | None:
    """Every tree is a valid B-tree, ``tree_of`` names the tree of each key
    it holds, and the trees hold ``n`` keys in all."""
    total = 0
    for i, tree in trees.items():
        err = tree.validate()
        if err:
            return f"tree {i}: {err}"
        for k in tree.keys_inorder():
            if tree_of[k] != i:
                return f"key {k} marked in tree {tree_of[k]}, stored in tree {i}"
        total += len(tree)
    if total != n:
        return f"forest holds {total} keys, expected {n}"
    return None


class DetScoreForest:
    """Deterministic score buckets: key ``k`` joins tree ``tiers[k-1]``, its
    score's bucket; lookups probe trees in index order."""

    OUTER_BASE = 2  # the bucket rule: floor(log2 log_B (1/w)), clamped at 0

    def __init__(self, tiers: Sequence[int], B: int):
        err = _non_int_tier(tiers)
        if err:
            raise ConfigError(err)
        self.B = B
        self.n = len(tiers)
        self.tree_index = [0, *tiers]
        buckets: dict[int, list[int]] = {}
        for k, idx in enumerate(tiers, start=1):
            buckets.setdefault(idx, []).append(k)
        self.trees = {idx: BTree(B, ks) for idx, ks in sorted(buckets.items())}

    def access(self, key: int) -> int:
        """Probe trees smallest-index-first; count every probed path block.
        The trees share no block and a search path repeats none, so the
        count is the sum of the probed path lengths."""
        if not 1 <= key <= self.n:
            raise KeyError(key)
        count = 0
        # ``trees`` is kept in ascending index order; ``validate`` checks it
        for tree in self.trees.values():
            if tree.size:
                found, path = tree.search(key)
                count += len(path)
                if found:
                    return count
        raise KeyError(key)

    def update_weight(self, key: int, new_idx: int) -> int:
        """Move the item to bucket ``new_idx``, its new score's tier; returns touches."""
        if not 1 <= key <= self.n:
            raise KeyError(key)
        old_idx = self.tree_index[key]
        if new_idx == old_idx:
            return 0
        # a merge can list a block twice; the two trees share no block
        touched = len(set(self.trees[old_idx].delete(key)))
        if new_idx not in self.trees:
            self.trees[new_idx] = BTree(self.B)
            self.trees = dict(sorted(self.trees.items()))
        touched += len(self.trees[new_idx].insert(key))
        self.tree_index[key] = new_idx
        return touched

    def validate(self) -> str | None:
        err = _non_int_tier(self.tree_index[1:])
        if err:
            return err
        order = list(self.trees)
        if order != sorted(order):
            return f"tree indices {order} not in ascending order"
        return _check_trees(self.trees, self.tree_index, self.n)


class RankForest:
    """Self-organizing forest of B-trees keyed by recency rank.

    ``S = ceil(log2 log_B n)`` trees (at least one); tree ``i`` (1-based) may
    hold at most ``2 * B^(2^(i+1))`` items before it sheds its ``B^(2^(i+1))``
    least recent ones into tree ``i + 1``; the last tree absorbs everything.
    An access moves the item to recency rank 1 in the first tree, so each tree
    holds a contiguous run of ranks and ``order[i]``, tree ``i``'s keys least
    recent first, is the whole recency state.
    """

    def __init__(self, n: int, B: int):
        if n < 1:
            raise ConfigError(f"universe size must be >= 1, got {n}")
        if B < 4:  # checked before the tree count, which B < 2 would never settle
            raise ConfigError(f"block fanout must be >= 4, got {B}")
        self.B = B
        self.n = n
        S = 1
        while B ** (2 ** S) < n:
            S += 1
        self.S = S
        self.trees: dict[int, BTree] = {}
        self.order: dict[int, OrderedDict[int, None]] = {}
        start = 1  # fill trees front to back; initial recency rank equals the key
        for i in range(1, S + 1):
            stop = n + 1 if i == S else min(start + self.cap_hi(i), n + 1)
            self.trees[i] = BTree(B, range(start, stop))
            self.order[i] = OrderedDict.fromkeys(range(stop - 1, start - 1, -1))
            start = stop

    def cap_hi(self, i: int) -> int:
        return 2 * self.B ** (2 ** (i + 1))

    def chunk(self, i: int) -> int:
        return self.B ** (2 ** (i + 1))

    def access(self, key: int) -> int:
        """Probe trees in order, promote the item, cascade overflow chunks.
        The trees that hold keys are always 1..j (``check_invariant``
        checks it), so the probe meets no empty tree before ``key``'s."""
        if not 1 <= key <= self.n:
            raise KeyError(key)
        touched: set[Block] = set()
        for found_at, tree in self.trees.items():
            found, path = tree.search(key)
            touched.update(path)
            if found:
                break
        else:
            raise KeyError(key)
        del self.order[found_at][key]
        self.order[1][key] = None
        if found_at != 1:
            touched.update(self.trees[found_at].delete(key))
            touched.update(self.trees[1].insert(key))
        for i in range(1, self.S):
            while len(self.trees[i]) > self.cap_hi(i):
                for _ in range(self.chunk(i)):
                    victim, _ = self.order[i].popitem(last=False)
                    self.order[i + 1][victim] = None
                    touched.update(self.trees[i].delete(victim))
                    touched.update(self.trees[i + 1].insert(victim))
        return len(touched)

    def check_invariant(self) -> str | None:
        """The trees holding keys are 1..j, within size and max-rank bands;
        tree j is exempt from the size band (it absorbs whatever the
        geometric prefix cannot)."""
        nonempty = [(i, len(tree)) for i, tree in self.trees.items() if len(tree)]
        if nonempty and nonempty[-1][0] != len(nonempty):
            return f"tree {nonempty[-1][0]} holds keys after an empty tree"
        worst = 0  # the ranks are contiguous, so tree i ends at the running size
        for i, size in nonempty:
            worst += size
            lo = self.B ** (2 ** i)
            if i != nonempty[-1][0] and not lo <= size <= self.cap_hi(i):
                return f"tree {i} has {size} items, band [{lo}, {self.cap_hi(i)}]"
            cap = 4 * self.B ** (2 ** (i + 1))
            if worst > cap:
                return f"tree {i} holds rank {worst}, cap {cap}"
        return None

    def validate(self) -> str | None:
        tree_of = [0] * (self.n + 1)
        for i, tree in self.trees.items():
            if self.order[i].keys() != set(tree.keys_inorder()):
                return f"tree {i}: its recency list does not hold exactly its keys"
            for k in self.order[i]:
                tree_of[k] = i
        return _check_trees(self.trees, tree_of, self.n) or self.check_invariant()
