"""Treap over dense integer keys with exact cost accounting.

Keys live in ``[1, n]``.  A priority is a plain pair ``(tier, offset)``: an
integer tier and an offset in the open interval (0, 1), standing for the real
number ``-tier + offset`` (a smaller tier sits closer to the root).  The
treap keeps the pairs as parallel tier/offset arrays, and every entry point
that stores one (``build``, ``build_arrays``, ``insert``,
``update_priority``) rejects an offset outside (0, 1).  Priorities compare
lexicographically by ``(-tier, offset)`` and ties are broken toward the
smaller key, so the heap order is a strict total order and any priority
assignment induces exactly one tree; both builders link it with one shared
right-spine sweep, which keeps the spine in the parent links, with slot 0 of
the arrays standing above the root, and ends with slot 0 reset to 0.
``depths`` walks the tree once into a list indexed by key.
``update_priority`` is the only code that restructures the tree: it unzips
the ancestors a key rises past, or zips the spines below a key that sinks,
and reaches the same unique tree that rotating the key one level at a time
would, passing the same number of nodes.  ``insert`` links a
leaf and rises it there, and ``delete`` sinks its key to a leaf there before
unlinking it.  ``access`` counts a key's path up the parent links, which on
a valid tree is its root-to-key search path.  Nothing here recurses, so
chains of any depth are fine.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import lt
from typing import Iterator, Mapping, Sequence

from .errors import DuplicateKeyError

__all__ = ["Treap"]


def _check_offset(key: int, offset: float) -> None:
    if not 0.0 < offset < 1.0:
        raise ValueError(f"offset for key {key} not in (0, 1): {offset!r}")


class Treap:
    """Index-addressed treap over the key universe ``1..n``."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"universe size must be >= 1, got {n}")
        self.n = n
        self.root = 0
        self.size = 0
        z = n + 1
        self._tier = [0] * z
        self._off = [0.0] * z
        self._left = [0] * z
        self._right = [0] * z
        self._parent = [0] * z
        self._present = bytearray(z)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build_arrays(cls, tiers: Sequence[int], offsets: Sequence[float]) -> "Treap":
        """Build the unique treap for keys ``1..len(tiers)`` in one sweep.

        ``tiers[k-1]`` / ``offsets[k-1]`` hold key ``k``'s priority.
        """
        n = len(tiers)
        if len(offsets) != n:
            raise ValueError("tiers and offsets must have equal length")
        # two C-level passes; NaN fails both, wherever it sits
        if not (all(map(lt, repeat(0.0, n), offsets)) and all(map(lt, offsets, repeat(1.0, n)))):
            for k, o in enumerate(offsets, start=1):
                _check_offset(k, o)
        t = cls(n)
        t._tier[1:] = tiers
        t._off[1:] = offsets
        t._present = bytearray([0]) + bytearray([1] * n)
        t._sweep(range(1, n + 1))
        return t

    @classmethod
    def build(cls, priorities: Mapping[int, tuple[int, float]], n: int | None = None) -> "Treap":
        """Build the unique treap holding exactly ``priorities.keys()``.

        ``priorities`` maps each key to its ``(tier, offset)`` pair.
        """
        if not priorities:
            raise ValueError("cannot build an empty treap")
        keys = sorted(priorities)
        if n is None:
            n = keys[-1]
        t = cls(n)
        tier = t._tier
        off = t._off
        present = t._present
        for k in keys:
            if not 1 <= k <= n:
                raise KeyError(f"key {k} outside universe 1..{n}")
            tier[k], off[k] = priorities[k]
            _check_offset(k, off[k])
            present[k] = 1
        t._sweep(keys)
        return t

    def _sweep(self, keys: Sequence[int]) -> None:
        """Link ascending ``keys``, priorities already stored, into the unique treap.

        The right-spine sweep is O(len(keys)) and produces the same tree as
        inserting the keys in any order (uniqueness of the treap under a
        strict priority order).  The spine needs no stack of its own: it is
        linked bottom-up by ``parent``, from the last key placed up to slot
        0, which stands above the root.  Slot 0 takes the spine's writes like
        any node, so ``right[0]`` ends as the root, and its links are reset.
        """
        tier = self._tier
        off = self._off
        left = self._left
        right = self._right
        parent = self._parent
        top = 0
        for k in keys:
            tk = tier[k]
            ok = off[k]
            last = 0
            # pop spine nodes that k beats; equal (tier, offset) resolves to
            # the smaller key, which is already on the spine, so no pop
            while top:
                ts = tier[top]
                if ts > tk or (ts == tk and off[top] < ok):
                    last = top
                    top = parent[top]
                else:
                    break
            left[k] = last
            parent[last] = k
            right[top] = k
            parent[k] = top
            top = k
        self.root = right[0]
        right[0] = parent[0] = 0
        self.size = len(keys)

    # ------------------------------------------------------------------
    # introspection

    def __contains__(self, key: int) -> bool:
        return 1 <= key <= self.n and bool(self._present[key])

    def keys(self) -> Iterator[int]:
        """Present keys in ascending order."""
        for k in range(1, self.n + 1):
            if self._present[k]:
                yield k

    def priority(self, key: int) -> tuple[int, float]:
        """The key's ``(tier, offset)`` pair."""
        self._require(key)
        return self._tier[key], self._off[key]

    def parent_of(self, key: int) -> int:
        """Parent key, or 0 at the root."""
        self._require(key)
        return self._parent[key]

    def left_of(self, key: int) -> int:
        self._require(key)
        return self._left[key]

    def right_of(self, key: int) -> int:
        self._require(key)
        return self._right[key]

    def _require(self, key: int) -> None:
        if not (1 <= key <= self.n and self._present[key]):
            raise KeyError(key)

    def _wins(self, a: int, b: int) -> bool:
        """True if key ``a`` outranks key ``b`` (strictly higher priority)."""
        ta = self._tier[a]
        tb = self._tier[b]
        if ta != tb:
            return ta < tb
        oa = self._off[a]
        ob = self._off[b]
        if oa != ob:
            return oa > ob
        return a < b

    # ------------------------------------------------------------------
    # queries

    def access(self, key: int) -> int:
        """Nodes on the root-to-key path, counted up the parent links.

        On a valid treap (search order is what ``validate`` checks) this is
        the length of the root-to-key descent, so the count is that of a
        search; the root has depth 1.
        """
        if not (1 <= key <= self.n and self._present[key]):
            raise KeyError(key)
        parent = self._parent
        d = 1
        key = parent[key]
        while key:
            d += 1
            key = parent[key]
        return d

    depth = access

    def depths(self) -> list[int]:
        """Depth of every key in one traversal, as a list indexed by key.

        ``depths()[k]`` is key ``k``'s depth (the root's is 1), and 0 when
        ``k`` is absent; index 0 reads 0.
        """
        out = [0] * (self.n + 1)
        root = self.root
        if not root:
            return out
        left = self._left
        right = self._right
        out[root] = 1
        stack = [root]
        pop = stack.pop
        push = stack.append
        while stack:
            node = pop()
            d = out[node] + 1
            child = left[node]
            if child:
                out[child] = d
                push(child)
            child = right[node]
            if child:
                out[child] = d
                push(child)
        return out

    # ------------------------------------------------------------------
    # updates

    def insert(self, key: int, tier: int, offset: float) -> int:
        """Link ``key`` as a leaf, then let ``update_priority`` rise it to its
        place; returns the number of nodes it passes (a leaf only rises)."""
        _check_offset(key, offset)
        if not 1 <= key <= self.n:
            raise KeyError(f"key {key} outside universe 1..{self.n}")
        if self._present[key]:
            raise DuplicateKeyError(f"key {key} already present")
        left = self._left
        right = self._right
        p = 0
        cur = self.root
        while cur:
            p = cur
            cur = left[p] if key < p else right[p]
        if not p:
            self.root = key
        elif key < p:
            left[p] = key
        else:
            right[p] = key
        self._parent[key] = p  # an absent key has no children: delete leaves a leaf
        self._present[key] = 1
        self.size += 1
        return self.update_priority(key, tier, offset)

    def delete(self, key: int) -> int:
        """Sink ``key`` to a leaf by re-prioritising it below every tier, then
        unlink it; returns the number of nodes it passes."""
        self._require(key)
        rot = self.update_priority(key, math.inf, self._off[key])
        p = self._parent[key]
        if not p:
            self.root = 0
        elif self._left[p] == key:
            self._left[p] = 0
        else:
            self._right[p] = 0
        self._parent[key] = 0
        self._present[key] = 0
        self.size -= 1
        return rot

    def update_priority(self, key: int, tier: int, offset: float) -> int:
        """Re-prioritize ``key`` in place; returns the number of nodes it
        passes, which is ``|depth_before - depth_after|`` (the rotation count).

        The heap order is restored by unzipping or zipping around ``key``
        rather than rotation by rotation; each passed node costs one child
        write and one parent write.

        * Rise: each ancestor that ``key`` outranks, from the bottom up, is
          hung on ``key``'s left chain (an ancestor smaller than ``key``, by
          its right link) or on its right chain (a larger one, by its left
          link); the lowest of each chain takes ``key``'s old subtree.
        * Sink: the right spine of ``key``'s left subtree and the left spine
          of its right subtree are zipped above ``key`` while a spine node
          outranks it; of two heads with equal pairs the left one wins.

        The comparisons are inlined on the arrays: the rise tries first, and
        the sink runs only when the key does not outrank its parent.
        """
        if not 0.0 < offset < 1.0:
            _check_offset(key, offset)
        if not (1 <= key <= self.n and self._present[key]):
            raise KeyError(key)
        tiers = self._tier
        offs = self._off
        left = self._left
        right = self._right
        parent = self._parent
        tiers[key] = tier
        offs[key] = offset
        passed = 0
        # rise: lo and hi are the heads of the chains that become key's left
        # and right subtrees
        lo = left[key]
        hi = right[key]
        p = parent[key]
        while p:
            tp = tiers[p]
            if tier > tp or (tier == tp and (offset < offs[p] or (offset == offs[p] and key > p))):
                break
            g = parent[p]
            if p < key:
                right[p] = lo
                if lo:
                    parent[lo] = p
                lo = p
            else:
                left[p] = hi
                if hi:
                    parent[hi] = p
                hi = p
            passed += 1
            p = g
        # key ends in the slot below p that at_left names
        at_left = key < p
        if not passed:
            # sink: lo walks the right spine of key's left subtree and hi the
            # left spine of its right subtree; each winning head takes the
            # slot below the previous one, starting with the slot key held
            while True:
                if lo:
                    c = lo
                    if hi:
                        tl = tiers[lo]
                        th = tiers[hi]
                        if th < tl or (th == tl and offs[hi] > offs[lo]):
                            c = hi
                elif hi:
                    c = hi
                else:
                    break
                tc = tiers[c]
                if tc > tier or (tc == tier and (offs[c] < offset or (offs[c] == offset and c > key))):
                    break
                if not p:
                    self.root = c
                elif at_left:
                    left[p] = c
                else:
                    right[p] = c
                parent[c] = p
                p = c
                if c == lo:
                    lo = right[c]
                    at_left = False
                else:
                    hi = left[c]
                    at_left = True
                passed += 1
            if not passed:
                return 0
        if not p:
            self.root = key
        elif at_left:
            left[p] = key
        else:
            right[p] = key
        parent[key] = p
        left[key] = lo
        right[key] = hi
        if lo:
            parent[lo] = key
        if hi:
            parent[hi] = key
        return passed

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> str | None:
        """Return a description of the first structural violation, else None."""
        present_count = sum(self._present[1:])
        if present_count != self.size:
            return f"size {self.size} != {present_count} present flags"
        if not self.root:
            return None if self.size == 0 else "empty root with nonzero size"
        if not self._present[self.root]:
            return f"root {self.root} is not present"
        if self._parent[self.root]:
            return f"root {self.root} has parent {self._parent[self.root]}"
        left = self._left
        right = self._right
        parent = self._parent
        seen = 0
        stack: list[tuple[int, int, int]] = [(self.root, 0, self.n + 1)]
        while stack:
            node, lo, hi = stack.pop()
            seen += 1
            if not lo < node < hi:
                return f"key {node} violates search order ({lo}, {hi})"
            if not self._present[node]:
                return f"linked key {node} is not present"
            for child in (left[node], right[node]):
                if child:
                    if parent[child] != node:
                        return f"parent link of {child} is {parent[child]}, expected {node}"
                    if self._wins(child, node):
                        return f"heap order violated between {node} and child {child}"
            if left[node]:
                stack.append((left[node], lo, node))
            if right[node]:
                stack.append((right[node], node, hi))
        if seen != self.size:
            return f"reached {seen} nodes, size says {self.size}"
        return None
