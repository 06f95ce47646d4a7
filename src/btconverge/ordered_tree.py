"""Ordered trees and the partial orders derived from them.

An ordered tree is a rooted tree with an additional left-to-right order
among the children of every vertex.  It is stored as one ordered child
tuple per vertex over a dense vertex range 0..n-1; the parent map and the
root follow from them.  Each derived order is one bitset row per vertex,
read straight off the child tuples: the subtrees bottom-up, the sibling and
uncle rows from the suffix and prefix ORs of each tuple, and the uncle rows
of all ancestors top-down, so a derivation costs O(n) big-int ORs.  Influence
regions and pathway sets are defined through the uncle orders; the region
analysis in ``bt`` computes them in one top-down pass instead; the tests
check it against these orders, and these orders against a path-chasing
oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class TreeStructureError(ValueError):
    """Raised when child lists do not describe a valid ordered tree."""


class Relation:
    """A binary relation over vertices 0..n-1: rows[i] is the bitset of i's successors.

    Instances are treated as immutable values.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[int]) -> None:
        self.rows = tuple(rows)
        self.n = len(self.rows)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return bool(self.rows[i] >> j & 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.n}, {sorted(self.pairs())})"

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                yield (i, low.bit_length() - 1)
                row ^= low


class TreeOrders(NamedTuple):
    """All derived orders of an ordered tree.

    parent_order holds (ancestor-or-self, descendant) pairs, sibling_order
    holds (left-or-self, right) pairs among siblings.  left_uncle and
    right_uncle are strict: (j, i) in left_uncle means j is a left sibling
    of some ancestor-or-self of i; right_uncle is the mirror image.  left_to_right / right_to_left extend the uncle orders
    downward through descendants and are exposed for diagnostics only.
    """

    parent_order: Relation
    sibling_order: Relation
    left_uncle: Relation
    right_uncle: Relation
    left_to_right: Relation
    right_to_left: Relation
    parent_map: tuple[Optional[int], ...]


class OrderedTree:
    """Ordered child lists over vertices 0..n-1, validated on construction.

    children[v] lists v's children left to right; n is len(children).
    Exactly one vertex must be nobody's child (the root), no vertex may be
    listed twice, and every vertex must be reached from the root.
    """

    __slots__ = ("n", "parent", "children", "root", "_orders")

    def __init__(self, children: Sequence[Iterable[int]]) -> None:
        children = tuple(map(tuple, children))
        n = len(children)
        if n == 0:
            raise TreeStructureError("tree needs at least one vertex")
        parent: list[Optional[int]] = [None] * n
        for par, group in enumerate(children):
            for child in group:
                if not 0 <= child < n:
                    raise TreeStructureError(f"child {child} of {par} outside vertex range")
                if parent[child] is not None:
                    raise TreeStructureError(f"vertex {child} is listed as a child twice")
                parent[child] = par
        roots = [i for i in range(n) if parent[i] is None]
        if len(roots) != 1:
            raise TreeStructureError(f"expected exactly one root, found {roots}")
        root = roots[0]
        # acyclicity: every vertex but the root has one parent, so the
        # vertices one DFS from the root misses are those whose walk up
        # ends in a cycle; walk up from the smallest to name a cycle vertex
        reached = [False] * n
        stack = [root]
        while stack:
            v = stack.pop()
            reached[v] = True
            stack.extend(children[v])
        if not all(reached):
            j: Optional[int] = reached.index(False)
            seen = set()
            while j not in seen:
                seen.add(j)
                j = parent[j]
            raise TreeStructureError(f"child lists contain a cycle through {j}")

        self.n = n
        self.parent = tuple(parent)
        self.children = children
        self.root = root
        self._orders: Optional[TreeOrders] = None

    def orders(self) -> TreeOrders:
        if self._orders is None:
            self._orders = self._derive()
        return self._orders

    def _derive(self) -> TreeOrders:
        n = self.n
        kids = self.children
        order = [self.root]  # every parent before its children, whatever the ids
        for v in order:
            order.extend(kids[v])
        below = [1 << v for v in range(n)]  # descendants-or-self
        for v in reversed(order):
            for c in kids[v]:
                below[v] |= below[c]
        sibling = [1 << v for v in range(n)]  # self and the later siblings
        left = [0] * n  # subtrees of the strictly later siblings
        right = [0] * n  # subtrees of the strictly earlier siblings
        for group in kids:
            later = subtrees = 0
            for c in reversed(group):
                sibling[c] |= later
                left[c] = subtrees
                later |= 1 << c
                subtrees |= below[c]
            subtrees = 0
            for c in group:
                right[c] = subtrees
                subtrees |= below[c]
        # the uncle rows of every ancestor-or-self, accumulated downward
        left_to_right, right_to_left = left[:], right[:]
        for v in order:
            for c in kids[v]:
                left_to_right[c] |= left_to_right[v]
                right_to_left[c] |= right_to_left[v]
        return TreeOrders(
            parent_order=Relation(below),
            sibling_order=Relation(sibling),
            left_uncle=Relation(left),
            right_uncle=Relation(right),
            left_to_right=Relation(left_to_right),
            right_to_left=Relation(right_to_left),
            parent_map=self.parent,
        )

    def __repr__(self) -> str:
        return f"OrderedTree(n={self.n}, root={self.root})"
