"""Ordered trees and the partial orders derived from them.

An ordered tree is a rooted tree with an additional left-to-right order
among the children of every vertex.  It is stored as one ordered child
tuple per vertex over a dense vertex range 0..n-1; the parent map and the
root follow from them.  Each derived order is a tuple of bitset rows, one
per vertex (row i holds i's successors), derived anew on each ``orders()``
call straight from the child tuples: the subtrees bottom-up, the sibling and
uncle rows from the suffix and prefix ORs of each tuple, and the uncle rows
of all ancestors top-down, so a derivation costs O(n) big-int ORs.  Influence
regions and pathway sets are defined through the uncle orders; the region
analysis in ``bt`` computes them in one top-down pass instead; the tests
check it against these orders, and these orders against a path-chasing
oracle.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .statespace import BTConvergeError


class TreeStructureError(BTConvergeError):
    """Raised when child lists do not describe a valid ordered tree."""


class TreeOrders(NamedTuple):
    """All derived orders of an ordered tree, as bitset rows over its vertices.

    Each field holds one row per vertex: bit j of row i is set when i
    precedes j in that order.  parent_order relates ancestor-or-self to
    descendant, sibling_order left-or-self to right among siblings.
    left_uncle and right_uncle are strict: bit i of left_uncle[j] means j is
    a left sibling of some ancestor-or-self of i; right_uncle is the mirror
    image.  left_to_right / right_to_left extend the uncle orders downward
    through descendants and are exposed for diagnostics only.
    """

    parent_order: tuple[int, ...]
    sibling_order: tuple[int, ...]
    left_uncle: tuple[int, ...]
    right_uncle: tuple[int, ...]
    left_to_right: tuple[int, ...]
    right_to_left: tuple[int, ...]


class OrderedTree:
    """Ordered child lists over vertices 0..n-1, validated on construction.

    children[v] lists v's children left to right; n is len(children).
    Exactly one vertex must be nobody's child (the root), no vertex may be
    listed twice, and every vertex must be reached from the root.
    """

    __slots__ = ("n", "parent", "children", "root")

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

    def orders(self) -> TreeOrders:
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
            tuple(below), tuple(sibling), tuple(left), tuple(right),
            tuple(left_to_right), tuple(right_to_left),
        )

    def __repr__(self) -> str:
        return f"OrderedTree(n={self.n}, root={self.root})"
