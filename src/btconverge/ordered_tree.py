"""Ordered trees and the partial orders derived from them.

An ordered tree is a rooted tree with an additional left-to-right order
among the children of every vertex.  It is stored as one ordered child
tuple per vertex over a dense vertex range 0..n-1; the parent map and the
root follow from them.  The parent->child pairs and the consecutive-sibling
pairs of those tuples generate the ancestor order and the sibling order,
and composing those gives the uncle orders.  Influence
regions and pathway sets are defined through the uncle orders; the region
analysis in ``bt`` computes them in one top-down pass instead, and the
tests compare it against these orders.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class TreeStructureError(ValueError):
    """Raised when child lists do not describe a valid ordered tree."""


class Relation:
    """A binary relation over vertices 0..n-1, one successor bitset per source.

    Instances are treated as immutable values; all operations return new
    relations.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()) -> None:
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) outside vertex range 0..{n - 1}")
            rows[i] |= 1 << j
        self.n = n
        self.rows = tuple(rows)

    @classmethod
    def _from_rows(cls, n: int, rows: list[int]) -> "Relation":
        rel = cls.__new__(cls)
        rel.n = n
        rel.rows = tuple(rows)
        return rel

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return bool(self.rows[i] >> j & 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Relation({self.n}, {sorted(self.pairs())})"

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                yield (i, low.bit_length() - 1)
                row ^= low

    def converse(self) -> "Relation":
        rows = [0] * self.n
        for i, j in self.pairs():
            rows[j] |= 1 << i
        return Relation._from_rows(self.n, rows)

    def strict(self) -> "Relation":
        """Drop every reflexive pair."""
        return Relation._from_rows(
            self.n, [row & ~(1 << i) for i, row in enumerate(self.rows)]
        )

    def is_reflexive(self) -> bool:
        return all(row >> i & 1 for i, row in enumerate(self.rows))

    def is_transitive(self) -> bool:
        for i in range(self.n):
            row = self.rows[i]
            j_bits = row
            while j_bits:
                low = j_bits & -j_bits
                j = low.bit_length() - 1
                if self.rows[j] & ~row:
                    return False
                j_bits ^= low
        return True

    def _check(self, other: "Relation") -> None:
        if self.n != other.n:
            raise ValueError("relations over different vertex sets")


def reflexive_transitive_closure(rel: Relation) -> Relation:
    """Smallest reflexive and transitive relation containing ``rel``.

    Bit-parallel Floyd-Warshall; n is small throughout this package so the
    O(n^2) word operations are negligible.
    """
    n = rel.n
    rows = list(rel.rows)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    for i in range(n):
        rows[i] |= 1 << i
    return Relation._from_rows(n, rows)


def compose(a: Relation, b: Relation) -> Relation:
    """Relation {(i, k) | exists j with (i, j) in a and (j, k) in b}."""
    a._check(b)
    rows = [0] * a.n
    for i in range(a.n):
        j_bits = a.rows[i]
        acc = 0
        while j_bits:
            low = j_bits & -j_bits
            acc |= b.rows[low.bit_length() - 1]
            j_bits ^= low
        rows[i] = acc
    return Relation._from_rows(a.n, rows)


class TreeOrders(NamedTuple):
    """All derived orders of an ordered tree.

    parent_order holds (ancestor-or-self, descendant) pairs, sibling_order
    holds (left-or-self, right) pairs among siblings.  left_uncle and
    right_uncle are the strict composed orders: (j, i) in left_uncle means
    j is a left sibling of some ancestor-or-self of i; right_uncle is the
    mirror image.  left_to_right / right_to_left extend the uncle orders
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
        # parent_order: (ancestor-or-self, descendant); close parent->child pairs
        down = Relation(n, ((p, c) for p, group in enumerate(kids) for c in group))
        parent_order = reflexive_transitive_closure(down)
        adjacent = Relation(n, (pair for group in kids for pair in zip(group, group[1:])))
        sibling_order = reflexive_transitive_closure(adjacent)
        strict_sib = sibling_order.strict()
        left_uncle = compose(strict_sib, parent_order)
        right_uncle = compose(strict_sib.converse(), parent_order)
        desc_to_anc = parent_order.converse()  # (descendant-or-self, ancestor)
        left_to_right = compose(desc_to_anc, left_uncle)
        right_to_left = compose(desc_to_anc, right_uncle)
        return TreeOrders(
            parent_order=parent_order,
            sibling_order=sibling_order,
            left_uncle=left_uncle,
            right_uncle=right_uncle,
            left_to_right=left_to_right,
            right_to_left=right_to_left,
            parent_map=self.parent,
        )

    def __repr__(self) -> str:
        return f"OrderedTree(n={self.n}, root={self.root})"
