"""Finite cell universe, region set algebra, and the neighboring predicate.

The continuous state space is modeled as a finite set of cells 0..N-1.
Regions are bitsets over the cells, controller dynamics are total successor
maps, and closeness between regions is either metric (cell coordinates plus
a step bound) or declared through an explicit adjacency relation.
"""

from __future__ import annotations

import math
from itertools import chain, compress, count, filterfalse, repeat
from operator import add, contains, eq, itemgetter, le, ne, or_, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence


class BTConvergeError(ValueError):
    """Base of the package's own errors: a malformed spec, world, tree or
    library, or a verdict precondition that does not hold.  The CLI reports
    these (exit 2); any other ValueError is an internal fault."""


class WorldError(BTConvergeError):
    """Raised for malformed universes or mismatched region universes."""


class StepError(WorldError):
    """A controller moves a cell farther than the one step the slice graph assumes."""


class Region:
    """An immutable subset of a world's cells, stored as an int bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0) -> None:
        if mask < 0 or mask >> n:
            raise WorldError(f"mask has bits outside universe of {n} cells")
        self.n = n
        self.mask = mask

    @classmethod
    def from_cells(cls, n: int, cells: Iterable[int]) -> "Region":
        """The region of the given cells (repeats allowed).

        A byte is marked per cell in a buffer that reaches only the highest
        cell given, and the marks become the mask in one base-2 parse, not
        one whole-mask OR per cell.  So the cost follows the cells, not n:
        a handful of cells of a huge universe costs a handful of bytes.
        A list or tuple is read as given; any other iterable is copied once.
        """
        if not isinstance(cells, (list, tuple)):
            cells = list(cells)
        if not cells:
            return cls(n, 0)
        top = max(cells)
        if not (0 <= min(cells) and top < n):
            bad = next(c for c in cells if not 0 <= c < n)
            raise WorldError(f"cell {bad} outside universe of {n} cells")
        marks = bytearray(top + 1)
        for c in cells:
            marks[c] = 1
        return cls(n, int(marks.translate(_MARK_DIGITS)[::-1], 2))

    @classmethod
    def full(cls, n: int) -> "Region":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "Region":
        return cls(n, 0)

    @classmethod
    def where(cls, n: int, pred: Callable[[int], bool]) -> "Region":
        return cls.from_cells(n, (c for c in range(n) if pred(c)))

    def _check(self, other: "Region") -> None:
        if self.n != other.n:
            raise WorldError("regions over different universes")

    def __or__(self, other: "Region") -> "Region":
        self._check(other)
        return Region(self.n, self.mask | other.mask)

    def __and__(self, other: "Region") -> "Region":
        self._check(other)
        return Region(self.n, self.mask & other.mask)

    def __sub__(self, other: "Region") -> "Region":
        self._check(other)
        return Region(self.n, self.mask & ~other.mask)

    def complement(self) -> "Region":
        return Region(self.n, ~self.mask & ((1 << self.n) - 1))

    def issubset(self, other: "Region") -> bool:
        self._check(other)
        return not (self.mask & ~other.mask)

    def isdisjoint(self, other: "Region") -> bool:
        self._check(other)
        return not (self.mask & other.mask)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __contains__(self, cell: int) -> bool:
        return bool(self.mask >> cell & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("Region truthiness is ambiguous; use .is_empty")

    def cells(self) -> Iterator[int]:
        """The cells in ascending order, picked in C (``itertools.compress``)
        from one scan of the mask's binary digits, with no Python step per cell."""
        return compress(count(), bit_selector(self.mask))

    def pick(self, items: Sequence) -> list:
        """The entries of items at this region's cells, in cell order, picked in C.

        With ``items = list(range(n))`` shared by many regions this is the
        cell list without a Python step or a new int object per cell.
        """
        return list(compress(items, bit_selector(self.mask)))

    def digits(self) -> str:
        """One "0"/"1" character per cell, cell 0 first: O(1) membership in loops.

        ``cell in region`` shifts the whole mask, so a loop of tests over a
        big universe is quadratic; indexing this string once per loop is not.
        """
        return bin(self.mask)[:1:-1].ljust(self.n, "0")

    def any_cell(self) -> int:
        if not self.mask:
            raise WorldError("empty region has no cells")
        return (self.mask & -self.mask).bit_length() - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Region) and self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"Region({self.n}, cells={sorted(self.cells())})"


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_MARK_DIGITS = bytes.maketrans(b"\0\1", b"01")


def bit_selector(mask: int) -> bytes:
    """One byte per binary digit of a non-negative mask, lowest first: 1 where
    the bit is set, else 0.  ``compress(items, bit_selector(mask))`` picks the
    items at mask's set bits in C."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)


def _gather(seq: Sequence, keys: Sequence[int]) -> tuple:
    """seq[k] for each k in keys, as a tuple, gathered in C."""
    if len(keys) > 1:
        return itemgetter(*keys)(seq)
    return tuple(seq[k] for k in keys)  # itemgetter returns no tuple for 0 or 1 keys


def check_targets(targets: Sequence[int], n: int) -> None:
    """Raise WorldError naming the first of targets outside range(n)."""
    if targets and not (0 <= min(targets) and max(targets) < n):
        c, t = next((c, t) for c, t in enumerate(targets) if not 0 <= t < n)
        raise WorldError(f"successor of cell {c} is {t}, outside universe")


class SuccessorMap:
    """Total one-step dynamics for one action leaf: cell -> cell.

    ``moved`` is the region of the cells whose target is not the cell
    itself, built in C on first read.  An unmoved cell stays in every region
    that holds it and is its own one step, so the invariance and one-step
    checks read only moved cells.
    """

    __slots__ = ("n", "targets", "moved", "_fill")

    def __init__(self, targets: Sequence[int]) -> None:
        targets = tuple(targets)
        check_targets(targets, len(targets))
        self.n = len(targets)
        self.targets = targets

    @classmethod
    def lazy(cls, n: int, fill: Callable[[], Iterable[int]]) -> "SuccessorMap":
        """A map over n cells whose targets fill() yields, unchecked, on first read."""
        m = cls.__new__(cls)
        m.n, m._fill = n, fill
        return m

    def __getattr__(self, name: str) -> tuple[int, ...] | Region:
        # reached only for an unset slot: a lazy map's targets, or the moved cells
        if name == "targets":
            self.targets = targets = tuple(self._fill())
            del self._fill
            return targets
        if name == "moved":
            marks = bytes(map(ne, self.targets, count())).translate(_MARK_DIGITS)
            self.moved = moved = Region(self.n, int(b"0" + marks[::-1], 2))
            return moved
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], int]) -> "SuccessorMap":
        return cls([fn(c) for c in range(n)])

    @classmethod
    def identity(cls, n: int) -> "SuccessorMap":
        return cls(range(n))

    def next(self, cell: int) -> int:
        return self.targets[cell]

    def image(self, region: Region) -> Region:
        return Region.from_cells(self.n, (self.targets[c] for c in region.cells()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SuccessorMap) and self.targets == other.targets

    def __repr__(self) -> str:
        return f"SuccessorMap(n={self.n})"


class World:
    """A finite cell universe with optional metric coordinates or adjacency.

    At most one of ``coords`` / ``adjacency`` can be supplied.
    With coords, neighboring is metric: two nonempty regions are neighboring
    when their minimal pairwise euclidean distance is at most the step bound
    delta.  With adjacency, two regions are neighboring when they overlap or
    some cross pair is related.  Adjacency may be directed; symmetric inputs
    stay symmetric.

    An adjacency world keeps per-cell ascending neighbour tuples, built from
    the pairs on first use.  A metric world keeps no per-cell neighbours: it
    keeps one bucket index per delta (``_index``), and dilation and the
    one-step checks read distances through it.  Memory grows with cells.
    """

    __slots__ = ("cell_count", "coords", "_pairs", "_neighbors", "_indexes")

    def __init__(
        self,
        cell_count: int,
        coords: Optional[Sequence[Sequence[float]]] = None,
        adjacency: Optional[Iterable[tuple[int, int]]] = None,
        symmetric: bool = True,
    ) -> None:
        if cell_count <= 0:
            raise WorldError("cell_count must be positive")
        if coords is not None and adjacency is not None:
            raise WorldError("give at most one of coords / adjacency")
        self.cell_count = cell_count
        self.coords: Optional[tuple[tuple[float, ...], ...]] = None
        self._pairs: Optional[tuple[list[tuple[int, int]], bool]] = None
        self._neighbors: Optional[tuple[tuple[int, ...], ...]] = None
        if coords is not None:
            if len(coords) != cell_count:
                raise WorldError("need one coordinate vector per cell")
            dims = set(map(len, coords))
            if len(dims) != 1:
                raise WorldError("coordinate vectors must share one dimension")
            # converted and checked as one flat run, then cut back into points
            flat = list(map(float, chain.from_iterable(coords)))
            dim = dims.pop()
            pts = tuple(zip(*[iter(flat)] * dim)) if dim else ((),) * cell_count
            if not all(map(math.isfinite, flat)):
                c = next(c for c, p in enumerate(pts) if not all(map(math.isfinite, p)))
                raise WorldError(f"coordinates of cell {c} are not finite: {list(pts[c])}")
            self.coords = pts
        elif adjacency is not None:
            pairs = [(p, q) for p, q in adjacency]
            for p, q in pairs:
                if not (0 <= p < cell_count and 0 <= q < cell_count):
                    raise WorldError(f"adjacency pair ({p}, {q}) outside universe")
            self._pairs = (pairs, symmetric)
        self._indexes: dict[float, tuple[list[int], dict[int, list[int]], list[int]]] = {}

    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """Per-cell ascending tuples of the cells one adjacency step away; None
        for a world without adjacency.  Built from the pairs on first read."""
        if self._pairs is not None:
            pairs, symmetric = self._pairs
            near: list[set[int]] = [set() for _ in range(self.cell_count)]
            for p, q in pairs:
                near[p].add(q)
                if symmetric:
                    near[q].add(p)
            self._neighbors = tuple(tuple(sorted(s)) for s in near)
            self._pairs = None
        return self._neighbors

    def distance(self, a: int, b: int) -> float:
        if self.coords is None:
            raise WorldError("world has no coordinates")
        return math.dist(self.coords[a], self.coords[b])

    def region(self, cells: Iterable[int]) -> Region:
        return Region.from_cells(self.cell_count, cells)

    def full_region(self) -> Region:
        return Region.full(self.cell_count)

    def _index(self, delta: float) -> tuple[list[int], dict[int, list[int]], list[int]]:
        """The bucket index for a non-negative delta, built on first use.

        Cells are bucketed on a grid of width just above delta, so two cells
        within delta lie in the same or adjacent buckets.  The index is each
        cell's mixed-radix bucket key, the key -> cells map (cells ascending)
        and the key offsets of a bucket and its adjacent buckets.
        """
        index = self._indexes.get(delta)
        if index is not None:
            return index
        pts, floor = self.coords, math.floor
        axes = list(zip(*pts))
        lows = list(map(min, axes))
        spreads = list(map(sub, map(max, axes), lows))
        # The relative margin keeps cells within delta at most one bucket
        # apart after rounding; the spread floor caps the buckets per axis
        # at 2**30 so the quotient's rounding stays inside that margin.
        width = max(delta * (1 + 2**-20), max(spreads, default=0.0) * 2**-30) or 1.0
        if width == math.inf:
            # delta = +inf, or a spread past the float range (where the
            # quotient could be inf / inf): one bucket holds every cell.
            axes = []
        # Mixed-radix keys.  A span of buckets + 3 per axis keeps every key
        # plus a -1/0/+1 step per axis distinct.
        keys = [0] * len(pts)
        offsets = [0]
        scale = 1
        for axis, lo, spread in zip(axes, lows, spreads):
            keys = [k + floor((x - lo) / width) * scale for k, x in zip(keys, axis)]
            offsets = [o + d * scale for o in offsets for d in (-1, 0, 1)]
            scale *= floor(spread / width) + 4
        buckets: dict[int, list[int]] = {}
        for c, key in enumerate(keys):
            buckets.setdefault(key, []).append(c)
        index = self._indexes[delta] = (keys, buckets, offsets)
        return index

    def _balls(self, delta: float) -> tuple[tuple[int, ...], ...]:
        """Per-cell ascending tuple of the cells within delta, the cell itself included.

        Built from the bucket index: only pairs in the same or adjacent
        buckets reach the exact test ``math.dist(p, q) <= delta``, so the
        number of distance tests grows with cells x neighbours, not cells
        squared.  A negative or NaN delta relates no two cells.  Only the
        product world of a substitution reads these tuples.
        """
        pts = self.coords
        near = [[c] for c in range(self.cell_count)]
        if delta >= 0:
            dist = math.dist
            _keys, buckets, offsets = self._index(delta)
            forward = [o for o in offsets if o > 0]
            for key, members in buckets.items():
                others = [q for o in forward for q in buckets.get(key + o, ())]
                for i, p in enumerate(members):
                    here, mine = pts[p], near[p]
                    for q in members[i + 1:] + others:
                        if dist(here, pts[q]) <= delta:
                            mine.append(q)
                            near[q].append(p)
        return tuple(map(tuple, map(sorted, near)))

    def _reach(self, region: Region, delta: float) -> list[int]:
        """The cells outside region within delta of one of its cells.

        The region's bucket keys and their shifts, and the cells outside
        region in those buckets, are gathered in C; only those boundary
        candidates get the exact test, against the region's cells in their
        adjacent buckets.  The Python steps grow with the boundary, not with
        region x neighbours.
        """
        if not delta >= 0:
            return []
        keys, buckets, offsets = self._index(delta)
        pts, dist, get = self.coords, math.dist, buckets.get
        inside = bit_selector(region.mask).ljust(self.cell_count, b"\0").__getitem__
        own = set(region.pick(keys))
        around: set[int] = set()
        for o in offsets:
            around.update(map(add, own, repeat(o)))
        hits = []
        for q in filterfalse(inside, chain.from_iterable(map(get, around, repeat(())))):
            beside = chain.from_iterable(map(get, map(add, offsets, repeat(keys[q])), repeat(())))
            near = map(pts.__getitem__, filter(inside, beside))
            if any(map(le, map(dist, repeat(pts[q]), near), repeat(delta))):
                hits.append(q)
        return hits

    def dilate(self, region: Region, delta: Optional[float] = None) -> Region:
        """The cells at most one step from region, region included.

        Metric: region plus the outside cells within delta of it
        (``_reach``).  Adjacency: region plus the neighbours of its cells.
        Either way the cells become a mask through ``Region.from_cells``,
        and a slice is dilated once and then tested against any number of
        targets with one mask AND each.
        """
        if region.n != self.cell_count:
            raise WorldError("regions belong to a different universe")
        if self._metric(delta):
            cells = self._reach(region, delta)
        else:
            cells = chain.from_iterable(map(self.neighbors.__getitem__, region.cells()))
        return Region.from_cells(self.cell_count, cells) | region

    def _metric(self, delta: Optional[float]) -> bool:
        """Whether closeness is metric; raises when the world cannot answer for delta."""
        if self.coords is not None:
            if delta is None:
                raise WorldError("metric neighboring needs a step bound delta")
            return True
        if self.neighbors is None:
            raise WorldError("world has neither coordinates nor adjacency")
        return False

    def _steps(self, delta: Optional[float]) -> tuple[tuple[tuple[int, ...], ...], bool]:
        """Per cell, the cells one step reaches, and whether the cell itself is left out of them."""
        if self._metric(delta):
            return self._balls(delta), False
        return self.neighbors, True

    def steps_hold(self, cells: list[int], targets: Sequence[int], delta: Optional[float]) -> bool:
        """Whether every cell's target is the cell itself or one step away.

        One step is within delta (metric) or a neighbour (adjacency).  The
        targets and the distance or membership tests are gathered in C.
        """
        moved = _gather(targets, cells)
        if self._metric(delta):
            pts = self.coords
            ok = map(le, map(math.dist, _gather(pts, cells), _gather(pts, moved)), repeat(delta))
        else:
            ok = map(contains, _gather(self.neighbors, cells), moved)
        return all(map(or_, map(eq, cells, moved), ok))

    def check_steps(
        self, cells: list[int], targets: Sequence[int], delta: Optional[float], who: str
    ) -> None:
        """Raise StepError unless each cell's target is at most one step away.

        Only a failing check walks the cells, to name the first bad one.
        """
        if self.steps_hold(cells, targets, delta):
            return
        c = next(c for c in cells if not self.steps_hold([c], targets, delta))
        t = targets[c]
        if self.coords is None:
            why = "not a neighbour"
        else:
            why = f"{self.distance(c, t)} apart, past delta = {delta}"
        raise StepError(f"{who} moves cell {c} to {t}: {why}")

    def neighboring(self, a: Region, b: Region, delta: Optional[float] = None) -> bool:
        """True when a one-step transition between the two regions is possible.

        Both regions must be nonempty; callers drop empty sets first.
        """
        if a.is_empty or b.is_empty:
            raise WorldError("neighboring is undefined for empty regions")
        if b.n != self.cell_count:
            raise WorldError("regions belong to a different universe")
        return not self.dilate(a, delta).isdisjoint(b)


def step_bound(world: World, maps: Iterable[SuccessorMap]) -> float:
    """Largest euclidean displacement any map makes from any cell, at least 0.0.

    Each map's displacements are one ``math.dist`` per cell over the
    gathered target coordinates, taken in C.
    """
    if world.coords is None:
        raise WorldError("step bound needs coordinates; supply adjacency instead")
    pts = world.coords
    delta = 0.0
    for m in maps:
        if m.n != world.cell_count:
            raise WorldError("successor map over a different universe")
        delta = max(delta, max(map(math.dist, pts, _gather(pts, m.targets))))
    return delta
