"""Finite cell universe, region set algebra, and the neighboring predicate.

The continuous state space is modeled as a finite set of cells 0..N-1.
Regions are bitsets over the cells, controller dynamics are total successor
maps, and closeness between regions is either metric (cell coordinates plus
a step bound) or declared through an explicit adjacency relation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, filterfalse, product, repeat
from operator import add, contains, eq, itemgetter, le, mul, ne, or_, sub
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


def _repeat(unit: int, width: int, count: int) -> int:
    """unit at each of the offsets 0, width, ..., (count - 1) * width, built by
    doubling: one shift and OR per binary digit of count, not one per copy."""
    out, done, piece, size = 0, 0, unit, 1
    while True:
        if count & 1:
            out |= piece << done * width
            done += size
        count >>= 1
        if not count:
            return out
        piece |= piece << size * width
        size *= 2


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


class _Lattice:
    """The integer box that a metric world's cells fill, one cell per point.

    The coordinates are integers below 2 ** 53 in magnitude and the points
    are exactly the box lo..hi, in any cell order.  Box position
    sum((x_i - lo_i) * stride_i), axis 0 fastest, numbers the points, and a
    mask moves between cell order and box order with one C gather of its
    binary digits each way.  In box order the integer offset v moves every
    cell by sum(v_i * stride_i) bits, so a dilation is a few masked shifts.

    The difference of two cells is an exact integer vector v, so their
    ``math.dist`` is ``math.dist(v, 0)``; and with squared box lengths below
    2 ** 50 that distance, rounded within an ulp, never falls as some |v_i|
    grows.  So the offsets to try lie inside |v_i| <= min(delta, span_i - 1),
    all of them are within a delta that reaches the box diagonal, and along
    axis 0 those within delta form a run -r..r for each row of offsets along
    the other axes.
    """

    __slots__ = (
        "n",
        "spans",
        "strides",
        "diagonal",
        "_in_box",
        "_in_cells",
        "_rows",
        "_plans",
        "_slabs",
    )

    def __init__(
        self, spans: list[int], strides: list[int], place: list[int], cell_at: list[int]
    ) -> None:
        n = self.n = len(place)
        self.spans = spans
        self.strides = strides
        self.diagonal = math.dist([s - 1 for s in spans], [0] * len(spans))
        # gathers of a mask's binary digits, lowest first, into the other order
        self._in_box = itemgetter(*cell_at)
        self._in_cells = itemgetter(*place)
        # the rows along axis 0 of even and of odd rank
        width = spans[0]
        even = _repeat((1 << width) - 1, 2 * width, (n // width + 1) // 2)
        self._rows = (even, even ^ (1 << n) - 1)
        self._plans: dict[float, list[tuple[int, int, tuple[int, ...]]]] = {}
        self._slabs: dict[tuple[int, int], int] = {}

    @classmethod
    def of(cls, pts: Sequence[Sequence[float]]) -> Optional["_Lattice"]:
        """The lattice of the points, or None unless they fill an integer box exactly."""
        # one C map per axis: zip(*pts) makes an iterator per point
        axes = [list(map(itemgetter(i), pts)) for i in range(len(pts[0]))]
        if not axes:
            return None  # zero-dimensional: every cell at the one point
        n, lows, highs = len(pts), list(map(min, axes)), list(map(max, axes))
        if not (-(2.0**53) < min(lows) and max(highs) < 2.0**53):
            return None
        spans = [int(hi) - int(lo) + 1 for lo, hi in zip(lows, highs)]
        if math.prod(spans) != n or sum((s - 1) ** 2 for s in spans) >= 2**50:
            return None
        if not all(map(float.is_integer, chain.from_iterable(axes))):
            return None
        strides = list(accumulate(spans[:-1], mul, initial=1))
        shifted = [map(sub, axis, repeat(lo)) if lo else axis for axis, lo in zip(axes, lows)]
        sums = shifted[0]
        for axis, stride in zip(shifted[1:], strides[1:]):
            sums = map(add, sums, map(mul, axis, repeat(stride)))
        place = list(map(int, sums))  # cell -> box position
        cell_at = [-1] * n  # box position -> cell
        for c, at in enumerate(place):
            cell_at[at] = c
        if -1 in cell_at:
            return None  # a point held twice, so another is missing
        return cls(spans, strides, place, cell_at)

    def _permute(self, mask: int, gather: itemgetter) -> int:
        return int("".join(gather(bin(mask)[:1:-1].ljust(self.n, "0")))[::-1], 2)

    def dilate(self, mask: int, delta: float) -> int:
        """The cell mask of mask's cells and every cell within delta of one.

        In box order each row of the delta's plan ORs in the mask grown by
        its run along axis 0 (``_run``, grown further as the runs lengthen),
        cut to the cells that its offset along the other axes keeps inside
        the box and shifted by that offset.
        """
        if not mask or not delta >= 1:  # no two cells lie nearer than 1
            return mask
        if delta >= self.diagonal:
            return (1 << self.n) - 1
        grown, reach, out = self._permute(mask, self._in_box), 0, 0
        for r, shift, slabs in self._plan(delta):
            if r > reach:
                grown, reach = self._run(grown, r - reach), r
            moved = grown
            for slab in slabs:
                moved &= slab
            out |= moved << shift if shift >= 0 else moved >> -shift
        return self._permute(out, self._in_cells)

    def _run(self, grown: int, d: int) -> int:
        """A box-order mask grown by d cells each way along axis 0, inside its rows.

        The run is built by doubling (``_repeat``), for the rows of even and
        of odd rank apart: d is below the row length, so what a run spills
        over a row's end lands on a row of the other rank, which the AND
        clears.
        """
        out = 0
        for rows in self._rows:
            out |= _repeat(grown & rows, 1, 2 * d + 1) >> d & rows
        return out

    def _plan(self, delta: float) -> list[tuple[int, int, tuple[int, ...]]]:
        """For 1 <= delta < the diagonal, built on first use: per row of offsets
        along axes 1.. that some offset within delta reaches, its run's reach r
        along axis 0, its shift, and the slabs that keep its source cells
        inside the box; ascending in r."""
        plan = self._plans.get(delta)
        if plan is None:
            reach = [min(s - 1, math.floor(delta)) for s in self.spans]
            dist, zero, head = math.dist, [0] * len(reach), range(reach[0] + 1)
            plan = []
            for rest in product(*[range(-k, k + 1) for k in reach[1:]]):
                r = bisect_right(head, delta, key=lambda v: dist((v, *rest), zero)) - 1
                if r >= 0:
                    shift = sum(map(mul, rest, self.strides[1:]))
                    slabs = tuple(self._slab(i, v) for i, v in enumerate(rest, 1) if v)
                    plan.append((r, shift, slabs))
            plan.sort(key=itemgetter(0))
            self._plans[delta] = plan
        return plan

    def _slab(self, axis: int, v: int) -> int:
        """The box-order mask of the cells that offset v along axis keeps inside
        the box: a run along the lower axes, repeated by doubling along the higher."""
        slab = self._slabs.get((axis, v))
        if slab is None:
            stride, span = self.strides[axis], self.spans[axis]
            low, high = max(0, -v), span - max(0, v)
            block = stride * span
            unit = (1 << (high - low) * stride) - 1 << low * stride
            slab = self._slabs[axis, v] = _repeat(unit, block, self.n // block)
        return slab


class World:
    """A finite cell universe with optional metric coordinates or adjacency.

    At most one of ``coords`` / ``adjacency`` can be supplied.
    With coords, neighboring is metric: two nonempty regions are neighboring
    when their minimal pairwise euclidean distance is at most the step bound
    delta.  With adjacency, two regions are neighboring when they overlap or
    some cross pair is related.  Adjacency may be directed; symmetric inputs
    stay symmetric.

    An adjacency world keeps per-cell ascending neighbour tuples, built from
    the pairs on first use.  A metric world keeps no per-cell neighbours.
    On its first dilation it looks once at its coordinates: if they are
    integers that fill an axis-aligned box exactly, in any cell order, it
    keeps that lattice (``_lattice``), and dilation is masked shifts of the
    region in box order.  Any other metric world keeps one bucket index per
    delta (``_index``), and dilation tests distances through it.  Memory
    grows with cells.  Dilation and the pairwise ``_steps_ok`` state one
    step; a substitution's product world answers both through its base world.
    """

    __slots__ = ("cell_count", "coords", "_pairs", "_neighbors", "_indexes", "_lattice")

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
        self._lattice: Optional[_Lattice | bool] = None  # None until the first metric dilation

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

        Metric: region plus the cells within delta of it, as masked shifts
        on a box lattice (``_Lattice.dilate``), or else as the outside cells
        that the bucket index finds (``_reach``).  Adjacency: region plus the
        neighbours of its cells.  Listed cells become a mask through
        ``Region.from_cells``, and a slice is dilated once and then tested
        against any number of targets with one mask AND each.
        """
        if region.n != self.cell_count:
            raise WorldError("regions belong to a different universe")
        if self._metric(delta):
            if self._lattice is None:
                self._lattice = _Lattice.of(self.coords) or False
            if self._lattice:
                return Region(self.cell_count, self._lattice.dilate(region.mask, delta))
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

    def steps_hold(self, cells: list[int], targets: Sequence[int], delta: Optional[float]) -> bool:
        """Whether every cell's target is the cell itself or one step away."""
        return all(self._steps_ok(cells, _gather(targets, cells), delta))

    def _steps_ok(
        self, cells: list[int], moved: Sequence[int], delta: Optional[float]
    ) -> Iterator[bool]:
        """Per cell, whether its target in moved is itself or one step away:
        within delta (metric) or a neighbour (adjacency), tested in C."""
        if self._metric(delta):
            pts = self.coords
            ok = map(le, map(math.dist, _gather(pts, cells), _gather(pts, moved)), repeat(delta))
        else:
            ok = map(contains, _gather(self.neighbors, cells), moved)
        return map(or_, map(eq, cells, moved), ok)

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
