"""Guarded substitution of a data-driven controller into a verified tree.

A fallback of the form (task-done condition, model-based action) is replaced
by a fallback that first tries a data-driven controller while a time budget
and a risk condition hold, then a risk-reduction controller while the time
budget holds, and finally the original model-based action.  The state is
augmented with a saturating step counter (the time budget) and a hysteresis
counter measuring consecutive time spent in the risk-ok region, so all
region machinery applies verbatim to the product universe.

The module mechanically verifies what the substitution is supposed to
preserve: the subtree's propagated success region stays equal to the
task-done region with an empty failure region, the transition graph changes
only by the documented data-driven/risk-reduction loop, the loop is left
within the time budget, and the whole model re-certifies.

Re-certification proves each lifted member's hypotheses, the one-step check
and the finite-time-success check, on the base universe.  A lifted member
is an action leaf whose regions, controller and basin data are lifts of
base leaf data: every leaf of the old model, the risk-reduction leaf with
hysteresis off, and the data-driven leaf when its targets are given per
base cell.  This is exact because lifting commutes with the projection to
base cells.  A lifted map sends (c, t, h) to (T(c), s(t, h)), and the
augmented cell (c, t, h) has the neighbours (q, s(t, h)) for every base
step q of c, so a product step is legal iff its base step is; lifted
regions are whole blocks, so basin and goal invariance, the static rules
and every hit time equal their base counterparts.  The risk-reduction leaf
with hysteresis on (its success and goal read the hysteresis counter) and
a data-driven leaf with per-augmented-cell targets are checked on the
product, as is any member whose base check fails, so every failure is the
one the product check names.

Most classes' exit times are read off a base walk too.  Call a product
region R with base projection B counter-blind when (1) R = B x P for one
in-block pattern P, (2) P = {(t, h) : t in S} reads the time counter only,
and (3) every cell of R is reached by an action leaf v that lifts base
data, with reached[v] & R = B_v x P.  The leaves' tick regions partition
the universe, so the B_v partition B, and (3) with P read off one block of
R implies (1).  The closed loop sends (c, t, h) in R to
(T_v(c), min(t + 1, T), h'), where v is the leaf whose B_v holds c, so no
target in R is None, and by (1) and (2) that cell lies in R iff T_v(c) is
in B and min(t + 1, T) is in S, whatever h' is.  So the walk from
(c, t, h) stays in R exactly while the base walk c -> T_v(c) stays in B
and the counter walk t -> min(t + 1, T) stays in S.  The two run
independently, and the walk leaves R at min(e(c), tau(t)), where e(c) is
the base walk's exit time from B and tau(t) the first j >= 1 with
min(t + j, T) outside S, None counting as infinity.  (c, t) ranges over
all of B x S, so the largest exit time is min(max e, max tau).  When both
maxima are None, the walks that never leave start at the cells with e(c)
and tau(t) both None; the smallest, c * block + t * (H + 1) for the
smallest such c and t (h = 0), is the walk's own witness.  A run [a, b] of
S with b < T has its largest tau at a, b - a + 1, and the run that ends at
T never leaves.  Any other region, and every region of a non-product
model, is walked.

The augmentation is itself the product world.  It keeps that step rule,
not a neighbour tuple per augmented cell, and works on whole product masks
with integer shifts: a block pattern's counter image, a lifted region, a
pattern placed in some blocks, a projection and the test of condition 2
each take a few shift, AND, OR and subtract operations on masks built once
per augmentation by doubling, with no Python step per cell or counter
value.  When the guarded loop is a class of the certified condensation on
its own, its exit time is read off the certificate instead of walked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from operator import add, and_, eq, floordiv, getitem, lshift, mod, mul, or_
from typing import Iterator, Mapping, Optional, Sequence

from .bt import BTModel, Doa, LeafData, NodeKind, NodeSpec, condition as condition_spec
from .execution import ExitResult, _exit_times, empirical_exit_time, leaf_fts
from .prepares import (
    FLAVOR_BASIN,
    FLAVOR_GOAL,
    FLAVOR_OUTSIDE,
    Certificate,
    CondensedGraph,
    FtsPreconditionError,
    Refutation,
    build_prepares_graph,
    condense,
    decide,
)
from .statespace import (
    BTConvergeError,
    Region,
    SuccessorMap,
    World,
    WorldError,
    _gather,
    _repeat,
    check_targets,
)

DD_NAME = "dd_controller"
RR_NAME = "rr_controller"
ROK_NAME = "risk_ok"
TOK_DD_NAME = "time_ok_dd"
TOK_RR_NAME = "time_ok_rr"


def _join(parts: list[int], width: int) -> int:
    """The sum of parts[i] << i * width for parts below 2 ** width, joined
    pairwise: one pass in C per doubling of the width."""
    while len(parts) > 1:
        if len(parts) % 2:
            parts.append(0)
        parts = list(map(or_, parts[::2], map(lshift, parts[1::2], repeat(width))))
        width *= 2
    return parts[0] if parts else 0


class SubstitutionError(BTConvergeError):
    pass


@dataclass(frozen=True)
class RrLeaf:
    """Risk-reduction controller data over the base universe."""

    success: Region
    failure: Region
    controller: SuccessorMap
    doa: Optional[Doa] = None


@dataclass(frozen=True)
class SubstitutionSpec:
    """What to install at the target fallback.

    dd_targets gives the data-driven controller's base-cell target per base
    cell (length N) or per augmented cell (length N * budgets), so a learned
    policy may read the counters.  dd_success / dd_failure are the
    data-driven leaf's base success and failure regions, read from the
    document's optional ``dd_success`` / ``dd_failure`` cell lists; absent
    means empty.  The requirement that R_DD is the whole universe holds
    exactly when both are empty, and ``substitute`` checks it that way.
    """

    target: int
    dd_targets: Sequence[int]
    rr: RrLeaf
    rok_success: Region
    time_budget: int
    hysteresis_cap: int = 0
    hysteresis: bool = False
    dd_success: Optional[Region] = None
    dd_failure: Optional[Region] = None


class Augmentation(World):
    """Product of a base universe with time and hysteresis counters, as a world.

    The time counter advances by one each step and saturates at the budget;
    the hysteresis counter follows the consecutive-risk-ok rule: it
    increments (capped) when the pre-step base cell sits in the risk-ok
    region and resets to zero otherwise.  One-step adjacency is directed:
    counter components move exactly as forced, base components move to a
    neighboring-or-same base cell.

    The layout is base-cell-major: base cell c owns the block of
    ``block = (time_cap + 1) * (hyst_cap + 1)`` augmented cells starting at
    ``c * block``, and (t, h) sits at offset ``t * (hyst_cap + 1) + h``
    inside it; ``encode`` / ``decode`` convert single cells.  A lifted or
    counter region is an in-block pattern P placed in some blocks: with S
    the mask of those blocks' first cells, the blocks are (S << block) - S,
    and ANDing them with P repeated in every block (``_tile``, built by
    doubling and kept per pattern while the augmentation lives) cuts them
    to P.  S comes from the base mask in one shift level per binary digit
    of the base cell count; the levels run backwards to project.

    The cell at offset o of base cell c's block steps to the block of every
    base step q of c (c included), at the offset of its counters'
    successor.  The world keeps that rule and asks the base world for every
    base step: ``dilate`` ORs each block pattern's image under the counter
    step (``_image``) into the blocks of the base world's dilation of its
    base cells, and ``_steps_ok`` tests the counter offset and hands the
    base pair to the base world's test.  The per-offset successor table is
    built only when read, by lifted maps and the one-step check, and the
    neighbour tuples only by the spec writer.
    """

    __slots__ = (
        "base",
        "time_cap",
        "hyst_cap",
        "base_delta",
        "block",
        "_rok",
        "_successors",
        "_col0",
        "_last",
        "_rises",
        "_spread",
        "_tiles",
    )

    def __init__(
        self,
        base: World,
        time_cap: int,
        hyst_cap: int,
        rok_base: Region,
        base_delta: Optional[float] = None,
    ) -> None:
        if time_cap < 0 or hyst_cap < 0:
            raise SubstitutionError("counter caps must be non-negative")
        block = (time_cap + 1) * (hyst_cap + 1)
        super().__init__(base.cell_count * block)
        self.base = base
        self.time_cap = time_cap
        self.hyst_cap = hyst_cap
        self.base_delta = base_delta
        self.block = block
        base._metric(base_delta)  # raises unless the base world can answer for base_delta
        stride = hyst_cap + 1
        self._successors: Optional[dict[str, tuple[int, ...]]] = None
        self._rok = rok_base.digits()
        # in-block masks, each built by doubling: column h = 0, its cell in
        # the last row, and the cells whose counters step by +s+1, +s, +1 and
        # +0 inside the risk-ok region (t < T and h < H, t < T and h = H,
        # t = T and h < H, and (T, H))
        self._col0 = _repeat(1, stride, time_cap + 1)
        self._last = 1 << time_cap * stride
        self._rises = (
            _repeat((1 << hyst_cap) - 1, stride, time_cap),
            (self._col0 ^ self._last) << hyst_cap,
            (1 << hyst_cap) - 1 << time_cap * stride,
            self._last << hyst_cap,
        )
        # the levels that move bit c of a base mask to bit c * block, highest
        # first: level g moves the upper half of each group of 2g bits by g * (block - 1)
        levels, g = [], 1
        while g < base.cell_count:
            groups = -(-base.cell_count // (2 * g))
            levels.append((g * (block - 1), _repeat((1 << g) - 1 << g, 2 * g * block, groups)))
            g *= 2
        self._spread = levels[::-1]
        self._tiles: dict[int, int] = {}

    def _counter_steps(self) -> dict[str, tuple[int, ...]]:
        """Per in-block offset, the in-block offset of the counters' successor,
        outside ("0") and inside ("1") the risk-ok region: t -> min(t + 1, T)
        and h -> 0 or min(h + 1, H).  Built on first read; only the per-cell
        readers (neighbour tuples, lifted targets, the one-step check) read it."""
        if self._successors is None:
            time_cap, hyst_cap, stride = self.time_cap, self.hyst_cap, self.hyst_cap + 1
            times = chain(range(stride, time_cap * stride + 1, stride), (time_cap * stride,))
            reset = tuple(chain.from_iterable(map(repeat, times, repeat(stride))))
            hysts = chain.from_iterable(repeat((*range(1, stride), hyst_cap), time_cap + 1))
            self._successors = {"0": reset, "1": tuple(map(add, reset, hysts))}
        return self._successors

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per augmented cell, the ascending cells one step away: built on first
        read, by the spec writer only, from one base dilation per base cell."""
        if self._neighbors is None:
            # Column q of a source block: where each of its cells goes when the
            # base part moves to q.  Zipping the columns of a base cell's sorted
            # steps gives each of its augmented cells a sorted neighbour tuple.
            starts = range(0, self.cell_count, self.block)
            columns = {
                flag: [tuple(map(q.__add__, offsets)) for q in starts]
                for flag, offsets in self._counter_steps().items()
                if flag in self._rok
            }
            near_aug: list[tuple[int, ...]] = []
            for c in range(self.base.cell_count):
                near = self.base.dilate(self.base.region([c]), self.base_delta).cells()
                near_aug.extend(zip(*map(columns[self._rok[c]].__getitem__, near)))
            self._neighbors = tuple(near_aug)
        return self._neighbors

    def dilate(self, region: Region, delta: Optional[float] = None) -> Region:
        """The cells at most one step from region, region included; delta is unused.

        Each base cell's block of region is an in-block pattern, read off the
        mask's bytes.  The base cells of each (pattern, risk-ok flag) are
        dilated once in the base world, and the pattern's image under the
        counter step (``_image``: a few shifts and masks) is ORed into the
        block of each cell reached; the blocks are joined pairwise
        (``_join``).  A product slice, lifts cut by counter patterns, holds
        few such groups; each distinct pattern costs one base dilation.
        """
        if region.n != self.cell_count:
            raise WorldError("regions belong to a different universe")
        n, k, whole = self.base.cell_count, self.block, (1 << self.block) - 1
        data = region.mask.to_bytes(-(-self.cell_count // 8), "little")
        groups: dict[tuple[int, str], list[int]] = {}
        for c, start in enumerate(range(0, self.cell_count, k)):
            pattern = int.from_bytes(data[start >> 3 : (start + k >> 3) + 1], "little")
            pattern = pattern >> (start & 7) & whole
            if pattern:
                groups.setdefault((pattern, self._rok[c]), []).append(c)
        blocks = [0] * n
        for (pattern, flag), cells in groups.items():
            image = self._image(pattern, flag == "1")
            for q in self.base.dilate(Region.from_cells(n, cells), self.base_delta).cells():
                blocks[q] |= image
        return Region(self.cell_count, _join(blocks, k) | region.mask)

    def _steps_ok(
        self, cells: list[int], moved: Sequence[int], delta: Optional[float]
    ) -> Iterator[bool]:
        """Per cell, whether its target in moved is itself or one step away; delta
        is unused.  A step moves the counters to their successor and the base
        cell by a base step, which the base world tests with the base bound."""
        k = self.block
        offsets = map(mod, cells, repeat(k))
        owners = list(map(floordiv, cells, repeat(k)))
        successors = map(self._counter_steps().__getitem__, _gather(self._rok, owners))
        counters_ok = map(eq, map(mod, moved, repeat(k)), map(getitem, successors, offsets))
        base_ok = self.base._steps_ok(owners, tuple(map(floordiv, moved, repeat(k))), self.base_delta)
        return map(or_, map(eq, cells, moved), map(and_, counters_ok, base_ok))

    def _image(self, pattern: int, rok: bool) -> int:
        """The in-block pattern's image under the counter step, inside (rok) or
        outside the risk-ok region."""
        stride = self.hyst_cap + 1
        if rok:  # t -> min(t + 1, T), h -> min(h + 1, H)
            both, time, hyst, still = self._rises
            return (
                (pattern & both) << stride + 1
                | (pattern & time) << stride
                | (pattern & hyst) << 1
                | pattern & still
            )
        # t -> min(t + 1, T), h -> 0: each nonempty row lands on column 0 of the next
        rows = self._row_or(pattern)
        last = rows & self._last
        return (rows ^ last) << stride | last

    def _row_or(self, pattern: int) -> int:
        """Column 0 of each row of the in-block pattern that holds a cell:
        each row ORed onto its first offset by floor(log2 stride) + 1 shift-ORs."""
        stride, width = self.hyst_cap + 1, 1
        while 2 * width <= stride:
            pattern |= pattern >> width
            width *= 2
        return (pattern | pattern >> stride - width) & self._col0

    def _time_set(self, pattern: int) -> Optional[str]:
        """"1" at each counter value t of S, t = 0 first, when the in-block
        pattern is {(t, h) : t in S} and so reads the time counter only; else None."""
        stride = self.hyst_cap + 1
        rows = self._row_or(pattern)
        if pattern != (rows << stride) - rows:
            return None
        return bin(rows)[:1:-1][::stride].ljust(self.time_cap + 1, "0")

    # ------------------------------------------------------------------
    def encode(self, c: int, t: int, h: int) -> int:
        return (c * (self.time_cap + 1) + t) * (self.hyst_cap + 1) + h

    def decode(self, cell: int) -> tuple[int, int, int]:
        cell, h = divmod(cell, self.hyst_cap + 1)
        c, t = divmod(cell, self.time_cap + 1)
        return c, t, h

    def _lift(self, base_mask: int) -> int:
        """The mask of every cell in the blocks of base_mask's cells: (S << block) - S,
        with S holding the first cell of each of those blocks."""
        starts = base_mask  # bit c moves to bit c * block, one level at a time
        for shift, upper in self._spread:
            moved = starts & upper
            starts ^= moved ^ moved << shift
        return (starts << self.block) - starts

    def _tile(self, pattern: int) -> int:
        """The in-block pattern in every block, built by doubling once per pattern."""
        tile = self._tiles.get(pattern)
        if tile is None:
            tile = self._tiles[pattern] = _repeat(pattern, self.block, self.base.cell_count)
        return tile

    def _blocks(self, base_mask: int, pattern: int) -> int:
        """The mask of the in-block pattern placed in the block of every base cell of base_mask."""
        if not (base_mask and pattern):
            return 0
        return self._lift(base_mask) & self._tile(pattern)

    def lift_region(self, base_region: Region) -> Region:
        if base_region.is_empty:
            return Region(self.cell_count)
        return Region(self.cell_count, self._lift(base_region.mask))

    def project_region(self, region: Region) -> Region:
        """The base cells some augmented cell of region lies over."""
        if region.n != self.cell_count:
            raise WorldError(
                f"region over {region.n} cells is not over the augmented universe "
                f"of {self.cell_count} cells"
            )
        top = self.block - 1
        rest = self._tile((1 << top) - 1)  # every cell of a block but its last
        # adding rest to a block's other cells carries into its last cell iff one is set
        held = ((region.mask & rest) + rest | region.mask) & self._tile(1 << top)
        cells = held >> top  # bit c * block moves back to bit c, the lowest level first
        for shift, upper in reversed(self._spread):
            moved = cells & upper << shift
            cells ^= moved ^ moved >> shift
        return Region(self.base.cell_count, cells)

    def time_ok_region(self) -> Region:
        """Cells whose time counter is below the budget: t < time_cap."""
        return Region(self.cell_count, self._tile((1 << self.time_cap * (self.hyst_cap + 1)) - 1))

    def hysteresis_ready_region(self) -> Region:
        """Cells whose hysteresis counter sits at its cap."""
        return Region(self.cell_count, self._tile(self._col0 << self.hyst_cap))

    def lift_map(self, base_targets: Sequence[int]) -> SuccessorMap:
        """Lift base-cell targets (indexed by base or augmented cell), checked
        against the base universe here; the lifted targets are built on first read."""
        k = self.block
        per_aug = len(base_targets) == self.cell_count
        if not per_aug and len(base_targets) != self.base.cell_count:
            raise SubstitutionError("target array length matches neither universe")
        base_targets = tuple(base_targets)
        check_targets(base_targets, self.base.cell_count)

        def fill() -> Iterator[int]:
            # per augmented cell: the target block's start plus its counters' offset
            starts = map(mul, base_targets, repeat(k))
            if not per_aug:
                starts = chain.from_iterable(map(repeat, starts, repeat(k)))
            offsets = chain.from_iterable(map(self._counter_steps().__getitem__, self._rok))
            return map(add, starts, offsets)

        return SuccessorMap.lazy(self.cell_count, fill)

    def lift_leaf(self, leaf: LeafData) -> LeafData:
        controller = None
        if leaf.controller is not None:
            controller = self.lift_map(leaf.controller.targets)
        doa = None
        if leaf.doa is not None:
            doa = Doa(
                self.lift_region(leaf.doa.basin),
                self.lift_region(leaf.doa.goal),
                leaf.doa.horizon,
            )
        return LeafData(
            leaf.name,
            leaf.kind,
            self.lift_region(leaf.success),
            self.lift_region(leaf.failure),
            controller,
            doa,
        )


@dataclass(frozen=True)
class SubstitutionResult:
    old_model: BTModel
    new_model: BTModel
    augmentation: Augmentation
    spec: SubstitutionSpec
    target_old: int
    target_new: int
    td_base_success: Region
    # the base leaf data each lifted new leaf lifts, by name: every old leaf,
    # the risk-reduction leaf with hysteresis off, and the data-driven leaf
    # with per-base-cell targets
    lifts: Mapping[str, LeafData]


def _target_shape(model: BTModel, target: int) -> tuple[int, int]:
    if not 0 <= target < model.n or model.kinds[target] is not NodeKind.FALLBACK:
        raise SubstitutionError(f"target vertex {target} is not a fallback node")
    kids = model.tree.children[target]
    if len(kids) != 2:
        raise SubstitutionError("target fallback must have exactly two children")
    td, mb = kids
    if model.kinds[td] is not NodeKind.CONDITION or model.kinds[mb] is not NodeKind.ACTION:
        raise SubstitutionError("target children must be a condition then an action")
    return td, mb


def substitute(
    model: BTModel,
    spec: SubstitutionSpec,
    base_delta: Optional[float] = None,
    enforce: bool = True,
) -> SubstitutionResult:
    """Build the augmented model with the guarded subtree installed.

    With enforce on, the four displayed requirements are checked on the base
    regions first and a violation is reported by name; enforce off exists so
    tests can watch the preservation check catch a bad spec.

    With the hysteresis guard on, the risk-reduction leaf's goal also needs
    the hysteresis counter at its cap, and its deadline grows by that cap.
    The base goal lies in S_RR, inside S_ROK, and is closed under the base
    controller, so once the base walk reaches it the counter rises by one
    each step and reaches the cap within hysteresis_cap more steps.  The
    leaf is no lift, so its product check confirms the figure.
    """
    td, mb = _target_shape(model, spec.target)
    td_leaf = model.leaves[td]
    mb_leaf = model.leaves[mb]
    base_empty = Region.empty(model.world.cell_count)
    dd_success = spec.dd_success if spec.dd_success is not None else base_empty
    dd_failure = spec.dd_failure if spec.dd_failure is not None else base_empty
    if enforce:
        if not mb_leaf.success.issubset(td_leaf.success):
            raise SubstitutionError("violated requirement: S_MB inside S_TD")
        if not (dd_success | dd_failure).is_empty:
            raise SubstitutionError("violated requirement: R_DD is the whole universe")
        if not spec.rr.success.issubset(spec.rok_success):
            raise SubstitutionError("violated requirement: S_RR inside S_ROK")
        if not td_leaf.failure.isdisjoint(mb_leaf.failure):
            raise SubstitutionError("violated requirement: F_TD and F_MB disjoint")
    aug = Augmentation(
        model.world, spec.time_budget, spec.hysteresis_cap, spec.rok_success, base_delta
    )
    taken = set(model.leaf_by_name)
    for name in (DD_NAME, RR_NAME, ROK_NAME, TOK_DD_NAME, TOK_RR_NAME):
        if name in taken:
            raise SubstitutionError(f"leaf name {name!r} already used by the model")

    time_ok = aug.time_ok_region()
    rok_region = aug.lift_region(spec.rok_success)
    no_doa = Doa(base_empty, base_empty, 1)  # an empty basin: the FTS check holds vacuously
    dd_base = LeafData(
        DD_NAME,
        NodeKind.ACTION,
        dd_success,
        dd_failure,
        None,
        no_doa,
    )
    # the targets may be given per augmented cell, so they are lifted on their own
    dd_leaf = aug.lift_leaf(dd_base)._replace(controller=aug.lift_map(spec.dd_targets))
    rr_base = LeafData(
        RR_NAME,
        NodeKind.ACTION,
        spec.rr.success,
        spec.rr.failure,
        spec.rr.controller,
        spec.rr.doa if spec.rr.doa is not None else no_doa,
    )
    rr_leaf = aug.lift_leaf(rr_base)
    lifts = {leaf.name: leaf for leaf in model.leaves.values()}
    if len(spec.dd_targets) == model.world.cell_count:
        lifts[DD_NAME] = dd_base._replace(controller=SuccessorMap(spec.dd_targets))
    if spec.hysteresis:
        # the counter guard applies to the risk condition and, with it, to
        # what counts as finished risk reduction; gating only the condition
        # would let the subtree succeed through the risk-reduction branch in
        # counter-reset states and break the preservation identity
        ready = aug.hysteresis_ready_region()
        rok_region &= ready
        doa = rr_leaf.doa
        rr_leaf = rr_leaf._replace(
            success=rr_leaf.success & ready,
            doa=Doa(doa.basin, doa.goal & ready, doa.horizon + spec.hysteresis_cap),
        )
    elif spec.rr.controller.n == model.world.cell_count:
        lifts[RR_NAME] = rr_base

    def rebuild(v: int) -> NodeSpec:
        if v == spec.target:
            return NodeSpec(
                NodeKind.FALLBACK,
                (
                    NodeSpec(NodeKind.CONDITION, leaf=aug.lift_leaf(td_leaf)),
                    NodeSpec(
                        NodeKind.SEQUENCE,
                        (
                            condition_spec(TOK_DD_NAME, time_ok),
                            condition_spec(ROK_NAME, rok_region),
                            NodeSpec(NodeKind.ACTION, leaf=dd_leaf),
                        ),
                    ),
                    NodeSpec(
                        NodeKind.SEQUENCE,
                        (
                            condition_spec(TOK_RR_NAME, time_ok),
                            NodeSpec(NodeKind.ACTION, leaf=rr_leaf),
                        ),
                    ),
                    NodeSpec(NodeKind.ACTION, leaf=aug.lift_leaf(mb_leaf)),
                ),
            )
        kind = model.kinds[v]
        if kind in (NodeKind.SEQUENCE, NodeKind.FALLBACK):
            return NodeSpec(kind, tuple(rebuild(c) for c in model.tree.children[v]))
        return NodeSpec(kind, leaf=aug.lift_leaf(model.leaves[v]))

    new_model = BTModel(aug, rebuild(model.tree.root))
    # locate the rebuilt target: parent of the new MB leaf
    mb_new = new_model.vertex_of(mb_leaf.name)
    target_new = new_model.tree.parent[mb_new]
    return SubstitutionResult(
        old_model=model,
        new_model=new_model,
        augmentation=aug,
        spec=spec,
        target_old=spec.target,
        target_new=target_new,
        td_base_success=td_leaf.success,
        lifts=lifts,
    )


@dataclass(frozen=True)
class PreservationVerdict:
    ok: bool
    detail: str = ""
    witness: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_preservation(result: SubstitutionResult) -> PreservationVerdict:
    """Extensional check that the swap left the subtree's regions untouched.

    The new subtree's propagated success region must equal the old one and
    also the lifted task-done region; both failure regions must be empty.
    Reported per augmented cell with the first difference as witness.
    """
    aug = result.augmentation
    old_analysis = result.old_model.analysis()
    new_analysis = result.new_model.analysis()
    s_old = aug.lift_region(old_analysis.success[result.target_old])
    f_old = aug.lift_region(old_analysis.failure[result.target_old])
    s_new = new_analysis.success[result.target_new]
    f_new = new_analysis.failure[result.target_new]
    s_td = aug.lift_region(result.td_base_success)
    if s_new != s_old:
        diff = (s_new - s_old) | (s_old - s_new)
        return PreservationVerdict(False, "new success region differs from old", diff.any_cell())
    if s_new != s_td:
        diff = (s_new - s_td) | (s_td - s_new)
        return PreservationVerdict(
            False, "subtree success region differs from task-done region", diff.any_cell()
        )
    if not f_old.is_empty:
        return PreservationVerdict(False, "old subtree can fail", f_old.any_cell())
    if not f_new.is_empty:
        return PreservationVerdict(False, "new subtree can fail", f_new.any_cell())
    return PreservationVerdict(True)


@dataclass(frozen=True)
class SubstitutionReport:
    ok: bool
    graph_diffs: tuple[str, ...]
    loop_exit_steps: Optional[int]
    result: Certificate | Refutation | FtsPreconditionError

    def __bool__(self) -> bool:
        return self.ok and isinstance(self.result, Certificate)


def verify_substituted_convergence(
    old_cert: Certificate,
    result: SubstitutionResult,
    seeds: Optional[Sequence[int]] = None,
) -> SubstitutionReport:
    """Re-derive the transition graph and certificate of the substituted model.

    The new graph may differ from the old one only by the guarded loop of
    the data-driven slice (dd, a) and the risk-reduction slice (rr, b),
    plus (rr, a) with the hysteresis guard on, and the loop must be left
    within the time budget.  old_cert is the old model's certificate, or
    any object with its ``graph``; a Refutation or failed hypotheses raise
    SubstitutionError.  Both graphs' edges are read as pairs of (new owner,
    flavor) keys, old owners mapped by leaf name, and must meet three set
    conditions; an edge breaking 1 or 2 raises, and a break of 3 is a
    reported graph diff:

    1. an edge out of dd or rr ends in a loop slice, (mb, b) or an old
       successor of an mb slice;
    2. any other edge into dd or rr starts at an mb slice or at an old
       predecessor of one;
    3. the edges with no dd or rr end equal the old edges, except that an
       old edge into mb may be missing when its source now has an edge
       into the loop.

    The loop's exit time is read off the certificate when the loop is
    exactly one of its non-sink classes.  Otherwise it is read off a base
    walk when the loop is counter-blind, and walked on the product if not.
    The report carries the diffs and the loop exit whatever the verdict.
    seeds are class ids of the new model's condensation, read as ``decide``
    reads them: only once the hypotheses hold, so with failed hypotheses the
    result is the failures value whatever seeds names.
    """
    if isinstance(old_cert, (Refutation, FtsPreconditionError)):
        raise SubstitutionError(f"old verdict is not a certificate: {type(old_cert).__name__}")
    new_model, old_model = result.new_model, result.old_model
    mb_v = new_model.leaf_by_name[old_model.names[_target_shape(old_model, result.target_old)[1]]]
    dd_v, rr_v = new_model.vertex_of(DD_NAME), new_model.vertex_of(RR_NAME)
    loop_owners = {dd_v, rr_v}
    # old owners map to new ones by leaf name; names are unique, so the map is injective
    old_keys = [
        (new_model.leaf_by_name[old_model.names[v.owner]], v.flavor)
        for v in old_cert.graph.vertices
    ]
    abstraction = sorted({owner for owner, _flavor in old_keys} | loop_owners)
    new_graph = build_prepares_graph(new_model, abstraction)
    new_keys = [v.key() for v in new_graph.vertices]
    old = {(old_keys[u], old_keys[w]) for u, w in old_cert.graph.edges}
    # build_prepares_graph sorts vertices by key, so this is the graph's index order
    new = sorted((new_keys[u], new_keys[w]) for u, w in new_graph.edges)

    # with the hysteresis guard on, rr also runs on risk-ok cells below the counter cap,
    # which may lie outside its basin
    rr_flavors = {FLAVOR_BASIN, FLAVOR_OUTSIDE} if result.spec.hysteresis else {FLAVOR_BASIN}
    diffs: list[str] = []
    # well-behavedness: the loop owners expose exactly the expected slices
    for owner, flavors in ((dd_v, {FLAVOR_OUTSIDE}), (rr_v, rr_flavors), (mb_v, {FLAVOR_BASIN, FLAVOR_GOAL})):
        got = {v.flavor for v in new_graph.vertices if v.owner == owner}
        extra = got - flavors
        if extra:
            diffs.append(
                f"owner {new_model.names[owner]} has unexpected slices {sorted(extra)}"
            )

    exits = {(dd_v, FLAVOR_OUTSIDE), (mb_v, FLAVOR_BASIN)} | {(rr_v, f) for f in rr_flavors}
    exits |= {w for u, w in old if u[0] == mb_v}
    entries = {u for u, w in old if w[0] == mb_v}
    for u, w in new:
        if u[0] in loop_owners:
            if w not in exits:
                raise SubstitutionError(f"illegal edge out of the guarded loop: {u} -> {w}")
        elif w[0] in loop_owners and u[0] != mb_v and u not in entries:
            raise SubstitutionError(f"illegal edge into the guarded loop: {u} -> {w}")

    # condition 3: old flow into the model-based slice may now route via the loop
    plain = {(u, w) for u, w in new if u[0] not in loop_owners and w[0] not in loop_owners}
    into_loop = {u for u, w in new if w[0] in loop_owners}
    diffs.extend(f"new edge absent from old graph: {edge}" for edge in sorted(plain - old))
    missing = [(u, w) for u, w in sorted(old - plain) if w[0] != mb_v or u not in into_loop]
    diffs.extend(f"old edge missing from new graph: {edge}" for edge in missing)

    condensed = condense(new_graph)
    outcome = _certify_substituted(result, abstraction, seeds, condensed)
    loop = tuple(i for i, vtx in enumerate(new_graph.vertices) if vtx.owner in loop_owners)
    loop_exit: Optional[int] = None
    if loop:
        ci = condensed.class_of[loop[0]]
        per_class = outcome.per_class_exit if isinstance(outcome, Certificate) else {}
        if condensed.classes[ci] == loop and ci in per_class:
            # certification timed the loop's class, which is exactly the loop, from every cell
            loop_exit, witness = per_class[ci], None
        else:
            loop_cells = Region.empty(new_model.world.cell_count)
            for i in loop:
                loop_cells |= new_graph.vertices[i].cells
            exit_result = _class_exit(result, loop_cells)
            loop_exit, witness = exit_result.steps, exit_result.witness
        if loop_exit is None:
            diffs.append(f"guarded loop never exits from cell {witness}")
        elif loop_exit > result.spec.time_budget:
            diffs.append(
                f"guarded loop exit takes {loop_exit} steps, over the "
                f"budget of {result.spec.time_budget}"
            )

    return SubstitutionReport(
        ok=not diffs and isinstance(outcome, Certificate),
        graph_diffs=tuple(diffs),
        loop_exit_steps=loop_exit,
        result=outcome,
    )


def _certify_substituted(
    result: SubstitutionResult,
    members: Sequence[int],
    seeds: Optional[Sequence[int]],
    condensed: CondensedGraph,
) -> Certificate | Refutation | FtsPreconditionError:
    """decide(result.new_model, members, seeds=seeds) on condensed, with the
    hypotheses of each lifted member checked on the base universe.

    The one-step check covers the base cells under the member's operating
    region; the module docstring says why both checks are exact.  A member
    that fails on the base is checked on the product, which gives what
    decide gives.  A counter-blind class's exit time is read off a base
    walk, and any other class is walked on the product.
    """
    model, aug = result.new_model, result.augmentation
    omega = model.analysis().omega
    ids = list(range(aug.base.cell_count))

    def holds_on_base(v: int) -> bool:
        base = result.lifts.get(model.names[v])
        if base is None or base.controller is None or base.doa is None:
            return False
        if not omega[v].is_empty:
            cells = (aug.project_region(omega[v]) & base.controller.moved).pick(ids)
            if not aug.base.steps_hold(cells, base.controller.targets, aug.base_delta):
                return False
        return leaf_fts(base).ok

    unproven = [v for v in members if not holds_on_base(v)]
    exit_time = partial(_class_exit, result)
    return decide(model, members, None, seeds, checked=unproven, condensed=condensed, exit_time=exit_time)


def _class_exit(result: SubstitutionResult, region: Region) -> ExitResult:
    """The closed loop's exit time from region: read off a base walk when region
    is counter-blind, walked on the product otherwise."""
    blind = _counter_blind_exit(result, region)
    return empirical_exit_time(result.new_model, region) if blind is None else blind


def _counter_blind_exit(result: SubstitutionResult, region: Region) -> Optional[ExitResult]:
    """empirical_exit_time(result.new_model, region) for a nonempty counter-blind
    region, from one walk over its base cells; None when region is not
    counter-blind.

    The conditions and the proof are in the module docstring.
    """
    model, aug = result.new_model, result.augmentation
    k = aug.block
    base = aug.project_region(region)
    # P, read off region's first block; condition 3 below implies condition 1
    pattern = region.mask >> base.any_cell() * k & (1 << k) - 1
    # 2: each counter value t is in the pattern with every h or with none
    times = aug._time_set(pattern)
    if times is None:
        return None
    # 3: each leaf reached on region lifts a base action leaf, on base cells x pattern
    reached = model.analysis().reached
    targets: list[Optional[int]] = [None] * aug.base.cell_count
    for v, leaf in model.leaves.items():
        here = reached[v] & region
        if here.is_empty:
            continue
        lift = result.lifts.get(leaf.name)
        if lift is None or lift.controller is None:  # no lift, or a condition resolves here
            return None
        cells = aug.project_region(here)
        if aug._blocks(cells.mask, pattern) != here.mask:
            return None
        for c in cells.cells():
            targets[c] = lift.controller.targets[c]
    starts = list(base.cells())
    exits = _exit_times(targets, base.digits(), starts)
    finite = times.rstrip("1")  # the run of S that ends at T, if any, never leaves
    base_max = None if None in exits else max(exits)
    time_max = max(map(len, finite.split("0"))) if len(finite) == len(times) else None
    if base_max is None and time_max is None:
        return ExitResult(None, aug.encode(starts[exits.index(None)], len(finite), 0))
    return ExitResult(min(x for x in (base_max, time_max) if x is not None))
