"""Behavior-tree models over a finite cell universe and their region analysis.

A model is an ordered tree whose internal vertices are Sequence or Fallback
composition nodes and whose leaves are Action or Condition nodes carrying
success/failure regions (and, for actions, one-step dynamics plus an
optional attraction basin).  The analysis computes, per vertex:

* the running/success/failure regions, propagated bottom-up from the leaves;
* the influence region, the necessary condition for the vertex to determine
  the root's output;
* membership in the success/failure pathway sets;
* the operating region, the sufficient condition under which the root's
  output equals the vertex's output;
* the tick region, the cells where the tick reaches the vertex, which the
  closed loop and the per-cell leaf table are read from.

All but the first come from one top-down pass.

Everything is exact set computation on bitset regions, so the analysis can
be cross-checked exhaustively against per-cell evaluation of the tick
cascade.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Optional

from .ordered_tree import OrderedTree
from .statespace import BTConvergeError, Region, SuccessorMap, World


class ModelError(BTConvergeError):
    """Raised when a behavior-tree model violates its invariants."""


class NodeKind(enum.Enum):
    SEQUENCE = "seq"
    FALLBACK = "fal"
    ACTION = "action"
    CONDITION = "condition"


class Status(enum.Enum):
    RUNNING = "running"
    SUCCESS = "success"
    FAILURE = "failure"


class FrozenRecord:
    """Base of the records that cannot be NamedTuples, because their
    constructor checks its arguments or they define ``__len__``.

    Like a NamedTuple, a record holds its fields in ``__slots__`` order,
    refuses assignment, hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``; it equals only records of its own type with
    equal fields.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle call the constructor, which may check
        return type(self), self._values()


class Doa(FrozenRecord):
    """Attraction basin data for one action: basin, goal, step deadline."""

    __slots__ = ("basin", "goal", "horizon")
    basin: Region
    goal: Region
    horizon: int

    def __init__(self, basin: Region, goal: Region, horizon: int) -> None:
        if horizon <= 0:
            raise ModelError("doa horizon must be a positive step count")
        super().__init__(basin, goal, horizon)


class LeafData(NamedTuple):
    name: str
    kind: NodeKind
    success: Region
    failure: Region
    controller: Optional[SuccessorMap] = None
    doa: Optional[Doa] = None


class NodeSpec(NamedTuple):
    kind: NodeKind
    children: tuple["NodeSpec", ...] = ()
    leaf: Optional[LeafData] = None


def seq(*children: NodeSpec) -> NodeSpec:
    return NodeSpec(NodeKind.SEQUENCE, tuple(children))


def fal(*children: NodeSpec) -> NodeSpec:
    return NodeSpec(NodeKind.FALLBACK, tuple(children))


def action(
    name: str,
    success: Region,
    failure: Optional[Region] = None,
    controller: Optional[SuccessorMap] = None,
    doa: Optional[Doa] = None,
) -> NodeSpec:
    if failure is None:
        failure = Region.empty(success.n)
    return NodeSpec(
        NodeKind.ACTION,
        leaf=LeafData(name, NodeKind.ACTION, success, failure, controller, doa),
    )


def condition(name: str, success: Region, failure: Optional[Region] = None) -> NodeSpec:
    if failure is None:
        failure = success.complement()
    return NodeSpec(NodeKind.CONDITION, leaf=LeafData(name, NodeKind.CONDITION, success, failure))


def check_leaf(leaf: LeafData, world: World) -> None:
    """Raise ModelError unless the leaf's regions, dynamics and basin fit its kind and world."""
    universe = world.full_region()
    if leaf.success.n != world.cell_count:
        raise ModelError(f"leaf {leaf.name!r} regions are over a different universe")
    if not leaf.success.isdisjoint(leaf.failure):
        raise ModelError(f"leaf {leaf.name!r} has overlapping success and failure")
    if leaf.kind is NodeKind.CONDITION:
        if (leaf.success | leaf.failure) != universe:
            raise ModelError(f"condition {leaf.name!r} must have an empty running region")
        if leaf.controller is not None:
            raise ModelError(f"condition {leaf.name!r} cannot carry a controller")
    else:
        if leaf.controller is None:
            raise ModelError(f"action {leaf.name!r} needs a controller")
        if leaf.controller.n != world.cell_count:
            raise ModelError(f"action {leaf.name!r} controller universe mismatch")
    if leaf.doa is not None:
        running = universe - leaf.success - leaf.failure
        if not leaf.doa.basin.issubset(running | leaf.success):
            raise ModelError(f"leaf {leaf.name!r}: basin must avoid the failure region")
        if not leaf.doa.goal.issubset(leaf.doa.basin & leaf.success):
            raise ModelError(f"leaf {leaf.name!r}: goal must lie in basin and success region")


class BTModel:
    """An immutable behavior-tree model bound to a world.

    Vertex ids are assigned by depth-first preorder over the node spec, so
    sibling order matches the order children were written in.
    """

    __slots__ = (
        "world",
        "tree",
        "kinds",
        "names",
        "leaves",
        "leaf_by_name",
        "_analysis",
        "_loop",
        "_leaf_at",
    )

    def __init__(self, world: World, spec: NodeSpec) -> None:
        kinds: list[NodeKind] = []
        names: list[Optional[str]] = []
        leaves: dict[int, LeafData] = {}
        children: list[list[int]] = []

        def visit(node: NodeSpec) -> int:
            vid = len(kinds)
            kinds.append(node.kind)
            names.append(node.leaf.name if node.leaf is not None else None)
            kids: list[int] = []
            children.append(kids)
            if node.kind in (NodeKind.SEQUENCE, NodeKind.FALLBACK):
                if not node.children:
                    raise ModelError(f"{node.kind.value} vertex {vid} has no children")
                for child in node.children:
                    kids.append(visit(child))
            else:
                if node.children:
                    raise ModelError("leaf nodes cannot have children")
                if node.leaf is None:
                    raise ModelError("leaf node without leaf data")
                leaves[vid] = node.leaf
            return vid

        visit(spec)
        self.world = world
        self.tree = OrderedTree(children)
        self.kinds = tuple(kinds)
        self.names = tuple(names)
        self.leaves = leaves
        self.leaf_by_name = {}
        for vid, leaf in leaves.items():
            if leaf.name in self.leaf_by_name:
                raise ModelError(f"duplicate leaf name {leaf.name!r}")
            self.leaf_by_name[leaf.name] = vid
        self._analysis: Optional[NodeAnalysis] = None
        self._loop: Optional[tuple[Optional[int], ...]] = None
        self._leaf_at: Optional[list[int]] = None
        for leaf in leaves.values():
            check_leaf(leaf, world)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.tree.n

    def leaf_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.leaves))

    def action_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in sorted(self.leaves) if self.kinds[v] is NodeKind.ACTION)

    def vertex_of(self, name: str) -> int:
        try:
            return self.leaf_by_name[name]
        except KeyError:
            raise ModelError(f"unknown leaf {name!r}") from None

    def analysis(self) -> "NodeAnalysis":
        if self._analysis is None:
            self._analysis = analyze(self)
        return self._analysis

    def closed_loop(self) -> tuple[Optional[int], ...]:
        """Per-cell next cell of the closed loop; None where a Condition resolves.

        Each action leaf copies its controller's targets over the cells where
        the tick reaches it; the cells where a Condition resolves keep None.
        """
        if self._loop is None:
            targets: list[Optional[int]] = [None] * self.world.cell_count
            reached = self.analysis().reached
            for v in self.action_vertices():
                step = self.leaves[v].controller.targets
                for x in reached[v].cells():
                    targets[x] = step[x]
            self._loop = tuple(targets)
        return self._loop

    def leaf_at(self, x: int) -> int:
        """The leaf the tick resolves to at cell x; the per-cell table is filled on first use."""
        if not 0 <= x < self.world.cell_count:
            raise ModelError(f"cell {x} outside universe of {self.world.cell_count} cells")
        if self._leaf_at is None:
            table = [0] * self.world.cell_count
            reached = self.analysis().reached
            for v in self.leaves:
                for c in reached[v].cells():
                    table[c] = v
            self._leaf_at = table
        return self._leaf_at[x]

    def __repr__(self) -> str:
        return f"BTModel(vertices={self.n}, cells={self.world.cell_count})"


class NodeAnalysis(NamedTuple):
    """Per-vertex regions, pathway memberships and tick regions of one model (see analyze)."""

    running: tuple[Region, ...]
    success: tuple[Region, ...]
    failure: tuple[Region, ...]
    influence: tuple[Region, ...]
    omega: tuple[Region, ...]
    success_pathway: frozenset[int]
    failure_pathway: frozenset[int]
    reached: tuple[Region, ...]


def propagate_metadata(model: BTModel) -> tuple[tuple[Region, ...], tuple[Region, ...], tuple[Region, ...]]:
    """Bottom-up running/success/failure regions for every vertex.

    A Sequence succeeds where all children succeed, and runs (fails) where
    some child runs (fails) after all earlier siblings succeeded.  A
    Fallback is the mirror image with success and failure exchanged.
    """
    universe = model.world.full_region()
    running: list[Optional[Region]] = [None] * model.n
    success: list[Optional[Region]] = [None] * model.n
    failure: list[Optional[Region]] = [None] * model.n

    for v in reversed(range(model.n)):  # preorder ids: every child comes after its parent
        kids = model.tree.children[v]
        if not kids:
            leaf = model.leaves[v]
            success[v], failure[v] = leaf.success, leaf.failure
            running[v] = universe - leaf.success - leaf.failure
            continue
        # a Sequence passes a cell on where a child succeeds and stops where it fails
        passes, stops = (success, failure) if model.kinds[v] is NodeKind.SEQUENCE else (failure, success)
        gate = universe  # intersection of the earlier siblings' passing regions
        r_acc = s_acc = Region.empty(universe.n)
        for c in kids:
            r_acc |= running[c] & gate
            s_acc |= stops[c] & gate
            gate = gate & passes[c]
        passes[v], stops[v], running[v] = gate, s_acc, r_acc
    return tuple(running), tuple(success), tuple(failure)  # type: ignore[arg-type]


def analyze(model: BTModel) -> NodeAnalysis:
    """Every vertex's regions, pathway memberships and tick region.

    After the bottom-up pass (``propagate_metadata``), one top-down pass
    sets each child's values from its parent's and from its earlier
    siblings' gates: a Sequence passes a cell on to the next child where a
    child succeeds, a Fallback where it fails.

    * Influence region, the necessary condition for a vertex to determine
      the root's output: by definition, the intersection over its strict
      left uncles of their gates (success regions under a Sequence parent,
      failure regions under a Fallback).  A child's left uncles are its
      earlier siblings plus its parent's left uncles, so the root's region
      is the universe and a child's is its parent's narrowed by the gates
      of its earlier siblings.
    * Pathways: a vertex is on the success (failure) pathway when no right
      uncle of it has a Sequence (Fallback) parent.  A child's right uncles
      are its later siblings plus its parent's right uncles, so the root is
      on both, and a child is on the success pathway when its parent is and
      either it is the last child or the parent is not a Sequence; the
      failure pathway is the mirror rule for Fallback.
    * Tick region (``reached``), the cells where the tick reaches the
      vertex: a parent hands a cell to its first child whose gate fails
      there, or to its last child, so a child is reached on the parent's
      tick region narrowed by its earlier siblings' gates, minus its own
      gate unless it is the last child.  The leaves' tick regions partition
      the universe.

    The operating region, the sufficient condition under which the root's
    output equals the vertex's, is the influence region intersected with
    the statuses that reach the root unchanged: running always, success on
    the success pathway and failure on the failure pathway.
    """
    running, success, failure = propagate_metadata(model)
    universe = model.world.full_region()
    influence = [universe] * model.n
    reached = [universe] * model.n
    omega: list[Region] = []
    s_path = {model.tree.root}
    f_path = {model.tree.root}
    for v in range(model.n):  # preorder ids: a parent comes before its children
        statuses = running[v]  # the statuses that reach the root unchanged
        if v in s_path:
            statuses |= success[v]
        if v in f_path:
            statuses |= failure[v]
        omega.append(influence[v] & statuses)
        kids = model.tree.children[v]
        if not kids:
            continue
        is_seq = model.kinds[v] is NodeKind.SEQUENCE
        gate = success if is_seq else failure
        if v in s_path:
            s_path.update(kids[-1:] if is_seq else kids)
        if v in f_path:
            f_path.update(kids if is_seq else kids[-1:])
        infl, tick_region = influence[v], reached[v]
        *earlier, last = kids
        for c in earlier:
            influence[c] = infl
            reached[c] = tick_region - gate[c]
            infl &= gate[c]
            tick_region &= gate[c]
        influence[last], reached[last] = infl, tick_region
    return NodeAnalysis(
        running, success, failure, tuple(influence), tuple(omega),
        frozenset(s_path), frozenset(f_path), tuple(reached),
    )


def tick_path(model: BTModel, x: int) -> list[int]:
    """Root-to-leaf vertex path the tick resolution takes at cell x."""
    path = [model.leaf_at(x)]
    parent = model.tree.parent
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def tick(model: BTModel, x: int) -> tuple[int, Status]:
    """Resolve the executing leaf and the root status at cell x."""
    leaf = model.leaf_at(x)
    data = model.leaves[leaf]
    if x in data.success:
        return leaf, Status.SUCCESS
    if x in data.failure:
        return leaf, Status.FAILURE
    return leaf, Status.RUNNING


class AbstractionVerdict(NamedTuple):
    valid: bool
    overlaps: tuple[tuple[int, int], ...]
    uncovered: Region

    def __bool__(self) -> bool:
        return self.valid


def validate_abstraction(model: BTModel, vertices: Iterable[int]) -> AbstractionVerdict:
    """Check that the chosen vertices' operating regions partition the universe.

    The regions are disjoint exactly when their sizes add up to the size of
    their union, so pairs are only compared, to name the overlaps, when
    that count is off.
    """
    omega = model.analysis().omega
    verts = sorted(set(vertices))
    union = 0
    for i in verts:
        union |= omega[i].mask
    overlaps = []
    if sum(len(omega[i]) for i in verts) != union.bit_count():
        for idx, i in enumerate(verts):
            for j in verts[idx + 1 :]:
                if not omega[i].isdisjoint(omega[j]):
                    overlaps.append((i, j))
    uncovered = Region(model.world.cell_count, union).complement()
    return AbstractionVerdict(not overlaps and uncovered.is_empty, tuple(overlaps), uncovered)

