"""Prepares graph, condensation, analysis sets, and convergence certificates.

Given an abstraction (a vertex set whose operating regions partition the
universe), each operating region is sliced into the part outside the
action's basin, the part inside the basin but short of the goal, and the
goal part.  The slices become graph vertices; edges over-approximate the
one-step transitions the closed loop can make.  Collapsing strongly
connected components yields a DAG whose sinks should be goal slices, and a
per-class exit-time bound turns the DAG into an explicit step bound for
reaching the goals.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .bt import BTModel, Doa, NodeKind, action as action_spec, validate_abstraction
from .execution import ExitResult, FtsVerdict, empirical_exit_time, leaf_fts
from .statespace import BTConvergeError, Region, SuccessorMap

FLAVOR_OUTSIDE = "a"  # operating region minus basin
FLAVOR_BASIN = "b"  # basin minus goal
FLAVOR_GOAL = "c"  # goal slice


class AbstractionError(BTConvergeError):
    pass


class FtsPreconditionError(BTConvergeError):
    """The failed finite-time-success hypotheses, by member name: a verdict
    that decide returns, not an error it raises."""

    def __init__(self, failures: dict[str, FtsVerdict]) -> None:
        super().__init__(f"finite-time-success check failed for: {sorted(failures)}")
        self.failures = failures


class PrepVertex(NamedTuple):
    owner: int
    flavor: str
    cells: Region

    def key(self) -> tuple[int, str]:
        return (self.owner, self.flavor)


class PreparesGraph:
    """Slice vertices plus directed possible-transition edges."""

    __slots__ = ("vertices", "edges", "succ", "index")

    def __init__(self, vertices: Sequence[PrepVertex], edges: Iterable[tuple[int, int]]) -> None:
        self.vertices = tuple(vertices)
        self.edges = frozenset(edges)
        self.succ = _successor_tuples(len(self.vertices), self.edges)
        self.index = {v.key(): i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise AbstractionError("duplicate (owner, flavor) vertex")

    def vertex(self, owner: int, flavor: str) -> int:
        try:
            return self.index[(owner, flavor)]
        except KeyError:
            raise AbstractionError(f"no vertex ({owner}, {flavor!r}) in graph") from None

    def __repr__(self) -> str:
        return f"PreparesGraph(vertices={len(self.vertices)}, edges={len(self.edges)})"


def build_prepares_graph(
    model: BTModel,
    abstraction: Iterable[int],
    delta: Optional[float] = None,
) -> PreparesGraph:
    """Slice the abstraction's operating regions and connect them.

    Edge rules: an outside slice reaches every neighboring slice (another
    owner's outside slice, or any basin/goal slice); a basin slice reaches a
    neighboring slice only where its own basin overlaps the target (another
    owner for outside/basin targets, any owner for goal targets); goal
    slices have no outgoing edges.
    """
    members = sorted(set(abstraction))
    verdict = validate_abstraction(model, members)
    if not verdict:
        raise AbstractionError(
            f"operating regions do not partition: overlaps={verdict.overlaps} "
            f"uncovered={sorted(verdict.uncovered.cells())}"
        )
    analysis = model.analysis()
    world = model.world
    vertices: list[PrepVertex] = []
    basins: dict[int, Region] = {}
    for i in members:
        omega = analysis.omega[i]
        if omega.is_empty:
            continue
        leaf = model.leaves.get(i)
        if leaf is None or model.kinds[i] is not NodeKind.ACTION or leaf.doa is None:
            raise AbstractionError(
                f"abstraction member {i} has a nonempty operating region but no basin data"
            )
        basin, goal = leaf.doa.basin, leaf.doa.goal
        basins[i] = basin
        for flavor, cells in (
            (FLAVOR_OUTSIDE, omega - basin),
            (FLAVOR_BASIN, omega & (basin - goal)),
            (FLAVOR_GOAL, omega & goal),
        ):
            if not cells.is_empty:
                vertices.append(PrepVertex(i, flavor, cells))
    vertices.sort(key=lambda v: v.key())

    masks = [v.cells.mask for v in vertices]
    edges: set[tuple[int, int]] = set()
    for ui, u in enumerate(vertices):
        if u.flavor == FLAVOR_GOAL:
            continue
        basin = basins[u.owner].mask
        reach = world.dilate(u.cells, delta).mask
        for wi in compress(count(), map(reach.__and__, masks)):  # the slices u's step meets
            w = vertices[wi]  # u itself falls under the same-owner rules
            if u.flavor == FLAVOR_OUTSIDE:
                if w.flavor == FLAVOR_OUTSIDE and w.owner == u.owner:
                    continue
            elif (w.flavor != FLAVOR_GOAL and w.owner == u.owner) or not basin & masks[wi]:
                continue  # basin slice: other owners' slices, any goal, inside the basin
            edges.add((ui, wi))
    return PreparesGraph(vertices, edges)


class CondensedGraph:
    """Strongly-connected-component quotient of a prepares graph (a DAG).

    ``completion`` lists the classes in the order Tarjan's algorithm
    finished them, which puts every class after all of its successors.
    """

    __slots__ = ("graph", "classes", "edges", "succ", "sinks", "class_of", "completion")

    def __init__(self, graph: PreparesGraph) -> None:
        n = len(graph.vertices)
        comp = _tarjan_scc(n, graph.succ)
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(comp):
            groups.setdefault(c, []).append(v)
        ordered = sorted(groups.values(), key=min)
        class_of = [0] * n
        for ci, group in enumerate(ordered):
            for v in group:
                class_of[v] = ci
        edges = frozenset(
            (class_of[u], class_of[w])
            for u, w in graph.edges
            if class_of[u] != class_of[w]
        )
        self.graph = graph
        self.classes = tuple(tuple(sorted(g)) for g in ordered)
        self.edges = edges
        self.succ = _successor_tuples(len(ordered), edges)
        self.sinks = frozenset(ci for ci, out in enumerate(self.succ) if not out)
        self.class_of = tuple(class_of)
        self.completion = tuple(class_of[groups[c][0]] for c in range(len(groups)))

    def class_cells(self, ci: int) -> Region:
        cells = self.graph.vertices[self.classes[ci][0]].cells
        for v in self.classes[ci][1:]:
            cells |= self.graph.vertices[v].cells
        return cells

    def class_of_cell(self, cell: int) -> Optional[int]:
        """The class whose slices hold cell; None for a cell in no slice."""
        owners = (self.class_of[i] for i, v in enumerate(self.graph.vertices) if cell in v.cells)
        return next(owners, None)

    def class_keys(self, ci: int) -> tuple[tuple[int, str], ...]:
        return tuple(self.graph.vertices[v].key() for v in self.classes[ci])

    def is_goal_class(self, ci: int) -> bool:
        return all(self.graph.vertices[v].flavor == FLAVOR_GOAL for v in self.classes[ci])

    def __repr__(self) -> str:
        return f"CondensedGraph(classes={len(self.classes)}, edges={len(self.edges)})"


def condense(graph: PreparesGraph) -> CondensedGraph:
    return CondensedGraph(graph)


def analysis_set(condensed: CondensedGraph, seeds: Iterable[int]) -> frozenset[int]:
    """Forward-reachability closure of the seed classes: no edge leaves it.

    The seeds must be a nonempty set of existing classes: the closure of no
    class is empty, and a certificate over it would prove nothing.
    """
    seeds = set(seeds)
    if not seeds:
        raise AbstractionError("no seed class given")
    for ci in seeds:
        if not 0 <= ci < len(condensed.classes):
            raise AbstractionError(f"seed class {ci} does not exist")
    return frozenset(reach(condensed.succ, seeds))


def reach(succ: Sequence | Mapping, starts: Iterable) -> set:
    """Every vertex reachable from starts in zero or more steps; succ[v] lists v's successors."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def reach_masks(succ: Sequence[Sequence[int]], own: Sequence[int]) -> list[int]:
    """Per vertex v, the OR of own[w] over every w that v reaches in zero or more steps.

    One pass over Tarjan's components in completion order, which finishes
    every component after all of the components it reaches.
    """
    comp = _tarjan_scc(len(succ), succ)
    members: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for v, c in enumerate(comp):
        members[c].append(v)
    masks = [0] * len(members)
    for c, group in enumerate(members):
        mask = 0
        for v in group:
            mask |= own[v]
            for w in succ[v]:
                mask |= masks[comp[w]]  # 0 inside c itself: its own bits come from group
        masks[c] = mask
    return [masks[c] for c in comp]


class BehaviorGraph(NamedTuple):
    """Projection of an analysis set's edges back onto abstraction members."""

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def reachability(self) -> frozenset[tuple[int, int]]:
        """Strict reachability pairs (transitive closure without the diagonal)."""
        succ: dict[int, list[int]] = {i: [] for i in self.nodes}
        for i, j in self.edges:
            succ[i].append(j)
        return frozenset(
            (start, j) for start in self.nodes for j in reach(succ, [start]) if j != start
        )


def behavior_graph(graph: PreparesGraph, vertex_subset: Iterable[int]) -> BehaviorGraph:
    subset = set(vertex_subset)
    owner = [v.owner for v in graph.vertices]
    nodes = tuple(sorted({owner[v] for v in subset}))
    edges = frozenset(
        (owner[u], owner[w]) for u in subset for w in graph.succ[u] if w in subset
    )
    return BehaviorGraph(nodes, edges)


class Certificate(NamedTuple):
    """A successful convergence verdict with an explicit step bound.

    bound is |analysis set| times the largest per-class exit time, the shape
    quoted for the worked examples; transitions_bound counts only non-sink
    classes, and refined_bound tightens via the longest path with per-class
    exit times.
    """

    graph: PreparesGraph
    condensed: CondensedGraph
    analysis_classes: tuple[int, ...]
    sink_classes: tuple[int, ...]
    per_class_exit: dict[int, int]
    bound: int = 0
    transitions_bound: int = 0
    refined_bound: int = 0

    def goal_cells(self) -> Region:
        cells = self.condensed.class_cells(self.sink_classes[0])
        for ci in self.sink_classes[1:]:
            cells |= self.condensed.class_cells(ci)
        return cells

    def start_cells(self) -> Region:
        cells = self.condensed.class_cells(self.analysis_classes[0])
        for ci in self.analysis_classes[1:]:
            cells |= self.condensed.class_cells(ci)
        return cells


class Refutation(NamedTuple):
    """Why certification failed: a non-goal sink or a never-exiting cell."""

    kind: str  # "non-goal-sink" | "no-exit"
    witness_class: int
    witness_cell: Optional[int]
    detail: str
    condensed: CondensedGraph


def decide(
    model: BTModel,
    abstraction: Iterable[int],
    delta: Optional[float] = None,
    seeds: Optional[Iterable[int] | Callable[[CondensedGraph], Iterable[int]]] = None,
    *,
    checked: Optional[Iterable[int]] = None,
    condensed: Optional[CondensedGraph] = None,
    exit_time: Optional[Callable[[Region], ExitResult]] = None,
) -> Certificate | Refutation | FtsPreconditionError:
    """The one verdict pipeline: the hypothesis failures, a Refutation or a Certificate.

    First the theorem's per-member hypotheses, for the members in checked
    (by default every member), in that order.  Each member's controller
    must move every cell of its operating region at most one step: within
    delta, or to the cell itself or a neighbour, as the slice graph's edges
    assume, so only the cells it moves are tested (``SuccessorMap.moved``);
    a longer step raises StepError at once.  Every member must then
    pass its finite-time-success check; the failures are returned together
    as an FtsPreconditionError, not raised.  Then the slice graph and its
    condensation, unless the caller passes ``condensed``; the seed classes,
    every class by default, or ``seeds(condensed)`` for a callable; and
    each non-sink class's exit time, walked (``empirical_exit_time``)
    unless the caller knows a faster exact ``exit_time``.

    The seed class ids are read only once the hypotheses hold: when a member
    fails, the failures are the verdict whatever ``seeds`` names, and a seed
    naming no class raises AbstractionError only when every member passes.
    """
    members = sorted(set(abstraction))
    omega = model.analysis().omega
    ids: list[int] = []  # every cell, shared by the members' cell lists; built for the first
    failures: dict[str, FtsVerdict] = {}
    for i in members if checked is None else checked:
        leaf = model.leaves.get(i)
        if leaf is not None and leaf.controller is not None and not omega[i].is_empty:
            ids = ids or list(range(model.world.cell_count))
            cells = (omega[i] & leaf.controller.moved).pick(ids)
            model.world.check_steps(cells, leaf.controller.targets, delta, f"leaf {leaf.name!r}")
        if leaf is None or model.kinds[i] is not NodeKind.ACTION or leaf.doa is None:
            if not omega[i].is_empty:
                failures[model.names[i] or str(i)] = FtsVerdict(False, "missing-basin-data")
            continue
        verdict = leaf_fts(leaf)
        if not verdict:
            failures[leaf.name] = verdict
    if failures:
        return FtsPreconditionError(failures)
    if condensed is None:
        condensed = condense(build_prepares_graph(model, members, delta))
    if callable(seeds):
        seeds = seeds(condensed)
    chosen = analysis_set(condensed, range(len(condensed.classes)) if seeds is None else seeds)
    ordered = tuple(sorted(chosen))
    sinks_in = tuple(sorted(condensed.sinks & chosen))
    for ci in sinks_in:
        if not condensed.is_goal_class(ci):
            keys = condensed.class_keys(ci)
            return Refutation(
                "non-goal-sink",
                ci,
                condensed.class_cells(ci).any_cell(),
                f"sink class {keys} contains non-goal slices",
                condensed,
            )
    per_class: dict[int, int] = {}
    for ci in ordered:
        if ci in condensed.sinks:
            continue
        cells = condensed.class_cells(ci)
        result = empirical_exit_time(model, cells) if exit_time is None else exit_time(cells)
        if result.steps is None:
            return Refutation(
                "no-exit",
                ci,
                result.witness,
                f"cell {result.witness} never leaves class {condensed.class_keys(ci)}",
                condensed,
            )
        per_class[ci] = result.steps
    worst = max(per_class.values(), default=0)
    bound = len(ordered) * worst
    refined = _longest_path_bound(condensed, chosen, per_class)
    return Certificate(
        graph=condensed.graph,
        condensed=condensed,
        analysis_classes=ordered,
        sink_classes=sinks_in,
        per_class_exit=per_class,
        bound=bound,
        transitions_bound=len(ordered) - len(sinks_in),
        refined_bound=refined,
    )


# the public name of the pipeline, which the README, backchain and the benchmark call
certify_convergence = decide


class AcyclicVerdict(NamedTuple):
    acyclic: bool
    transition_bound: Optional[int]
    per_class_deadline: Optional[dict[int, int]]
    message: str

    def __bool__(self) -> bool:
        return self.acyclic


def check_acyclic_case(
    condensed: CondensedGraph,
    chosen: Iterable[int],
    model: Optional[BTModel] = None,
) -> AcyclicVerdict:
    """Singleton-classes special case: transition count bounded by |analysis set|.

    When every class is a singleton the slice graph has no cycles, so the
    guaranteed exit of each non-sink class already follows from the per-leaf
    step deadlines and the per-class simulation may be skipped.
    """
    chosen = sorted(set(chosen))
    fat = [ci for ci in chosen if len(condensed.classes[ci]) > 1]
    if fat:
        return AcyclicVerdict(
            False, None, None, f"classes {fat} merge cycles; general bound required"
        )
    deadlines: Optional[dict[int, int]] = None
    if model is not None:
        deadlines = {}
        for ci in chosen:
            owner = condensed.graph.vertices[condensed.classes[ci][0]].owner
            leaf = model.leaves.get(owner)
            if leaf is not None and leaf.doa is not None:
                deadlines[ci] = leaf.doa.horizon
    return AcyclicVerdict(
        True,
        len(chosen),
        deadlines,
        f"no cycles: at most {len(chosen)} transitions; per-leaf deadlines suffice",
    )


def certificate_as_fts_leaf(model: BTModel, cert: Certificate, name: str = "certified") -> BTModel:
    """Wrap a certified model as one action leaf whose basin/goal/deadline it proves.

    The leaf's dynamics are the closed loop of the certified model; its
    success and failure regions are the certified root's.  Cells where the
    loop resolves a Condition self-loop (they lie outside the certified
    start set, which the finite-time check restricts to).
    """
    analysis = model.analysis()
    root = model.tree.root
    targets = [t if t is not None else c for c, t in enumerate(model.closed_loop())]
    leaf = action_spec(
        name,
        success=analysis.success[root],
        failure=analysis.failure[root],
        controller=SuccessorMap(targets),
        doa=Doa(cert.start_cells(), cert.goal_cells(), max(cert.bound, 1)),
    )
    return BTModel(model.world, leaf)


def _successor_tuples(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Per vertex 0..n-1, its edge targets in ascending order."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        succ[u].append(w)
    return tuple(tuple(sorted(ws)) for ws in succ)


def _tarjan_scc(n: int, succ: Sequence[Sequence[int]]) -> list[int]:
    """Iterative Tarjan; returns a component id per vertex."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    n_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
    return comp


def _longest_path_bound(
    condensed: CondensedGraph, chosen: frozenset[int], per_class: dict[int, int]
) -> int:
    """Max over paths in the chosen sub-DAG of summed non-sink exit times.

    Completion order visits every class after its successors, and an
    analysis set holds every successor of its classes.
    """
    best: dict[int, int] = {}
    for ci in condensed.completion:
        if ci in chosen:
            after = max((best[cj] for cj in condensed.succ[ci]), default=0)
            best[ci] = per_class.get(ci, 0) + after
    return max(best.values(), default=0)
