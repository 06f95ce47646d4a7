"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's set-algebra code paths: tree
orders are chased by path enumeration, node statuses by recursive cascade
evaluation, graph edges by direct rule checks over all vertex pairs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from typing import Callable, Iterable, Iterator, Optional, Union

from btconverge.backchain import ActionConditionLibrary, ActionEntry, ConditionEntry
from btconverge.bt import (
    BTModel,
    Doa,
    LeafData,
    NodeKind,
    NodeSpec,
    Status,
    action,
    condition,
    fal,
    seq,
)
from btconverge.cli import EXAMPLES, _load_spec
from btconverge.specfile import LoadedSpec
from btconverge.statespace import Region, SuccessorMap, World


# ----------------------------------------------------------------------
# the shipped examples


def bundled_spec(name: str) -> LoadedSpec:
    """The shipped example ``name``, parsed as ``--spec bundled:<name>`` parses it."""
    return _load_spec(f"bundled:{name}")


def bundled_document(name: str) -> dict:
    """The shipped example ``name`` as a fresh, mutable JSON document."""
    with open(os.path.join(EXAMPLES, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# The surveying robot's cell numbering: positions 0 (home) .. 2 (path),
# battery 1..4, survey progress 0..4.  Cells where the survey is complete but
# the battery is below the go-out threshold do not exist.

SURVEY_POS = (0, 1, 2)
SURVEY_BAT = (1, 2, 3, 4)
SURVEY_SV = (0, 1, 2, 3, 4)
SURVEY_MAX = 4
SURVEY_THRESH = 3  # battery level needed to head out


class SurveyWorld:
    """Cell numbering helpers for the surveying robot universe."""

    def __init__(self) -> None:
        self.triples = [
            (pos, bat, sv)
            for pos in SURVEY_POS
            for bat in SURVEY_BAT
            for sv in SURVEY_SV
            if not (sv == SURVEY_MAX and bat < SURVEY_THRESH)
        ]
        self.index = {t: i for i, t in enumerate(self.triples)}
        self.n = len(self.triples)
        self.world = World(self.n, coords=[(float(p), float(b), float(s)) for p, b, s in self.triples])

    def cell(self, pos: int, bat: int, sv: int) -> int:
        return self.index[(pos, bat, sv)]

    def region(self, pred: Callable[[int, int, int], bool]) -> Region:
        return Region.from_cells(
            self.n, (i for i, (p, b, s) in enumerate(self.triples) if pred(p, b, s))
        )

    def controller(self, rule: Callable[[int, int, int], tuple[int, int, int]]) -> SuccessorMap:
        targets = []
        for i, triple in enumerate(self.triples):
            out = rule(*triple)
            targets.append(self.index.get(out, i))
        return SuccessorMap(targets)


# ----------------------------------------------------------------------
# random trees and regions


def random_region(rng: random.Random, n: int, allow_empty: bool = True) -> Region:
    mask = rng.getrandbits(n)
    if not allow_empty and mask == 0:
        mask = 1 << rng.randrange(n)
    return Region(n, mask)


def random_disjoint_pair(rng: random.Random, n: int) -> tuple[Region, Region]:
    a = rng.getrandbits(n)
    b = rng.getrandbits(n) & ~a
    return Region(n, a), Region(n, b)


def random_tree_model(
    rng: random.Random,
    n_cells: int,
    max_depth: int = 4,
    max_leaves: int = 8,
    conditions: bool = True,
) -> BTModel:
    world = World(n_cells)
    counter = [0]
    budget = [rng.randint(1, max_leaves)]

    def leaf_spec() -> NodeSpec:
        counter[0] += 1
        name = f"leaf{counter[0]}"
        if conditions and rng.random() < 0.3:
            return condition(name, random_region(rng, n_cells))
        s, f = random_disjoint_pair(rng, n_cells)
        return action(name, s, f, SuccessorMap.identity(n_cells))

    def node(depth: int) -> NodeSpec:
        budget[0] -= 1
        if depth >= max_depth or budget[0] <= 0 or rng.random() < 0.35:
            return leaf_spec()
        width = rng.randint(1, 3)
        kids = [node(depth + 1) for _ in range(width)]
        return seq(*kids) if rng.random() < 0.5 else fal(*kids)

    spec = node(0)
    if spec.kind in (NodeKind.ACTION, NodeKind.CONDITION):
        spec = seq(spec) if rng.random() < 0.5 else fal(spec)
    return BTModel(world, spec)


def dual_model(model: BTModel) -> BTModel:
    """Swap sequences with fallbacks and every leaf's success with failure."""

    def rebuild(v: int) -> NodeSpec:
        kind = model.kinds[v]
        if kind is NodeKind.SEQUENCE:
            return NodeSpec(NodeKind.FALLBACK, tuple(rebuild(c) for c in model.tree.children[v]))
        if kind is NodeKind.FALLBACK:
            return NodeSpec(NodeKind.SEQUENCE, tuple(rebuild(c) for c in model.tree.children[v]))
        leaf = model.leaves[v]
        return NodeSpec(
            kind,
            leaf=LeafData(leaf.name, leaf.kind, leaf.failure, leaf.success, leaf.controller, None),
        )

    return BTModel(model.world, rebuild(model.tree.root))


# ----------------------------------------------------------------------
# naive cascade evaluation (independent of propagate_metadata / analyze)


def naive_status(model: BTModel, v: int, x: int) -> Status:
    kind = model.kinds[v]
    if kind in (NodeKind.ACTION, NodeKind.CONDITION):
        leaf = model.leaves[v]
        if x in leaf.success:
            return Status.SUCCESS
        if x in leaf.failure:
            return Status.FAILURE
        return Status.RUNNING
    if kind is NodeKind.SEQUENCE:
        for c in model.tree.children[v]:
            st = naive_status(model, c, x)
            if st is not Status.SUCCESS:
                return st
        return Status.SUCCESS
    for c in model.tree.children[v]:
        st = naive_status(model, c, x)
        if st is not Status.FAILURE:
            return st
    return Status.FAILURE


def naive_tick_path(model: BTModel, x: int) -> list[int]:
    path = [model.tree.root]
    while True:
        v = path[-1]
        kind = model.kinds[v]
        if kind in (NodeKind.ACTION, NodeKind.CONDITION):
            return path
        kids = model.tree.children[v]
        skip = Status.SUCCESS if kind is NodeKind.SEQUENCE else Status.FAILURE
        chosen = kids[-1]
        for c in kids[:-1]:
            if naive_status(model, c, x) is not skip:
                chosen = c
                break
        path.append(chosen)


# ----------------------------------------------------------------------
# brute-force order oracles (path enumeration over the stored tree)


def oracle_orders(model_or_tree) -> dict[str, set[tuple[int, int]]]:
    tree = model_or_tree.tree if isinstance(model_or_tree, BTModel) else model_or_tree
    n = tree.n
    parent = tree.parent

    def ancestors_or_self(i: int) -> list[int]:
        out = [i]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    sib: set[tuple[int, int]] = set()
    for group in tree.children:
        for ai, a in enumerate(group):
            for b in group[ai + 1 :]:
                sib.add((a, b))
    sib_refl = sib | {(i, i) for i in range(n)}
    par = {
        (a, i) for i in range(n) for a in ancestors_or_self(i)
    }
    left_uncle = {
        (j, i)
        for i in range(n)
        for k in ancestors_or_self(i)
        for j in range(n)
        if (j, k) in sib
    }
    right_uncle = {
        (j, i)
        for i in range(n)
        for k in ancestors_or_self(i)
        for j in range(n)
        if (k, j) in sib
    }
    left_to_right = {
        (i, k)
        for i in range(n)
        for j in ancestors_or_self(i)
        for k in range(n)
        if (j, k) in left_uncle
    }
    right_to_left = {
        (i, k)
        for i in range(n)
        for j in ancestors_or_self(i)
        for k in range(n)
        if (j, k) in right_uncle
    }
    return {
        "parent": par,
        "sibling": sib_refl,
        "left_uncle": left_uncle,
        "right_uncle": right_uncle,
        "left_to_right": left_to_right,
        "right_to_left": right_to_left,
    }


# ----------------------------------------------------------------------
# random funnel models over gridworlds (valid abstractions by construction)


def random_gridworld_model(
    rng: random.Random, side: int = 5, n_parts: int = 4, world: Optional[World] = None
) -> tuple[BTModel, list[int], float]:
    """A fallback of guarded actions whose operating regions partition the grid.

    ``world`` replaces the side x side coordinate grid (same cell count).
    """
    n = side * side
    if world is None:
        world = World(n, coords=[(float(c % side), float(c // side)) for c in range(n)])
    cells = list(range(n))
    rng.shuffle(cells)
    cut = sorted(rng.sample(range(1, n), n_parts - 1))
    parts = [cells[a:b] for a, b in zip([0] + cut, cut + [n])]
    suffix: list[Region] = [Region.empty(n)] * (n_parts + 1)
    for k in range(n_parts - 1, -1, -1):
        suffix[k] = suffix[k + 1] | Region.from_cells(n, parts[k])

    children = []
    for k in range(n_parts):
        failure = suffix[k + 1]
        success = Region(n, rng.getrandbits(n)) - failure
        basin = Region(n, rng.getrandbits(n)) - failure
        goal = Region(n, rng.getrandbits(n)) & basin & success
        children.append(
            action(
                f"act{k}",
                success=success,
                failure=failure,
                controller=SuccessorMap.identity(n),
                doa=Doa(basin, goal, 3),
            )
        )
    model = BTModel(world, fal(*children))
    abstraction = list(model.action_vertices())
    delta = 1.0
    return model, abstraction, delta


def random_funnel_model(
    rng: random.Random, side: int, n_parts: int, metric: bool = True, jump: float = 0.1
) -> tuple[BTModel, list[int]]:
    """random_gridworld_model's partition, with controllers that work.

    Each action steps one grid move toward the nearest cell of a random goal
    and, on a metric grid, sometimes jumps to a random cell instead.  Its
    basin is every cell whose walk reaches the goal without touching the
    failure region, and its deadline the slowest such walk, so every
    finite-time-success check passes.  An adjacency grid links each cell to
    its four neighbours and gets no jumps.
    """
    n = side * side
    xy = [(c % side, c // side) for c in range(n)]
    if metric:
        world = World(n, coords=[(float(x), float(y)) for x, y in xy])
    else:
        pairs = [(c, c + 1) for c in range(n) if xy[c][0] + 1 < side]
        world = World(n, adjacency=pairs + [(c, c + side) for c in range(n - side)])
    cells = list(range(n))
    rng.shuffle(cells)
    cut = sorted(rng.sample(range(1, n), n_parts - 1))
    parts = [cells[a:b] for a, b in zip([0] + cut, cut + [n])]
    failure = Region.empty(n)
    children = []
    for k in range(n_parts - 1, -1, -1):
        allowed = [c for c in range(n) if c not in failure]
        goal = set(rng.sample(allowed, min(len(allowed), rng.randint(1, 3))))

        def toward(c):
            if c in goal:
                return c
            if metric and rng.random() < jump:
                return rng.randrange(n)
            x, y = xy[c]
            gx, gy = min((abs(xy[g][0] - x) + abs(xy[g][1] - y), xy[g]) for g in goal)[1]
            if gx != x:
                return c + (1 if gx > x else -1)
            return c + (side if gy > y else -side)

        targets = [toward(c) for c in range(n)]
        hit = {c: 0 for c in goal}
        for c in allowed:
            walk = [c]
            while walk[-1] not in hit and walk[-1] not in failure and len(walk) <= n:
                walk.append(targets[walk[-1]])
            if walk[-1] in hit:
                for steps, x in enumerate(reversed(walk)):
                    hit.setdefault(x, hit[walk[-1]] + steps)
        goal_region = Region.from_cells(n, goal)
        success = (Region(n, rng.getrandbits(n)) - failure) | goal_region
        basin = Region.from_cells(n, hit)
        doa = Doa(basin, goal_region, max(hit.values()) + rng.randint(1, 2))
        children.append(action(f"act{k}", success, failure, SuccessorMap(targets), doa))
        failure = failure | Region.from_cells(n, parts[k])
    model = BTModel(world, fal(*reversed(children)))
    return model, list(model.action_vertices())


def oracle_prepares_edges(model: BTModel, abstraction: list[int], delta: float):
    """Direct evaluation of the six edge rules over all slice pairs."""
    analysis = model.analysis()
    world = model.world
    slices = []
    for i in abstraction:
        doa = model.leaves[i].doa
        omega = analysis.omega[i]
        if omega.is_empty:
            continue
        for flavor, cells in (
            ("a", omega - doa.basin),
            ("b", omega & (doa.basin - doa.goal)),
            ("c", omega & doa.goal),
        ):
            if not cells.is_empty:
                slices.append((i, flavor, cells))
    edges = set()
    for i, fi, ci in slices:
        for j, fj, cj in slices:
            if (i, fi) == (j, fj):
                continue
            if fi == "c":
                continue
            if fi == "a":
                if fj == "a" and i == j:
                    continue
            elif fi == "b":
                if fj in ("a", "b") and i == j:
                    continue
                if model.leaves[i].doa.basin.isdisjoint(cj):
                    continue
            if world.neighboring(ci, cj, delta):
                edges.add(((i, fi), (j, fj)))
    return edges


def oracle_neighboring(world: World, a: Region, b: Region, delta: Optional[float]) -> bool:
    """Neighboring from its definition: a cell pair within delta, or overlap / an adjacent pair."""
    if world.coords is not None:
        return any(
            math.dist(world.coords[p], world.coords[q]) <= delta
            for p in a.cells()
            for q in b.cells()
        )
    rows = [sum(1 << q for q in near) for near in world.neighbors]
    return any(p == q or rows[p] >> q & 1 for p in a.cells() for q in b.cells())


# ----------------------------------------------------------------------
# random libraries satisfying the structural assumptions


def random_library(
    rng: random.Random, n_cells: int = 24, max_actions: int = 5
) -> tuple[ActionConditionLibrary, str]:
    """A random chain/forest library with one achiever per condition."""
    world = World(n_cells)
    universe = Region.full(n_cells)
    n_actions = rng.randint(2, max_actions)
    names = [f"a{k}" for k in range(n_actions)]
    root = names[-1]
    # each non-root action achieves a condition consumed by a later action
    achieved_cond = {name: f"c_{name}" for name in names[:-1]}
    consumer: dict[str, str] = {}
    for k, name in enumerate(names[:-1]):
        consumer[name] = names[rng.randint(k + 1, n_actions - 1)]

    cond_success = {c: random_region(rng, n_cells, allow_empty=False) for c in achieved_cond.values()}
    # optional achiever-less preconditions (must never fail -> full success)
    extra_conds = []
    for k, name in enumerate(names):
        if rng.random() < 0.4:
            cname = f"c_free_{name}"
            cond_success[cname] = universe
            extra_conds.append((cname, name))

    preconds: dict[str, list[str]] = {name: [] for name in names}
    for name, cond_name in achieved_cond.items():
        preconds[consumer[name]].append(cond_name)
    for cname, name in extra_conds:
        preconds[name].insert(rng.randrange(len(preconds[name]) + 1), cname)
    for name in names:
        rng.shuffle(preconds[name])

    actions: dict[str, ActionEntry] = {}
    conditions: dict[str, ConditionEntry] = {}
    for cname, success in cond_success.items():
        achievers = tuple(
            name for name, c in achieved_cond.items() if c == cname
        )
        leaf = LeafData(cname, NodeKind.CONDITION, success, success.complement())
        conditions[cname] = ConditionEntry(leaf, achievers)
    for name in names:
        basin = universe
        for c in preconds[name]:
            basin &= cond_success[c]
        if name in achieved_cond:
            upper = cond_success[achieved_cond[name]]
        else:
            upper = universe
        success = Region(n_cells, rng.getrandbits(n_cells)) & upper
        failure = Region(n_cells, rng.getrandbits(n_cells)) - success - basin
        goal = basin & success
        leaf = LeafData(
            name,
            NodeKind.ACTION,
            success,
            failure,
            SuccessorMap.identity(n_cells),
            Doa(basin, goal, 3),
        )
        actions[name] = ActionEntry(leaf, tuple(preconds[name]))
    return ActionConditionLibrary(world, actions, conditions), root


def chain_library(n_cells: int = 12) -> tuple[ActionConditionLibrary, str]:
    """Three funnels on a line; satisfies the acyclic-pattern hypothesis."""
    world = World(n_cells, coords=[(float(x),) for x in range(n_cells)])
    c1 = Region.where(n_cells, lambda x: x >= 4)
    c2 = Region.where(n_cells, lambda x: x >= 8)
    top = Region.from_cells(n_cells, [n_cells - 1])
    full = Region.full(n_cells)

    def drive(lo: int, hi: int) -> SuccessorMap:
        return SuccessorMap.from_function(
            n_cells, lambda x: x + 1 if lo <= x < hi else x
        )

    conditions = {
        "c1": ConditionEntry(LeafData("c1", NodeKind.CONDITION, c1, c1.complement()), ("start",)),
        "c2": ConditionEntry(LeafData("c2", NodeKind.CONDITION, c2, c2.complement()), ("mid",)),
    }
    actions = {
        "start": ActionEntry(
            LeafData("start", NodeKind.ACTION, c1, Region.empty(n_cells), drive(0, 4), Doa(full, c1, 4)),
            (),
        ),
        "mid": ActionEntry(
            LeafData("mid", NodeKind.ACTION, c2, Region.empty(n_cells), drive(4, 8), Doa(c1, c2, 4)),
            ("c1",),
        ),
        "finish": ActionEntry(
            LeafData("finish", NodeKind.ACTION, top, Region.empty(n_cells), drive(8, n_cells - 1), Doa(c2, top, 4)),
            ("c2",),
        ),
    }
    return ActionConditionLibrary(world, actions, conditions), "finish"


def staged_chain_library(stages: int, width: int = 5) -> tuple[ActionConditionLibrary, str]:
    """``stages`` funnels of ``width`` cells on a line, each the precondition of the next.

    Action a_i drives [w*i, w*(i+1)) forward; condition c_i is x >= w*(i+1),
    achieved by a_i.  The root is the last action, so backchaining nests
    every stage.
    """
    n = stages * width + 1
    world = World(n, coords=[(float(x),) for x in range(n)])
    names = [f"a{i:03d}" for i in range(stages)]
    conds = [f"c{i:03d}" for i in range(stages - 1)]
    actions = {}
    for i, name in enumerate(names):
        lo, hi = width * i, width * (i + 1)
        above = Region.where(n, lambda x, hi=hi: x >= hi)
        leaf = LeafData(
            name,
            NodeKind.ACTION,
            above,
            Region.empty(n),
            SuccessorMap.from_function(n, lambda x, lo=lo, hi=hi: x + 1 if lo <= x < hi else x),
            Doa(Region.where(n, lambda x, lo=lo: x >= lo), above, width),
        )
        actions[name] = ActionEntry(leaf, (conds[i - 1],) if i else ())
    conditions = {}
    for i, cid in enumerate(conds):
        holds = Region.where(n, lambda x, hi=width * (i + 1): x >= hi)
        conditions[cid] = ConditionEntry(
            LeafData(cid, NodeKind.CONDITION, holds, holds.complement()), (names[i],)
        )
    return ActionConditionLibrary(world, actions, conditions), names[-1]


# ----------------------------------------------------------------------
# brute-force references for the child-list validator, links and path bounds


def walk_tree_check(
    children: list[list[int]],
) -> Union[tuple[str, tuple[Optional[int], ...]], tuple[str, str, object]]:
    """("ok", parent map) or ("error", reason, detail) by walking to the root from every vertex.

    Reasons: empty, range, twice, root, cycle (detail: the first vertex seen
    twice on the walk up from the smallest vertex that never reaches the root).
    """
    n = len(children)
    if n == 0:
        return ("error", "empty", None)
    listed = [(p, c) for p, group in enumerate(children) for c in group]
    if any(not 0 <= c < n for _p, c in listed):
        return ("error", "range", None)
    parents_of = {v: [p for p, c in listed if c == v] for v in range(n)}
    if any(len(ps) > 1 for ps in parents_of.values()):
        return ("error", "twice", None)
    roots = [v for v in range(n) if not parents_of[v]]
    if len(roots) != 1:
        return ("error", "root", None)
    for v in range(n):
        walk: list[int] = []
        while parents_of[v]:
            if v in walk:
                return ("error", "cycle", v)
            walk.append(v)
            v = parents_of[v][0]
    return ("ok", tuple(ps[0] if ps else None for ps in parents_of.values()))


def pairwise_links(lib: ActionConditionLibrary) -> tuple[set, set, dict]:
    """(links, order, downstream) by closing the achiever->consumer pairs and
    then testing every link against every action's row of the order."""
    links = {
        (a, cid, consumer)
        for cid, centry in lib.conditions.items()
        for a in centry.achievers
        for consumer, aentry in lib.actions.items()
        if cid in aentry.preconditions
    }
    order = {(i, i) for i in lib.actions} | {(a, c) for a, _b, c in links}
    while True:
        extra = {(a, d) for a, b in order for c, d in order if b == c} - order
        if not extra:
            break
        order |= extra
    downstream = {i: {t for t in links if (i, t[0]) in order} for i in lib.actions}
    return links, order, downstream


def random_link_library(rng: random.Random, n_cells: int = 6) -> ActionConditionLibrary:
    """A library of actions without basin data whose links may form cycles.

    Every action achieves at most one condition and every condition is the
    precondition of at most one action, as the library requires; anything
    else is random, so a condition may have several achievers, and an
    action may feed itself or an action upstream of it (the recharge shape)
    and consume several conditions in any order.
    """
    world = World(n_cells)
    names = [f"a{k}" for k in range(rng.randint(1, 7))]
    conds = [f"c{k}" for k in range(rng.randint(0, 9))]
    achievers: dict[str, list[str]] = {c: [] for c in conds}
    for a in names:
        if conds and rng.random() < 0.8:
            achievers[rng.choice(conds)].append(a)
    preconds: dict[str, list[str]] = {a: [] for a in names}
    for c in conds:
        if rng.random() < 0.85:
            preconds[rng.choice(names)].append(c)
    empty = Region.empty(n_cells)
    actions = {
        a: ActionEntry(LeafData(a, NodeKind.ACTION, empty, empty), tuple(rng.sample(pre, len(pre))))
        for a, pre in preconds.items()
    }
    conditions = {}
    for c in conds:
        holds = random_region(rng, n_cells)
        conditions[c] = ConditionEntry(
            LeafData(c, NodeKind.CONDITION, holds, holds.complement()), tuple(achievers[c])
        )
    return ActionConditionLibrary(world, actions, conditions)


def pair_list_pattern_violations(lib: ActionConditionLibrary, links, id_of: dict, bg) -> list:
    """The acyclic-pattern check, one test per strictly reachable pair of bg, in sorted pair order.

    A pair (u, w) violates the pattern when none of u's postconditions is a
    pending or missing condition of w (acc[w] or w's preconditions).
    """
    violations = []
    for u, w in sorted(bg.reachability()):
        iu, iw = id_of[u], id_of[w]
        if not links.post[iu] & (links.acc[iw] | set(lib.actions[iw].preconditions)):
            violations.append((iu, iw))
    return violations


def path_bound(succ, chosen, weight: dict[int, int]) -> int:
    """Largest summed weight over every path of the DAG succ that starts in chosen."""

    def best(ci: int) -> int:
        return weight.get(ci, 0) + max((best(cj) for cj in succ[ci]), default=0)

    return max((best(ci) for ci in chosen), default=0)


# ----------------------------------------------------------------------
# two-leaf composition fixtures: guarded sequence and recovery fallback


def two_stage_sequence_model(n_cells: int = 8) -> tuple[BTModel, list[str]]:
    world = World(n_cells, coords=[(float(x),) for x in range(n_cells)])
    s1 = Region.where(n_cells, lambda x: x >= 4)
    goal = Region.from_cells(n_cells, [n_cells - 1])
    first = action(
        "reach_gate",
        success=s1,
        controller=SuccessorMap.from_function(n_cells, lambda x: x + 1 if x < 4 else x),
        doa=Doa(Region.full(n_cells), s1, 4),
    )
    second = action(
        "reach_goal",
        success=goal,
        controller=SuccessorMap.from_function(n_cells, lambda x: x + 1 if 4 <= x < n_cells - 1 else x),
        doa=Doa(s1, goal, 3),
    )
    return BTModel(world, seq(first, second)), ["reach_gate", "reach_goal"]


def two_stage_fallback_model(n_cells: int = 8) -> tuple[BTModel, list[str]]:
    world = World(n_cells, coords=[(float(x),) for x in range(n_cells)])
    b1 = Region.where(n_cells, lambda x: x >= 3)
    s1 = Region.from_cells(n_cells, [n_cells - 1])
    f1 = Region.where(n_cells, lambda x: x < 3)
    s2 = Region.from_cells(n_cells, [3])
    first = action(
        "main_task",
        success=s1,
        failure=f1,
        controller=SuccessorMap.from_function(n_cells, lambda x: x + 1 if 3 <= x < n_cells - 1 else x),
        doa=Doa(b1, s1, 4),
    )
    second = action(
        "recover",
        success=s2,
        controller=SuccessorMap.from_function(n_cells, lambda x: x + 1 if x < 3 else x),
        doa=Doa(Region.where(n_cells, lambda x: x <= 3), s2, 3),
    )
    return BTModel(world, fal(first, second)), ["main_task", "recover"]


# ----------------------------------------------------------------------
# random guarded-substitution instances over complete-adjacency base worlds


def random_substitution_instance(
    rng: random.Random, n_cells: int = 12
) -> tuple[BTModel, "SubstitutionSpec", dict[str, int]]:
    """An old fallback-of-(condition, action) model plus a valid spec.

    Returns candidate cells for each single-requirement violation: the
    generator retries until every injection has a cell that provably flips
    the preservation verdict.
    """
    from btconverge.substitution import RrLeaf, SubstitutionSpec

    n = n_cells
    world = World(n, adjacency=[(i, j) for i in range(n) for j in range(i + 1, n)])
    while True:
        s_td = random_region(rng, n, allow_empty=False)
        f_td = s_td.complement()
        if f_td.is_empty:
            continue
        s_mb = Region(n, rng.getrandbits(n)) & s_td
        f_mb = Region(n, rng.getrandbits(n)) & (s_td - s_mb)
        rok = random_region(rng, n)
        s_rr = Region(n, rng.getrandbits(n)) & rok
        f_rr = Region(n, rng.getrandbits(n)) - s_rr
        mb_inject = f_td - s_rr - f_rr
        dd_inject = f_td & rok
        rr_inject = f_td - rok - f_rr
        fail_inject = f_td
        if any(r.is_empty for r in (mb_inject, dd_inject, rr_inject, fail_inject)):
            continue
        break
    model = BTModel(
        world,
        fal(
            condition("task_done", s_td),
            action(
                "mb",
                success=s_mb,
                failure=f_mb,
                controller=SuccessorMap([rng.randrange(n) for _ in range(n)]),
            ),
        ),
    )
    spec = SubstitutionSpec(
        target=0,
        dd_targets=[rng.randrange(n) for _ in range(n)],
        rr=RrLeaf(
            success=s_rr,
            failure=f_rr,
            controller=SuccessorMap([rng.randrange(n) for _ in range(n)]),
        ),
        rok_success=rok,
        time_budget=rng.randint(1, 4),
        hysteresis_cap=rng.randint(0, 2),
    )
    injections = {
        "mb-success": mb_inject.any_cell(),
        "dd-running": dd_inject.any_cell(),
        "rr-risk": rr_inject.any_cell(),
        "td-mb-failure": fail_inject.any_cell(),
    }
    return model, spec, injections


def random_reverification_instance(
    rng: random.Random,
    n_cells: int = 8,
    metric: bool = False,
    hysteresis: bool = False,
    per_aug_dd: bool = False,
) -> tuple[BTModel, "SubstitutionSpec", Optional[float], list[str]]:
    """A random_substitution_instance that re-verification can certify or refute.

    The tree takes patrol's shape, seq(fal(task_done, mb), park), so the
    old abstraction (mb, park) partitions the universe.  The base world is
    a line: unit-spaced coordinates with delta 1, or a path adjacency with
    a few extra edges.  mb, park and the risk-reduction leaf get basins,
    goals and tight step deadlines, and controllers that step toward their
    goal and sometimes jump anywhere, so some instances fail a deadline, an
    invariance or the one-step check.  Returns the model, the spec, the
    base step bound (None for adjacency) and the old abstraction.
    """
    from btconverge.substitution import RrLeaf

    old, spec, _inj = random_substitution_instance(rng, n_cells)
    n = n_cells
    if metric:
        world, delta = World(n, coords=[(float(x),) for x in range(n)]), 1.0
    else:
        extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
        world, delta = World(n, adjacency=[(c, c + 1) for c in range(n - 1)] + extra), None

    def subset(region: Region, keep: float) -> Region:
        return Region.from_cells(n, [c for c in region.cells() if rng.random() < keep])

    rough = rng.random() < 0.6  # the rest keep every leaf honest, so most of them certify

    def perturb(p: float) -> bool:
        return rough and rng.random() < p

    def jumped(targets: list[int]) -> list[int]:
        """targets, and now and then one cell sent anywhere: a step the world may not allow."""
        if perturb(0.4):
            targets[rng.randrange(len(targets))] = rng.randrange(n)
        return targets

    def controller(goal: Region) -> SuccessorMap:
        goals = list(goal.cells())

        def step(c: int) -> int:
            if not goals:
                return c
            g = min(goals, key=lambda g: abs(g - c))
            return c + (g > c) - (g < c)

        return SuccessorMap(jumped([step(c) for c in range(n)]))

    def doa(success: Region, failure: Region) -> Doa:
        basin = subset(failure.complement(), 0.7 if perturb(0.3) else 1.0)
        goal = subset(basin & success, 0.5 if perturb(0.3) else 1.0)
        return Doa(basin, goal, rng.randint(1, n) if perturb(0.5) else n)

    td = old.leaves[old.vertex_of("task_done")]
    mb = old.leaves[old.vertex_of("mb")]
    mb_doa = doa(mb.success, mb.failure)
    park_success = subset(td.success, 0.5)
    park_doa = doa(park_success, Region.empty(n))
    model = BTModel(
        world,
        seq(
            fal(
                condition("task_done", td.success),
                action("mb", mb.success, mb.failure, controller(mb_doa.goal), mb_doa),
            ),
            action("park", park_success, controller=controller(park_doa.goal), doa=park_doa),
        ),
    )
    rr_doa = doa(spec.rr.success, spec.rr.failure)
    block = (spec.time_budget + 1) * (spec.hysteresis_cap + 1) if per_aug_dd else 1
    dd_next = [min(max(c + rng.randint(-1, 1), 0), n - 1) for c in range(n) for _ in range(block)]
    spec = dataclasses.replace(
        spec,
        target=1,
        dd_targets=jumped(dd_next),
        rr=RrLeaf(spec.rr.success, spec.rr.failure, controller(rr_doa.goal), rr_doa),
        hysteresis=hysteresis,
    )
    return model, spec, delta, ["mb", "park"]


def rebuild_old_with_mb(model: BTModel, success: Optional[Region] = None, failure: Optional[Region] = None) -> BTModel:
    td = model.leaves[model.vertex_of("task_done")]
    mb = model.leaves[model.vertex_of("mb")]
    return BTModel(
        model.world,
        fal(
            condition("task_done", td.success),
            action(
                "mb",
                success=success if success is not None else mb.success,
                failure=failure if failure is not None else mb.failure,
                controller=mb.controller,
            ),
        ),
    )


# ----------------------------------------------------------------------
# hit times: the dict-memo generator the array kernel replaced


def generator_hit_times(
    step: Callable[[int], Optional[int]], goal: Region, starts: Iterable[int]
) -> Iterator[tuple[int, Optional[int]]]:
    """Yield (start, k) per start: the first k >= 0 with step^k(start) in goal.

    k is None when the walk reaches a cell whose step is None or closes a
    cycle outside goal; the walks share one dict memo.
    """
    memo: dict[int, Optional[int]] = {}
    in_goal = goal.digits()
    for start in starts:
        path: list[int] = []
        x: Optional[int] = start
        while x is not None and x not in memo and in_goal[x] != "1":
            memo[x] = None  # provisional: a walk that returns here closed a cycle
            path.append(x)
            x = step(x)
        hit = None if x is None else memo.get(x, 0)  # not memoized: x is in goal
        for y in reversed(path):
            hit = None if hit is None else hit + 1
            memo[y] = hit
        yield start, hit


def generator_fts(model: BTModel, leaf: int) -> tuple[bool, Optional[str], Optional[int], Optional[int]]:
    """(ok, kind, witness, step) of check_fts' dynamic rules, walked with the generator.

    Every basin cell is walked, goal cells included, and the invariance
    rules are per-cell loops.
    """
    data = model.leaves[leaf]
    basin, goal, horizon = data.doa.basin, data.doa.goal, data.doa.horizon
    nxt = data.controller.targets
    in_basin, in_goal = basin.digits(), goal.digits()
    for c in basin.cells():
        if in_basin[nxt[c]] != "1":
            return False, "basin-invariance", c, 1
    for c in goal.cells():
        if in_goal[nxt[c]] != "1":
            return False, "goal-invariance", c, 1
    for c, hit in generator_hit_times(nxt.__getitem__, goal, basin.cells()):
        if hit is None or hit > horizon:
            return False, "deadline", c, hit
    return True, None, None, None


def generator_exit_time(model: BTModel, region: Region) -> tuple[Optional[int], Optional[int]]:
    """(steps, witness) of empirical_exit_time, walked with the generator."""
    worst = 0
    step = model.closed_loop().__getitem__
    for c, steps in generator_hit_times(step, region.complement(), region.cells()):
        if steps is None:
            return None, c
        worst = max(worst, steps)
    return worst, None


# ----------------------------------------------------------------------
# eager augmented neighbour tuples


def eager_augmented_neighbors(
    base: World, time_cap: int, hyst_cap: int, rok_base: Region, base_delta: Optional[float] = None
) -> tuple[tuple[int, ...], ...]:
    """The product world's neighbour tuples as Augmentation built them per augmented cell.

    The body is kept verbatim as the oracle for the product world's lazy
    ``neighbors`` and block-wise ``dilate``.
    """
    block = (time_cap + 1) * (hyst_cap + 1)
    steps, stays = base._steps(base_delta)
    # in-block offset of the counters' successor, per in-block offset,
    # outside ("0") and inside ("1") the risk-ok region
    times = [min(t + 1, time_cap) * (hyst_cap + 1) for t in range(time_cap + 1)]
    hysts = range(hyst_cap + 1)
    patterns = {
        "0": tuple(t2 for t2 in times for _h in hysts),
        "1": tuple(t2 + min(h + 1, hyst_cap) for t2 in times for h in hysts),
    }
    rok = rok_base.digits()
    # Column q of a source block: where each of its cells goes when the
    # base part moves to q.  Zipping the columns of a base cell's sorted
    # neighbours gives each of its augmented cells a sorted neighbour tuple.
    columns = {
        flag: [tuple(map((q * block).__add__, offsets)) for q in range(base.cell_count)]
        for flag, offsets in patterns.items()
        if flag in rok
    }
    near_aug: list[tuple[int, ...]] = []
    for c, near in enumerate(steps):
        if stays:  # adjacency lists leave out the cell, which a step may keep
            near = sorted({c, *near})
        near_aug.extend(zip(*map(columns[rok[c]].__getitem__, near)))
    return tuple(near_aug)


# ----------------------------------------------------------------------
# the product world's digit-string and per-cell-mark builders


def reference_image(aug, pattern: int, flag: str) -> int:
    """An in-block pattern's image under the counter step, outside ("0") or
    inside ("1") the risk-ok region, picked through the per-offset successor
    table and marked cell by cell, as ``Augmentation.dilate`` built it."""
    k = aug.block
    moved = Region(k, pattern).pick(aug._counter_steps()[flag])
    return Region.from_cells(k, moved).mask


def reference_dilate(aug, region: Region) -> Region:
    """``Augmentation.dilate`` as it read each block off the mask's digit string,
    memoised each image per (pattern, risk-ok flag), and parsed the joined blocks.

    The body is kept verbatim as the oracle for the shift kernels, apart
    from the image, which is ``reference_image``.
    """
    n, k = aug.cell_count, aug.block
    digits = format(region.mask, f"0{n}b")  # the last base cell's block first
    blocks = [0] * len(aug._base_steps)
    images: dict[tuple[str, str], int] = {}
    for c, near in enumerate(aug._base_steps):
        pattern = digits[n - (c + 1) * k : n - c * k]
        if "1" not in pattern:
            continue
        key = (pattern, aug._rok[c])
        image = images.get(key)
        if image is None:
            image = images[key] = reference_image(aug, int(pattern, 2), key[1])
        for q in near:
            blocks[q] |= image
    mask = int("".join(format(b, f"0{k}b") for b in reversed(blocks)), 2)
    return Region(n, mask | region.mask)


def reference_blocks(aug, base_mask: int, pattern: int) -> Region:
    """The in-block pattern placed in the block of every base cell of base_mask,
    by translating the base mask's digits into block digits."""
    digits = format(pattern, f"0{aug.block}b")
    mask = int(bin(base_mask)[2:].translate({48: "0" * aug.block, 49: digits}), 2)
    return Region(aug.base.cell_count * aug.block, mask)


def reference_time_ok_pattern(aug) -> int:
    """The in-block pattern of t < time_cap."""
    return (1 << aug.time_cap * (aug.hyst_cap + 1)) - 1


def reference_hysteresis_ready_pattern(aug) -> int:
    """The in-block pattern of h = hyst_cap, one bit per counter value."""
    stride = aug.hyst_cap + 1
    return sum(1 << (t * stride + aug.hyst_cap) for t in range(aug.time_cap + 1))


def reference_project_region(aug, region: Region) -> Region:
    """The base cells whose block of region's digit string holds a "1"."""
    digits = format(region.mask, f"0{aug.cell_count}b")[::-1]
    k = aug.block
    return Region.from_cells(
        aug.base.cell_count,
        (c for c in range(aug.base.cell_count) if "1" in digits[c * k : (c + 1) * k]),
    )


def reference_time_set(aug, pattern: int) -> Optional[str]:
    """"1" at each t of S when the in-block pattern is {(t, h) : t in S}, else
    None, read off the pattern's digits as the counter-blind test read it."""
    k, stride = aug.block, aug.hyst_cap + 1
    digits = format(pattern, f"0{k}b")[::-1]  # offset t * stride + h first to last
    times = digits[::stride]  # "1" at each t of S
    if digits != "".join(d * stride for d in times):
        return None
    return times


# ----------------------------------------------------------------------
# reference guarded-loop comparison


def reference_verify_substituted_convergence(old_cert, result, seeds=None):
    """verify_substituted_convergence as it compared the two graphs edge by edge.

    The body is kept verbatim as the oracle for the set-condition statement
    of the guarded-loop rule, apart from the hysteresis-on allowance, which
    is its own branch.  Its names are looked up when it runs, so a test
    that monkeypatches substitution.build_prepares_graph feeds both.
    """
    from btconverge.execution import empirical_exit_time
    from btconverge.prepares import (
        FLAVOR_BASIN,
        FLAVOR_GOAL,
        FLAVOR_OUTSIDE,
        Certificate,
        FtsPreconditionError,
        condense,
    )
    from btconverge.substitution import (
        DD_NAME,
        RR_NAME,
        SubstitutionError,
        SubstitutionReport,
        _certify_substituted,
        _target_shape,
        build_prepares_graph,
    )

    new_model = result.new_model
    old_model = result.old_model
    mb_name = old_model.leaves[_target_shape(old_model, result.target_old)[1]].name
    name_of_old = {v: old_model.names[v] for v in old_model.leaves}
    new_vertex_of_name = new_model.leaf_by_name

    old_graph = old_cert.graph
    old_owners = {vtx.owner for vtx in old_graph.vertices}
    owner_map = {o: new_vertex_of_name[name_of_old[o]] for o in old_owners}
    abstraction = sorted(
        set(owner_map.values()) | {new_model.vertex_of(DD_NAME), new_model.vertex_of(RR_NAME)}
    )
    new_graph = build_prepares_graph(new_model, abstraction)

    dd_v = new_model.vertex_of(DD_NAME)
    rr_v = new_model.vertex_of(RR_NAME)
    mb_v = new_vertex_of_name[mb_name]
    mb_old = old_model.vertex_of(mb_name)

    def new_key(idx: int) -> tuple[int, str]:
        return new_graph.vertices[idx].key()

    def old_key_to_new(key: tuple[int, str]) -> tuple[int, str]:
        return (owner_map[key[0]], key[1])

    rr_flavors = {FLAVOR_BASIN}
    loop_keys = {(dd_v, FLAVOR_OUTSIDE), (rr_v, FLAVOR_BASIN)}
    if result.spec.hysteresis:
        # the counter guard: rr also runs on risk-ok cells below the cap, outside its basin too
        rr_flavors = {FLAVOR_BASIN, FLAVOR_OUTSIDE}
        loop_keys.add((rr_v, FLAVOR_OUTSIDE))

    diffs: list[str] = []
    # well-behavedness: the loop owners expose exactly the expected slices
    for owner, flavors in ((dd_v, {FLAVOR_OUTSIDE}), (rr_v, rr_flavors), (mb_v, {FLAVOR_BASIN, FLAVOR_GOAL})):
        got = {v.flavor for v in new_graph.vertices if v.owner == owner}
        extra = got - flavors
        if extra:
            diffs.append(
                f"owner {new_model.names[owner]} has unexpected slices {sorted(extra)}"
            )

    old_edges_keys = {
        (old_graph.vertices[u].key(), old_graph.vertices[w].key()) for u, w in old_graph.edges
    }
    allowed_next = {
        old_key_to_new(old_graph.vertices[w].key())
        for u, vtx in enumerate(old_graph.vertices)
        if vtx.owner == mb_old
        for w in old_graph.succ[u]
    }
    sources_old = {
        old_key_to_new(old_graph.vertices[u].key())
        for u, w in old_graph.edges
        if old_graph.vertices[w].owner == mb_old
    }
    loop_owners = {dd_v, rr_v}
    allowed_exits = allowed_next | {(mb_v, FLAVOR_BASIN)}

    for u, w in sorted(new_graph.edges):
        uk, wk = new_key(u), new_key(w)
        if uk[0] in loop_owners:
            if wk in loop_keys or wk in allowed_exits:
                continue
            raise SubstitutionError(
                f"illegal edge out of the guarded loop: {uk} -> {wk}"
            )
        if wk[0] in loop_owners:
            if uk in sources_old or uk[0] == mb_v:
                continue
            raise SubstitutionError(
                f"illegal edge into the guarded loop: {uk} -> {wk}"
            )

    # untouched part must match the old graph exactly (owner-mapped)
    new_plain = {
        (new_key(u), new_key(w))
        for u, w in new_graph.edges
        if new_key(u)[0] not in loop_owners and new_key(w)[0] not in loop_owners
    }
    old_plain_mapped = {
        (old_key_to_new(a), old_key_to_new(b)) for a, b in old_edges_keys
    }
    for edge in sorted(new_plain - old_plain_mapped):
        diffs.append(f"new edge absent from old graph: {edge}")
    for edge in sorted(old_plain_mapped - new_plain):
        if edge[1][0] == mb_v and edge[0] in new_graph.index:
            # old flow into the model-based slice may now route via the loop
            u = new_graph.index[edge[0]]
            if any(new_graph.vertices[w].owner in loop_owners for w in new_graph.succ[u]):
                continue
        diffs.append(f"old edge missing from new graph: {edge}")

    loop_cells = Region.empty(new_model.world.cell_count)
    for vtx in new_graph.vertices:
        if vtx.owner in loop_owners:
            loop_cells |= vtx.cells
    loop_exit: Optional[int] = None
    if not loop_cells.is_empty:
        exit_result = empirical_exit_time(new_model, loop_cells)
        loop_exit = exit_result.steps
        if exit_result.steps is None:
            diffs.append(f"guarded loop never exits from cell {exit_result.witness}")
        elif exit_result.steps > result.spec.time_budget:
            diffs.append(
                f"guarded loop exit takes {exit_result.steps} steps, over the "
                f"budget of {result.spec.time_budget}"
            )

    outcome = _certify_substituted(result, abstraction, seeds, condense(new_graph))
    if isinstance(outcome, FtsPreconditionError):
        raise outcome
    return SubstitutionReport(
        ok=not diffs and isinstance(outcome, Certificate),
        graph_diffs=tuple(diffs),
        loop_exit_steps=loop_exit,
        result=outcome,
    )


# ----------------------------------------------------------------------
# the verdict pipeline, stage by stage, from the oracles


def reference_certify_convergence(model: BTModel, abstraction, delta=None, seeds=None):
    """certify_convergence as its stages ran one by one, each from an oracle.

    Per member in ascending order: the one-step check over its operating
    region (StepError at once), then the finite-time-success rules walked
    by generator_fts; the failures are raised together as
    FtsPreconditionError.  The slice graph's edges come from
    oracle_prepares_edges, every non-sink class's exit time from
    generator_exit_time, and the refined bound from path_bound.
    """
    from btconverge.prepares import (
        Certificate,
        FtsPreconditionError,
        PreparesGraph,
        PrepVertex,
        Refutation,
        analysis_set,
        condense,
    )
    from btconverge.execution import FtsVerdict

    members = sorted(set(abstraction))
    omega = model.analysis().omega
    failures = {}
    for i in members:
        leaf = model.leaves.get(i)
        if leaf is not None and leaf.controller is not None and not omega[i].is_empty:
            cells = list(omega[i].cells())
            model.world.check_steps(cells, leaf.controller.targets, delta, f"leaf {leaf.name!r}")
        if leaf is None or model.kinds[i] is not NodeKind.ACTION or leaf.doa is None:
            if not omega[i].is_empty:
                failures[model.names[i] or str(i)] = FtsVerdict(False, "missing-basin-data")
        else:
            ok, kind, witness, step = generator_fts(model, i)
            if not ok:
                failures[leaf.name] = FtsVerdict(False, kind, witness, step)
    if failures:
        raise FtsPreconditionError(failures)

    vertices = []
    for i in members:
        if omega[i].is_empty:
            continue
        basin, goal = model.leaves[i].doa.basin, model.leaves[i].doa.goal
        for flavor, cells in (("a", omega[i] - basin), ("b", omega[i] & (basin - goal)), ("c", omega[i] & goal)):
            if not cells.is_empty:
                vertices.append(PrepVertex(i, flavor, cells))
    index = {v.key(): k for k, v in enumerate(vertices)}
    edges = {(index[u], index[w]) for u, w in oracle_prepares_edges(model, members, delta)}
    condensed = condense(PreparesGraph(vertices, edges))
    chosen = analysis_set(condensed, range(len(condensed.classes)) if seeds is None else seeds)
    sinks = sorted(condensed.sinks & chosen)
    for ci in sinks:
        if not condensed.is_goal_class(ci):
            detail = f"sink class {condensed.class_keys(ci)} contains non-goal slices"
            return Refutation("non-goal-sink", ci, condensed.class_cells(ci).any_cell(), detail, condensed)
    per_class = {}
    for ci in sorted(chosen - condensed.sinks):
        steps, witness = generator_exit_time(model, condensed.class_cells(ci))
        if steps is None:
            detail = f"cell {witness} never leaves class {condensed.class_keys(ci)}"
            return Refutation("no-exit", ci, witness, detail, condensed)
        per_class[ci] = steps
    return Certificate(
        graph=condensed.graph,
        condensed=condensed,
        analysis_classes=tuple(sorted(chosen)),
        sink_classes=tuple(sinks),
        per_class_exit=per_class,
        bound=len(chosen) * max(per_class.values(), default=0),
        transitions_bound=len(chosen) - len(sinks),
        refined_bound=path_bound(condensed.succ, chosen, per_class),
    )


def verdict_fields(call: Callable[[], object]) -> tuple:
    """What a verdict call gave: the type and fields of its Certificate or
    Refutation, or the type, text and failures of the error it raised or of
    the hypothesis failures it returned, which compare equal either way."""
    from btconverge.prepares import Certificate
    from btconverge.statespace import BTConvergeError

    try:
        outcome = call()
    except BTConvergeError as exc:
        outcome = exc
    if isinstance(outcome, BTConvergeError):
        return type(outcome), str(outcome), getattr(outcome, "failures", None)
    if isinstance(outcome, Certificate):
        return (
            Certificate,
            outcome.bound,
            outcome.refined_bound,
            outcome.transitions_bound,
            outcome.analysis_classes,
            outcome.sink_classes,
            outcome.per_class_exit,
        )
    return type(outcome), outcome.kind, outcome.witness_class, outcome.witness_cell, outcome.detail
