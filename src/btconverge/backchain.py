"""Backchained tree generation from action/condition libraries.

A library pairs each action with the ordered list of conditions that must
hold for it to work, and each condition with the ordered list of actions
that achieve it.  Backchaining from a top-level action expands every
precondition into a fallback over the condition and its achievers,
recursively, yielding a tree whose expected run is a chain of actions each
establishing the next action's missing precondition.

The link structure (action, condition, action triplets and their closure)
gives closed forms for which conditions must fail or hold for an action to
execute; those specialize the generic influence/operating machinery and are
cross-checked against it in the tests.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterable, NamedTuple, Optional

from .bt import BTModel, LeafData, NodeKind, NodeSpec, fal, seq
from .prepares import (
    BehaviorGraph,
    Certificate,
    Refutation,
    behavior_graph,
    certify_convergence,
    reach_masks,
)
from .statespace import BTConvergeError, Region, World, bit_selector


class LibraryError(BTConvergeError):
    pass


class AssumptionError(BTConvergeError):
    """A structural assumption the backchain closed forms need is violated."""


class ActionEntry(NamedTuple):
    leaf: LeafData
    preconditions: tuple[str, ...]


class ConditionEntry(NamedTuple):
    leaf: LeafData
    achievers: tuple[str, ...]


class ActionConditionLibrary:
    """Validated action and condition tables over one world."""

    __slots__ = ("world", "actions", "conditions")

    def __init__(
        self,
        world: World,
        actions: dict[str, ActionEntry],
        conditions: dict[str, ConditionEntry],
    ) -> None:
        for key, entry in chain(actions.items(), conditions.items()):
            if key != entry.leaf.name:
                raise LibraryError(
                    f"library entry {key!r} must be keyed by its leaf name {entry.leaf.name!r}"
                )
        overlap = set(actions) & set(conditions)
        if overlap:
            raise LibraryError(f"action and condition ids overlap: {sorted(overlap)}")
        universe = world.full_region()
        for cid, entry in conditions.items():
            if entry.leaf.kind is not NodeKind.CONDITION:
                raise LibraryError(f"condition {cid!r} carries non-condition leaf data")
            if (entry.leaf.success | entry.leaf.failure) != universe:
                raise LibraryError(f"condition {cid!r} must never return running")
            for a in entry.achievers:
                if a not in actions:
                    raise LibraryError(f"condition {cid!r} lists unknown achiever {a!r}")
                if not actions[a].leaf.success.issubset(entry.leaf.success):
                    raise LibraryError(
                        f"achiever {a!r} can succeed outside condition {cid!r}"
                    )
        for aid, entry in actions.items():
            if entry.leaf.kind is not NodeKind.ACTION:
                raise LibraryError(f"action {aid!r} carries non-action leaf data")
            for c in entry.preconditions:
                if c not in conditions:
                    raise LibraryError(f"action {aid!r} lists unknown precondition {c!r}")
            if entry.leaf.doa is not None and not entry.leaf.doa.basin.is_empty:
                gate = universe
                for c in entry.preconditions:
                    gate &= conditions[c].leaf.success
                if gate != entry.leaf.doa.basin:
                    raise LibraryError(
                        f"action {aid!r}: precondition intersection differs from its basin"
                    )
        seen_pre: dict[str, str] = {}
        for aid, entry in actions.items():
            for c in entry.preconditions:
                if c in seen_pre:
                    raise LibraryError(
                        f"condition {c!r} is a precondition of both {seen_pre[c]!r} and {aid!r}"
                    )
                seen_pre[c] = aid
        seen_ach: dict[str, str] = {}
        for cid, entry in conditions.items():
            for a in entry.achievers:
                if a in seen_ach:
                    raise LibraryError(
                        f"action {a!r} achieves both {seen_ach[a]!r} and {cid!r}"
                    )
                seen_ach[a] = cid
        self.world = world
        self.actions = dict(actions)
        self.conditions = dict(conditions)

    def action_ids(self) -> list[str]:
        return sorted(self.actions)

    def condition_ids(self) -> list[str]:
        return sorted(self.conditions)


class LinkStructure(NamedTuple):
    """Triplets (achiever, condition, consumer) plus the derived closures.

    ``post[i]`` holds the conditions achieved at or below action i in the
    link order, and ``acc[i]`` the conditions some consumer below i needs
    before the one linked to it; both are printed.
    """

    links: frozenset[tuple[str, str, str]]
    post: dict[str, frozenset[str]]
    acc: dict[str, frozenset[str]]


def compute_links(lib: ActionConditionLibrary) -> LinkStructure:
    """The links and, per action, post and acc: two ``reach_masks`` passes over
    achiever->consumer successors carrying condition bitmasks (bit k is
    ``condition_ids()[k]``), decoded in C."""
    actions = list(lib.actions)
    index = {a: k for k, a in enumerate(actions)}
    conditions = lib.condition_ids()
    rank = {c: k for k, c in enumerate(conditions)}
    consumer_of: dict[str, str] = {}  # the library gives a condition at most one consumer
    pending: dict[str, int] = {}  # condition -> the consumer's preconditions listed before it
    for consumer, aentry in lib.actions.items():
        before = 0
        for cid in aentry.preconditions:
            consumer_of[cid] = consumer
            pending[cid] = before
            before |= 1 << rank[cid]
    links = frozenset(
        (a, cid, consumer_of[cid])
        for cid, centry in lib.conditions.items()
        if cid in consumer_of
        for a in centry.achievers
    )
    succ: list[list[int]] = [[] for _ in actions]
    own_post = [0] * len(actions)
    own_acc = [0] * len(actions)
    for a, b, c in links:
        k = index[a]
        succ[k].append(index[c])
        own_post[k] |= 1 << rank[b]
        own_acc[k] |= pending[b]

    def decode(masks: list[int]) -> dict[str, frozenset[str]]:
        return {i: frozenset(compress(conditions, bit_selector(m))) for i, m in zip(actions, masks)}

    post = decode(reach_masks(succ, own_post))
    acc = decode(reach_masks(succ, own_acc))
    return LinkStructure(links, post, acc)


def validate_bc_assumptions(lib: ActionConditionLibrary, root: str, links: LinkStructure) -> None:
    """Enforce the structural assumptions the closed-form analysis needs.

    The top-level action must not sit below any link, every condition has
    at most one achiever, and a condition nobody achieves must never fail.
    """
    if root not in lib.actions:
        raise LibraryError(f"unknown root action {root!r}")
    own = sorted(t for t in links.links if t[0] == root)  # a link below the root starts at it
    if own:
        raise AssumptionError(f"top-level action {root!r} still has links to satisfy: {own}")
    for cid, entry in lib.conditions.items():
        if len(entry.achievers) > 1:
            raise AssumptionError(f"condition {cid!r} has several achievers {entry.achievers}")
        if not entry.achievers and not entry.leaf.failure.is_empty:
            raise AssumptionError(f"achiever-less condition {cid!r} can fail")


class BcBt(NamedTuple):
    """A generated tree plus its leaf vertex per library entry (the model's ``leaf_by_name``)."""

    model: BTModel
    vertex_of: dict[str, int]


def build_bcbt(lib: ActionConditionLibrary, root: str) -> BcBt:
    """Expand the backchain recursion into a concrete model.

    A precondition with no achiever collapses to a bare condition leaf (a
    one-child fallback is the same function).  A library where an action is
    transitively its own precondition-achiever cannot terminate and is
    rejected with the offending cycle.
    """
    if root not in lib.actions:
        raise LibraryError(f"unknown root action {root!r}")
    visiting: list[str] = []

    def action_subtree(i: str) -> NodeSpec:
        if i in visiting:
            cycle = visiting[visiting.index(i) :] + [i]
            raise LibraryError(f"library recursion cycles through actions {cycle}")
        visiting.append(i)
        entry = lib.actions[i]
        children = [condition_subtree(j) for j in entry.preconditions]
        children.append(NodeSpec(NodeKind.ACTION, leaf=entry.leaf))
        visiting.pop()
        return seq(*children)

    def condition_subtree(j: str) -> NodeSpec:
        entry = lib.conditions[j]
        leaf = NodeSpec(NodeKind.CONDITION, leaf=entry.leaf)
        if not entry.achievers:
            return leaf
        return fal(leaf, *(action_subtree(k) for k in entry.achievers))

    try:
        model = BTModel(lib.world, action_subtree(root))
    except RecursionError:  # the expansion recurses a few frames per nested action
        depth = len(visiting)  # an unwound expansion leaves its action chain here
        raise LibraryError(f"backchaining from {root!r} nests actions {depth} deep, past the recursion limit") from None
    return BcBt(model, model.leaf_by_name)


class InfluenceTerms(NamedTuple):
    """Symbolic influence region of an action: success terms and failure terms."""

    acc: tuple[str, ...]
    pre: tuple[str, ...]
    post: tuple[str, ...]


def bc_influence_terms(lib: ActionConditionLibrary, links: LinkStructure, i: str) -> InfluenceTerms:
    return InfluenceTerms(
        acc=tuple(sorted(links.acc[i])),
        pre=tuple(lib.actions[i].preconditions),
        post=tuple(sorted(links.post[i])),
    )


def bc_influence(lib: ActionConditionLibrary, links: LinkStructure, i: str) -> Region:
    """Closed-form influence region of action i in the backchained tree."""
    terms = bc_influence_terms(lib, links, i)
    region = lib.world.full_region()
    for j in terms.acc:
        region &= lib.conditions[j].leaf.success
    for j in terms.pre:
        region &= lib.conditions[j].leaf.success
    for j in terms.post:
        region &= lib.conditions[j].leaf.failure
    return region


class OperatingVerdict(NamedTuple):
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_bc_operating(lib: ActionConditionLibrary, built: BcBt, links: LinkStructure) -> OperatingVerdict:
    """Check the closed-form operating-region facts against the generic pipeline.

    Executing actions never make the whole tree fail; linked actions never
    make it succeed; conditions never operate.  The leaf-level pathway sets
    must equal their closed forms.  Only the actions and conditions the
    generated tree holds are read: a root other than the library's may
    leave some out.
    """
    analysis = built.model.analysis()
    vertex_of = built.vertex_of
    actions = [i for i in lib.actions if i in vertex_of]
    conditions = [j for j in lib.conditions if j in vertex_of]
    # the actions with a link below them in this tree: those whose link's consumer it holds
    linked = {a for a, _b, c in links.links if c in vertex_of}
    violations: list[str] = []
    for i in actions:
        v = vertex_of[i]
        if not (analysis.omega[v] & analysis.failure[v]).is_empty:
            violations.append(f"action {i!r} operates inside its failure region")
        if i in linked and not (analysis.omega[v] & analysis.success[v]).is_empty:
            violations.append(f"linked action {i!r} operates inside its success region")
    for j in conditions:
        v = vertex_of[j]
        if not analysis.omega[v].is_empty:
            violations.append(f"condition {j!r} has a nonempty operating region")
    leaf_vertices = set(vertex_of.values())
    expected_s = {vertex_of[i] for i in actions if i not in linked}
    expected_f = {vertex_of[i] for i in actions}
    expected_f |= {vertex_of[j] for j in conditions if not lib.conditions[j].achievers}
    got_s = analysis.success_pathway & leaf_vertices
    got_f = analysis.failure_pathway & leaf_vertices
    if got_s != expected_s:
        violations.append(f"success pathway leaves {sorted(got_s)} != expected {sorted(expected_s)}")
    if got_f != expected_f:
        violations.append(f"failure pathway leaves {sorted(got_f)} != expected {sorted(expected_f)}")
    return OperatingVerdict(not violations, tuple(violations))


class BcConvergenceReport(NamedTuple):
    hypothesis_ok: bool
    hypothesis_witnesses: tuple[tuple[str, int], ...]
    pattern_ok: Optional[bool]
    pattern_violations: tuple[tuple[str, str], ...]
    result: Certificate | Refutation

    def __bool__(self) -> bool:
        return self.pattern_ok is not False and isinstance(self.result, Certificate)


def check_bc_convergence(
    lib: ActionConditionLibrary,
    root: str,
    delta: Optional[float] = None,
    seeds: Optional[Iterable[int]] = None,
    built: Optional[BcBt] = None,
    *,
    links: Optional[LinkStructure] = None,
) -> BcConvergenceReport:
    """Certify a backchained tree; check the acyclic transition pattern.

    The pattern claim (region transitions only run from an action to one
    whose missing or pending conditions the first action's postconditions
    touch) is conditioned on every basin staying inside the success regions
    of the conditions upstream of it.  A library whose actions undo
    upstream conditions, like a recharge cycle, fails that hypothesis; the
    violation is reported with a witness cell per action, the pattern claim
    is skipped, and the general certification still runs.  A caller
    that already ran ``build_bcbt(lib, root)`` passes the result as
    ``built`` so the tree is not built and analysed again, and one that
    already ran ``compute_links(lib)`` passes it as ``links``.
    """
    if links is None:
        links = compute_links(lib)
    validate_bc_assumptions(lib, root, links)
    hypothesis_witnesses: list[tuple[str, int]] = []
    for i in sorted(lib.actions):
        entry = lib.actions[i]
        if entry.leaf.doa is None:
            continue
        guard = lib.world.full_region()
        for j in links.acc[i]:
            guard &= lib.conditions[j].leaf.success
        if not entry.leaf.doa.basin.issubset(guard):
            hypothesis_witnesses.append((i, (entry.leaf.doa.basin - guard).any_cell()))
    if built is None:
        built = build_bcbt(lib, root)
    abstraction = [built.vertex_of[i] for i in lib.actions if i in built.vertex_of]
    result = certify_convergence(built.model, abstraction, delta=delta, seeds=seeds)
    hypothesis_ok = not hypothesis_witnesses
    pattern_ok: Optional[bool] = None
    violations: list[tuple[str, str]] = []
    if hypothesis_ok and isinstance(result, Certificate):
        chosen_vertices = [
            v for ci in result.analysis_classes for v in result.condensed.classes[ci]
        ]
        bg = behavior_graph(result.graph, chosen_vertices)
        violations = _pattern_violations(lib, links, built, bg)
        pattern_ok = not violations
    return BcConvergenceReport(
        hypothesis_ok, tuple(hypothesis_witnesses), pattern_ok, tuple(violations), result
    )


def _pattern_violations(
    lib: ActionConditionLibrary, links: LinkStructure, built: BcBt, bg: BehaviorGraph
) -> list[tuple[str, str]]:
    """The pairs (u, w) where u strictly reaches w in bg but post[u] misses acc[w] | pre[w].

    Sorted by (u vertex, w vertex).  Instead of listing every reachable pair,
    bitmasks over bg.nodes give each w its ancestors and the nodes whose
    postconditions touch one of w's conditions; the violations are the
    ancestors outside the second mask.  A condition b is in post[u] exactly
    when u link-reaches the achiever of some link (a, b, c).
    """
    nodes = bg.nodes
    pos = {v: k for k, v in enumerate(nodes)}
    pred: list[list[int]] = [[] for _ in nodes]
    for u, w in bg.edges:
        pred[pos[w]].append(pos[u])
    anc = reach_masks(pred, [1 << k for k in range(len(nodes))])
    index = {a: i for i, a in enumerate(lib.actions)}
    link_pred: list[list[int]] = [[] for _ in index]
    for a, _b, c in links.links:
        link_pred[index[c]].append(index[a])
    own = [1 << pos[built.vertex_of[a]] if built.vertex_of.get(a) in pos else 0 for a in index]
    link_anc = reach_masks(link_pred, own)
    touches: dict[str, int] = {}
    for a, b, _c in links.links:
        touches[b] = touches.get(b, 0) | link_anc[index[a]]
    name_of = {v: i for i, v in built.vertex_of.items()}
    found: list[tuple[int, int]] = []
    for k, w in enumerate(nodes):
        iw = name_of[w]
        good = 1 << k  # a node is never its own strict ancestor
        for b in chain(links.acc[iw], lib.actions[iw].preconditions):
            good |= touches.get(b, 0)
        bad = anc[k] & ~good
        while bad:
            low = bad & -bad
            found.append((low.bit_length() - 1, k))
            bad ^= low
    found.sort()
    return [(name_of[nodes[u]], name_of[nodes[w]]) for u, w in found]

