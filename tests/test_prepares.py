"""Slice graph construction, condensation, analysis sets, certification."""

import dataclasses
import random
from collections import Counter

import pytest

from btconverge.backchain import (
    ActionConditionLibrary,
    build_bcbt,
    check_bc_convergence,
    compute_links,
    validate_bc_assumptions,
)
from btconverge.bt import Doa, NodeKind, NodeSpec, fal
from btconverge.execution import FtsVerdict, check_fts, hitting_time, simulate
from btconverge.prepares import (
    AbstractionError,
    Certificate,
    FtsPreconditionError,
    PreparesGraph,
    PrepVertex,
    Refutation,
    analysis_set,
    behavior_graph,
    build_prepares_graph,
    certificate_as_fts_leaf,
    certify_convergence,
    check_acyclic_case,
    condense,
    decide,
    _longest_path_bound,
)
from btconverge.specfile import parse_document
from btconverge.statespace import Region, StepError, SuccessorMap, World
from btconverge.substitution import DD_NAME, RR_NAME, substitute

from helpers import (
    bundled_document,
    bundled_spec,
    two_stage_fallback_model,
    two_stage_sequence_model,
    oracle_prepares_edges,
    path_bound,
    random_funnel_model,
    random_gridworld_model,
    random_library,
    random_reverification_instance,
    reference_certify_convergence,
    staged_chain_library,
    verdict_fields,
)

# ----------------------------------------------------------------------
# A hand-transcribed nine-funnel slice graph with two merged components:
# the basin slices of funnels 1, 2, 4 plus the outside slice of funnel 5
# form one cycle, and the outside slices of the other funnels form a ring.

FUNNEL_VERTICES = [
    (1, "a"), (1, "b"),
    (2, "a"), (2, "b"),
    (3, "a"), (3, "b"),
    (4, "a"), (4, "b"),
    (5, "a"), (5, "b"),
    (6, "a"), (6, "b"), (6, "c"),
    (7, "a"), (7, "b"), (7, "c"),
    (8, "a"), (8, "b"),
    (9, "a"), (9, "b"),
]

FUNNEL_EDGES = [
    ((2, "b"), (1, "b")),
    ((3, "b"), (2, "b")),
    ((1, "b"), (4, "b")),
    ((4, "b"), (7, "b")),
    ((7, "b"), (8, "b")),
    ((8, "b"), (9, "b")),
    ((9, "b"), (6, "b")),
    ((4, "b"), (5, "a")),
    ((5, "a"), (4, "b")),
    ((5, "a"), (5, "b")),
    ((5, "b"), (6, "b")),
    ((5, "a"), (2, "b")),
    ((5, "a"), (8, "b")),
    ((5, "a"), (6, "b")),
    ((6, "a"), (6, "b")),
    ((6, "b"), (6, "c")),
    ((1, "a"), (2, "a")), ((2, "a"), (1, "a")),
    ((2, "a"), (3, "a")), ((3, "a"), (2, "a")),
    ((3, "a"), (6, "a")), ((6, "a"), (3, "a")),
    ((1, "a"), (4, "a")), ((4, "a"), (1, "a")),
    ((4, "a"), (7, "a")), ((7, "a"), (4, "a")),
    ((7, "a"), (8, "a")), ((8, "a"), (7, "a")),
    ((8, "a"), (9, "a")), ((9, "a"), (8, "a")),
    ((9, "a"), (6, "a")), ((6, "a"), (9, "a")),
    ((7, "b"), (7, "c")),
    ((1, "a"), (1, "b")),
    ((2, "a"), (2, "b")),
    ((3, "a"), (3, "b")),
    ((4, "a"), (4, "b")),
    ((8, "a"), (8, "b")),
    ((9, "a"), (9, "b")),
    ((7, "a"), (7, "b")),
    ((2, "a"), (1, "b")),
    ((6, "a"), (3, "b")),
    ((9, "a"), (6, "b")),
    ((8, "a"), (9, "b")),
    ((7, "a"), (8, "b")),
]

# the bolded analysis choice: all basin slices, the outside slice of 5,
# and the two goal slices
FUNNEL_ANALYSIS = {
    (1, "b"), (2, "b"), (3, "b"), (4, "b"), (5, "a"), (5, "b"),
    (6, "b"), (7, "b"), (8, "b"), (9, "b"), (6, "c"), (7, "c"),
}


@pytest.fixture(scope="module")
def funnel_graph() -> PreparesGraph:
    vertices = [
        PrepVertex(owner, flavor, Region.from_cells(len(FUNNEL_VERTICES), [i]))
        for i, (owner, flavor) in enumerate(FUNNEL_VERTICES)
    ]
    index = {key: i for i, key in enumerate(FUNNEL_VERTICES)}
    edges = {(index[u], index[w]) for u, w in FUNNEL_EDGES}
    return PreparesGraph(vertices, edges)


def keys_of(graph, indices):
    return {graph.vertices[i].key() for i in indices}


def test_funnel_condensation_merges_the_two_cycles(funnel_graph):
    condensed = condense(funnel_graph)
    class_keys = [keys_of(funnel_graph, members) for members in condensed.classes]
    assert {(1, "b"), (4, "b"), (5, "a"), (2, "b")} in class_keys
    assert {
        (1, "a"), (2, "a"), (3, "a"), (4, "a"), (6, "a"), (7, "a"), (8, "a"), (9, "a")
    } in class_keys
    singletons = [k for k in class_keys if len(k) == 1]
    assert len(condensed.classes) == 10
    assert len(singletons) == 8
    sink_keys = {frozenset(keys_of(funnel_graph, condensed.classes[ci])) for ci in condensed.sinks}
    assert sink_keys == {frozenset({(6, "c")}), frozenset({(7, "c")})}


def test_funnel_analysis_set_from_lone_basin_slice(funnel_graph):
    condensed = condense(funnel_graph)

    def class_of(key):
        return condensed.class_of[funnel_graph.vertex(*key)]

    chosen = analysis_set(condensed, [class_of((3, "b"))])
    assert len(chosen) == 9
    flattened = {
        funnel_graph.vertices[v].key() for ci in chosen for v in condensed.classes[ci]
    }
    assert flattened == FUNNEL_ANALYSIS


def test_funnel_analysis_set_near_goal(funnel_graph):
    condensed = condense(funnel_graph)

    def class_of(key):
        return condensed.class_of[funnel_graph.vertex(*key)]

    chosen = analysis_set(condensed, [class_of((5, "b"))])
    flattened = {
        frozenset(keys_of(funnel_graph, condensed.classes[ci])) for ci in chosen
    }
    assert flattened == {
        frozenset({(5, "b")}),
        frozenset({(6, "b")}),
        frozenset({(6, "c")}),
    }


def test_funnel_analysis_set_of_sink_is_single(funnel_graph):
    condensed = condense(funnel_graph)
    sink = sorted(condensed.sinks)[0]
    assert analysis_set(condensed, [sink]) == {sink}


def test_an_empty_seed_set_is_refused(funnel_graph):
    """The closure of no class is empty, so a certificate over it would prove nothing."""
    condensed = condense(funnel_graph)
    with pytest.raises(AbstractionError, match="no seed class given"):
        analysis_set(condensed, [])
    eat = bundled_spec("eat_tree")
    members = [eat.model.vertex_of(n) for n in eat.abstraction]
    assert isinstance(certify_convergence(eat.model, members, eat.delta), Refutation)
    with pytest.raises(AbstractionError, match="no seed class given"):
        certify_convergence(eat.model, members, eat.delta, seeds=[])


def test_seed_classes_are_read_only_once_the_hypotheses_hold():
    """decide resolves its seed class ids after the per-member hypotheses, as the
    stage-by-stage reference does: failed hypotheses are the verdict whatever the
    seeds name, and a seed naming no class raises only when the hypotheses hold."""
    grid = bundled_spec("gridworld")
    members = [grid.model.vertex_of(n) for n in grid.abstraction]
    with pytest.raises(AbstractionError, match="seed class 999 does not exist"):
        decide(grid.model, members, grid.delta, [999])
    doc = bundled_document("gridworld")
    for leaf in doc["leaves"]:
        if leaf.get("doa"):
            leaf["doa"]["horizon"] = 1
    cut = parse_document(doc)
    members = [cut.model.vertex_of(n) for n in cut.abstraction]
    verdict = decide(cut.model, members, cut.delta, [999])
    assert isinstance(verdict, FtsPreconditionError) and verdict.failures


def test_funnel_behavior_graph(funnel_graph):
    vertex_subset = [funnel_graph.vertex(*key) for key in FUNNEL_ANALYSIS]
    bg = behavior_graph(funnel_graph, vertex_subset)
    drawn = {
        (3, 2), (2, 1), (1, 4), (4, 7), (7, 8), (8, 9), (9, 6),
        (5, 2), (5, 8), (5, 6), (4, 5), (5, 4),
    }
    # goal edges inside one funnel and the outside->basin edge of funnel 5
    # project onto self-pairs, which the image keeps
    assert bg.edges == frozenset(drawn | {(5, 5), (6, 6), (7, 7)})


def test_behavior_graph_single_goal_vertex(funnel_graph):
    v = funnel_graph.vertex(6, "c")
    bg = behavior_graph(funnel_graph, [v])
    assert bg.nodes == (6,) and bg.edges == frozenset()


def test_behavior_graph_matches_direct_image(rng):
    for _ in range(10):
        model, abstraction, delta = random_gridworld_model(rng)
        graph = build_prepares_graph(model, abstraction, delta)
        subset = [i for i in range(len(graph.vertices)) if rng.random() < 0.7]
        bg = behavior_graph(graph, subset)
        expected = {
            (graph.vertices[u].owner, graph.vertices[w].owner)
            for u, w in graph.edges
            if u in subset and w in subset
        }
        assert bg.edges == frozenset(expected)


# ----------------------------------------------------------------------
# edge construction against the brute-force rule oracle


def test_prepares_edges_match_rule_oracle(rng):
    for _ in range(25):
        model, abstraction, delta = random_gridworld_model(
            rng, side=rng.choice([4, 5, 6]), n_parts=rng.randint(2, 5)
        )
        graph = build_prepares_graph(model, abstraction, delta)
        got = {
            (graph.vertices[u].key(), graph.vertices[w].key()) for u, w in graph.edges
        }
        assert got == oracle_prepares_edges(model, abstraction, delta)


def edge_keys(graph):
    return {(graph.vertices[u].key(), graph.vertices[w].key()) for u, w in graph.edges}


def test_dilated_edges_match_pairwise_neighboring(rng):
    """One dilation per slice gives the edges of the pairwise neighboring loop.

    Slices never overlap here: the abstraction must partition the universe.
    Overlapping regions are covered by the dilation test in test_statespace.
    """
    cases = []
    for _ in range(8):  # metric worlds at several step bounds
        side = rng.choice([4, 5, 6])
        model, members, _ = random_gridworld_model(rng, side, rng.randint(2, 5))
        cases.append((model, members, rng.choice([0.5, 1.0, 1.5, 3.0])))
    for _ in range(8):  # adjacency worlds, directed or symmetric
        side = rng.choice([4, 5, 6])
        n = side * side
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n))]
        world = World(n, adjacency=pairs, symmetric=rng.random() < 0.5)
        model, members, _ = random_gridworld_model(rng, side, rng.randint(2, 5), world=world)
        cases.append((model, members, None))
    b = bundled_spec("patrol")
    for budget, cap in ((2, 0), (4, 1), (6, 2)):  # augmented substitution worlds
        spec = dataclasses.replace(b.substitution, time_budget=budget, hysteresis_cap=cap)
        new = substitute(b.model, spec, base_delta=b.delta).new_model
        cases.append((new, list(new.action_vertices()), None))
    for trial in range(48):  # re-verification products over metric and adjacency base worlds
        metric, hysteresis, per_aug_dd = trial % 2 == 1, trial // 2 % 2 == 1, trial // 4 % 2 == 1
        model, spec, delta, names = random_reverification_instance(
            rng, rng.randint(5, 8), metric, hysteresis, per_aug_dd
        )
        new = substitute(model, spec, base_delta=delta).new_model
        cases.append((new, sorted(new.vertex_of(x) for x in [*names, DD_NAME, RR_NAME]), None))
    for model, members, delta in cases:
        graph = build_prepares_graph(model, members, delta)
        # the slices cover the universe, and their sizes add up to it, so they are disjoint
        assert sum(len(v.cells) for v in graph.vertices) == model.world.cell_count
        union = Region.empty(model.world.cell_count)
        for v in graph.vertices:
            union |= v.cells
        assert union == model.world.full_region()
        assert edge_keys(graph) == oracle_prepares_edges(model, members, delta)


def test_slice_graph_dilates_each_slice_once(monkeypatch):
    lib, root = staged_chain_library(20)
    model = build_bcbt(lib, root).model
    members = list(model.action_vertices())
    calls = {"neighboring": 0, "dilate": 0}
    real_dilate = World.dilate

    def counting_dilate(self, region, delta=None):
        calls["dilate"] += 1
        return real_dilate(self, region, delta)

    def counting_neighboring(self, a, b, delta=None):
        calls["neighboring"] += 1
        raise AssertionError("neighboring called per slice pair")

    monkeypatch.setattr(World, "dilate", counting_dilate)
    monkeypatch.setattr(World, "neighboring", counting_neighboring)
    graph = build_prepares_graph(model, members, 1.0)
    non_goal = sum(v.flavor != "c" for v in graph.vertices)
    assert len(graph.vertices) == 21 and len(graph.edges) == 20
    assert calls == {"neighboring": 0, "dilate": non_goal}


def test_metric_slice_graph_without_delta_is_rejected():
    lib, root = staged_chain_library(3)
    model = build_bcbt(lib, root).model
    with pytest.raises(ValueError, match="delta"):
        build_prepares_graph(model, list(model.action_vertices()))


def test_successors_match_edge_scan(rng):
    for _ in range(10):
        model, members, delta = random_gridworld_model(rng, rng.choice([4, 5]), rng.randint(2, 5))
        graph = build_prepares_graph(model, members, delta)
        condensed = condense(graph)
        for u in range(len(graph.vertices)):
            assert graph.succ[u] == tuple(sorted(w for x, w in graph.edges if x == u))
        for ci in range(len(condensed.classes)):
            assert condensed.succ[ci] == tuple(sorted(cj for c, cj in condensed.edges if c == ci))
        assert condensed.sinks == frozenset(
            ci for ci in range(len(condensed.classes)) if not condensed.succ[ci]
        )


def test_goal_slices_have_no_outgoing_edges(rng):
    model, abstraction, delta = random_gridworld_model(rng)
    graph = build_prepares_graph(model, abstraction, delta)
    for u, _w in graph.edges:
        assert graph.vertices[u].flavor != "c"


def test_slices_partition_each_operating_region(rng):
    model, abstraction, delta = random_gridworld_model(rng)
    graph = build_prepares_graph(model, abstraction, delta)
    analysis = model.analysis()
    for i in abstraction:
        union = Region.empty(model.world.cell_count)
        for v in graph.vertices:
            if v.owner == i:
                assert union.isdisjoint(v.cells)
                union |= v.cells
        assert union == analysis.omega[i]


def test_build_rejects_invalid_abstraction():
    model = bundled_spec("eat_tree").model
    with pytest.raises(AbstractionError):
        build_prepares_graph(model, [model.tree.root, model.vertex_of("eat_apple")])


def test_basin_outside_blocks_edge():
    """With the second funnel's region equal to its basin, no edge returns."""
    model, names = two_stage_sequence_model()
    graph = build_prepares_graph(model, [model.vertex_of(n) for n in names], 1.0)
    gate = model.vertex_of("reach_gate")
    goal = model.vertex_of("reach_goal")
    assert (graph.vertex(goal, "b"), graph.vertex(gate, "b")) not in graph.edges
    assert (graph.vertex(goal, "b"), graph.vertex(goal, "c")) in graph.edges


# ----------------------------------------------------------------------
# condensation against a reachability oracle


def _random_digraph(rng, n):
    edges = set()
    for _ in range(rng.randint(0, 3 * n)):
        edges.add((rng.randrange(n), rng.randrange(n)))
    edges = {(u, w) for u, w in edges if u != w}
    vertices = [PrepVertex(i, "b", Region.from_cells(n, [i])) for i in range(n)]
    return PreparesGraph(vertices, edges)


def _reachability_classes(n, edges):
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for u, w in edges:
        reach[u][w] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    classes = {}
    for i in range(n):
        key = frozenset(
            j for j in range(n) if reach[i][j] and reach[j][i]
        )
        classes[key] = True
    return set(classes)


def test_condensation_matches_reachability_oracle(rng):
    for _ in range(40):
        n = rng.randint(1, 30)
        graph = _random_digraph(rng, n)
        condensed = condense(graph)
        got = {frozenset(members) for members in condensed.classes}
        assert got == _reachability_classes(n, graph.edges)
        # acyclicity: no mutual class pairs
        for ci, cj in condensed.edges:
            assert (cj, ci) not in condensed.edges or ci == cj


def test_completion_order_and_path_bound_match_brute_force(rng):
    """Condensed edges point back in Tarjan's completion order, and the
    refined-bound walk over it equals the maximum over explicit paths."""
    graphs = [_random_digraph(rng, rng.randint(1, 16)) for _ in range(40)]
    for _ in range(10):
        model, members, delta = random_gridworld_model(rng, rng.choice([4, 5]), rng.randint(2, 5))
        graphs.append(build_prepares_graph(model, members, delta))
    for graph in graphs:
        condensed = condense(graph)
        n = len(condensed.classes)
        position = {ci: k for k, ci in enumerate(condensed.completion)}
        assert sorted(position) == list(range(n)) == sorted(condensed.completion)
        for ci, cj in condensed.edges:
            assert position[cj] < position[ci], (ci, cj)
        weights = {ci: rng.randint(0, 9) for ci in range(n) if ci not in condensed.sinks}
        chosen = analysis_set(condensed, rng.sample(range(n), rng.randint(1, n)))
        assert _longest_path_bound(condensed, chosen, weights) == path_bound(
            condensed.succ, chosen, weights
        )
    sr = bundled_spec("surveying_robot")
    members = [sr.model.vertex_of(name) for name in sr.abstraction]
    lib, root = staged_chain_library(6)
    chain = build_bcbt(lib, root).model
    for model, members, delta in ((sr.model, members, sr.delta), (chain, chain.action_vertices(), 1.0)):
        cert = certify_convergence(model, list(members), delta)
        assert isinstance(cert, Certificate) and len(cert.analysis_classes) > 2
        assert cert.refined_bound == path_bound(
            cert.condensed.succ, cert.analysis_classes, cert.per_class_exit
        )


def test_condensation_of_acyclic_graph_is_singletons(rng):
    n = 12
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    vertices = [PrepVertex(i, "b", Region.from_cells(n, [i])) for i in range(n)]
    condensed = condense(PreparesGraph(vertices, edges))
    assert all(len(members) == 1 for members in condensed.classes)


def test_condensation_idempotent(rng):
    for _ in range(15):
        graph = _random_digraph(rng, rng.randint(2, 20))
        condensed = condense(graph)
        quotient = PreparesGraph(
            [
                PrepVertex(ci, "b", Region.from_cells(len(condensed.classes), [ci]))
                for ci in range(len(condensed.classes))
            ],
            condensed.edges,
        )
        again = condense(quotient)
        assert all(len(members) == 1 for members in again.classes)


# ----------------------------------------------------------------------
# certification


def test_surveying_certificate_matches_known_structure():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    members = [model.vertex_of(n) for n in sr.abstraction]
    cert = certify_convergence(model, members, sr.delta)
    assert isinstance(cert, Certificate)
    condensed = cert.condensed
    cycle_keys = {
        frozenset(condensed.class_keys(ci))
        for ci in range(len(condensed.classes))
        if len(condensed.classes[ci]) > 1
    }
    assert cycle_keys == {
        frozenset(
            {
                (model.vertex_of("go_home"), "b"),
                (model.vertex_of("charge"), "b"),
                (model.vertex_of("goto_path"), "b"),
                (model.vertex_of("follow_path"), "b"),
            }
        )
    }
    assert len(cert.analysis_classes) == 3
    assert cert.bound == 3 * max(cert.per_class_exit.values())


def test_single_goal_seed_gives_zero_bound():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    members = [model.vertex_of(n) for n in sr.abstraction]
    graph = build_prepares_graph(model, members, sr.delta)
    condensed = condense(graph)
    sink = sorted(condensed.sinks)[0]
    cert = certify_convergence(model, members, sr.delta, seeds=[sink])
    assert isinstance(cert, Certificate)
    assert cert.bound == 0


def test_decide_reuses_a_prebuilt_condensation():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    members = sorted(model.vertex_of(n) for n in sr.abstraction)
    condensed = condense(build_prepares_graph(model, members, sr.delta))
    fresh = certify_convergence(model, members, sr.delta)
    reused = decide(model, members, sr.delta, condensed=condensed)
    assert reused.condensed is condensed and reused.graph is condensed.graph
    assert (reused.bound, reused.refined_bound, reused.per_class_exit) == (
        fresh.bound,
        fresh.refined_bound,
        fresh.per_class_exit,
    )


def test_certificate_bound_holds_exhaustively():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    members = [model.vertex_of(n) for n in sr.abstraction]
    cert = certify_convergence(model, members, sr.delta)
    goals = cert.goal_cells()
    for c in cert.start_cells().cells():
        hit = hitting_time(model, c, goals, cert.bound)
        assert hit is not None and hit <= cert.bound


def test_refutation_on_fixed_point():
    eat = bundled_spec("eat_tree")
    model = eat.model
    members = [model.vertex_of(n) for n in eat.abstraction]
    outcome = certify_convergence(model, members)
    assert isinstance(outcome, Refutation)
    assert outcome.kind == "no-exit"
    # the witness is frozen under the closed loop
    trace = simulate(model, outcome.witness_cell, 5)
    assert len(set(trace.states)) == 1


def test_fts_precondition_failure_is_returned():
    """The failed hypotheses are a verdict value, as a refutation is, not a raise."""
    assert certify_convergence is decide
    model, names = two_stage_sequence_model()
    bad = names[0]
    leaf = model.leaves[model.vertex_of(bad)]
    # shrink the deadline below the true hitting time
    from btconverge.bt import BTModel, Doa, NodeSpec, NodeKind, LeafData

    broken = BTModel(
        model.world,
        NodeSpec(
            NodeKind.SEQUENCE,
            (
                NodeSpec(
                    NodeKind.ACTION,
                    leaf=LeafData(
                        leaf.name, leaf.kind, leaf.success, leaf.failure, leaf.controller,
                        Doa(leaf.doa.basin, leaf.doa.goal, 1),
                    ),
                ),
                NodeSpec(NodeKind.ACTION, leaf=model.leaves[model.vertex_of(names[1])]),
            ),
        ),
    )
    outcome = certify_convergence(broken, [broken.vertex_of(n) for n in names], 1.0)
    assert isinstance(outcome, FtsPreconditionError)
    assert list(outcome.failures) == [bad] and outcome.failures[bad].kind == "deadline"


def test_member_without_basin_data_is_an_fts_verdict():
    doc = bundled_document("gridworld")
    for entry in doc["leaves"]:
        if entry["name"] == "go_up":
            del entry["doa"]
    spec = parse_document(doc)
    members = [spec.model.vertex_of(n) for n in spec.abstraction]
    outcome = certify_convergence(spec.model, members, spec.delta)
    assert isinstance(outcome, FtsPreconditionError)
    assert outcome.failures == {"go_up": FtsVerdict(False, "missing-basin-data")}


def test_transition_soundness_on_surveying_robot():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    members = [model.vertex_of(n) for n in sr.abstraction]
    graph = build_prepares_graph(model, members, sr.delta)
    condensed = condense(graph)
    for x0 in range(model.world.cell_count):
        trace = simulate(model, x0, model.world.cell_count + 1)
        classes = [condensed.class_of_cell(x) for x in trace.states]
        for a, b in zip(classes, classes[1:]):
            assert a == b or (a, b) in condensed.edges


def test_wrapped_certificate_passes_fts():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    members = [model.vertex_of(n) for n in sr.abstraction]
    cert = certify_convergence(model, members, sr.delta)
    wrapped = certificate_as_fts_leaf(model, cert)
    assert check_fts(wrapped, wrapped.vertex_of("certified"))


def test_acyclic_case_flags_cycle():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    members = [model.vertex_of(n) for n in sr.abstraction]
    condensed = condense(build_prepares_graph(model, members, sr.delta))
    verdict = check_acyclic_case(condensed, range(len(condensed.classes)), model)
    assert not verdict


def test_acyclic_case_on_chain():
    model, names = two_stage_sequence_model()
    members = [model.vertex_of(n) for n in names]
    condensed = condense(build_prepares_graph(model, members, 1.0))
    verdict = check_acyclic_case(condensed, range(len(condensed.classes)), model)
    assert verdict
    assert verdict.transition_bound == 3
    assert set(verdict.per_class_deadline) == set(range(3))


def test_certificate_refined_bound_not_larger():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    members = [model.vertex_of(n) for n in sr.abstraction]
    cert = certify_convergence(model, members, sr.delta)
    assert cert.refined_bound <= cert.bound
    goals = cert.goal_cells()
    for c in cert.start_cells().cells():
        hit = hitting_time(model, c, goals, cert.bound)
        assert hit is not None and hit <= cert.refined_bound


def test_verdicts_hold_in_the_closed_loop_under_an_honest_delta(rng):
    """The one-step hypothesis is checked, so with it every verdict is exact.

    delta is the longest step any member takes inside its operating region.
    Every certificate's start cells reach its goal cells within
    refined_bound, no refutation witness ever reaches a goal slice, and any
    smaller delta is refused with StepError.
    """
    seen = set()
    for _ in range(300):
        metric = rng.random() < 0.6
        model, members = random_funnel_model(rng, rng.randint(3, 6), rng.randint(2, 5), metric)
        omega, world = model.analysis().omega, model.world
        delta = None
        if metric:
            steps = [(c, model.leaves[v].controller.targets[c]) for v in members for c in omega[v].cells()]
            delta = max(world.distance(c, t) for c, t in steps)
        outcome = certify_convergence(model, members, delta=delta)
        if isinstance(outcome, Certificate):
            goal = outcome.goal_cells()
            for c in outcome.start_cells().cells():
                assert hitting_time(model, c, goal, outcome.refined_bound) is not None
        else:
            goal = Region.empty(world.cell_count)
            for v in outcome.condensed.graph.vertices:
                if v.flavor == "c":
                    goal |= v.cells
            # a walk that reaches goal does so within cell_count steps
            assert hitting_time(model, outcome.witness_cell, goal, world.cell_count) is None
        seen.add((type(outcome).__name__, metric))
        if delta:
            with pytest.raises(StepError, match="apart, past delta"):
                certify_convergence(model, members, delta=delta * (1 - 1e-9))
    assert len(seen) == 4, seen


def test_one_step_check_names_a_far_jump_planted_among_kept_cells(rng):
    """The one-step check reads only the cells a member moves: a far jump
    planted among kept cells and one-step moves is named with the text the
    check over every operating cell gives (reference_certify_convergence)."""
    from btconverge.bt import BTModel, action, seq

    for trial in range(60):
        n = rng.randint(4, 30)
        if trial % 2:
            world, delta = World(n, adjacency=[(c, c + 1) for c in range(n - 1)]), None
        else:
            world, delta = World(n, coords=[(float(c),) for c in range(n)]), 1.0
        targets = [c + 1 if c < n - 1 and rng.random() < 0.2 else c for c in range(n)]
        far = rng.randrange(1, n - 2)
        targets[far] = rng.randrange(far + 2, n)
        success = Region.from_cells(n, [n - 1])
        model = BTModel(world, seq(action("a", success, controller=SuccessorMap(targets))))
        members = [model.vertex_of("a")]
        with pytest.raises(StepError) as got:
            certify_convergence(model, members, delta)
        with pytest.raises(StepError) as want:
            reference_certify_convergence(model, members, delta)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"leaf 'a' moves cell {far} to {targets[far]}: ")


def _weakened(rng, model, members):
    """model, a fallback of the action leaves members, with some basins dropped
    and some deadlines cut."""
    leaves = []
    for v in members:
        leaf = model.leaves[v]
        roll = rng.random()
        if roll < 0.3:
            empty = Region.empty(model.world.cell_count)
            leaf = leaf._replace(doa=Doa(empty, empty, leaf.doa.horizon))
        elif roll < 0.7:
            doa = Doa(leaf.doa.basin, leaf.doa.goal, rng.randint(1, leaf.doa.horizon))
            leaf = leaf._replace(doa=doa)
        leaves.append(NodeSpec(NodeKind.ACTION, leaf=leaf))
    return type(model)(model.world, fal(*leaves))


def _moving_library(rng, lib, root):
    """lib over a complete-adjacency world, where most actions jump to a goal cell
    and keep it; the rest stay put and miss their deadlines."""
    n = lib.world.cell_count
    actions = {}
    for name, entry in lib.actions.items():
        goal = entry.leaf.doa.goal
        if not goal.is_empty and rng.random() < 0.9:
            controller = SuccessorMap([c if c in goal else goal.any_cell() for c in range(n)])
            entry = entry._replace(leaf=entry.leaf._replace(controller=controller))
        actions[name] = entry
    world = World(n, adjacency=[(a, b) for a in range(n) for b in range(a + 1, n)])
    return ActionConditionLibrary(world, actions, lib.conditions), root


def test_verdicts_match_the_stage_by_stage_reference(rng):
    """Seeded corpus: certify_convergence and check_bc_convergence give what the
    stages give one by one from the oracles (reference_certify_convergence).

    Both sides must agree on the outcome type, the bounds, the analysis set
    and exit times, or the witness class and cell, or the error and its
    failures.  Funnel models get some basins dropped, some deadlines cut
    and, on metric grids, a step bound that some jumps pass; in each
    library most actions jump to a goal cell and the rest, which stay put,
    miss their deadlines.  Every outcome must occur.
    """
    seen = Counter()
    for trial in range(160):
        metric = trial % 2 == 0
        model, members = random_funnel_model(rng, rng.randint(3, 5), rng.randint(1, 3), metric)
        if rng.random() < 0.4:
            model = _weakened(rng, model, members)
            members = list(model.action_vertices())
        delta = rng.choice([1.0, 1.5, 8.0]) if metric else None
        seeds = rng.choice([None, None, [0], [rng.randrange(4)]])
        got = verdict_fields(lambda: certify_convergence(model, members, delta, seeds))
        want = verdict_fields(lambda: reference_certify_convergence(model, members, delta, seeds))
        assert got == want, (trial, got, want)
        seen["funnel", got[0].__name__ if got[0] is not Refutation else got[1]] += 1
    for trial in range(60):
        lib, root = _moving_library(rng, *random_library(rng, rng.randint(6, 14)))
        seeds = rng.choice([None, None, [0]])
        built = build_bcbt(lib, root)
        abstraction = [built.vertex_of[i] for i in lib.actions if i in built.vertex_of]

        def reference():
            validate_bc_assumptions(lib, root, compute_links(lib))
            return reference_certify_convergence(built.model, abstraction, None, seeds)

        got = verdict_fields(lambda: check_bc_convergence(lib, root, seeds=seeds).result)
        assert got == verdict_fields(reference), (trial, got)
        seen["library", got[0].__name__] += 1
    kinds = ["Certificate", "no-exit", "non-goal-sink", "StepError", "FtsPreconditionError"]
    assert all(seen["funnel", kind] >= 3 for kind in kinds), seen
    assert seen["library", "Certificate"] >= 3 and seen["library", "FtsPreconditionError"] >= 3, seen
