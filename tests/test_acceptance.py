"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion PASS lines).  Randomized corpora are seed-controlled through
BTCONVERGE_TEST_SEED or --model-seed.
"""

import dataclasses
import random

import pytest

from btconverge.backchain import (
    bc_influence,
    bc_influence_terms,
    build_bcbt,
    compute_links,
)
from btconverge.bt import (
    BTModel,
    Doa,
    NodeKind,
    Status,
    action,
    condition,
    fal,
    seq,
    tick_path,
    validate_abstraction,
)
from btconverge.execution import check_fts, hitting_time, simulate
from btconverge.prepares import (
    Certificate,
    PreparesGraph,
    PrepVertex,
    analysis_set,
    build_prepares_graph,
    certificate_as_fts_leaf,
    certify_convergence,
    check_acyclic_case,
    condense,
)
from btconverge.statespace import Region
from btconverge.substitution import substitute, verify_preservation

from helpers import (
    SURVEY_MAX,
    SurveyWorld,
    bundled_spec,
    chain_library,
    two_stage_fallback_model,
    two_stage_sequence_model,
    naive_status,
    naive_tick_path,
    oracle_prepares_edges,
    pairwise_links,
    random_gridworld_model,
    random_library,
    random_substitution_instance,
    random_tree_model,
    rebuild_old_with_mb,
)


def report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS - {text}")


@pytest.fixture(scope="module")
def tree_corpus(model_seed):
    rng = random.Random(model_seed)
    corpus = []
    for _ in range(200):
        n_cells = rng.choice([16, 32, 64])
        corpus.append(random_tree_model(rng, n_cells, max_depth=4, max_leaves=8))
    return corpus


def test_c01_eat_tree_regression():
    b = bundled_spec("eat_tree")
    m = b.model
    assert m.world.cell_count >= 8
    analysis = m.analysis()
    apple, peel, banana = (m.vertex_of(n) for n in ("eat_apple", "peel_banana", "eat_banana"))
    s = {v: m.leaves[v].success for v in (apple, peel, banana)}
    f = {v: m.leaves[v].failure for v in (apple, peel, banana)}
    epb = m.tree.parent[peel]
    root = m.tree.root
    assert analysis.failure[epb] == f[peel] | (s[peel] & f[banana])
    assert analysis.success[epb] == s[peel] & s[banana]
    assert analysis.success[root] == s[apple] | (f[apple] & s[peel] & s[banana])
    assert analysis.failure[root] == f[apple] & (f[peel] | (s[peel] & f[banana]))
    assert analysis.influence[banana] == f[apple] & s[peel]
    assert analysis.success_pathway == {apple, banana, epb, root}
    assert analysis.failure_pathway == {peel, banana, epb, root}
    report(1, "eat-tree propagation, influence, and pathway identities are exact")


def test_c02_metadata_oracle_equivalence(tree_corpus):
    for model in tree_corpus:
        analysis = model.analysis()
        universe = model.world.cell_count
        for v in range(model.n):
            r, s, f = analysis.running[v], analysis.success[v], analysis.failure[v]
            for x in range(universe):
                st = naive_status(model, v, x)
                assert (x in s) == (st is Status.SUCCESS)
                assert (x in f) == (st is Status.FAILURE)
                assert (x in r) == (st is Status.RUNNING)
    report(2, f"cascade evaluation equals closed-form regions on {len(tree_corpus)} trees")


def test_c03_operating_region_soundness(tree_corpus):
    for model in tree_corpus:
        analysis = model.analysis()
        assert validate_abstraction(model, model.leaf_vertices())
        for v in range(model.n):
            kids = model.tree.children[v]
            for i, a in enumerate(kids):
                for b in kids[i + 1 :]:
                    assert analysis.omega[a].isdisjoint(analysis.omega[b])
        for x in range(model.world.cell_count):
            on_path = set(naive_tick_path(model, x))
            for v in range(model.n):
                if x in analysis.omega[v]:
                    assert v in on_path
    report(3, f"operating regions are sound and partition on {len(tree_corpus)} trees")


def test_c04_prepares_rule_oracle(model_seed):
    rng = random.Random(model_seed + 4)
    count = 0
    for _ in range(50):
        side = rng.choice([4, 5, 6])
        model, abstraction, delta = random_gridworld_model(rng, side=side, n_parts=rng.randint(2, 5))
        graph = build_prepares_graph(model, abstraction, delta)
        got = {(graph.vertices[u].key(), graph.vertices[w].key()) for u, w in graph.edges}
        assert got == oracle_prepares_edges(model, abstraction, delta)
        count += 1
    report(4, f"edge sets equal the six-rule oracle on {count} gridworld models")


def test_c05_condensation_oracle(model_seed):
    rng = random.Random(model_seed + 5)
    for _ in range(60):
        n = rng.randint(1, 30)
        edges = set()
        for _ in range(rng.randint(0, 3 * n)):
            u, w = rng.randrange(n), rng.randrange(n)
            if u != w:
                edges.add((u, w))
        graph = PreparesGraph(
            [PrepVertex(i, "b", Region.from_cells(n, [i])) for i in range(n)], edges
        )
        condensed = condense(graph)
        # oracle: classes are sets of mutually reachable vertices
        reach = [set([i]) for i in range(n)]
        changed = True
        while changed:
            changed = False
            for u, w in edges:
                for i in range(n):
                    if u in reach[i] and w not in reach[i]:
                        reach[i].add(w)
                        changed = True
        expected = {
            frozenset(j for j in range(n) if j in reach[i] and i in reach[j])
            for i in range(n)
        }
        assert {frozenset(members) for members in condensed.classes} == expected
        for ci, cj in condensed.edges:
            assert (cj, ci) not in condensed.edges
        requotient = condense(
            PreparesGraph(
                [
                    PrepVertex(ci, "b", Region.from_cells(len(condensed.classes), [ci]))
                    for ci in range(len(condensed.classes))
                ],
                condensed.edges,
            )
        )
        assert all(len(mem) == 1 for mem in requotient.classes)
    report(5, "condensation equals the mutual-reachability oracle, acyclic, idempotent")


def _transition_soundness(model, abstraction, delta) -> int:
    graph = build_prepares_graph(model, abstraction, delta)
    condensed = condense(graph)
    checked = 0
    for x0 in range(model.world.cell_count):
        trace = simulate(model, x0, model.world.cell_count + 1)
        classes = [condensed.class_of_cell(x) for x in trace.states]
        for a, b in zip(classes, classes[1:]):
            if a != b:
                assert (a, b) in condensed.edges, (x0, a, b)
            checked += 1
    return checked


def test_c06_transition_soundness(model_seed):
    total = 0
    for b in map(bundled_spec, ("surveying_robot", "patrol", "gridworld", "eat_tree")):
        members = [b.model.vertex_of(n) for n in b.abstraction]
        total += _transition_soundness(b.model, members, b.delta)
    for builder in (two_stage_sequence_model, two_stage_fallback_model):
        model, names = builder()
        total += _transition_soundness(model, [model.vertex_of(n) for n in names], 1.0)
    patrol = bundled_spec("patrol")
    sub = substitute(patrol.model, patrol.substitution, base_delta=1.0)
    new_members = sorted(sub.new_model.action_vertices())
    total += _transition_soundness(sub.new_model, new_members, None)
    rng = random.Random(model_seed + 6)
    for _ in range(10):
        model, abstraction, delta = random_gridworld_model(rng)
        total += _transition_soundness(model, abstraction, delta)
    report(6, f"every observed class transition is a condensed edge ({total} steps)")


def test_c07_surveying_robot_theorem_bound():
    b = bundled_spec("surveying_robot")
    m = b.model
    members = [m.vertex_of(n) for n in b.abstraction]
    graph = build_prepares_graph(m, members, b.delta)
    key = lambda u: (m.names[graph.vertices[u].owner], graph.vertices[u].flavor)
    got_edges = {(key(u), key(w)) for u, w in graph.edges}
    assert got_edges == {
        (("go_home", "b"), ("charge", "b")),
        (("charge", "b"), ("goto_path", "b")),
        (("goto_path", "b"), ("follow_path", "b")),
        (("follow_path", "b"), ("go_home", "b")),
        (("follow_path", "b"), ("idle", "b")),
        (("idle", "b"), ("idle", "c")),
    }
    cert = certify_convergence(m, members, b.delta)
    assert isinstance(cert, Certificate)
    condensed = cert.condensed
    class_keys = [set(map(lambda vk: (m.names[vk[0]], vk[1]), condensed.class_keys(ci))) for ci in range(len(condensed.classes))]
    assert {("go_home", "b"), ("charge", "b"), ("goto_path", "b"), ("follow_path", "b")} in class_keys
    assert len(cert.analysis_classes) == 3
    assert [set(map(lambda vk: (m.names[vk[0]], vk[1]), condensed.class_keys(ci))) for ci in cert.sink_classes] == [{("idle", "c")}]
    worst = max(cert.per_class_exit.values())
    assert cert.bound == 3 * worst
    goals = cert.goal_cells()
    for c in cert.start_cells().cells():
        hit = hitting_time(m, c, goals, cert.bound)
        assert hit is not None and hit <= cert.bound
    report(7, f"cycle class found; bound 3*T = {cert.bound} never violated")


def test_c08_backchain_regression():
    manip = bundled_spec("mobile_manipulator")
    lib, root = manip.library, manip.library_root
    built = build_bcbt(lib, root)
    m = built.model
    links = compute_links(lib)
    assert links.links == frozenset(
        {
            ("goto_safe_area", "in_safe_area", "idle"),
            ("goto_object", "near_object", "grasp_object"),
            ("grasp_object", "object_in_gripper", "place_object"),
            ("goto_goal", "near_goal", "place_object"),
            ("place_object", "object_at_goal", "idle"),
        }
    )
    _links, order, downstream = pairwise_links(lib)
    assert downstream["goto_goal"] == {
        ("goto_goal", "near_goal", "place_object"),
        ("place_object", "object_at_goal", "idle"),
    }
    # post[i] is what the links downstream of i achieve
    assert links.post["goto_goal"] == frozenset({"near_goal", "object_at_goal"})
    strict = {(a, c) for a, c in order if a != c}
    assert strict == {
        ("goto_safe_area", "idle"),
        ("goto_object", "grasp_object"),
        ("goto_object", "place_object"),
        ("goto_object", "idle"),
        ("grasp_object", "place_object"),
        ("grasp_object", "idle"),
        ("goto_goal", "place_object"),
        ("goto_goal", "idle"),
        ("place_object", "idle"),
    }
    # tree shape: 14 leaves, root sequence ends in the top-level action
    assert len(m.leaves) == 14
    root_kids = m.tree.children[m.tree.root]
    assert [m.kinds[c] for c in root_kids] == [NodeKind.FALLBACK, NodeKind.FALLBACK, NodeKind.ACTION]
    table = {
        "goto_safe_area": ((), ("safe_area_reachable",), ("in_safe_area",)),
        "goto_object": (("in_safe_area",), ("object_reachable",), ("near_object", "object_at_goal", "object_in_gripper")),
        "grasp_object": (("in_safe_area",), ("near_object",), ("object_at_goal", "object_in_gripper")),
        "goto_goal": (("in_safe_area", "object_in_gripper"), ("goal_reachable",), ("near_goal", "object_at_goal")),
        "place_object": (("in_safe_area",), ("object_in_gripper", "near_goal"), ("object_at_goal",)),
        "idle": ((), ("in_safe_area", "object_at_goal"), ()),
    }
    for aid, (acc, pre, post) in table.items():
        terms = bc_influence_terms(lib, links, aid)
        assert (terms.acc, terms.pre, terms.post) == (acc, pre, post), aid
    # preorder pattern: postconditions hit later actions' pending conditions
    order = {m.names[v]: v for v in m.leaves}
    for i in lib.actions:
        for j in lib.actions:
            hits = bool(links.post[i] & (links.acc[j] | set(lib.actions[j].preconditions)))
            assert hits == (order[i] < order[j])
    report(8, "manipulator links, order, tree shape, and influence table are exact")


def test_c09_specialized_equals_generic(model_seed):
    rng = random.Random(model_seed + 9)
    universe_checked = 0
    for _ in range(20):
        lib, root = random_library(rng)
        built = build_bcbt(lib, root)
        m = built.model
        links = compute_links(lib)
        analysis = m.analysis()
        universe = m.world.full_region()
        for aid, entry in lib.actions.items():
            v = built.vertex_of[aid]
            assert bc_influence(lib, links, aid) == analysis.influence[v]
            # action sub-tree closed-form metadata
            parent = m.tree.parent[v]
            s_gate = universe
            r_acc = Region.empty(m.world.cell_count)
            f_acc = Region.empty(m.world.cell_count)
            for j in entry.preconditions:
                jv = built.vertex_of[j]
                jp = m.tree.parent[jv]
                cond_vertex = jp if m.kinds[jp] is NodeKind.FALLBACK else jv
                r_acc |= analysis.running[cond_vertex] & s_gate
                f_acc |= analysis.failure[cond_vertex] & s_gate
                s_gate &= analysis.success[cond_vertex]
            own_running = universe - entry.leaf.success - entry.leaf.failure
            assert analysis.running[parent] == r_acc | (own_running & s_gate)
            assert analysis.success[parent] == entry.leaf.success & s_gate
            assert analysis.failure[parent] == f_acc | (entry.leaf.failure & s_gate)
        for cid, centry in lib.conditions.items():
            if centry.achievers:
                sub = m.tree.parent[built.vertex_of[cid]]
                assert analysis.success[sub] == centry.leaf.success
        universe_checked += m.world.cell_count
    report(9, "closed-form influence and metadata match the generic pipeline on 20 libraries")


def test_c10_substitution_preservation(model_seed):
    rng = random.Random(model_seed + 10)
    flips = 0
    for k in range(100):
        model, spec, inj = random_substitution_instance(rng, n_cells=rng.randint(8, 16))
        result = substitute(model, spec)
        assert verify_preservation(result), k
        kind = ("mb-success", "dd-running", "rr-risk", "td-mb-failure")[k % 4]
        n = model.world.cell_count
        cell = Region.from_cells(n, [inj[kind]])
        if kind == "mb-success":
            bad_model, bad_spec = (
                rebuild_old_with_mb(model, success=model.leaves[model.vertex_of("mb")].success | cell),
                spec,
            )
        elif kind == "dd-running":
            bad_model, bad_spec = model, dataclasses.replace(spec, dd_success=cell)
        elif kind == "rr-risk":
            from btconverge.substitution import RrLeaf

            bad_model, bad_spec = model, dataclasses.replace(
                spec,
                rr=RrLeaf(spec.rr.success | cell, spec.rr.failure, spec.rr.controller, spec.rr.doa),
            )
        else:
            bad_model, bad_spec = (
                rebuild_old_with_mb(model, failure=model.leaves[model.vertex_of("mb")].failure | cell),
                spec,
            )
        verdict = verify_preservation(substitute(bad_model, bad_spec, enforce=False))
        assert not verdict and verdict.witness is not None, (k, kind)
        flips += 1
    report(10, f"preservation holds on 100 random specs; {flips} injected violations flipped")


@pytest.fixture(scope="module")
def substituted_surveying():
    """The surveying robot with its follow-path stage wrapped and guarded."""
    sw = SurveyWorld()
    base = bundled_spec("surveying_robot")
    m = base.model
    n = m.world.cell_count
    surveyed = sw.region(lambda p, bt, s: s == SURVEY_MAX)

    def leaf_of(name):
        return m.leaves[m.vertex_of(name)]

    def act(name):
        leaf = leaf_of(name)
        return action(name, leaf.success, leaf.failure, leaf.controller, leaf.doa)

    def cond(name):
        leaf = leaf_of(name)
        return condition(name, leaf.success, leaf.failure)

    variant = BTModel(
        m.world,
        seq(
            fal(
                cond("battery_ok"),
                seq(fal(cond("at_home"), seq(cond("battery_nonzero"), act("go_home"))), act("charge")),
            ),
            fal(
                cond("surveyed"),
                seq(
                    fal(cond("near_path"), seq(cond("battery_nonzero_2"), act("goto_path"))),
                    fal(condition("survey_done", surveyed), act("follow_path")),
                ),
            ),
            act("idle"),
        ),
    )
    follow = variant.vertex_of("follow_path")
    target = variant.tree.parent[follow]
    from btconverge.substitution import RrLeaf, SubstitutionSpec

    rok = sw.region(lambda p, bt, s: bt >= 2)
    spec = SubstitutionSpec(
        target=target,
        dd_targets=list(leaf_of("follow_path").controller.targets),
        rr=RrLeaf(
            success=sw.region(lambda p, bt, s: bt == 4),
            failure=Region.empty(n),
            controller=sw.controller(lambda p, bt, s: (p, min(bt + 1, 4), s)),
        ),
        rok_success=rok,
        time_budget=4,
        hysteresis_cap=2,
    )
    result = substitute(variant, spec, base_delta=base.delta)
    return result, spec


def test_c11_time_and_hysteresis_contracts(substituted_surveying):
    result, spec = substituted_surveying
    m = result.new_model
    aug = result.augmentation
    dd = m.vertex_of("dd_controller")
    rr = m.vertex_of("rr_controller")
    # the one-step counter rule holds for every controller at every cell
    for leaf in m.leaves.values():
        if leaf.controller is None:
            continue
        for cell in range(m.world.cell_count):
            c, t, h = aug.decode(cell)
            _c2, t2, h2 = aug.decode(leaf.controller.next(cell))
            assert t2 == min(t + 1, spec.time_budget)
            assert h2 == (min(h + 1, spec.hysteresis_cap) if c in spec.rok_success else 0)
    violations = 0
    for cell in range(m.world.cell_count):
        c, t, h = aug.decode(cell)
        trace = simulate(m, cell, 2 * spec.time_budget + 6)
        times = [aug.decode(x)[1] for x in trace.states]
        assert times == sorted(times)
        for x in trace.states:
            if aug.decode(x)[1] >= spec.time_budget:
                path = set(tick_path(m, x))
                if dd in path or rr in path:
                    violations += 1
        if h == 0:
            bases = [aug.decode(x)[0] for x in trace.states]
            counters = [aug.decode(x)[2] for x in trace.states]
            for k, hk in enumerate(counters):
                suffix = 0
                while suffix < k and bases[k - 1 - suffix] in spec.rok_success:
                    suffix += 1
                assert hk == min(suffix, spec.hysteresis_cap)
    assert violations == 0
    report(11, f"no guarded tick after the budget; hysteresis equals the capped suffix ({m.world.cell_count} cells)")


def test_c12_two_leaf_compositions():
    # sequence composition
    model, names = two_stage_sequence_model()
    members = [model.vertex_of(n) for n in names]
    for v in members:
        assert check_fts(model, v)
    graph = build_prepares_graph(model, members, 1.0)
    condensed = condense(graph)
    assert all(len(mem) == 1 for mem in condensed.classes)
    first, second = members
    chosen = analysis_set(condensed, [condensed.class_of[graph.vertex(first, "b")]])
    flat = {graph.vertices[v].key() for ci in chosen for v in condensed.classes[ci]}
    assert flat == {(first, "b"), (second, "b"), (second, "c")}
    acyclic = check_acyclic_case(condensed, chosen, model)
    assert acyclic and acyclic.transition_bound == 3
    cert = certify_convergence(model, members, 1.0)
    assert isinstance(cert, Certificate)
    b1 = model.leaves[first].doa.basin
    b2 = model.leaves[second].doa.basin
    assert cert.start_cells() == (b1 | b2)
    wrapped = certificate_as_fts_leaf(model, cert)
    assert check_fts(wrapped, wrapped.vertex_of("certified"))

    # fallback composition
    model, names = two_stage_fallback_model()
    members = [model.vertex_of(n) for n in names]
    for v in members:
        assert check_fts(model, v)
    graph = build_prepares_graph(model, members, 1.0)
    condensed = condense(graph)
    assert all(len(mem) == 1 for mem in condensed.classes)
    first, second = members
    chosen = analysis_set(condensed, [condensed.class_of[graph.vertex(second, "b")]])
    flat = {graph.vertices[v].key() for ci in chosen for v in condensed.classes[ci]}
    assert flat == {(second, "b"), (first, "b"), (first, "c")}
    assert check_acyclic_case(condensed, chosen, model)
    cert = certify_convergence(model, members, 1.0)
    assert isinstance(cert, Certificate)
    b1 = model.leaves[first].doa.basin
    b2 = model.leaves[second].doa.basin
    assert cert.start_cells() == (b1 | b2)
    wrapped = certificate_as_fts_leaf(model, cert)
    assert check_fts(wrapped, wrapped.vertex_of("certified"))
    report(12, "both two-leaf compositions certify with basin union and wrapped checks")
