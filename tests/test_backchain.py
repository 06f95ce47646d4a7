"""Library validation, link structure, generation, and the closed forms."""

from collections import Counter

import pytest

from btconverge import backchain
from btconverge.backchain import (
    ActionConditionLibrary,
    ActionEntry,
    AssumptionError,
    BcBt,
    ConditionEntry,
    LibraryError,
    bc_influence,
    bc_influence_terms,
    build_bcbt,
    check_bc_convergence,
    compute_links,
    validate_bc_assumptions,
    verify_bc_operating,
)
from btconverge.bt import LeafData, NodeKind
from btconverge.prepares import BehaviorGraph, Certificate, behavior_graph
from btconverge.statespace import Region, SuccessorMap, World, step_bound

from helpers import (
    bundled_spec,
    chain_library,
    pair_list_pattern_violations,
    pairwise_links,
    random_library,
    random_link_library,
    staged_chain_library,
)


def bundled_library(name: str) -> tuple:
    spec = bundled_spec(name)
    return spec.library, spec.library_root


@pytest.fixture(scope="module")
def manip():
    lib, root = bundled_library("mobile_manipulator")
    return lib, root, compute_links(lib)


def test_manipulator_links(manip):
    lib, _root, links = manip
    assert links.links == frozenset(
        {
            ("goto_safe_area", "in_safe_area", "idle"),
            ("goto_object", "near_object", "grasp_object"),
            ("grasp_object", "object_in_gripper", "place_object"),
            ("goto_goal", "near_goal", "place_object"),
            ("place_object", "object_at_goal", "idle"),
        }
    )


def test_manipulator_link_order(manip):
    lib, _root, _links = manip
    _pairs, order, _downstream = pairwise_links(lib)
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
    assert not any((c, a) in strict for a, c in strict)


def test_manipulator_downstream_links_of_goto_goal(manip):
    lib, _root, links = manip
    _pairs, _order, downstream = pairwise_links(lib)
    assert downstream["goto_goal"] == {
        ("goto_goal", "near_goal", "place_object"),
        ("place_object", "object_at_goal", "idle"),
    }
    assert links.post["goto_goal"] == frozenset({"near_goal", "object_at_goal"})


def test_manipulator_influence_table(manip):
    lib, _root, links = manip
    table = {
        "goto_safe_area": ((), ("safe_area_reachable",), ("in_safe_area",)),
        "goto_object": (
            ("in_safe_area",),
            ("object_reachable",),
            ("near_object", "object_at_goal", "object_in_gripper"),
        ),
        "grasp_object": (
            ("in_safe_area",),
            ("near_object",),
            ("object_at_goal", "object_in_gripper"),
        ),
        "goto_goal": (
            ("in_safe_area", "object_in_gripper"),
            ("goal_reachable",),
            ("near_goal", "object_at_goal"),
        ),
        "place_object": (
            ("in_safe_area",),
            ("object_in_gripper", "near_goal"),
            ("object_at_goal",),
        ),
        "idle": ((), ("in_safe_area", "object_at_goal"), ()),
    }
    for aid, (acc, pre, post) in table.items():
        terms = bc_influence_terms(lib, links, aid)
        assert terms.acc == acc, aid
        assert terms.pre == pre, aid
        assert terms.post == post, aid


def test_root_action_has_empty_related_sets(manip):
    lib, _root, links = manip
    assert pairwise_links(lib)[2]["idle"] == set()
    assert not any(a == "idle" for a, _b, _c in links.links)
    assert links.post["idle"] == frozenset()
    assert links.acc["idle"] == frozenset()


def test_a_root_with_links_names_only_its_own_links():
    """The links that start at the root are the ones that break the assumption."""
    lib, _root = staged_chain_library(3)
    with pytest.raises(AssumptionError) as exc:
        validate_bc_assumptions(lib, "a000", compute_links(lib))
    assert str(exc.value) == (
        "top-level action 'a000' still has links to satisfy: [('a000', 'c000', 'a001')]"
    )


def test_manipulator_tree_shape(manip):
    lib, root, _links = manip
    built = build_bcbt(lib, root)
    m = built.model
    # fourteen leaves: eight conditions and six actions
    assert len(m.leaves) == 14
    kinds = [m.kinds[v] for v in sorted(m.leaves)]
    assert kinds.count(NodeKind.CONDITION) == 8
    assert kinds.count(NodeKind.ACTION) == 6
    root_kids = m.tree.children[m.tree.root]
    assert m.kinds[m.tree.root] is NodeKind.SEQUENCE
    # root: one fallback per top-level precondition, then the idle action
    assert [m.kinds[c] for c in root_kids] == [
        NodeKind.FALLBACK,
        NodeKind.FALLBACK,
        NodeKind.ACTION,
    ]
    assert m.names[root_kids[-1]] == "idle"
    # achiever-less preconditions collapse to bare condition leaves
    reach = m.vertex_of("safe_area_reachable")
    assert m.kinds[m.tree.parent[reach]] is NodeKind.SEQUENCE
    # actions appear in preorder position matching the chain order
    actions_in_preorder = [m.names[v] for v in sorted(m.leaves) if m.kinds[v] is NodeKind.ACTION]
    assert actions_in_preorder == [
        "goto_safe_area",
        "goto_object",
        "grasp_object",
        "goto_goal",
        "place_object",
        "idle",
    ]


def test_preorder_pattern_matches_strict_order(manip):
    """Postconditions hit later actions' pending conditions exactly when earlier."""
    lib, root, links = manip
    built = build_bcbt(lib, root)
    m = built.model
    order = {m.names[v]: v for v in m.leaves}
    names = [n for n in order if n in lib.actions]
    for i in names:
        for j in names:
            hits = bool(links.post[i] & (links.acc[j] | set(lib.actions[j].preconditions)))
            assert hits == (order[i] < order[j]), (i, j)


def test_empty_condition_table_ends_recursion_immediately():
    n = 8
    world = World(n)
    full = Region.full(n)
    sa = Region.where(n, lambda c: c % 2 == 0)
    og = Region.where(n, lambda c: c >= 4)
    conditions = {
        "in_safe_area": ConditionEntry(
            LeafData("in_safe_area", NodeKind.CONDITION, sa, sa.complement()), ()
        ),
        "object_at_goal": ConditionEntry(
            LeafData("object_at_goal", NodeKind.CONDITION, og, og.complement()), ()
        ),
    }
    idle_basin = sa & og
    actions = {
        "idle": ActionEntry(
            LeafData(
                "idle", NodeKind.ACTION, idle_basin, Region.empty(n),
                SuccessorMap.identity(n), None,
            ),
            ("in_safe_area", "object_at_goal"),
        )
    }
    with pytest.raises(AssumptionError, match="can fail"):
        lib = ActionConditionLibrary(world, actions, conditions)
        validate_bc_assumptions(lib, "idle", compute_links(lib))
    # conditions that cannot fail satisfy the assumptions and collapse to leaves
    conditions = {
        name: ConditionEntry(LeafData(name, NodeKind.CONDITION, full, Region.empty(n)), ())
        for name in ("in_safe_area", "object_at_goal")
    }
    actions["idle"] = ActionEntry(
        LeafData("idle", NodeKind.ACTION, full, Region.empty(n), SuccessorMap.identity(n), None),
        ("in_safe_area", "object_at_goal"),
    )
    lib = ActionConditionLibrary(world, actions, conditions)
    built = build_bcbt(lib, "idle")
    m = built.model
    assert m.n == 4  # seq + two bare conditions + idle
    assert [m.kinds[c] for c in m.tree.children[m.tree.root]] == [
        NodeKind.CONDITION, NodeKind.CONDITION, NodeKind.ACTION,
    ]


def test_single_action_empty_preconditions():
    n = 4
    world = World(n)
    actions = {
        "solo": ActionEntry(
            LeafData("solo", NodeKind.ACTION, Region.from_cells(n, [0]), Region.empty(n), SuccessorMap.identity(n), None),
            (),
        )
    }
    lib = ActionConditionLibrary(world, actions, {})
    built = build_bcbt(lib, "solo")
    assert built.model.n == 2
    assert built.model.kinds[built.model.tree.root] is NodeKind.SEQUENCE


def test_cyclic_library_rejected():
    n = 4
    world = World(n)
    full = Region.full(n)
    # a1 achieves c1 needed by a2; a2 achieves c2 needed by a1
    conditions = {
        "c1": ConditionEntry(LeafData("c1", NodeKind.CONDITION, full, Region.empty(n)), ("a1",)),
        "c2": ConditionEntry(LeafData("c2", NodeKind.CONDITION, full, Region.empty(n)), ("a2",)),
    }
    actions = {
        "a1": ActionEntry(
            LeafData("a1", NodeKind.ACTION, full, Region.empty(n), SuccessorMap.identity(n), None),
            ("c2",),
        ),
        "a2": ActionEntry(
            LeafData("a2", NodeKind.ACTION, full, Region.empty(n), SuccessorMap.identity(n), None),
            ("c1",),
        ),
    }
    lib = ActionConditionLibrary(world, actions, conditions)
    with pytest.raises(LibraryError, match="cycle"):
        build_bcbt(lib, "a1")
    links, order, _downstream = pairwise_links(lib)
    assert compute_links(lib).links == links
    assert {("a1", "a2"), ("a2", "a1")} <= order


def test_library_invariant_validation():
    n = 4
    world = World(n)
    full = Region.full(n)
    good_cond = ConditionEntry(LeafData("c", NodeKind.CONDITION, full, Region.empty(n)), ())
    with pytest.raises(LibraryError, match="unknown precondition"):
        ActionConditionLibrary(
            world,
            {
                "a": ActionEntry(
                    LeafData("a", NodeKind.ACTION, full, Region.empty(n), SuccessorMap.identity(n), None),
                    ("missing",),
                )
            },
            {"c": good_cond},
        )
    from btconverge.bt import Doa

    with pytest.raises(LibraryError, match="basin"):
        ActionConditionLibrary(
            world,
            {
                "a": ActionEntry(
                    LeafData(
                        "a", NodeKind.ACTION, Region.empty(n), Region.empty(n),
                        SuccessorMap.identity(n),
                        # basin not equal to the precondition intersection
                        Doa(Region.from_cells(n, [0]), Region.empty(n), 1),
                    ),
                    ("c",),
                )
            },
            {"c": good_cond},
        )
    # an entry is addressed by its leaf name: a key that differs from it is refused
    with pytest.raises(LibraryError, match=r"^library entry 'a' must be keyed by its leaf name 'b'$"):
        ActionConditionLibrary(
            world,
            {
                "a": ActionEntry(
                    LeafData("b", NodeKind.ACTION, full, Region.empty(n), SuccessorMap.identity(n), None), ()
                )
            },
            {"c": good_cond},
        )
    with pytest.raises(LibraryError, match=r"^library entry 'd' must be keyed by its leaf name 'c'$"):
        ActionConditionLibrary(world, {}, {"d": good_cond})


def test_specialized_influence_equals_generic(rng):
    for _ in range(25):
        lib, root = random_library(rng)
        built = build_bcbt(lib, root)
        links = compute_links(lib)
        analysis = built.model.analysis()
        for aid in lib.actions:
            v = built.vertex_of[aid]
            assert bc_influence(lib, links, aid) == analysis.influence[v], aid


def test_specialized_metadata_recursion_equals_generic(rng):
    """The action/condition sub-tree closed forms match generic propagation."""
    for _ in range(20):
        lib, root = random_library(rng)
        built = build_bcbt(lib, root)
        m = built.model
        analysis = m.analysis()
        universe = m.world.full_region()
        for aid, entry in lib.actions.items():
            v = built.vertex_of[aid]
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
            expected_r = r_acc | (own_running & s_gate)
            expected_s = entry.leaf.success & s_gate
            expected_f = f_acc | (entry.leaf.failure & s_gate)
            assert analysis.running[parent] == expected_r, aid
            assert analysis.success[parent] == expected_s, aid
            assert analysis.failure[parent] == expected_f, aid
            # condition success regions pass through their sub-trees untouched
        for cid, centry in lib.conditions.items():
            if not centry.achievers:
                continue
            cv = built.vertex_of[cid]
            sub = m.tree.parent[cv]
            assert analysis.success[sub] == centry.leaf.success, cid


def test_verify_bc_operating_on_random_libraries(rng):
    for _ in range(15):
        lib, root = random_library(rng)
        built = build_bcbt(lib, root)
        verdict = verify_bc_operating(lib, built, compute_links(lib))
        assert verdict, verdict.violations


def test_verify_bc_operating_on_manipulator(manip):
    lib, root, links = manip
    built = build_bcbt(lib, root)
    verdict = verify_bc_operating(lib, built, links)
    assert verdict, verdict.violations
    analysis = built.model.analysis()
    idle = built.vertex_of["idle"]
    # the top-level action operates where it runs or succeeds
    assert analysis.omega[idle] == analysis.influence[idle] & (
        analysis.running[idle] | analysis.success[idle]
    )
    # every linked action operates only where it runs
    for aid in lib.actions:
        if aid == "idle":
            continue
        v = built.vertex_of[aid]
        assert analysis.omega[v] == analysis.influence[v] & analysis.running[v], aid


def test_chain_library_certifies_with_pattern():
    lib, root = chain_library()
    report = check_bc_convergence(lib, root, delta=1.0)
    assert report.hypothesis_ok
    assert report.pattern_ok
    assert isinstance(report.result, Certificate)
    assert report.result.bound > 0


def test_single_action_library_certifies():
    n = 6
    world = World(n, coords=[(float(x),) for x in range(n)])
    goal = Region.from_cells(n, [n - 1])
    from btconverge.bt import Doa

    actions = {
        "solo": ActionEntry(
            LeafData(
                "solo", NodeKind.ACTION, goal, Region.empty(n),
                SuccessorMap.from_function(n, lambda x: min(x + 1, n - 1)),
                Doa(Region.full(n), goal, n),
            ),
            (),
        )
    }
    lib = ActionConditionLibrary(world, actions, {})
    report = check_bc_convergence(lib, "solo", delta=1.0)
    assert report.hypothesis_ok and isinstance(report.result, Certificate)


def test_surveying_library_certifies_despite_cycle():
    lib, root = bundled_library("surveying_robot_library")
    delta = bundled_spec("surveying_robot").delta
    report = check_bc_convergence(lib, root, delta=delta)
    # a recharge loop undoes an upstream condition: hypothesis fails, with
    # witnesses, but the general certification still goes through
    assert not report.hypothesis_ok
    assert report.pattern_ok is None
    assert isinstance(report.result, Certificate)
    cert = report.result
    condensed = cert.condensed
    big = [ci for ci in range(len(condensed.classes)) if len(condensed.classes[ci]) > 1]
    assert len(big) == 1
    assert len(cert.analysis_classes) == 3
    assert cert.bound == 3 * max(cert.per_class_exit.values())
    # each witness: an action and a cell of its basin outside its upstream success regions
    assert report.hypothesis_witnesses == (("follow_path", 36), ("goto_path", 0))
    for action, cell in report.hypothesis_witnesses:
        assert cell in lib.actions[action].leaf.doa.basin
        assert any(cell not in lib.conditions[c].leaf.success for c in compute_links(lib).acc[action])


def library_delta(lib) -> float:
    """The largest step lib's controllers make on a metric world; 1.0, unused, on an adjacency one."""
    if lib.world.coords is None:
        return 1.0
    return step_bound(lib.world, [entry.leaf.controller for entry in lib.actions.values()])


@pytest.mark.parametrize(
    "library",
    [
        chain_library,
        lambda: bundled_library("surveying_robot_library"),
        lambda: bundled_library("mobile_manipulator"),
    ],
)
def test_check_reuses_a_prebuilt_tree(library, monkeypatch):
    from btconverge import backchain

    lib, root = library()
    delta = library_delta(lib)
    fresh = check_bc_convergence(lib, root, delta)
    built = build_bcbt(lib, root)

    def no_build(*_args, **_kwargs):
        raise AssertionError("build_bcbt called although a tree was passed")

    monkeypatch.setattr(backchain, "build_bcbt", no_build)
    reused = check_bc_convergence(lib, root, delta, built=built)
    assert reused.hypothesis_witnesses == fresh.hypothesis_witnesses
    assert reused.pattern_ok == fresh.pattern_ok
    assert reused.pattern_violations == fresh.pattern_violations
    assert type(reused.result) is type(fresh.result)
    if isinstance(fresh.result, Certificate):
        assert reused.result.bound == fresh.result.bound
        assert reused.result.condensed.classes == fresh.result.condensed.classes
        assert reused.result.analysis_classes == fresh.result.analysis_classes


def test_surveying_library_tree_has_documented_preorder_ids():
    lib, root = bundled_library("surveying_robot_library")
    built = build_bcbt(lib, root)
    m = built.model
    assert m.n == 20
    # actions land on the documented preorder ids
    assert built.vertex_of["go_home"] == 8
    assert built.vertex_of["charge"] == 9
    assert built.vertex_of["goto_path"] == 17
    assert built.vertex_of["follow_path"] == 18
    assert built.vertex_of["idle"] == 19


def test_links_of_library_without_links():
    lib, root = chain_library()
    links = compute_links(lib)
    assert links.post["finish"] == frozenset()
    assert links.acc["finish"] == frozenset()


def test_links_match_the_action_condition_scan(rng):
    libraries = [
        staged_chain_library(20),
        chain_library(),
        bundled_library("mobile_manipulator"),
        bundled_library("surveying_robot_library"),
    ] + [random_library(rng, max_actions=rng.choice([5, 12])) for _ in range(20)]
    libraries = [lib for lib, _root in libraries] + [random_link_library(rng) for _ in range(200)]
    seen = Counter()
    for lib in libraries:
        links, order, downstream = pairwise_links(lib)
        got = compute_links(lib)
        assert got.links == links
        # post and acc from the pairwise downstream links: what each action's links achieve,
        # and what their consumers need before the linked condition
        assert got.post == {i: frozenset(b for _a, b, _c in mine) for i, mine in downstream.items()}
        assert got.acc == {
            i: frozenset(
                p
                for _a, b, c in mine
                for p in lib.actions[c].preconditions[: lib.actions[c].preconditions.index(b)]
            )
            for i, mine in downstream.items()
        }
        if any(a != c and (c, a) in order for a, c in order) or any(a == c for a, _b, c in links):
            seen["link cycle"] += 1
        if any(got.acc.values()):
            seen["pending conditions"] += 1
    assert min(seen["link cycle"], seen["pending conditions"]) >= 20, seen


# ----------------------------------------------------------------------
# the acyclic-pattern check against the pair-list loop


def _random_behavior_graph(rng, lib):
    """Scattered distinct vertex ids for the actions and a random graph, self-loops included, on some of them."""
    ids = rng.sample(range(3 * len(lib.actions) + 5), len(lib.actions))
    vertex_of = dict(zip(lib.actions, ids))
    nodes = tuple(sorted(rng.sample(ids, rng.randint(0, len(ids)))))
    density = rng.choice([0.1, 0.3, 0.6])
    edges = frozenset((u, w) for u in nodes for w in nodes if rng.random() < density)
    built = BcBt(None, vertex_of)
    return built, BehaviorGraph(nodes, edges)


def test_pattern_masks_match_the_pair_list(rng):
    seen = Counter()
    for _ in range(400):
        lib = random_link_library(rng)
        links = compute_links(lib)
        built, bg = _random_behavior_graph(rng, lib)
        want = pair_list_pattern_violations(lib, links, {v: a for a, v in built.vertex_of.items()}, bg)
        assert backchain._pattern_violations(lib, links, built, bg) == want
        seen["violations" if want else "clean"] += 1
        _pairs, order, _downstream = pairwise_links(lib)
        if any(a != c and (c, a) in order for a, c in order) or any(a == c for a, _b, c in links.links):
            seen["link cycle"] += 1
        if any(links.acc.values()):
            seen["pending conditions"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


@pytest.mark.parametrize(
    "library",
    [
        chain_library,
        lambda: bundled_library("surveying_robot_library"),
        lambda: bundled_library("mobile_manipulator"),
        lambda: staged_chain_library(1),
        lambda: staged_chain_library(2),
        lambda: staged_chain_library(20),
    ],
)
def test_check_reports_the_pair_list_pattern(library):
    lib, root = library()
    report = check_bc_convergence(lib, root, delta=library_delta(lib))
    if not report.hypothesis_ok or not isinstance(report.result, Certificate):
        assert report.pattern_ok is None and report.pattern_violations == ()
        return
    cert = report.result
    chosen = [v for ci in cert.analysis_classes for v in cert.condensed.classes[ci]]
    bg = behavior_graph(cert.graph, chosen)
    built = build_bcbt(lib, root)
    want = pair_list_pattern_violations(lib, compute_links(lib), {v: a for a, v in built.vertex_of.items()}, bg)
    assert report.pattern_violations == tuple(want)
    assert report.pattern_ok is (not want)


def test_library_nested_past_the_recursion_limit_is_a_library_error():
    import sys

    lib, root = staged_chain_library(sys.getrecursionlimit() // 2, 2)
    with pytest.raises(LibraryError, match=rf"^backchaining from {root!r} nests actions \d+ deep"):
        build_bcbt(lib, root)


def test_pattern_check_lists_no_reachable_pairs(monkeypatch):
    def no_pairs(_self):
        raise AssertionError("check_bc_convergence listed the reachable pairs")

    monkeypatch.setattr(BehaviorGraph, "reachability", no_pairs)
    lib, root = staged_chain_library(20)
    report = check_bc_convergence(lib, root, delta=1.0)
    assert report.pattern_ok is True and isinstance(report.result, Certificate)
