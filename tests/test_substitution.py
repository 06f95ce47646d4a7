"""Guarded controller substitution: lifting, preservation, graph discipline."""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import pytest

from btconverge.bt import BTModel, Doa, NodeKind, action, condition, fal, seq
from btconverge.execution import empirical_exit_time, simulate
from btconverge.prepares import (
    Certificate,
    FtsPreconditionError,
    PreparesGraph,
    Refutation,
    build_prepares_graph,
    certify_convergence,
    condense,
    decide,
)
from btconverge.specfile import parse_document
from btconverge.statespace import BTConvergeError, Region, StepError, SuccessorMap, World, WorldError
from btconverge import substitution
from btconverge.substitution import (
    DD_NAME,
    RR_NAME,
    Augmentation,
    RrLeaf,
    SubstitutionError,
    SubstitutionSpec,
    substitute,
    verify_preservation,
    verify_substituted_convergence,
)

from helpers import (
    bundled_document,
    bundled_spec,
    eager_augmented_neighbors,
    naive_tick_path,
    oracle_neighboring,
    random_region,
    random_reverification_instance,
    random_substitution_instance,
    rebuild_old_with_mb,
    reference_blocks,
    reference_certify_convergence,
    reference_dilate,
    reference_hysteresis_ready_pattern,
    reference_image,
    reference_project_region,
    reference_time_ok_pattern,
    reference_time_set,
    reference_verify_substituted_convergence,
)


@pytest.fixture(scope="module")
def patrol_setup():
    b = bundled_spec("patrol")
    members = [b.model.vertex_of(n) for n in b.abstraction]
    cert = certify_convergence(b.model, members, b.delta)
    assert isinstance(cert, Certificate)
    spec = b.substitution
    result = substitute(b.model, spec, base_delta=b.delta)
    return b, cert, spec, result


def test_new_subtree_shape(patrol_setup):
    _b, _cert, _spec, result = patrol_setup
    m = result.new_model
    target = result.target_new
    assert m.kinds[target] is NodeKind.FALLBACK
    kids = m.tree.children[target]
    assert [m.kinds[c] for c in kids] == [
        NodeKind.CONDITION,
        NodeKind.SEQUENCE,
        NodeKind.SEQUENCE,
        NodeKind.ACTION,
    ]
    dd_branch = m.tree.children[kids[1]]
    assert [m.names[c] for c in dd_branch] == ["time_ok_dd", "risk_ok", "dd_controller"]
    rr_branch = m.tree.children[kids[2]]
    assert [m.names[c] for c in rr_branch] == ["time_ok_rr", "rr_controller"]
    assert m.names[kids[3]] == "mb_patrol"


def test_counter_dynamics_forced(patrol_setup):
    b, _cert, spec, result = patrol_setup
    aug = result.augmentation
    m = result.new_model
    assert m.world is aug  # the augmentation is the product world
    for leaf in m.leaves.values():
        if leaf.controller is None:
            continue
        for cell in range(m.world.cell_count):
            c, t, h = aug.decode(cell)
            c2, t2, h2 = aug.decode(leaf.controller.next(cell))
            assert t2 == min(t + 1, spec.time_budget)
            expected_h = min(h + 1, spec.hysteresis_cap) if c in spec.rok_success else 0
            assert h2 == expected_h


def test_preservation_holds(patrol_setup):
    _b, _cert, _spec, result = patrol_setup
    assert verify_preservation(result)


def test_substituted_convergence_report(patrol_setup):
    _b, cert, spec, result = patrol_setup
    report = verify_substituted_convergence(cert, result)
    assert report
    assert report.graph_diffs == ()
    assert report.loop_exit_steps is not None
    assert report.loop_exit_steps <= spec.time_budget
    assert isinstance(report.result, Certificate)


def test_hysteresis_on_substitution_certifies(patrol_setup):
    """With the hysteresis guard on, bundled patrol re-certifies at three budgets.

    The risk-reduction deadline is its base horizon plus the cap.  A naive
    stepper over every product cell (a cascade tick, then the reached
    leaf's controller) gives the exact worst time to the goal cells, which
    the certified bounds cover.
    """
    b, cert, _spec, _result = patrol_setup
    # (T, H): loop exit, bound, refined bound, exact worst
    table = {(5, 1): (5, 40, 15, 9), (30, 4): (11, 55, 24, 12), (100, 10): (17, 85, 36, 18)}
    for (T, H), want in table.items():
        spec = dataclasses.replace(b.substitution, time_budget=T, hysteresis_cap=H, hysteresis=True)
        result = substitute(b.model, spec, base_delta=b.delta)
        m = result.new_model
        assert m.leaves[m.vertex_of(RR_NAME)].doa.horizon == spec.rr.doa.horizon + H
        report = verify_substituted_convergence(cert, result)
        assert report and report.graph_diffs == ()
        goals = report.result.goal_cells().digits()
        nxt = {}
        worst = 0
        for x in range(m.world.cell_count):
            k = 0
            while goals[x] == "0":
                if x not in nxt:
                    leaf = m.leaves[naive_tick_path(m, x)[-1]]
                    assert leaf.kind is NodeKind.ACTION, (T, H, x)
                    nxt[x] = leaf.controller.next(x)
                x, k = nxt[x], k + 1
                assert k <= report.result.refined_bound, (T, H, x)
            worst = max(worst, k)
        got = report.loop_exit_steps, report.result.bound, report.result.refined_bound, worst
        assert got == want, (T, H, got)


def test_old_flow_into_the_model_based_slice_may_route_via_the_loop(patrol_setup, monkeypatch):
    """An old edge into the model-based slice may be missing from the new graph
    only when its source now has an edge into the guarded loop."""
    b, cert, _spec, result = patrol_setup
    old = cert.graph
    park_b = old.vertex(b.model.vertex_of("park"), "b")
    mb_b = old.vertex(b.model.vertex_of("mb_patrol"), "b")
    old_cert = cert._replace(graph=PreparesGraph(old.vertices, old.edges | {(park_b, mb_b)}))
    real = substitution.build_prepares_graph
    new_model = result.new_model

    def with_edge_into_loop(model, members, delta=None):
        graph = real(model, members, delta)
        u = graph.vertex(new_model.vertex_of("park"), "b")
        w = graph.vertex(new_model.vertex_of(DD_NAME), "a")
        return PreparesGraph(graph.vertices, graph.edges | {(u, w)})

    edge = ((new_model.vertex_of("park"), "b"), (new_model.vertex_of("mb_patrol"), "b"))
    missing = f"old edge missing from new graph: {edge}"
    assert verify_substituted_convergence(old_cert, result).graph_diffs == (missing,)
    monkeypatch.setattr(substitution, "build_prepares_graph", with_edge_into_loop)
    assert verify_substituted_convergence(old_cert, result).graph_diffs == ()


def test_zero_budget_keeps_old_behavior():
    b = bundled_spec("patrol")
    spec = dataclasses.replace(b.substitution, time_budget=0)
    result = substitute(b.model, spec, base_delta=b.delta)
    aug = result.augmentation
    assert verify_preservation(result)
    # the guard never holds, so every augmented trace projects onto an old one
    for cell in range(result.new_model.world.cell_count):
        new_trace = simulate(result.new_model, cell, 12)
        old_trace = simulate(b.model, aug.decode(cell)[0], 12)
        projected = tuple(aug.decode(x)[0] for x in new_trace.states)
        assert projected == old_trace.states[: len(projected)]


def test_post_budget_projection_matches_old_model():
    b = bundled_spec("patrol")
    spec = b.substitution
    result = substitute(b.model, spec, base_delta=b.delta)
    aug = result.augmentation
    for base_cell in range(b.model.world.cell_count):
        start = aug.encode(base_cell, spec.time_budget, 0)
        new_trace = simulate(result.new_model, start, 10)
        old_trace = simulate(b.model, base_cell, 10)
        projected = tuple(aug.decode(x)[0] for x in new_trace.states)
        assert projected == old_trace.states[: len(projected)]


def test_dd_equal_to_mb_is_inert(patrol_setup):
    b, cert, _spec, _result = patrol_setup
    mb_ctrl = b.model.leaves[b.model.vertex_of("mb_patrol")].controller
    spec = dataclasses.replace(b.substitution, dd_targets=list(mb_ctrl.targets))
    result = substitute(b.model, spec, base_delta=b.delta)
    report = verify_substituted_convergence(cert, result)
    assert report and report.graph_diffs == ()


def test_time_counter_monotone_and_no_loop_after_budget(patrol_setup):
    _b, _cert, spec, result = patrol_setup
    m = result.new_model
    aug = result.augmentation
    dd = m.vertex_of("dd_controller")
    rr = m.vertex_of("rr_controller")
    from btconverge.bt import tick_path

    for cell in range(m.world.cell_count):
        trace = simulate(m, cell, 15)
        times = [aug.decode(x)[1] for x in trace.states]
        assert times == sorted(times)
        for x in trace.states:
            if aug.decode(x)[1] >= spec.time_budget:
                path = set(tick_path(m, x))
                assert dd not in path and rr not in path


def test_hysteresis_counter_tracks_consecutive_risk_ok(patrol_setup):
    b, _cert, spec, result = patrol_setup
    m = result.new_model
    aug = result.augmentation
    for base_cell in range(b.model.world.cell_count):
        start = aug.encode(base_cell, 0, 0)
        trace = simulate(m, start, 12)
        bases = [aug.decode(x)[0] for x in trace.states]
        counters = [aug.decode(x)[2] for x in trace.states]
        for k, h in enumerate(counters):
            suffix = 0
            while suffix < k and bases[k - 1 - suffix] in spec.rok_success:
                suffix += 1
            assert h == min(suffix, spec.hysteresis_cap), (base_cell, k)


def test_hysteresis_guard_shifts_only_the_two_guarded_regions():
    b = bundled_spec("patrol")
    plain = substitute(b.model, b.substitution, base_delta=b.delta)
    gated = substitute(b.model, dataclasses.replace(b.substitution, hysteresis=True), base_delta=b.delta)
    ap, ag = plain.new_model.analysis(), gated.new_model.analysis()
    for name in plain.new_model.leaf_by_name:
        vp = plain.new_model.vertex_of(name)
        vg = gated.new_model.vertex_of(name)
        if name in ("dd_controller", "rr_controller"):
            continue
        assert ap.omega[vp] == ag.omega[vg], name
    dd_p, rr_p = plain.new_model.vertex_of("dd_controller"), plain.new_model.vertex_of("rr_controller")
    dd_g, rr_g = gated.new_model.vertex_of("dd_controller"), gated.new_model.vertex_of("rr_controller")
    assert (ap.omega[dd_p] | ap.omega[rr_p]) == (ag.omega[dd_g] | ag.omega[rr_g])
    assert ag.omega[dd_g].issubset(ap.omega[dd_p])
    assert ap.omega[rr_p].issubset(ag.omega[rr_g])


def test_preservation_on_random_instances(rng):
    for _ in range(40):
        model, spec, _inj = random_substitution_instance(rng)
        result = substitute(model, spec)
        assert verify_preservation(result)


def test_each_requirement_violation_flips_the_verdict(rng):
    for _ in range(12):
        model, spec, inj = random_substitution_instance(rng)

        variants = {
            "mb-success": (
                rebuild_old_with_mb(
                    model,
                    success=model.leaves[model.vertex_of("mb")].success
                    | Region.from_cells(model.world.cell_count, [inj["mb-success"]]),
                ),
                spec,
                "S_MB inside S_TD",
            ),
            "dd-running": (
                model,
                dataclasses.replace(
                    spec,
                    dd_success=Region.from_cells(model.world.cell_count, [inj["dd-running"]]),
                ),
                "R_DD is the whole universe",
            ),
            "rr-risk": (
                model,
                dataclasses.replace(
                    spec,
                    rr=RrLeaf(
                        spec.rr.success
                        | Region.from_cells(model.world.cell_count, [inj["rr-risk"]]),
                        spec.rr.failure,
                        spec.rr.controller,
                        spec.rr.doa,
                    ),
                ),
                "S_RR inside S_ROK",
            ),
            "td-mb-failure": (
                rebuild_old_with_mb(
                    model,
                    failure=model.leaves[model.vertex_of("mb")].failure
                    | Region.from_cells(model.world.cell_count, [inj["td-mb-failure"]]),
                ),
                spec,
                "F_TD and F_MB disjoint",
            ),
        }
        for kind, (bad_model, bad_spec, message) in variants.items():
            with pytest.raises(SubstitutionError, match=message):
                substitute(bad_model, bad_spec)
            result = substitute(bad_model, bad_spec, enforce=False)
            verdict = verify_preservation(result)
            assert not verdict, kind
            assert verdict.witness is not None


def test_task_done_everywhere_preserves_trivially():
    n = 6
    world = World(n, adjacency=[(i, j) for i in range(n) for j in range(i + 1, n)])
    full = Region.full(n)
    model = BTModel(
        world,
        fal(
            condition("task_done", full),
            action("mb", success=Region.empty(n), controller=SuccessorMap.identity(n)),
        ),
    )
    spec = SubstitutionSpec(
        target=0,
        dd_targets=list(range(n)),
        rr=RrLeaf(Region.empty(n), Region.empty(n), SuccessorMap.identity(n)),
        rok_success=Region.empty(n),
        time_budget=2,
    )
    result = substitute(model, spec)
    assert verify_preservation(result)
    analysis = result.new_model.analysis()
    assert analysis.success[result.target_new] == result.new_model.world.full_region()


def test_target_shape_validation():
    b = bundled_spec("patrol")
    spec = dataclasses.replace(b.substitution, target=0)
    with pytest.raises(SubstitutionError, match="fallback"):
        substitute(b.model, spec, base_delta=b.delta)


def test_out_of_range_base_targets_are_refused_at_lift_time():
    """lift_map and substitute name the first base target outside the base universe,
    for targets given per base cell and per augmented cell, before any lifted map
    is read."""
    b = bundled_spec("patrol")
    aug = Augmentation(b.model.world, 3, 2, b.substitution.rok_success, b.delta)
    n = b.model.world.cell_count
    for length in (n, aug.cell_count):
        for at, bad in ((0, -1), (length - 1, n), (length // 2, n + 7)):
            targets = [length % n] * length
            targets[at] = bad
            message = f"successor of cell {at} is {bad}, outside universe"
            with pytest.raises(WorldError, match=message):
                aug.lift_map(targets)
            spec = dataclasses.replace(
                b.substitution, time_budget=3, hysteresis_cap=2, dd_targets=targets
            )
            with pytest.raises(WorldError, match=message):
                substitute(b.model, spec, base_delta=b.delta)


def test_illegal_neighbor_edge_is_an_error():
    """A prep stage bordering the guarded region breaks the loop discipline."""
    n = 10
    world = World(n, coords=[(float(x),) for x in range(n)])
    region = lambda pred: Region.where(n, pred)
    prep_done = region(lambda x: x >= 2)
    td = region(lambda x: x >= 8)
    model = BTModel(
        world,
        seq(
            fal(
                condition("prep_done", prep_done),
                action(
                    "prep",
                    success=prep_done,
                    controller=SuccessorMap.from_function(n, lambda x: x + 1 if x < 2 else x),
                    doa=Doa(region(lambda x: x <= 2), Region.from_cells(n, [2]), 2),
                ),
            ),
            fal(
                condition("task_done", td),
                action(
                    "mb",
                    success=td,
                    controller=SuccessorMap.from_function(n, lambda x: x + 1 if 2 <= x < 8 else x),
                    doa=Doa(region(lambda x: 2 <= x <= 8), Region.from_cells(n, [8]), 6),
                ),
            ),
            action(
                "park",
                success=Region.from_cells(n, [9]),
                controller=SuccessorMap.from_function(n, lambda x: x + 1 if 8 <= x < 9 else x),
                doa=Doa(td, Region.from_cells(n, [9]), 2),
            ),
        ),
    )
    members = [model.vertex_of(x) for x in ("prep", "mb", "park")]
    cert = certify_convergence(model, members, 1.0)
    assert isinstance(cert, Certificate)
    spec = SubstitutionSpec(
        target=4,
        dd_targets=[x + 1 if x < 9 else x for x in range(n)],
        rr=RrLeaf(
            success=Region.from_cells(n, [5]),
            failure=Region.empty(n),
            controller=SuccessorMap.from_function(n, lambda x: x + 1 if 2 <= x < 5 else x),
            doa=Doa(region(lambda x: 2 <= x <= 5), Region.from_cells(n, [5]), 4),
        ),
        rok_success=region(lambda x: 2 <= x <= 7),
        time_budget=5,
        hysteresis_cap=0,
    )
    result = substitute(model, spec, base_delta=1.0)
    # the guarded slice starts at cell 2, right next to the prep funnel
    with pytest.raises(SubstitutionError, match="illegal edge"):
        verify_substituted_convergence(cert, result)


def test_augmentation_lift_and_project_roundtrip():
    base = World(4, adjacency=[(0, 1), (1, 2), (2, 3)])
    aug = Augmentation(base, 2, 1, Region.from_cells(4, [1, 2]))
    r = Region.from_cells(4, [0, 2])
    lifted = aug.lift_region(r)
    assert aug.project_region(lifted) == r
    assert len(lifted) == len(r) * 3 * 2
    assert aug.time_ok_region() == Region.where(
        aug.cell_count, lambda cell: aug.decode(cell)[1] < 2
    )


def test_augmentation_reads_the_base_step_rule_of_the_world():
    """The base steps come from World._steps, so its errors name what is missing."""
    rok = Region.from_cells(4, [1])
    metric = World(4, coords=[(float(x),) for x in range(4)])
    with pytest.raises(WorldError, match="^metric neighboring needs a step bound delta$"):
        Augmentation(metric, 2, 1, rok)
    with pytest.raises(WorldError, match="^world has neither coordinates nor adjacency$"):
        Augmentation(World(4), 2, 1, rok)
    # a self-loop in the adjacency does not repeat the cell among its steps
    looped = Augmentation(World(4, adjacency=[(1, 1), (1, 2)]), 0, 0, rok)
    assert looped.neighbors == ((0,), (1, 2), (1, 2), (3,))


def test_augmentation_products_match_decode_oracle(rng):
    seen_rok = set()
    for trial in range(40):
        n_base = rng.randint(1, 6)
        T, H = rng.choice([0, 1, 3, 7]), rng.choice([0, 1, 3, 7])
        if trial % 4 == 3:
            base = World(n_base, coords=[(rng.uniform(0, 4),) for _ in range(n_base)])
            delta = rng.uniform(0, 2)
            near = [
                {q for q in range(n_base) if base.distance(c, q) <= delta} for c in range(n_base)
            ]
        else:
            pairs = [(rng.randrange(n_base), rng.randrange(n_base)) for _ in range(n_base)]
            base = World(n_base, adjacency=pairs, symmetric=rng.random() < 0.5)
            delta = None
            near = [{c} | set(base.neighbors[c]) for c in range(n_base)]
        rok = [Region.empty(n_base), Region.full(n_base), random_region(rng, n_base)][trial % 3]
        seen_rok.add(trial % 3)
        aug = Augmentation(base, T, H, rok, delta)
        n_aug = n_base * (T + 1) * (H + 1)
        assert aug.cell_count == n_aug

        def decoded(cell):
            c, rest = divmod(cell, (T + 1) * (H + 1))
            return c, rest // (H + 1), rest % (H + 1)

        def oracle_step(cell, base_target):
            c, t, h = aug.decode(cell)
            return aug.encode(base_target, min(t + 1, T), min(h + 1, H) if c in rok else 0)

        for cell in range(n_aug):
            assert aug.decode(cell) == decoded(cell)
            assert aug.encode(*aug.decode(cell)) == cell
        for r in (Region.empty(n_base), Region.full(n_base), random_region(rng, n_base)):
            assert aug.lift_region(r) == Region.where(n_aug, lambda cell: aug.decode(cell)[0] in r)
        for r in (Region.empty(n_aug), Region.full(n_aug), random_region(rng, n_aug)):
            want = Region.from_cells(n_base, {aug.decode(cell)[0] for cell in r.cells()})
            assert aug.project_region(r) == want
        assert aug.time_ok_region() == Region.where(n_aug, lambda cell: aug.decode(cell)[1] < T)
        assert aug.hysteresis_ready_region() == Region.where(
            n_aug, lambda cell: aug.decode(cell)[2] >= H
        )
        per_base = [rng.randrange(n_base) for _ in range(n_base)]
        per_aug = [rng.randrange(n_base) for _ in range(n_aug)]
        for targets, base_of in ((per_base, lambda cell: aug.decode(cell)[0]), (per_aug, int)):
            want = tuple(oracle_step(cell, targets[base_of(cell)]) for cell in range(n_aug))
            # a lifted map builds its targets on first read, whichever reader comes first
            by_image, by_next, by_eq = (aug.lift_map(targets) for _ in range(3))
            r = random_region(rng, n_aug)
            assert by_image.image(r) == SuccessorMap(want).image(r)
            assert list(map(by_next.next, range(n_aug))) == list(want)
            assert by_eq == SuccessorMap(want)
            assert by_image.targets == by_next.targets == by_eq.targets == want
        rows = []
        for cell in range(n_aug):
            c = aug.decode(cell)[0]
            rows.append(tuple(sorted({oracle_step(cell, q) for q in near[c]})))
        assert aug.neighbors == tuple(rows)
    assert seen_rok == {0, 1, 2}


def test_augmented_neighbour_lists_and_dilation_match_oracles(rng):
    """Augmented worlds over metric, symmetric and directed bases, all three risk-ok cases."""
    seen = set()
    for trial in range(36):
        n_base = rng.randint(1, 6)
        T, H = rng.choice([0, 1, 3]), rng.choice([0, 1, 3])
        kind = trial % 3
        if kind == 0:
            base = World(n_base, coords=[(rng.uniform(0, 4),) for _ in range(n_base)])
            delta = rng.uniform(0, 2)
            near = [{q for q in range(n_base) if base.distance(c, q) <= delta} for c in range(n_base)]
        else:
            pairs = [(rng.randrange(n_base), rng.randrange(n_base)) for _ in range(n_base)]
            base = World(n_base, adjacency=pairs, symmetric=kind == 1)
            delta = None
            near = [
                {c} | {q for p, q in pairs if p == c} | ({p for p, q in pairs if q == c} if kind == 1 else set())
                for c in range(n_base)
            ]
        rok_case = trial // 3 % 3
        rok = [Region.empty(n_base), Region.full(n_base), random_region(rng, n_base)][rok_case]
        seen.add((kind, rok_case))
        aug = Augmentation(base, T, H, rok, delta)
        n_aug = aug.cell_count

        def step(cell, q):
            c, t, h = aug.decode(cell)
            return aug.encode(q, min(t + 1, T), min(h + 1, H) if c in rok else 0)

        want = tuple(
            tuple(sorted(step(cell, q) for q in near[aug.decode(cell)[0]])) for cell in range(n_aug)
        )
        assert aug.neighbors == want
        for _ in range(4):
            a = random_region(rng, n_aug, allow_empty=False)
            one = lambda q: oracle_neighboring(aug, a, Region.from_cells(n_aug, [q]), None)
            assert list(aug.dilate(a).cells()) == [q for q in range(n_aug) if one(q)]
    assert len(seen) == 9


def test_blockwise_dilation_matches_the_eager_neighbour_tuples(rng):
    """Seeded corpus: the product world's lazy tuples and block-wise dilation equal the eager ones.

    Metric, symmetric-adjacency and directed-adjacency bases, counter caps
    including 0, and empty, full and mixed risk-ok regions; the dilated
    regions are empty, full, block-uniform, counter-patterned and arbitrary.
    Dilation must not build the tuples.
    """
    seen = set()
    for trial in range(90):
        n_base = rng.randint(1, 7)
        T, H = rng.choice([0, 1, 2, 5]), rng.choice([0, 1, 2, 4])
        kind = trial % 3
        if kind == 0:
            base = World(n_base, coords=[(rng.uniform(0, 4),) for _ in range(n_base)])
            delta = rng.uniform(0, 2)
        else:
            pairs = [(rng.randrange(n_base), rng.randrange(n_base)) for _ in range(n_base + 2)]
            base, delta = World(n_base, adjacency=pairs, symmetric=kind == 1), None
        rok_case = trial // 3 % 3
        rok = [Region.empty(n_base), Region.full(n_base), random_region(rng, n_base)][rok_case]
        seen.add((kind, rok_case, T == 0, H == 0))
        aug = Augmentation(base, T, H, rok, delta)
        n_aug = aug.cell_count
        oracle = eager_augmented_neighbors(base, T, H, rok, delta)
        pairs = [(c, q) for c, near in enumerate(oracle) for q in near]
        eager = World(n_aug, adjacency=pairs, symmetric=False)
        lifted = aug.lift_region(random_region(rng, n_base))
        ready, time_ok = aug.hysteresis_ready_region(), aug.time_ok_region()
        regions = [
            Region.empty(n_aug),
            Region.full(n_aug),
            lifted,
            ready,
            time_ok,
            lifted & ready,
            lifted - time_ok,
            (ready | time_ok).complement(),
            random_region(rng, n_aug),
            random_region(rng, n_aug) & lifted,
        ]
        for region in regions:
            assert aug.dilate(region) == eager.dilate(region), (trial, region)
        assert aug._neighbors is None
        assert aug.neighbors == oracle
    assert {(k, r) for k, r, _t, _h in seen} == {(k, r) for k in range(3) for r in range(3)}
    assert {(t, h) for _k, _r, t, h in seen} == {(a, b) for a in (True, False) for b in (True, False)}


def test_counter_kernels_match_the_string_and_mark_references(rng):
    """Seeded corpus: the shift kernels equal the digit-string and per-cell-mark builders.

    Counter caps 0, 1 and 2^m - 1, 2^m, 2^m + 1 around 30 and 64, plus
    (100, 10); metric, symmetric and directed bases of 1 to 9 cells; empty,
    full and mixed risk-ok regions; block patterns empty, full, first offset,
    last offset, time-only and random.
    """
    caps = (0, 1, 31, 32, 33, 63, 64, 65)
    seen = set()
    for trial, (T, H) in enumerate([(t, h) for t in caps for h in caps] + [(100, 10)]):
        n_base = rng.randint(1, 9)
        kind, rok_case = trial % 3, trial // 3 % 3
        if kind == 0:
            base = World(n_base, coords=[(rng.uniform(0, 4),) for _ in range(n_base)])
            delta = rng.uniform(0, 2)
        else:
            pairs = [(rng.randrange(n_base), rng.randrange(n_base)) for _ in range(n_base + 2)]
            base, delta = World(n_base, adjacency=pairs, symmetric=kind == 1), None
        rok = [Region.empty(n_base), Region.full(n_base), random_region(rng, n_base)][rok_case]
        seen.add((kind, rok_case))
        aug = Augmentation(base, T, H, rok, delta)
        k, stride = aug.block, H + 1
        rows = sum(1 << t * stride for t in range(T + 1) if rng.random() < 0.5)
        patterns = [0, (1 << k) - 1, 1, 1 << k - 1, (rows << stride) - rows, rng.getrandbits(k)]
        base_masks = [0, (1 << n_base) - 1, random_region(rng, n_base).mask]
        for p in patterns:
            for flag in "01":
                assert aug._image(p, flag == "1") == reference_image(aug, p, flag), (T, H, p, flag)
            assert aug._time_set(p) == reference_time_set(aug, p), (T, H, p)
            for b in base_masks:
                assert aug._blocks(b, p) == reference_blocks(aug, b, p).mask, (T, H, b, p)
        for b in base_masks:
            lifted = aug.lift_region(Region(n_base, b))
            assert lifted == reference_blocks(aug, b, (1 << k) - 1)
            assert aug.project_region(lifted) == Region(n_base, b)
        full = (1 << n_base) - 1
        assert aug.time_ok_region() == reference_blocks(aug, full, reference_time_ok_pattern(aug))
        ready = reference_blocks(aug, full, reference_hysteresis_ready_pattern(aug))
        assert aug.hysteresis_ready_region() == ready
        for _ in range(3):
            region = Region(aug.cell_count, sum(rng.choice(patterns) << c * k for c in range(n_base)))
            assert aug.dilate(region) == reference_dilate(aug, region), (T, H, region.mask)
            assert aug.project_region(region) == reference_project_region(aug, region)
    assert seen == {(kind, r) for kind in range(3) for r in range(3)}


def test_product_verdicts_mark_no_block_cell_by_cell(monkeypatch):
    """Patrol at (1000, 10), hysteresis guard off: substitution, preservation and
    re-verification hand neither ``Region.pick`` nor ``Region.from_cells`` a list
    as long as a block of 11,011 cells; block images and placements are shifts.
    """
    b = bundled_spec("patrol")
    members = [b.model.vertex_of(n) for n in b.abstraction]
    cert = certify_convergence(b.model, members, b.delta)
    spec = dataclasses.replace(b.substitution, time_budget=1000, hysteresis_cap=10)
    sizes = []
    real_pick, real_from_cells = Region.pick, Region.from_cells.__func__

    def counting_pick(self, items):
        sizes.append(len(items))
        return real_pick(self, items)

    def counting_from_cells(cls, n, cells):
        cells = cells if isinstance(cells, (list, tuple)) else list(cells)
        sizes.append(len(cells))
        return real_from_cells(cls, n, cells)

    monkeypatch.setattr(Region, "pick", counting_pick)
    monkeypatch.setattr(Region, "from_cells", classmethod(counting_from_cells))
    result = substitute(b.model, spec, base_delta=b.delta)
    assert verify_preservation(result)
    report = verify_substituted_convergence(cert, result)
    assert report and report.loop_exit_steps is not None
    assert result.augmentation.block == 11_011
    assert sizes and max(sizes) < result.augmentation.block


def test_augmentation_stores_neighbour_lists_not_bitsets():
    """The (100, 10) patrol product: memory grows with cells x neighbours, not cells squared."""
    import tracemalloc

    b = bundled_spec("patrol")
    spec = b.substitution
    tracemalloc.start()
    try:
        aug = Augmentation(b.model.world, 100, 10, spec.rok_success, b.delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aug.cell_count == 11_110
    assert peak < 4 * 2**20  # one bitset row per augmented cell took 9.8 MiB


def _built(controller):
    """Whether the map's targets are built, read past SuccessorMap's lazy fill."""
    try:
        SuccessorMap.targets.__get__(controller)
    except AttributeError:
        return False
    return True


def test_substitution_and_reverification_do_no_per_cell_work(monkeypatch):
    """No per-cell ticks, decodes, neighbour tuples or lifted targets, no hypothesis
    check on the product for a lifted member, and no closed-loop walk of a
    counter-blind class.

    With the hysteresis guard off every non-sink class is counter-blind, so
    the product's closed loop is never built and no lifted map is read; with
    it on, the classes that read the hysteresis counter are walked, and the
    risk-reduction leaf's product step check reads its lifted map."""
    from btconverge import bt, prepares

    b = bundled_spec("patrol")
    members = [b.model.vertex_of(n) for n in b.abstraction]
    spec = dataclasses.replace(b.substitution, time_budget=30, hysteresis_cap=4)
    ticks, decodes, steps, product_fts, base_fts, walks = [], [], [], [], [], []
    real_leaf_at, real_decode = bt.BTModel.leaf_at, Augmentation.decode
    real_steps_hold, real_leaf_fts = World.steps_hold, prepares.leaf_fts
    real_exit_time = prepares.empirical_exit_time

    def counting_leaf_at(model, x):
        ticks.append(x)
        return real_leaf_at(model, x)

    def counting_decode(self, cell):
        decodes.append(cell)
        return real_decode(self, cell)

    def counting_steps_hold(self, cells, targets, delta):
        steps.append(self.cell_count)
        return real_steps_hold(self, cells, targets, delta)

    def spy_fts(seen):
        def counting_leaf_fts(data):
            seen.append((data.name, data.success.n))
            return real_leaf_fts(data)

        return counting_leaf_fts

    def spy_exit_time(where):
        def counting_exit_time(model, region):
            walks.append((where, region.n))
            return real_exit_time(model, region)

        return counting_exit_time

    monkeypatch.setattr(bt.BTModel, "leaf_at", counting_leaf_at)
    monkeypatch.setattr(Augmentation, "decode", counting_decode)
    monkeypatch.setattr(World, "steps_hold", counting_steps_hold)
    monkeypatch.setattr(prepares, "leaf_fts", spy_fts(product_fts))
    monkeypatch.setattr(substitution, "leaf_fts", spy_fts(base_fts))
    monkeypatch.setattr(prepares, "empirical_exit_time", spy_exit_time("prepares"))
    monkeypatch.setattr(substitution, "empirical_exit_time", spy_exit_time("substitution"))
    cert = certify_convergence(b.model, members, b.delta)
    result = substitute(b.model, spec, base_delta=b.delta)
    assert decodes == []
    n_base, n_aug = b.model.world.cell_count, result.new_model.world.cell_count
    steps.clear()
    product_fts.clear()
    walks.clear()
    assert verify_preservation(result)
    report = verify_substituted_convergence(cert, result)
    assert report and report.loop_exit_steps is not None
    leaves = result.new_model.leaves.values()
    controllers = [v.controller for v in leaves if v.controller is not None]
    assert len(controllers) == 4 and not any(map(_built, controllers))
    assert ticks == []  # neither verdict built a per-cell leaf table
    assert b.model._leaf_at is None and result.new_model._leaf_at is None
    # the slice graph dilates block by block, so no neighbour tuple is built
    assert result.new_model.world._neighbors is None
    # every class's exit time is read off a base walk, and the loop's off its class's
    assert walks == [] and result.new_model._loop is None
    assert report.loop_exit_steps in report.result.per_class_exit.values()
    # every member lifts base data, so each is proven on the 10 base cells alone
    assert steps == [n_base] * 4 and product_fts == []
    assert sorted(base_fts) == sorted(
        (name, n_base) for name in ("dd_controller", "mb_patrol", "park", "rr_controller")
    )
    # the counters do see the per-cell paths
    bt.tick(result.new_model, 0)
    result.augmentation.decode(0)
    assert ticks == [0] and decodes == [0]

    # with the hysteresis guard on, the risk-reduction leaf is no lift: it is
    # checked on the product, where it meets its deadline of horizon + cap
    gated = substitute(b.model, dataclasses.replace(spec, hysteresis=True), base_delta=b.delta)
    assert gated.new_model.world._neighbors is None
    steps.clear()
    product_fts.clear()
    walks.clear()
    gated_report = verify_substituted_convergence(cert, gated)
    assert gated_report and gated_report.graph_diffs == ()
    assert "rr_controller" not in gated.lifts
    assert product_fts == [("rr_controller", n_aug)]
    aug, T, H = gated.augmentation, spec.time_budget, spec.hysteresis_cap
    rr_map = gated.new_model.leaves[gated.new_model.vertex_of(RR_NAME)].controller
    assert _built(rr_map)
    for cell in range(n_aug):
        c, t, h = aug.decode(cell)
        h2 = min(h + 1, H) if c in spec.rok_success else 0
        assert rr_map.next(cell) == aug.encode(spec.rr.controller.next(c), min(t + 1, T), h2)
    # the guard splits the loop over two classes by the hysteresis counter: those two
    # and then the whole loop are walked on the product, the other two classes are not
    gated_cert = gated_report.result
    loop = {gated.new_model.vertex_of(DD_NAME), gated.new_model.vertex_of(RR_NAME)}
    owners = [{gated_cert.graph.vertices[i].owner for i in c} for c in gated_cert.condensed.classes]
    in_loop = [ci for ci in gated_cert.per_class_exit if owners[ci] & loop]
    assert len(in_loop) == 2 and len(gated_cert.per_class_exit) == 4
    assert walks == [("substitution", n_aug)] * 3 and gated.new_model._loop is not None
    assert steps.count(n_aug) == 1 and steps.count(n_base) == 3
    # the product step check reads the per-cell neighbour tuples, built on demand
    assert gated.new_model.world._neighbors is not None


def test_reverification_with_every_member_proven_on_the_base_builds_no_product_sized_list(
    monkeypatch,
):
    """decide checks on the product only the members the base does not prove.
    On patrol at (100, 10) that is none of them, so the pipeline builds no
    list of the 11,110 product cells for the hypotheses' cell lists."""
    import builtins

    from btconverge import prepares

    b = bundled_spec("patrol")
    members = [b.model.vertex_of(n) for n in b.abstraction]
    cert = certify_convergence(b.model, members, b.delta)
    spec = dataclasses.replace(b.substitution, time_budget=100, hysteresis_cap=10)
    result = substitute(b.model, spec, base_delta=b.delta)
    sizes, checked = [], []
    real_decide = substitution.decide

    def counting_list(*args):
        made = builtins.list(*args)
        sizes.append(len(made))
        return made

    def spy_decide(*args, **kwargs):
        checked.append(kwargs["checked"])
        return real_decide(*args, **kwargs)

    monkeypatch.setattr(prepares, "list", counting_list, raising=False)
    monkeypatch.setattr(substitution, "decide", spy_decide)
    report = verify_substituted_convergence(cert, result)
    assert report and result.new_model.world.cell_count == 11_110
    assert checked == [[]]
    assert sizes and max(sizes) < 100


def test_counter_blind_exit_times_match_the_product_walk(rng):
    """Seeded corpus: wherever the counter-blind rule answers, it gives the walk's
    exit time and witness.

    The regions are every class of the product's slice graph (the old
    abstraction plus the loop's two leaves) on random_reverification_instance
    products, metric and adjacency, hysteresis on and off, dd targets per
    base or per augmented cell, and on patrol at several (T, H), T = 0
    included.  A random_substitution_instance product has no abstraction
    (its task-done condition operates and has no basin data), so there the
    regions are each leaf's tick region, the loop's and a random union of
    them.  The rule must answer with an exit time and with no exit many
    times, and decline some regions.
    """
    seen = Counter()

    def compare(result, regions):
        for region in regions:
            got = substitution._counter_blind_exit(result, region)
            if got is None:
                seen["declined"] += 1
                continue
            want = empirical_exit_time(result.new_model, region)
            assert (got.steps, got.witness) == (want.steps, want.witness), (region, got, want)
            seen["exit" if got else "no-exit"] += 1

    def classes(result, names):
        model = result.new_model
        members = sorted({model.vertex_of(x) for x in (*names, DD_NAME, RR_NAME)})
        condensed = condense(build_prepares_graph(model, members))
        return [condensed.class_cells(ci) for ci in range(len(condensed.classes))]

    for trial in range(48):
        metric, hysteresis, per_aug_dd = trial % 2 == 1, trial // 2 % 2 == 1, trial // 4 % 2 == 1
        model, spec, delta, names = random_reverification_instance(
            rng, rng.randint(5, 9), metric, hysteresis, per_aug_dd
        )
        result = substitute(model, spec, base_delta=delta)
        compare(result, classes(result, names))
    for trial in range(24):
        model, spec, _inj = random_substitution_instance(rng, rng.randint(4, 10))
        spec = dataclasses.replace(
            spec,
            time_budget=rng.randint(0, 6),
            hysteresis_cap=rng.randint(0, 3),
            hysteresis=trial % 2 == 1,
        )
        result = substitute(model, spec)
        new = result.new_model
        reached = new.analysis().reached
        ticks = [reached[v] for v in sorted(new.leaves)]
        loop = reached[new.vertex_of(DD_NAME)] | reached[new.vertex_of(RR_NAME)]
        union = Region.empty(new.world.cell_count)
        for tick_region in ticks:
            if rng.random() < 0.5:
                union |= tick_region
        compare(result, [r for r in (*ticks, loop, union) if not r.is_empty])
    b = bundled_spec("patrol")
    for budget, cap in ((0, 0), (0, 3), (1, 0), (5, 1), (30, 4), (100, 10)):
        for hysteresis in (False, True):
            spec = dataclasses.replace(
                b.substitution, time_budget=budget, hysteresis_cap=cap, hysteresis=hysteresis
            )
            result = substitute(b.model, spec, base_delta=b.delta)
            compare(result, classes(result, b.abstraction))
    assert seen["exit"] >= 50 and seen["no-exit"] >= 20 and seen["declined"] >= 20, seen


def test_project_region_refuses_a_region_over_another_universe():
    b = bundled_spec("patrol")
    aug = substitute(b.model, b.substitution, base_delta=b.delta).augmentation
    with pytest.raises(WorldError, match="region over 10 cells is not over the augmented universe of 120 cells"):
        aug.project_region(Region.from_cells(10, [3, 7]))
    assert aug.project_region(aug.lift_region(Region.from_cells(10, [3, 7]))) == Region.from_cells(
        10, [3, 7]
    )


def _reverification_outcome(old_cert, result, verify=verify_substituted_convergence):
    """Every field of the report, or the type, text and failures of what it raised.

    A report whose verdict is the hypothesis failures reads as those failures
    raised, the contract the stage-by-stage references keep."""
    try:
        report = verify(old_cert, result)
    except BTConvergeError as exc:
        return type(exc), str(exc), getattr(exc, "failures", None)
    verdict = report.result
    if isinstance(verdict, FtsPreconditionError):
        return type(verdict), str(verdict), verdict.failures
    if isinstance(verdict, Certificate):
        fields = (
            [v.key() for v in verdict.graph.vertices],
            sorted(verdict.graph.edges),
            verdict.analysis_classes,
            verdict.sink_classes,
            verdict.per_class_exit,
            verdict.bound,
            verdict.transitions_bound,
            verdict.refined_bound,
        )
    else:
        fields = (verdict.kind, verdict.witness_class, verdict.witness_cell, verdict.detail)
    return report.ok, report.graph_diffs, report.loop_exit_steps, type(verdict), fields


def test_base_cost_hypotheses_match_the_product_path(rng, monkeypatch):
    """Seeded corpus: proving lifted members on the base universe changes no report and no error.

    The reference re-verifies with the public certify_convergence over the
    product model in place of the base-cost hypothesis checks.
    """
    def product_path(result, members, seeds, condensed):
        return certify_convergence(result.new_model, members, seeds=seeds)

    seen = set()
    for trial in range(160):
        metric, hysteresis, per_aug_dd = trial % 2 == 1, trial // 2 % 2 == 1, trial // 4 % 2 == 1
        model, spec, delta, names = random_reverification_instance(
            rng, rng.randint(5, 9), metric, hysteresis, per_aug_dd
        )
        result = substitute(model, spec, base_delta=delta)
        assert (DD_NAME in result.lifts) is not per_aug_dd
        assert ("rr_controller" in result.lifts) is not hysteresis
        # re-verification reads only the old certificate's graph
        old = SimpleNamespace(
            graph=build_prepares_graph(model, [model.vertex_of(x) for x in names], delta)
        )
        fast = _reverification_outcome(old, result)
        with monkeypatch.context() as m:
            m.setattr(substitution, "_certify_substituted", product_path)
            slow = _reverification_outcome(old, result)
        assert fast == slow, (trial, fast, slow)
        kind = fast[0] if isinstance(fast[0], type) else fast[3]
        seen.add(kind.__name__)
        if kind is FtsPreconditionError:
            seen.update(v.kind for v in fast[2].values())
    assert {"Certificate", "StepError", "FtsPreconditionError", "deadline", "basin-invariance"} <= seen


def test_reverification_verdicts_match_the_stage_by_stage_reference(rng, monkeypatch):
    """Seeded corpus: verify_substituted_convergence gives the report or error it
    gives when its certification runs stage by stage from the oracles over the
    product (reference_certify_convergence on every member), with the
    hysteresis guard on and off.  Certificates, both errors and a refutation
    must occur; refutations are rare on these instances, which the funnel
    corpus of test_verdicts_match_the_stage_by_stage_reference covers."""

    def reference(result, members, seeds, condensed):
        return reference_certify_convergence(result.new_model, members, None, seeds)

    seen = Counter()
    for trial in range(240):
        metric, hysteresis, per_aug_dd = trial % 2 == 1, trial // 2 % 2 == 1, trial // 4 % 2 == 1
        model, spec, delta, names = random_reverification_instance(
            rng, rng.randint(5, 8), metric, hysteresis, per_aug_dd
        )
        result = substitute(model, spec, base_delta=delta)
        old = SimpleNamespace(
            graph=build_prepares_graph(model, [model.vertex_of(x) for x in names], delta)
        )
        seeds = rng.choice([None, None, [0], [1]])

        def verify(old_cert, result):
            return verify_substituted_convergence(old_cert, result, seeds)

        got = _reverification_outcome(old, result, verify)
        with monkeypatch.context() as m:
            m.setattr(substitution, "_certify_substituted", reference)
            want = _reverification_outcome(old, result, verify)
        assert got == want, (trial, got, want)
        seen[hysteresis, (got[0] if isinstance(got[0], type) else got[3]).__name__] += 1
    for hysteresis in (False, True):
        assert seen[hysteresis, "Certificate"] >= 2, seen
        assert seen[hysteresis, "FtsPreconditionError"] >= 10 and seen[hysteresis, "StepError"] >= 3, seen
    assert seen[False, "Refutation"] + seen[True, "Refutation"] >= 1, seen


def test_a_failing_reverification_keeps_its_report(rng, monkeypatch):
    """Seeded corpus: when lifted members fail their finite-time-success
    checks, the report still carries the graph diffs and the loop exit that
    it carries with the hypotheses taken as given."""

    def certify_unchecked(result, members, seeds, condensed):
        return decide(result.new_model, members, seeds=seeds, checked=[], condensed=condensed)

    failing = 0
    for trial in range(240):
        metric, hysteresis, per_aug_dd = trial % 2 == 1, trial // 2 % 2 == 1, trial // 4 % 2 == 1
        model, spec, delta, names = random_reverification_instance(
            rng, rng.randint(5, 8), metric, hysteresis, per_aug_dd
        )
        result = substitute(model, spec, base_delta=delta)
        old = SimpleNamespace(
            graph=build_prepares_graph(model, [model.vertex_of(x) for x in names], delta)
        )
        try:
            report = verify_substituted_convergence(old, result)
        except (SubstitutionError, StepError):
            continue
        if not isinstance(report.result, FtsPreconditionError):
            continue
        failing += 1
        assert not report
        with monkeypatch.context() as m:
            m.setattr(substitution, "_certify_substituted", certify_unchecked)
            given = verify_substituted_convergence(old, result)
        assert (report.graph_diffs, report.loop_exit_steps) == (
            given.graph_diffs,
            given.loop_exit_steps,
        ), trial
    assert failing >= 100, failing


def test_reverification_refuses_an_old_verdict_that_is_not_a_certificate():
    """Only a certificate has the old graph that re-verification compares against."""
    doc = bundled_document("patrol")
    for entry in doc["leaves"]:
        if entry.get("doa"):
            entry["doa"]["horizon"] = 1
    spec = parse_document(doc)
    members = [spec.model.vertex_of(n) for n in spec.abstraction]
    failures = certify_convergence(spec.model, members, spec.delta)
    assert isinstance(failures, FtsPreconditionError)
    eat = bundled_spec("eat_tree")
    refutation = certify_convergence(eat.model, [eat.model.vertex_of(n) for n in eat.abstraction])
    assert isinstance(refutation, Refutation)
    result = substitute(spec.model, spec.substitution, base_delta=spec.delta)
    for old in (failures, refutation):
        with pytest.raises(SubstitutionError, match=f"not a certificate: {type(old).__name__}$"):
            verify_substituted_convergence(old, result)


def test_loop_exit_read_off_the_certificate_matches_the_walk(rng, monkeypatch):
    """Seeded corpus: reading the loop's exit off its certified class changes no report or error.

    The reference walks the loop after its graph checks, as before.  The
    corpus spans hysteresis on and off, both dd_next shapes and seed
    choices, with the hypotheses taken as given in half of it.  On these
    line worlds the loop rarely forms a class of its own, so half of the
    slice graphs lose their edges into the loop and gain every edge inside
    it; both the read-off and the fallback (the loop's exit time computed
    outside certification) must occur at least five times.
    """
    real_build, real_class_exit = substitution.build_prepares_graph, substitution._class_exit
    real_decide = substitution.decide

    def certify_unchecked(result, members, seeds, condensed):
        return decide(result.new_model, members, seeds=seeds, checked=[], condensed=condensed)

    def isolated_loop(model, members, delta=None):
        graph = real_build(model, members, delta)
        owners = {model.vertex_of(DD_NAME), model.vertex_of("rr_controller")}
        inside = [v.owner in owners for v in graph.vertices]
        loop = [i for i, x in enumerate(inside) if x]
        kept = {(u, w) for u, w in graph.edges if inside[u] or not inside[w]}
        return PreparesGraph(graph.vertices, kept | {(u, w) for u in loop for w in loop if u != w})

    paths = Counter()
    for trial in range(200):
        metric, hysteresis, per_aug_dd = trial % 2 == 1, trial // 2 % 2 == 1, trial // 4 % 2 == 1
        model, spec, delta, names = random_reverification_instance(
            rng, rng.randint(5, 9), metric, hysteresis, per_aug_dd
        )
        result = substitute(model, spec, base_delta=delta)
        old = SimpleNamespace(
            graph=build_prepares_graph(model, [model.vertex_of(x) for x in names], delta)
        )
        seeds = rng.choice([None, None, [0], [1]])
        certifying, fallback = [], []

        def flagged_decide(*args, **kwargs):
            certifying.append(True)
            try:
                return real_decide(*args, **kwargs)
            finally:
                certifying.pop()

        def counting_class_exit(result, region):
            if not certifying:
                fallback.append(region)
            return real_class_exit(result, region)

        with monkeypatch.context() as m:
            if trial // 8 % 2:
                m.setattr(substitution, "_certify_substituted", certify_unchecked)
            if trial // 16 % 2:
                m.setattr(substitution, "build_prepares_graph", isolated_loop)
            m.setattr(substitution, "decide", flagged_decide)
            m.setattr(substitution, "_class_exit", counting_class_exit)
            got = _reverification_outcome(
                old, result, lambda o, r: verify_substituted_convergence(o, r, seeds)
            )
            want = _reverification_outcome(
                old, result, lambda o, r: reference_verify_substituted_convergence(o, r, seeds)
            )
        assert got == want, (trial, got, want)
        if fallback:
            paths["fallback"] += 1
        elif not isinstance(got[0], type) and got[2] is not None:
            paths["read-off"] += 1
    assert paths["fallback"] >= 5 and paths["read-off"] >= 5, paths


def _mutated_loop_graphs(rng, old, new, renamed, loop_owners, mb_v):
    """Edge sets of the old and new graphs after one weighted mutation.

    Most cases first drop every new edge with a loop end except those
    inside the loop and those from mb into it, which leaves the loop rule
    nothing to refuse.  Each mutation then aims at one outcome of the rule:
    a plain edge added to or dropped from either graph, an old edge into mb
    rerouted through the loop, or an edge out of or into a loop slice.
    """
    old_edges, new_edges = set(old.edges), set(new.edges)
    in_loop = [v.owner in loop_owners for v in new.vertices]
    loop = [i for i, inside in enumerate(in_loop) if inside]
    plain = [i for i, inside in enumerate(in_loop) if not inside]
    if rng.random() < 0.7:
        new_edges = {
            (u, w)
            for u, w in new_edges
            if in_loop[u] == in_loop[w] or in_loop[w] and new.vertices[u].owner == mb_v
        }
    # old vertex index -> new vertex index of the same (owner, flavor) slice, where there is one
    to_new = {
        i: new.index[(renamed(v.owner), v.flavor)]
        for i, v in enumerate(old.vertices)
        if (renamed(v.owner), v.flavor) in new.index
    }
    pairs = lambda us, ws: [(u, w) for u in us for w in ws if u != w]
    kind = rng.choices(
        ["none", "new-plain", "drop-new", "old-extra", "drop-old", "reroute", "out", "into"],
        [4, 2, 2, 2, 2, 3, 1, 3],
    )[0]
    if kind == "new-plain" and pairs(plain, plain):
        new_edges.add(rng.choice(pairs(plain, plain)))
    elif kind == "drop-new" and new_edges:
        new_edges.discard(rng.choice(sorted(new_edges)))
    elif kind == "old-extra" and len(old.vertices) > 1:
        old_edges.add(rng.choice(pairs(range(len(old.vertices)), range(len(old.vertices)))))
    elif kind == "drop-old" and old_edges:
        old_edges.discard(rng.choice(sorted(old_edges)))
    elif kind == "reroute":
        into_mb = [i for i, v in enumerate(old.vertices) if renamed(v.owner) == mb_v]
        sources = [i for i in to_new if new.vertices[to_new[i]].owner != mb_v]
        if loop and into_mb and sources:
            x, m = rng.choice(sources), rng.choice(into_mb)
            old_edges.add((x, m))
            new_edges.discard((to_new[x], to_new.get(m)))
            new_edges.add((to_new[x], rng.choice(loop)))
    elif kind == "out" and loop:
        new_edges.add(rng.choice(pairs(loop, range(len(new.vertices)))))
    elif kind == "into" and loop:
        new_edges.add(rng.choice(pairs(plain, loop)))
    return old_edges, new_edges


LOOP_RULE_OUTCOMES = (
    "clean",
    "new edge absent from old graph",
    "old edge missing from new graph",
    "rerouted old edge into mb",
    "unexpected slices",
    "illegal edge out of",
    "illegal edge into",
)


def test_loop_rule_matches_the_edge_by_edge_comparison(rng, monkeypatch):
    """Seeded corpus: the three set conditions give the edge-by-edge comparison's report or error.

    Both graphs get weighted edge mutations, over metric and adjacency base
    worlds with hysteresis on and off; every outcome of the rule must occur
    at least five times.
    """
    real = substitution.build_prepares_graph

    def certify_unchecked(result, members, seeds, condensed):
        return decide(result.new_model, members, seeds=seeds, checked=[], condensed=condensed)

    seen = Counter()
    for trial in range(320):
        metric, hysteresis = trial % 2 == 1, trial // 2 % 2 == 1
        model, spec, delta, names = random_reverification_instance(
            rng, rng.randint(5, 8), metric, hysteresis, rng.random() < 0.5
        )
        result = substitute(model, spec, base_delta=delta)
        new_model = result.new_model
        old = build_prepares_graph(model, [model.vertex_of(x) for x in names], delta)
        renamed = lambda owner: new_model.vertex_of(model.names[owner])
        loop_owners = {new_model.vertex_of(DD_NAME), new_model.vertex_of("rr_controller")}
        mb_v = new_model.vertex_of("mb")
        members = sorted({renamed(v.owner) for v in old.vertices} | loop_owners)
        new = real(new_model, members)
        old_edges, new_edges = _mutated_loop_graphs(rng, old, new, renamed, loop_owners, mb_v)
        old_cert = SimpleNamespace(graph=PreparesGraph(old.vertices, old_edges))
        mutated = PreparesGraph(new.vertices, new_edges)

        def build(model, abstraction, delta=None):
            assert (model, abstraction, delta) == (new_model, members, None)
            return mutated

        with monkeypatch.context() as m:
            m.setattr(substitution, "build_prepares_graph", build)
            if trial // 4 % 2:
                # hypotheses taken as given, so the graph diffs reach a report
                m.setattr(substitution, "_certify_substituted", certify_unchecked)
            got = _reverification_outcome(old_cert, result)
            want = _reverification_outcome(
                old_cert, result, reference_verify_substituted_convergence
            )
        assert got == want, (trial, got, want)

        if got[0] is SubstitutionError:
            seen.update(o for o in LOOP_RULE_OUTCOMES if o in got[1])
            continue
        texts = [] if isinstance(got[0], type) else list(got[1]) or ["clean"]
        # an old edge into mb that the new graph lacks, excused by its source's edge into the loop
        key = [v.key() for v in new.vertices]
        old_key = [(renamed(v.owner), v.flavor) for v in old.vertices]
        new_pairs = {(key[u], key[w]) for u, w in new_edges}
        into_loop = {a for a, b in new_pairs if b[0] in loop_owners}
        if any(
            old_key[w][0] == mb_v and old_key[u] in into_loop
            and (old_key[u], old_key[w]) not in new_pairs
            for u, w in old_edges
        ):
            texts.append("rerouted old edge into mb")
        seen.update(o for o in LOOP_RULE_OUTCOMES if any(o in t for t in texts))
    assert all(seen[o] >= 5 for o in LOOP_RULE_OUTCOMES), seen
