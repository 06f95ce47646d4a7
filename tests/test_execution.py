"""Simulator, finite-time-success checks, and exit-time bounds."""

from functools import partial

import pytest

from btconverge import execution
from btconverge.bt import BTModel, Doa, NodeKind, Status, action, condition, fal, seq, tick
from btconverge.execution import (
    HALT_MAX_STEPS,
    HALT_NO_ACTION,
    HALT_STOP,
    ExecutionError,
    _exit_times,
    check_fts,
    empirical_exit_time,
    hitting_time,
    simulate,
)
from btconverge.statespace import Region, SuccessorMap, World
from helpers import (
    bundled_spec,
    generator_exit_time,
    generator_fts,
    generator_hit_times,
    naive_tick_path,
    random_region,
)


def chain_model(n=6, basin=None, goal=None, horizon=3):
    """A single action that walks right along a line."""
    world = World(n, coords=[(float(x),) for x in range(n)])
    goal = goal if goal is not None else Region.from_cells(n, [n - 1])
    basin = basin if basin is not None else Region.full(n)
    ctrl = SuccessorMap.from_function(n, lambda x: min(x + 1, n - 1))
    spec = action("walk", success=goal, controller=ctrl, doa=Doa(basin, goal, horizon))
    return BTModel(world, seq(spec))


def test_simulate_stop_at_goal_gives_length_one_trace():
    model = chain_model()
    trace = simulate(model, 5, 10, stop=lambda x, st: st is Status.SUCCESS)
    assert len(trace) == 1
    assert trace.halt == HALT_STOP


def test_simulate_identity_controller_fills_max_steps():
    world = World(3)
    model = BTModel(
        world,
        seq(action("hold", Region.empty(3), controller=SuccessorMap.identity(3))),
    )
    trace = simulate(model, 1, 7)
    assert trace.states == (1,) * 7
    assert trace.halt == HALT_MAX_STEPS


def test_simulate_halts_on_condition_resolution():
    world = World(3)
    model = BTModel(world, seq(condition("done", Region.from_cells(3, [0]))))
    trace = simulate(model, 0, 5)
    assert trace.halt == HALT_NO_ACTION
    assert len(trace) == 1


def test_trace_consistency_invariant(rng):
    model = bundled_spec("surveying_robot").model
    for _ in range(20):
        x0 = rng.randrange(model.world.cell_count)
        trace = simulate(model, x0, 40)
        for k in range(len(trace) - 1):
            leaf = trace.leaves[k]
            assert trace.states[k + 1] == model.leaves[leaf].controller.next(trace.states[k])


def test_simulate_is_deterministic():
    model = bundled_spec("surveying_robot").model
    t1 = simulate(model, 3, 25)
    t2 = simulate(model, 3, 25)
    assert t1 == t2


def test_trace_log_format():
    model = chain_model(3)
    log = simulate(model, 0, 2).to_log(model)
    lines = log.splitlines()
    assert lines[0] == "0 0 walk running"
    assert lines[-1] == "# halt: max-steps"


def test_check_fts_empty_basin_vacuous():
    model = chain_model(basin=Region.empty(6), goal=Region.empty(6))
    assert check_fts(model, model.vertex_of("walk"))


def test_check_fts_fixed_point_in_goal():
    n = 4
    world = World(n)
    cell = Region.from_cells(n, [2])
    model = BTModel(
        world,
        seq(action("sit", success=cell, controller=SuccessorMap.identity(n), doa=Doa(cell, cell, 1))),
    )
    assert check_fts(model, model.vertex_of("sit"))


def test_check_fts_deadline_violation_reports_first_hit():
    model = chain_model(
        n=4, basin=Region.from_cells(4, [0, 1, 2, 3]), goal=Region.from_cells(4, [3]), horizon=3
    )
    assert check_fts(model, model.vertex_of("walk"))
    tight = chain_model(
        n=4, basin=Region.from_cells(4, [0, 1, 2, 3]), goal=Region.from_cells(4, [3]), horizon=2
    )
    verdict = check_fts(tight, tight.vertex_of("walk"))
    assert not verdict
    assert verdict.kind == "deadline"
    assert verdict.witness == 0 and verdict.step == 3


def test_check_fts_invariance_violation():
    n = 4
    world = World(n, coords=[(float(x),) for x in range(n)])
    ctrl = SuccessorMap.from_function(n, lambda x: min(x + 1, n - 1))
    model = BTModel(
        world,
        seq(
            action(
                "walk",
                success=Region.from_cells(n, [1]),
                controller=ctrl,
                doa=Doa(Region.from_cells(n, [0, 1]), Region.from_cells(n, [1]), 2),
            )
        ),
    )
    verdict = check_fts(model, model.vertex_of("walk"))
    # the goal cell 1 steps to 2, outside both goal and basin
    assert not verdict
    assert verdict.kind in ("basin-invariance", "goal-invariance")
    assert verdict.witness == 1


def test_check_fts_requires_basin_data():
    world = World(2)
    model = BTModel(
        world, seq(action("bare", Region.empty(2), controller=SuccessorMap.identity(2)))
    )
    with pytest.raises(ExecutionError, match="basin"):
        check_fts(model, model.vertex_of("bare"))


def test_check_fts_ok_confirmed_by_naive_resimulation():
    model = bundled_spec("surveying_robot").model
    for name in ("go_home", "charge", "goto_path", "follow_path", "idle"):
        leaf = model.vertex_of(name)
        data = model.leaves[leaf]
        assert check_fts(model, leaf)
        # second, dict-based interpreter over the leaf's own dynamics
        nxt = {c: data.controller.next(c) for c in range(model.world.cell_count)}
        for start in data.doa.basin.cells():
            x, seen = start, 0
            while x not in data.doa.goal:
                x = nxt[x]
                seen += 1
                assert seen <= data.doa.horizon, (name, start)
            assert x in data.doa.basin


def test_empirical_exit_immediate():
    model = chain_model()
    result = empirical_exit_time(model, Region.from_cells(6, [2]))
    assert result.steps == 1


def test_empirical_exit_never_exits_reports_witness():
    world = World(3)
    model = BTModel(
        world, seq(action("hold", Region.empty(3), controller=SuccessorMap.identity(3)))
    )
    result = empirical_exit_time(model, Region.from_cells(3, [1]))
    assert result.steps is None and result.witness == 1


def test_empirical_exit_on_survey_cycle_matches_brute_force():
    sr = bundled_spec("surveying_robot")
    model = sr.model
    from btconverge.prepares import build_prepares_graph, condense

    graph = build_prepares_graph(model, [model.vertex_of(n) for n in sr.abstraction], sr.delta)
    condensed = condense(graph)
    cycle = next(ci for ci in range(len(condensed.classes)) if len(condensed.classes[ci]) > 1)
    region = condensed.class_cells(cycle)
    result = empirical_exit_time(model, region)
    # independent re-simulation with the precomputed closed-loop map
    loop = model.closed_loop()
    worst = 0
    for c in region.cells():
        x, k = c, 0
        while x in region:
            x = loop[x]
            k += 1
            assert k <= model.world.cell_count
        worst = max(worst, k)
    assert result.steps == worst


def test_hitting_time_basic():
    model = chain_model()
    goal = Region.from_cells(6, [5])
    assert hitting_time(model, 5, goal, 10) == 0
    assert hitting_time(model, 0, goal, 10) == 5
    assert hitting_time(model, 0, goal, 3) is None


@pytest.mark.parametrize("x0", [-1, 6])
def test_hitting_time_rejects_a_start_outside_the_universe(x0):
    with pytest.raises(ExecutionError, match="outside universe"):
        hitting_time(chain_model(), x0, Region.from_cells(6, [5]), 10)
    # a goal over another universe, smaller or larger, is refused like a bad start
    grid = bundled_spec("gridworld").model
    for goal in (Region.from_cells(10, [5]), Region.from_cells(100, [35, 99])):
        with pytest.raises(ExecutionError, match="region over a different universe"):
            hitting_time(grid, 0, goal, 100)


def test_survey_trace_cycles_through_all_four_stages():
    """From the path with a filling survey, the loop revisits every stage."""
    sr = bundled_spec("surveying_robot")
    model = sr.model
    analysis = model.analysis()
    stages = {name: analysis.omega[model.vertex_of(name)] for name in sr.abstraction}
    start = next(iter((stages["follow_path"]).cells()))
    goal = model.leaves[model.vertex_of("idle")].doa.goal
    trace = simulate(model, start, 60, stop=lambda x, st: x in goal)
    assert trace.halt == HALT_STOP
    visited = {
        name for name in ("go_home", "charge", "goto_path", "follow_path")
        for x in trace.states if x in stages[name]
    }
    assert visited == {"go_home", "charge", "goto_path", "follow_path"}


# ----------------------------------------------------------------------
# differential check against a naive per-start stepper


def _forward_closure(ctrl, n, cells):
    seen = set()
    todo = list(cells)
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.append(ctrl.next(x))
    return Region.from_cells(n, seen)


def random_loop_model(rng, n):
    """A random tree whose actions carry random maps and basin data.

    The maps are random functions, so the loop has fixed points, cycles
    through several cells and merging paths; Condition leaves freeze the
    cells where they resolve.  Basins and goals are mostly forward-closed,
    so deadline checks are reached, and otherwise arbitrary within what
    BTModel accepts (goal inside basin and success, basin clear of failure).
    """
    count = [0]

    def leaf():
        count[0] += 1
        name = f"l{count[0]}"
        if rng.random() < 0.25:
            return condition(name, random_region(rng, n))
        ctrl = SuccessorMap([rng.randrange(n) for _ in range(n)])
        if rng.random() < 0.8:
            basin = _forward_closure(ctrl, n, rng.sample(range(n), rng.randint(0, 3)))
        else:
            basin = random_region(rng, n)
        if rng.random() < 0.8:
            picked = rng.sample(list(basin.cells()), min(len(basin), rng.randint(0, 2)))
            goal = _forward_closure(ctrl, n, picked) & basin
        else:
            goal = random_region(rng, n) & basin
        success = goal | random_region(rng, n)
        failure = random_region(rng, n) - success - basin
        return action(name, success, failure, ctrl, Doa(basin, goal, rng.randint(1, 4)))

    def node(depth):
        if depth >= 3 or rng.random() < 0.4:
            return leaf()
        kids = [node(depth + 1) for _ in range(rng.randint(1, 3))]
        return seq(*kids) if rng.random() < 0.5 else fal(*kids)

    kids = [node(1) for _ in range(rng.randint(1, 3))]
    return BTModel(World(n), seq(*kids) if rng.random() < 0.5 else fal(*kids))


def naive_loop_step(model, x):
    leaf = naive_tick_path(model, x)[-1]
    if model.kinds[leaf] is NodeKind.CONDITION:
        return None
    return model.leaves[leaf].controller.next(x)


def naive_hit(step, x, goal, cap):
    """First k <= cap with step^k(x) in goal, stepping one cell at a time."""
    for k in range(cap + 1):
        if x in goal:
            return k
        x = step(x)
        if x is None:
            return None
    return None


def naive_fts(model, leaf):
    """(kind, witness, step) of the first failed rule, or None when all hold.

    BTModel already rejects basin/goal data that breaks the static rules.
    """
    data = model.leaves[leaf]
    basin, goal, horizon = data.doa.basin, data.doa.goal, data.doa.horizon
    n = model.world.cell_count
    nxt = data.controller.next
    for kind, closed in (("basin-invariance", basin), ("goal-invariance", goal)):
        bad = [c for c in range(n) if c in closed and nxt(c) not in closed]
        if bad:
            return kind, bad[0], 1
    for c in range(n):
        if c in basin:
            # n steps visit n + 1 cells: a walk that has not hit goal by then never will
            hit = naive_hit(nxt, c, goal, n)
            if hit is None or hit > horizon:
                return "deadline", c, hit
    return None


def random_fts_model(rng, n, ctrl=None):
    """One action over n cells whose basin data passes or fails each dynamic FTS rule;
    ctrl, when given, is its controller."""
    if ctrl is None:
        if rng.random() < 0.3:  # every walk runs down to cell 0, in up to n - 1 steps
            ctrl = SuccessorMap([rng.randrange(x) if x else 0 for x in range(n)])
        else:
            ctrl = SuccessorMap([x if rng.random() < 0.2 else rng.randrange(n) for x in range(n)])
    if rng.random() < 0.7:
        basin = _forward_closure(ctrl, n, rng.sample(range(n), min(n, rng.randint(0, 3))))
    else:
        basin = random_region(rng, n)
    if rng.random() < 0.6:
        picked = rng.sample(list(basin.cells()), min(len(basin), rng.randint(0, 2)))
        goal = _forward_closure(ctrl, n, picked) & basin
    else:
        goal = random_region(rng, n) & basin
    success = goal | random_region(rng, n)
    failure = random_region(rng, n) - success - basin
    spec = action("a", success, failure, ctrl, Doa(basin, goal, rng.randint(1, 3)))
    return BTModel(World(n), seq(spec))


def mostly_kept_map(rng, n):
    """A controller that keeps about four cells in five in place and sends the rest anywhere."""
    return SuccessorMap([rng.randrange(n) if rng.random() < 0.2 else x for x in range(n)])


def test_exact_walks_match_naive_stepper(rng):
    """check_fts, empirical_exit_time and hitting_time against the naive stepper and the generator.

    The corpus reaches every failing FTS kind that BTModel lets through (it
    rejects the static ones) with its witness and step, and exits from 0, 1
    and more cells both ways.  Controllers that keep most cells in place
    put each invariance witness above a kept cell of its region, since the
    checks read only moved cells, and miss deadlines at kept cells.
    """
    seen = set()

    def check_leaf(model, leaf):
        verdict = check_fts(model, leaf)
        got = (verdict.ok, verdict.kind, verdict.witness, verdict.step)
        assert got == generator_fts(model, leaf)
        want = naive_fts(model, leaf)
        assert got == ((True, None, None, None) if want is None else (False, *want))
        seen.add(verdict.kind if verdict.kind != "deadline" else ("deadline", verdict.step is None))
        return verdict

    for _ in range(60):
        n = rng.choice([5, 9, 16])
        model = random_loop_model(rng, n)
        step = partial(naive_loop_step, model)
        for leaf in model.action_vertices():
            check_leaf(model, leaf)
        for _ in range(4):
            one = Region.from_cells(n, [rng.randrange(n)])
            region = rng.choice([Region.empty(n), one, random_region(rng, n), random_region(rng, n)])
            want_steps, want_witness = 0, None
            for c in region.cells():
                hit = naive_hit(step, c, region.complement(), n)
                if hit is None:
                    want_steps, want_witness = None, c
                    break
                want_steps = max(want_steps, hit)
            result = empirical_exit_time(model, region)
            assert (result.steps, result.witness) == (want_steps, want_witness)
            assert (result.steps, result.witness) == generator_exit_time(model, region)
            seen.add(("exit", min(len(region), 2), want_steps is None))
        for _ in range(5):
            x0, goal, cap = rng.randrange(n), random_region(rng, n), rng.randint(0, n + 2)
            assert hitting_time(model, x0, goal, cap) == naive_hit(step, x0, goal, cap)
    for _ in range(300):
        model = random_fts_model(rng, rng.randint(1, 12))
        check_leaf(model, model.vertex_of("a"))
    for _ in range(300):
        n = rng.randint(1, 16)
        ctrl = mostly_kept_map(rng, n)
        model = random_fts_model(rng, n, ctrl)
        data = model.leaves[model.vertex_of("a")]
        verdict = check_leaf(model, model.vertex_of("a"))
        kept = [c for c in range(n) if ctrl.next(c) == c]
        if verdict.kind == "deadline" and verdict.witness in kept:
            seen.add(("kept", "deadline"))
        elif verdict.kind in ("basin-invariance", "goal-invariance"):
            closed = data.doa.basin if verdict.kind == "basin-invariance" else data.doa.goal
            if any(c in closed for c in kept if c < verdict.witness):
                seen.add(("kept below", verdict.kind))
    assert {None, "basin-invariance", "goal-invariance", ("deadline", True), ("deadline", False)} <= seen
    kept = {("kept", "deadline"), ("kept below", "basin-invariance"), ("kept below", "goal-invariance")}
    assert kept <= seen
    exits = {("exit", 0, False), ("exit", 1, False), ("exit", 1, True), ("exit", 2, False), ("exit", 2, True)}
    assert exits <= seen


def random_step_map(rng, n):
    """Per-cell targets with None steps, self-loops, cycles and merging paths."""
    targets = []
    for x in range(n):
        r = rng.random()
        targets.append(None if r < 0.15 else x if r < 0.3 else rng.randrange(n))
    return targets


def naive_exit(targets, label, x):
    """(how, k): the first k >= 1 at which the walk from x reaches another
    label ("change"), or k None at a None target ("none") or on a cycle
    inside x's label ("cycle"), stepping one cell at a time."""
    mine, seen = label[x], {x}
    for k in range(1, len(label) + 1):
        x = targets[x]
        if x is None:
            return "none", None
        if label[x] != mine:
            return "change", k
        if x in seen:
            return "cycle", None
        seen.add(x)
    raise AssertionError("a walk inside one label revisits a cell within n steps")


def test_exit_walk_kernel_matches_naive_stepper_and_generator(rng):
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        targets = random_step_map(rng, n)
        values = rng.randint(1, 4)
        label = [rng.randrange(values) for _ in range(n)]
        if rng.random() < 0.5:
            label = "".join(map(str, label))  # region digits are a string label
        # any order, repeats and labels; 0, 1, 2 and more starts
        starts = [rng.randrange(n) for _ in range(rng.choice([0, 1, 2, rng.randint(3, 2 * n + 3)]))]
        exits = _exit_times(targets, label, starts)
        assert type(exits) is tuple
        want = [naive_exit(targets, label, x) for x in starts]
        assert exits == tuple(k for _, k in want)
        seen.add(min(len(starts), 3))
        seen.update(how for how, _ in want)
        # a hit time is the exit walk under the goal's digits from a start outside the goal
        goal = random_region(rng, n)
        outside = [x for x in starts if x not in goal]
        hits = _exit_times(targets, goal.digits(), outside)
        assert hits == tuple(hit for _, hit in generator_hit_times(targets.__getitem__, goal, outside))
    assert {0, 1, 2, 3, "change", "cycle", "none"} <= seen


def test_kernel_walks_only_the_cells_that_can_fail(monkeypatch):
    """check_fts walks basin - goal under the goal's digits; empirical_exit_time
    the region under its own; hitting_time walks nothing from a goal cell."""
    calls = []

    def spy(targets, label, starts):
        calls.append((label, list(starts)))
        return real(targets, label, starts)

    real = execution._exit_times
    monkeypatch.setattr(execution, "_exit_times", spy)
    n = 8
    goal = Region.from_cells(n, [5, 6, 7])
    model = chain_model(n, goal=goal, horizon=5)
    assert check_fts(model, model.vertex_of("walk"))
    assert calls == [(goal.digits(), [0, 1, 2, 3, 4])]
    sr = bundled_spec("surveying_robot").model
    for leaf in sr.action_vertices():
        doa = sr.leaves[leaf].doa
        calls.clear()
        assert check_fts(sr, leaf)
        walked = doa and not doa.basin.is_empty
        assert calls == ([(doa.goal.digits(), list((doa.basin - doa.goal).cells()))] if walked else [])
    region = Region.from_cells(n, [1, 3, 4])
    calls.clear()
    assert empirical_exit_time(model, region).steps == 2
    assert calls == [(region.digits(), [1, 3, 4])]
    calls.clear()
    assert hitting_time(model, 6, goal, 0) == 0
    assert calls == []
    assert hitting_time(model, 2, goal, 5) == 3
    assert calls == [(goal.digits(), [2])]


def test_closed_loop_map_matches_per_cell_tick(rng):
    seen = set()
    for _ in range(60):
        n = rng.choice([5, 9, 16, 40])
        model = random_loop_model(rng, n)
        want = []
        for x in range(n):
            leaf, _status = tick(model, x)
            data = model.leaves[leaf]
            want.append(data.controller.next(x) if data.kind is NodeKind.ACTION else None)
        assert list(model.closed_loop()) == want
        assert want == [naive_loop_step(model, x) for x in range(n)]
        seen.update(t is None for t in want)
    # the corpus has cells where a Condition resolves and cells where an action runs
    assert seen == {True, False}
