"""Metadata propagation, tick, influence/operating regions, pathways."""

import itertools

import pytest

from btconverge.bt import (
    BTModel,
    ModelError,
    NodeKind,
    Status,
    action,
    condition,
    fal,
    seq,
    tick,
    tick_path,
    validate_abstraction,
)
from btconverge.statespace import Region, SuccessorMap, World

from helpers import bundled_spec, dual_model, naive_status, naive_tick_path, random_tree_model


@pytest.fixture(scope="module")
def eat():
    return bundled_spec("eat_tree")


def leaf_regions(model, name):
    leaf = model.leaves[model.vertex_of(name)]
    running = model.world.full_region() - leaf.success - leaf.failure
    return running, leaf.success, leaf.failure


def test_eat_tree_sequence_identities(eat):
    """The banana sequence combines its children's regions by gating on success."""
    m = eat.model
    analysis = m.analysis()
    _, s_peel, f_peel = leaf_regions(m, "peel_banana")
    r_ban, s_ban, f_ban = leaf_regions(m, "eat_banana")
    r_peel = m.world.full_region() - s_peel - f_peel
    epb = m.tree.parent[m.vertex_of("peel_banana")]
    assert analysis.success[epb] == s_peel & s_ban
    assert analysis.failure[epb] == f_peel | (s_peel & f_ban)
    assert analysis.running[epb] == r_peel | (s_peel & r_ban)


def test_eat_tree_root_identities(eat):
    m = eat.model
    analysis = m.analysis()
    _, s_apple, f_apple = leaf_regions(m, "eat_apple")
    _, s_peel, _ = leaf_regions(m, "peel_banana")
    _, s_ban, _ = leaf_regions(m, "eat_banana")
    root = m.tree.root
    assert analysis.success[root] == s_apple | (f_apple & s_peel & s_ban)


def test_eat_tree_influence(eat):
    m = eat.model
    analysis = m.analysis()
    _, _, f_apple = leaf_regions(m, "eat_apple")
    _, s_peel, _ = leaf_regions(m, "peel_banana")
    assert analysis.influence[m.vertex_of("eat_banana")] == f_apple & s_peel
    assert analysis.influence[m.tree.root] == m.world.full_region()


def test_eat_tree_pathways(eat):
    m = eat.model
    analysis = m.analysis()
    epb = m.tree.parent[m.vertex_of("peel_banana")]
    root = m.tree.root
    assert analysis.success_pathway == {
        m.vertex_of("eat_apple"),
        m.vertex_of("eat_banana"),
        epb,
        root,
    }
    assert analysis.failure_pathway == {
        m.vertex_of("peel_banana"),
        m.vertex_of("eat_banana"),
        epb,
        root,
    }


def test_eat_tree_tick_prefers_banana_after_apple_failure(eat):
    m = eat.model
    _, _, f_apple = leaf_regions(m, "eat_apple")
    _, s_peel, _ = leaf_regions(m, "peel_banana")
    r_ban, _, _ = leaf_regions(m, "eat_banana")
    target = f_apple & s_peel & r_ban
    assert not target.is_empty
    for x in target.cells():
        leaf, status = tick(m, x)
        assert m.names[leaf] == "eat_banana"
        assert status is Status.RUNNING


def test_single_leaf_tree_propagation_and_tick():
    world = World(6)
    s = Region.from_cells(6, [0, 1])
    f = Region.from_cells(6, [5])
    model = BTModel(world, seq(action("only", s, f, SuccessorMap.identity(6))))
    analysis = model.analysis()
    root = model.tree.root
    assert analysis.success[root] == s and analysis.failure[root] == f
    leaf, status = tick(model, 5)
    assert model.names[leaf] == "only" and status is Status.FAILURE


def test_condition_only_cascade_returns_final_leaf():
    world = World(4)
    c1 = condition("c1", Region.from_cells(4, [0, 1]))
    c2 = condition("c2", Region.from_cells(4, [0, 2]))
    model = BTModel(world, seq(c1, c2))
    leaf, status = tick(model, 0)
    assert model.names[leaf] == "c2" and status is Status.SUCCESS
    leaf, status = tick(model, 2)  # c1 fails: resolves at c1
    assert model.names[leaf] == "c1" and status is Status.FAILURE
    leaf, status = tick(model, 1)  # c1 holds, c2 fails: the else branch is c2
    assert model.names[leaf] == "c2" and status is Status.FAILURE


def test_propagation_matches_cascade_oracle(rng):
    for _ in range(60):
        model = random_tree_model(rng, rng.choice([6, 12, 24]))
        analysis = model.analysis()
        for v in range(model.n):
            for x in range(model.world.cell_count):
                st = naive_status(model, v, x)
                expected = (
                    analysis.success[v]
                    if st is Status.SUCCESS
                    else analysis.failure[v]
                    if st is Status.FAILURE
                    else analysis.running[v]
                )
                assert x in expected


def test_tick_status_matches_root_regions(rng):
    for _ in range(30):
        model = random_tree_model(rng, 16)
        analysis = model.analysis()
        root = model.tree.root
        for x in range(model.world.cell_count):
            _leaf, status = tick(model, x)
            region = {
                Status.SUCCESS: analysis.success[root],
                Status.FAILURE: analysis.failure[root],
                Status.RUNNING: analysis.running[root],
            }[status]
            assert x in region


def test_tick_path_matches_naive_descent(rng):
    models = [random_tree_model(rng, 10) for _ in range(30)]
    models += [deep_tree_model(rng, levels, n_cells=64) for levels in (1, 2, 7, 40)]
    for model in models:
        for x in range(model.world.cell_count):
            assert tick_path(model, x) == naive_tick_path(model, x)


def test_tick_regions_match_naive_descent(rng):
    """Every vertex's tick region is the set of cells whose naive tick path passes through it."""
    models = [random_tree_model(rng, rng.choice([6, 12, 24])) for _ in range(30)]
    models += [deep_tree_model(rng, levels, n_cells=64) for levels in (1, 2, 7, 40)]
    for model in models:
        cells = model.world.cell_count
        through = [[] for _ in range(model.n)]
        for x in range(cells):
            for v in naive_tick_path(model, x):
                through[v].append(x)
        reached = model.analysis().reached
        assert reached == tuple(Region.from_cells(cells, xs) for xs in through)
        leaves = model.leaf_vertices()
        assert sum(len(reached[v]) for v in leaves) == cells
        union = Region.empty(cells)
        for v in leaves:
            union |= reached[v]
        assert union == model.world.full_region()


@pytest.mark.parametrize("offset", [-1, 0, 5])
def test_tick_outside_universe_raises(eat, offset):
    m = eat.model
    x = offset if offset < 0 else m.world.cell_count + offset
    for resolve in (tick, tick_path):
        with pytest.raises(ModelError, match=f"cell {x} outside universe of 27 cells"):
            resolve(m, x)


def deep_tree_model(rng, levels, n_cells=256):
    """A Sequence/Fallback spine nested ``levels`` deep, with leaf siblings.

    The deeper subtree is the last child at every level but one, where it
    comes first, so the spine's bottom stays on one pathway.  A leaf's
    region that gates its later siblings (success under a Sequence,
    failure under a Fallback) misses at most one cell, so influence
    regions stay nonempty down to the bottom.  The bottom leaf is "leaf0".
    """
    world = World(n_cells)
    names = itertools.count()

    def leaf(gate_is_success):
        name = f"leaf{next(names)}"
        gate = Region.full(n_cells) - Region.from_cells(
            n_cells, rng.sample(range(n_cells), rng.randint(0, 1))
        )
        other = Region(n_cells, rng.getrandbits(n_cells)) - gate
        s, f = (gate, other) if gate_is_success else (other, gate)
        if rng.random() < 0.3:
            return condition(name, s, s.complement())
        return action(name, s, f, SuccessorMap.identity(n_cells))

    node = leaf(rng.random() < 0.5)
    first_at = rng.randrange(levels)
    for level in range(levels):
        is_seq = rng.random() < 0.5
        if level == first_at:
            kids = [node] + [leaf(is_seq) for _ in range(rng.randint(1, 2))]
        else:
            kids = [leaf(is_seq) for _ in range(rng.randint(0, 2))] + [node]
        node = seq(*kids) if is_seq else fal(*kids)
    return BTModel(world, node)


def assert_matches_uncle_enumeration(model):
    """Influence and pathways against the uncle orders, pair by pair."""
    analysis = model.analysis()
    orders = model.tree.orders()  # bit i of row j: (j, i) is in the order
    lu, ru = orders.left_uncle, orders.right_uncle
    parent_kind = [None if p is None else model.kinds[p] for p in model.tree.parent]
    for i in range(model.n):
        expected = model.world.full_region()
        seq_right_uncle = fal_right_uncle = False
        for j in range(model.n):
            if lu[j] >> i & 1:
                if parent_kind[j] is NodeKind.SEQUENCE:
                    expected &= analysis.success[j]
                elif parent_kind[j] is NodeKind.FALLBACK:
                    expected &= analysis.failure[j]
            if ru[j] >> i & 1:
                seq_right_uncle |= parent_kind[j] is NodeKind.SEQUENCE
                fal_right_uncle |= parent_kind[j] is NodeKind.FALLBACK
        assert analysis.influence[i] == expected
        assert (i in analysis.success_pathway) == (not seq_right_uncle)
        assert (i in analysis.failure_pathway) == (not fal_right_uncle)


def test_influence_matches_uncle_enumeration_oracle(rng):
    for _ in range(40):
        assert_matches_uncle_enumeration(random_tree_model(rng, 12))
    for levels in (100, 120):
        model = deep_tree_model(rng, levels)
        assert_matches_uncle_enumeration(model)
        analysis = model.analysis()
        bottom = model.vertex_of("leaf0")
        assert not analysis.influence[bottom].is_empty
        assert (bottom in analysis.success_pathway) != (bottom in analysis.failure_pathway)


def test_regions_partition_each_vertex(rng):
    for _ in range(30):
        model = random_tree_model(rng, 12)
        analysis = model.analysis()
        universe = model.world.full_region()
        for v in range(model.n):
            r, s, f = analysis.running[v], analysis.success[v], analysis.failure[v]
            assert (r | s | f) == universe
            assert r.isdisjoint(s) and r.isdisjoint(f) and s.isdisjoint(f)


def test_omega_soundness_tick_descends_through_vertex(rng):
    for _ in range(30):
        model = random_tree_model(rng, 12)
        analysis = model.analysis()
        for x in range(model.world.cell_count):
            path = set(tick_path(model, x))
            for v in range(model.n):
                if x in analysis.omega[v]:
                    assert v in path


def test_sibling_omegas_disjoint_and_inside_parent(rng):
    for _ in range(30):
        model = random_tree_model(rng, 12)
        analysis = model.analysis()
        for v in range(model.n):
            kids = model.tree.children[v]
            for i, a in enumerate(kids):
                assert analysis.omega[a].issubset(analysis.omega[v])
                for b in kids[i + 1 :]:
                    assert analysis.omega[a].isdisjoint(analysis.omega[b])


def test_duality_swaps_success_and_failure(rng):
    for _ in range(25):
        model = random_tree_model(rng, 10)
        dual = dual_model(model)
        a, d = model.analysis(), dual.analysis()
        for v in range(model.n):
            assert a.success[v] == d.failure[v]
            assert a.failure[v] == d.success[v]
            assert a.running[v] == d.running[v]


def test_leaf_abstraction_is_valid(rng):
    for _ in range(25):
        model = random_tree_model(rng, 12)
        assert validate_abstraction(model, model.leaf_vertices())


def test_root_abstraction_is_valid(rng):
    model = random_tree_model(rng, 12)
    assert validate_abstraction(model, [model.tree.root])


def test_root_plus_leaf_abstraction_is_invalid(eat):
    m = eat.model
    verdict = validate_abstraction(m, [m.tree.root, m.vertex_of("eat_apple")])
    assert not verdict
    assert verdict.overlaps


def test_model_validation_rejects_bad_leaves():
    world = World(4)
    overlap = Region.from_cells(4, [0])
    with pytest.raises(ValueError, match="overlapping"):
        BTModel(world, seq(action("x", overlap, overlap, SuccessorMap.identity(4))))
    with pytest.raises(ValueError, match="running region"):
        BTModel(world, seq(condition("c", Region.from_cells(4, [0]), Region.from_cells(4, [1]))))
    with pytest.raises(ValueError, match="controller"):
        BTModel(world, seq(action("a", overlap)))
