"""Region algebra, step bound, and neighboring predicate tests."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from btconverge import cli
from btconverge.statespace import Region, StepError, SuccessorMap, World, WorldError, step_bound

from helpers import oracle_neighboring


def cells(region: Region) -> set[int]:
    return set(region.cells())


def test_union_intersection_basics():
    a = Region.from_cells(5, [0, 1])
    b = Region.from_cells(5, [1, 2])
    assert cells(a | b) == {0, 1, 2}
    assert cells(a & b) == {1}
    assert cells(a - b) == {0}


def test_complement_of_empty_is_universe():
    assert cells(Region.empty(5).complement()) == {0, 1, 2, 3, 4}


def test_mismatched_universes_rejected():
    with pytest.raises(WorldError):
        Region.empty(4) | Region.empty(5)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_difference_union_recovers_left_operand(a_mask, b_mask):
    a, b = Region(64, a_mask), Region(64, b_mask)
    assert ((a - b) | (a & b)) == a


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_de_morgan(a_mask, b_mask):
    a, b = Region(32, a_mask), Region(32, b_mask)
    assert (a | b).complement() == (a.complement() & b.complement())


def test_region_subset_and_disjoint():
    a = Region.from_cells(6, [0, 1])
    assert a.issubset(Region.from_cells(6, [0, 1, 2]))
    assert a.isdisjoint(Region.from_cells(6, [3]))
    assert not a.isdisjoint(Region.from_cells(6, [1]))


def test_successor_map_validation():
    with pytest.raises(WorldError):
        SuccessorMap([0, 5])
    m = SuccessorMap([1, 0])
    assert m.next(0) == 1
    assert cells(m.image(Region.from_cells(2, [0, 1]))) == {0, 1}


def line_world(n: int) -> World:
    return World(n, coords=[(float(x),) for x in range(n)])


def test_step_bound_unit_moves():
    w = line_world(5)
    maps = [SuccessorMap([min(x + 1, 4) for x in range(5)])]
    assert step_bound(w, maps) == 1.0


def test_step_bound_identity_is_zero():
    w = line_world(5)
    assert step_bound(w, [SuccessorMap.identity(5)]) == 0.0


def naive_step_bound(world: World, maps: list[SuccessorMap]) -> float:
    """Reference: one distance call per cell, the largest kept."""
    delta = 0.0
    for m in maps:
        for c in range(world.cell_count):
            d = world.distance(c, m.next(c))
            if d > delta:
                delta = d
    return delta


def test_step_bound_matches_exhaustive_max(rng):
    side = 4
    n = side * side
    w = World(n, coords=[(float(c % side), float(c // side)) for c in range(n)])
    maps = [
        SuccessorMap([rng.randrange(n) for _ in range(n)]) for _ in range(3)
    ]
    expected = max(
        w.distance(c, m.next(c)) for m in maps for c in range(n)
    )
    assert step_bound(w, maps) == pytest.approx(expected)
    for _ in range(60):
        w = random_metric_world(rng)
        n = w.cell_count
        maps = [SuccessorMap.identity(n)] * rng.randrange(2)
        maps += [SuccessorMap([rng.randrange(n) for _ in range(n)]) for _ in range(rng.randrange(3))]
        rng.shuffle(maps)
        got = step_bound(w, iter(maps))
        assert got == naive_step_bound(w, maps) and type(got) is float, (w.coords, maps)
    with pytest.raises(WorldError, match="different universe"):
        step_bound(w, [SuccessorMap.identity(n), SuccessorMap.identity(n + 1)])


def test_step_bound_requires_coords():
    w = World(4, adjacency=[(0, 1)])
    with pytest.raises(WorldError, match="adjacency"):
        step_bound(w, [SuccessorMap.identity(4)])


def test_neighboring_metric_threshold():
    w = line_world(5)
    at = lambda x: Region.from_cells(5, [x])
    assert w.neighboring(at(0), at(1), 1.0)
    assert not w.neighboring(at(0), at(3), 1.0)
    # ties at exactly the bound count
    assert w.neighboring(at(0), at(2), 2.0)


def test_neighboring_rejects_empty_regions():
    w = line_world(3)
    with pytest.raises(WorldError, match="empty"):
        w.neighboring(Region.empty(3), Region.from_cells(3, [0]), 1.0)


def test_neighboring_overlap_always_true():
    w = line_world(4)
    a = Region.from_cells(4, [1, 2])
    b = Region.from_cells(4, [2, 3])
    assert w.neighboring(a, b, 0.0)


def test_neighboring_matches_all_pairs_oracle(rng):
    side = 5
    n = side * side
    w = World(n, coords=[(float(c % side), float(c // side)) for c in range(n)])
    for _ in range(40):
        a = Region(n, rng.getrandbits(n))
        b = Region(n, rng.getrandbits(n))
        if a.is_empty or b.is_empty:
            continue
        delta = rng.choice([1.0, math.sqrt(2), 2.0])
        expected = min(
            w.distance(p, q) for p in a.cells() for q in b.cells()
        ) <= delta
        assert w.neighboring(a, b, delta) == expected
        assert w.neighboring(b, a, delta) == expected  # symmetry


def test_neighboring_adjacency_mode():
    w = World(4, adjacency=[(0, 1), (2, 3)])
    at = lambda *xs: Region.from_cells(4, xs)
    assert w.neighboring(at(0), at(1))
    assert w.neighboring(at(1), at(0))  # symmetrized input
    assert not w.neighboring(at(0), at(2))
    assert w.neighboring(at(0, 2), at(2))  # overlap counts


def test_adjacency_rows_can_be_directed():
    w = World(2, adjacency=[(0, 1)], symmetric=False)  # 0 -> 1 only
    assert w.neighbors == ((1,), ())
    a = Region.from_cells(2, [0])
    b = Region.from_cells(2, [1])
    assert w.neighboring(a, b)
    assert not w.neighboring(b, a)


def test_world_rejects_both_coords_and_adjacency():
    with pytest.raises(WorldError):
        World(2, coords=[(0.0,), (1.0,)], adjacency=[(0, 1)])


def test_world_without_metric_or_adjacency_cannot_answer():
    w = World(3)
    with pytest.raises(WorldError):
        w.neighboring(Region.from_cells(3, [0]), Region.from_cells(3, [1]))


def test_step_bound_invariant_under_cell_relabeling(rng):
    n = 8
    coords = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)]
    targets = [rng.randrange(n) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    w1 = World(n, coords=coords)
    m1 = SuccessorMap(targets)
    # relabeled world: cell perm[i] plays the role of old cell i
    coords2 = [None] * n
    targets2 = [0] * n
    for i in range(n):
        coords2[perm[i]] = coords[i]
        targets2[perm[i]] = perm[targets[i]]
    w2 = World(n, coords=coords2)
    m2 = SuccessorMap(targets2)
    assert step_bound(w1, [m1]) == pytest.approx(step_bound(w2, [m2]))


def random_metric_world(rng) -> World:
    """0-3 dimensions, 1-60 cells, lattices with duplicates or uniform floats."""
    dim = rng.randrange(4)
    n = rng.randrange(1, 61)
    scale = 10.0 ** rng.uniform(-6, 12)
    offset = rng.choice([0.0, rng.uniform(-1e6, 1e6)]) * scale
    if rng.random() < 0.5:
        side = rng.randrange(1, 6)
        coord = lambda: offset + rng.randrange(side) * scale
    else:
        coord = lambda: offset + rng.uniform(-1, 1) * scale
    return World(n, coords=[tuple(coord() for _ in range(dim)) for _ in range(n)])


def test_balls_match_all_pairs(rng):
    for _ in range(80):
        w = random_metric_world(rng)
        n, pts = w.cell_count, w.coords
        dists = {(p, q): math.dist(pts[p], pts[q]) for p in range(n) for q in range(p + 1, n)}
        spread = max(dists.values(), default=0.0)
        deltas = [0.0, 1e-9, rng.uniform(0, 1.5) * spread, math.inf, -math.inf, -1.0, math.nan]
        deltas += rng.sample(sorted(dists.values()), min(4, len(dists)))  # ties
        for delta in deltas:
            rows = [{c} for c in range(n)]
            for (p, q), d in dists.items():
                if d <= delta:
                    rows[p].add(q)
                    rows[q].add(p)
            assert w._balls(delta) == tuple(tuple(sorted(row)) for row in rows), (pts, delta)
            assert w.neighbors is None
            if not delta >= 0:
                continue
            for _ in range(5):
                a = Region(n, rng.getrandbits(n))
                b = Region(n, rng.getrandbits(n))
                if a.is_empty or b.is_empty:
                    continue
                nearest = min(math.dist(pts[p], pts[q]) for p in a.cells() for q in b.cells())
                assert w.neighboring(a, b, delta) == (nearest <= delta)


def test_balls_compare_only_adjacent_buckets(monkeypatch):
    side = 100
    n = side * side
    w = World(n, coords=[(float(c % side), float(c // side)) for c in range(n)])
    calls = 0
    real_dist = math.dist

    def counting_dist(p, q):
        nonlocal calls
        calls += 1
        return real_dist(p, q)

    monkeypatch.setattr(math, "dist", counting_dist)
    balls = w._balls(1.0)
    assert calls <= 10 * n  # the all-pairs loop makes n * (n - 1) / 2
    assert sum(map(len, balls)) == n + 2 * (2 * side * (side - 1))
    assert balls[side + 1] == (1, side, side + 1, side + 2, 2 * side + 1)


def test_balls_when_the_coordinate_spread_overflows():
    w = World(3, coords=[(-1e308,), (0.0,), (1e308,)])
    assert w._balls(1.0) == ((0,), (1,), (2,))
    assert w._balls(1e308) == ((0, 1), (0, 1, 2), (1, 2))
    assert w._balls(math.inf) == ((0, 1, 2),) * 3


def grid_slices(rng, side: int) -> tuple[World, list[Region]]:
    """A side x side grid with its cells relabelled, and contiguous regions
    of it: boxes and unions of two half planes, as a slice of a funnel grid is."""
    n = side * side
    perm = list(range(n))
    rng.shuffle(perm)  # cell perm[i] sits at grid position i
    coords = [None] * n
    for i, c in enumerate(perm):
        coords[c] = (float(i % side), float(i // side))
    w = World(n, coords=coords)
    regions = []
    for _ in range(6):
        x0, x1 = sorted(rng.randrange(side + 1) for _ in range(2))
        y0, y1 = sorted(rng.randrange(side + 1) for _ in range(2))
        box = lambda x, y: x0 <= x < x1 and y0 <= y < y1
        half = lambda x, y: x < x1 or y >= y1
        for inside in (box, half):
            regions.append(Region.where(n, lambda c: inside(*coords[c])))
    return w, regions


def test_metric_dilation_and_steps_match_the_definition(rng):
    """Metric dilate, steps_hold and check_steps against all pairs within
    delta, the cell itself always allowed, for every kind of delta."""
    cases = [(World(3, coords=[(-1e308,), (0.0,), (1e308,)]), None)]
    cases += [(random_metric_world(rng), None) for _ in range(50)]
    cases += [grid_slices(rng, rng.randrange(1, 13)) for _ in range(10)]
    for w, slices in cases:
        n, pts = w.cell_count, w.coords
        dists = sorted({math.dist(p, q) for p in pts for q in pts})
        deltas = [0.0, 1e-9, 1.0, math.inf, -1.0, -math.inf, math.nan]
        deltas += [rng.uniform(0, 1.5) * dists[-1], *rng.sample(dists, min(3, len(dists)))]
        regions = slices or [Region(n, rng.getrandbits(n)) for _ in range(6)]
        regions += [Region.empty(n), Region.full(n), Region.from_cells(n, [rng.randrange(n)])]
        for delta in deltas:
            within = lambda p, q: math.dist(pts[p], pts[q]) <= delta
            for a in regions:
                want = [q for q in range(n) if q in a or any(within(p, q) for p in a.cells())]
                assert list(w.dilate(a, delta).cells()) == want, (pts, delta, a)
            for _ in range(4):
                targets = [rng.randrange(n) if rng.random() < 0.2 else c for c in range(n)]
                if rng.random() < 0.5:  # targets within delta, so the check often holds
                    targets = [rng.choice([q for q in range(n) if within(c, q)] or [c]) for c in range(n)]
                cells = rng.sample(range(n), rng.randrange(1, n + 1))
                bad = [c for c in cells if not (targets[c] == c or within(c, targets[c]))]
                assert w.steps_hold(cells, targets, delta) == (not bad)
                if not bad:
                    w.check_steps(cells, targets, delta, "leaf 'x'")
                    continue
                c, t = bad[0], targets[bad[0]]
                why = f"{math.dist(pts[c], pts[t])} apart, past delta = {delta}"
                with pytest.raises(StepError) as err:
                    w.check_steps(cells, targets, delta, "leaf 'x'")
                assert str(err.value) == f"leaf 'x' moves cell {c} to {t}: {why}"


def test_metric_dilation_tests_only_the_boundary(monkeypatch):
    side = 100
    n = side * side
    w = World(n, coords=[(float(c % side), float(c // side)) for c in range(n)])
    half = Region.where(n, lambda c: c % side < side // 2)
    calls = 0
    real_dist = math.dist

    def counting_dist(p, q):
        nonlocal calls
        calls += 1
        return real_dist(p, q)

    monkeypatch.setattr(math, "dist", counting_dist)
    grown = w.dilate(half, 1.0)
    assert calls <= 10 * side  # a test per cell and neighbour makes over 4 * n
    assert grown == Region.where(n, lambda c: c % side <= side // 2)


def test_metric_check_builds_no_balls(monkeypatch, capsys):
    def no_balls(self, delta):
        raise AssertionError("a per-cell ball was built")

    monkeypatch.setattr(World, "_balls", no_balls)
    for name in ("gridworld", "surveying_robot"):
        assert cli.main(["check", "--spec", f"bundled:{name}", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "certified"


def test_world_rejects_non_finite_coordinates():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(WorldError, match="cell 1 .* not finite"):
            World(2, coords=[(0.0, 0.0), (1.0, bad)])


def bit_clearing_cells(mask: int) -> list[int]:
    """Reference: clear the lowest set bit until none is left."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_cells_match_bit_clearing_reference(rng):
    masks = [0, 1, 1 << 63, 1 << 64, 1 << 39_999, (1 << 40_000) - 1]
    for n in (1, 7, 64, 65, 1000, 40_000):
        for density in (0.001, 0.05, 0.2, 0.25, 0.3, 0.5, 0.95):
            masks.append(sum(1 << c for c in range(n) if rng.random() < density))
    for mask in masks:
        region = Region(max(mask.bit_length(), 1), mask)
        cells_iter = region.cells()
        assert iter(cells_iter) is cells_iter  # lazy, not a list
        assert list(cells_iter) == bit_clearing_cells(mask)


def test_digits_index_every_cell(rng):
    for n in (1, 5, 64, 65, 300):
        for _ in range(10):
            region = Region(n, rng.getrandbits(n) & rng.getrandbits(n))
            digits = region.digits()
            assert len(digits) == n
            assert [c for c in range(n) if digits[c] == "1"] == bit_clearing_cells(region.mask)


def random_adjacency_world(rng) -> World:
    n = rng.randrange(1, 40)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
    return World(n, adjacency=pairs, symmetric=rng.random() < 0.5)


def test_dilate_matches_pairwise_definition(rng):
    """Dilation and neighboring against the cell-pair definition, overlapping regions included."""
    for _ in range(60):
        if rng.random() < 0.5:
            w = random_metric_world(rng)
            dists = sorted(math.dist(p, q) for p in w.coords for q in w.coords)
            deltas = [0.0, rng.choice(dists), rng.uniform(0, 1.5) * dists[-1], math.inf]
        else:
            w, deltas = random_adjacency_world(rng), [None]
        n = w.cell_count
        for delta in deltas:
            for _ in range(6):
                a = Region(n, rng.getrandbits(n) or 1)
                b = Region(n, rng.getrandbits(n) or 1)
                if rng.random() < 0.3:
                    b = b | a  # overlapping regions always neighbor
                one = lambda q: oracle_neighboring(w, a, Region.from_cells(n, [q]), delta)
                assert list(w.dilate(a, delta).cells()) == [q for q in range(n) if one(q)]
                assert w.neighboring(a, b, delta) == oracle_neighboring(w, a, b, delta)


def test_adjacency_neighbour_lists_match_pair_definition(rng):
    """Symmetric and directed adjacency lists against the pairs they encode."""
    for _ in range(40):
        n = rng.randrange(1, 40)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n))]
        for symmetric in (True, False):
            w = World(n, adjacency=pairs, symmetric=symmetric)
            related = set(pairs) | ({(q, p) for p, q in pairs} if symmetric else set())
            want = tuple(tuple(q for q in range(n) if (p, q) in related) for p in range(n))
            assert w.neighbors == want
            for _ in range(6):
                a = Region(n, rng.getrandbits(n) or 1)
                one = lambda q: oracle_neighboring(w, a, Region.from_cells(n, [q]), None)
                assert list(w.dilate(a).cells()) == [q for q in range(n) if one(q)]


def test_worlds_built_from_neighbour_lists():
    w = World(3, adjacency=[(0, 2), (2, 0), (0, 1)], symmetric=False)
    assert w.neighbors == ((1, 2), (), (0,))
    assert w.dilate(Region(3, 0b010)) == Region(3, 0b010)
    assert w.dilate(Region(3, 0b100)) == Region(3, 0b101)
    with pytest.raises(WorldError, match="at most one"):
        World(2, coords=[(0.0,), (1.0,)], adjacency=[(0, 1)])


def test_adjacency_pairs_are_read_on_first_use():
    """A huge universe with a few pairs costs nothing until its neighbour lists are needed."""
    w = World(10**12, adjacency=[(0, 1)])
    assert w.cell_count == 10**12
    with pytest.raises(WorldError, match="outside universe"):
        World(3, adjacency=[(0, 3)])


def test_from_cells_matches_shifts(rng):
    for n in (1, 63, 64, 65, 1000, 5000, 10**12):
        low = min(n, 5000)  # the mask of a huge universe's low cells is small
        for size in (0, 1, low // 64, low // 64 + 1, low // 2, 2 * low):
            cells = [rng.randrange(low) for _ in range(size)]
            want = 0
            for c in cells:
                want |= 1 << c
            assert Region.from_cells(n, cells).mask == want
            assert Region.from_cells(n, iter(cells)).mask == want
    for bad in (-1, 5):
        with pytest.raises(WorldError, match=f"cell {bad} outside universe of 5 cells"):
            Region.from_cells(5, [0, 1, 2, 3, 4, bad, 0])
        with pytest.raises(WorldError, match=f"cell {bad} outside"):
            Region.from_cells(5, [bad])
    with pytest.raises(WorldError, match=f"cell {10**12} outside universe of {10**12} cells"):
        Region.from_cells(10**12, [0, 10**12])


def test_successor_map_names_the_first_target_outside():
    for targets, message in (([1, -1, 9], "cell 1 is -1"), ((0, 1, 3), "cell 2 is 3")):
        with pytest.raises(WorldError, match=f"successor of {message}, outside universe"):
            SuccessorMap(targets)
    assert SuccessorMap(iter([2, 0, 1])).targets == (2, 0, 1)


def test_dilate_needs_delta_or_adjacency():
    metric = World(3, coords=[(0.0,), (1.0,), (2.0,)])
    with pytest.raises(WorldError, match="delta"):
        metric.dilate(Region(3, 1))
    with pytest.raises(WorldError, match="neither"):
        World(3).dilate(Region(3, 1))
    assert metric.dilate(Region(3, 0), 1.0).is_empty
