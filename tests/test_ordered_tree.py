"""Validation and derived-order tests for ordered trees."""

import pytest

from btconverge.ordered_tree import OrderedTree, TreeStructureError
from btconverge.statespace import BTConvergeError

from helpers import oracle_orders, random_tree_model, walk_tree_check

# The eight-vertex example tree: a root A with children B, C, D; B has
# children E, F and C has children G, H.
A, B, C, D, E, F, G, H = range(8)


@pytest.fixture()
def example_tree() -> OrderedTree:
    return OrderedTree([[B, C, D], [E, F], [G, H], [], [], [], [], []])


def pairs(rows):
    """The (i, j) pairs of an order given as bitset rows: bit j of rows[i]."""
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            yield (i, low.bit_length() - 1)
            row ^= low


def holds(rows, i, j):
    return bool(rows[i] >> j & 1)


def test_closure_includes_transitive_and_reflexive_pairs(example_tree):
    po = example_tree.orders().parent_order
    # ancestors reach descendants through intermediate vertices
    assert holds(po, A, E) and holds(po, A, A) and holds(po, B, E)
    assert not holds(po, E, A)


def test_compose_produces_left_uncles(example_tree):
    lu = example_tree.orders().left_uncle
    assert holds(lu, B, H)  # left sibling of an ancestor
    assert holds(lu, G, H)  # ancestor-or-self keeps direct left siblings


def test_left_to_right_chain(example_tree):
    lr = example_tree.orders().left_to_right
    assert holds(lr, E, G) and holds(lr, G, H) and holds(lr, H, D)
    # pairs comparable under the ancestor order are incomparable here
    assert not holds(lr, A, C) and not holds(lr, C, A)


def test_single_vertex_tree_orders():
    tree = OrderedTree([[]])
    assert tree.orders() == ((1,), (1,), (0,), (0,), (0,), (0,))
    assert tree.parent == (None,)


@pytest.mark.parametrize(
    "children, message",
    [
        ([], "at least one vertex"),
        ([[1], [0]], "exactly one root, found \\[\\]"),
        ([[1], [], []], "exactly one root, found \\[0, 2\\]"),
        ([[1, 2], [2], []], "vertex 2 is listed as a child twice"),
        ([[1, 1], []], "vertex 1 is listed as a child twice"),
        ([[1], [], [3], [2]], "cycle through 2"),
        ([[1], [], [2]], "cycle through 2"),
        ([[1, 3], []], "child 3 of 0 outside vertex range"),
        ([[1, -1], []], "child -1 of 0 outside vertex range"),
    ],
    ids=[
        "empty", "no-root", "two-roots", "two-parents", "twice-in-one-list",
        "cycle", "self-child", "past-n", "negative",
    ],
)
def test_malformed_child_lists_are_rejected(children, message):
    with pytest.raises(TreeStructureError, match=message) as info:
        OrderedTree(children)
    # one of the package's own errors, which the CLI reports, and still a ValueError
    assert isinstance(info.value, BTConvergeError) and isinstance(info.value, ValueError)


def random_child_lists(rng, n):
    """A random ordered tree over shuffled vertex ids, as child lists."""
    order = list(range(n))
    rng.shuffle(order)
    children = [[] for _ in range(n)]
    for k in range(1, n):
        children[order[rng.randrange(k)]].append(order[k])
    for group in children:
        rng.shuffle(group)
    return children


def break_child_lists(rng, children):
    """Valid child lists with at most one defect: (lists, defect kind)."""
    children = [list(group) for group in children]
    n = len(children)
    parent = {c: p for p, group in enumerate(children) for c in group}
    kind = rng.choice(["none", "duplicate", "self", "range", "orphan", "adopt"])
    if kind in ("duplicate", "orphan", "adopt") and not parent:
        return children, "none"
    v = rng.choice(list(parent)) if parent else 0
    if kind == "duplicate":  # listed under a second parent, or twice under its own
        group = children[rng.randrange(n)]
        group.insert(rng.randint(0, len(group)), v)
    elif kind == "self":  # its own only child: a one-vertex cycle, or no root left
        v = rng.randrange(n)
        if v in parent:
            children[parent[v]].remove(v)
        children[v].append(v)
    elif kind == "range":
        children[rng.randrange(n)].append(rng.choice([n, n + 7, -1]))
    elif kind == "orphan":  # a second root
        children[parent[v]].remove(v)
    elif kind == "adopt":  # moved below one of its own descendants: a longer cycle
        below, todo = [], list(children[v])
        while todo:
            w = todo.pop()
            below.append(w)
            todo.extend(children[w])
        if not below:
            return children, "none"
        children[parent[v]].remove(v)
        children[rng.choice(below)].append(v)
    return children, kind


ERROR_TEXT = {
    "empty": "tree needs at least one vertex",
    "range": "outside vertex range",
    "twice": "is listed as a child twice",
    "root": "expected exactly one root",
}


def test_child_list_validation_matches_walk_to_root(rng):
    seen = set()
    for _ in range(600):
        children, kind = break_child_lists(rng, random_child_lists(rng, rng.randint(1, 12)))
        expected = walk_tree_check(children)
        seen.add((kind, expected[0] if expected[0] == "ok" else expected[1]))
        try:
            tree = OrderedTree(children)
        except TreeStructureError as exc:
            assert expected[0] == "error", (children, str(exc))
            if expected[1] == "cycle":
                assert str(exc) == f"child lists contain a cycle through {expected[2]}"
            else:
                assert ERROR_TEXT[expected[1]] in str(exc), (children, str(exc))
        else:
            assert expected == ("ok", tree.parent), children
            assert tree.children == tuple(map(tuple, children))
            assert tree.root == tree.parent.index(None)
    # every defect was drawn and every outcome of the walk was reached
    assert {kind for kind, _ in seen} >= {"none", "duplicate", "self", "range", "orphan", "adopt"}
    assert {outcome for _, outcome in seen} >= {"ok", "range", "twice", "root", "cycle"}


def test_validation_accepts_a_deep_tree():
    # 2,000 nested levels: no recursion, no per-vertex walk to the root
    n = 4001
    children = [[v + 1, v + 2] if v % 2 == 0 and v < n - 1 else [] for v in range(n)]
    tree = OrderedTree(children)
    assert tree.children[0] == (1, 2) and tree.parent[n - 1] == n - 3


def test_strict_orders_are_complementary(rng):
    for _ in range(30):
        model = random_tree_model(rng, 4, max_depth=4, max_leaves=8)
        orders = model.tree.orders()
        for i, j in pairs(orders.parent_order):
            if i != j:
                assert not holds(orders.sibling_order, i, j)
                assert not holds(orders.sibling_order, j, i)


def test_parent_map_is_direct_parent(example_tree):
    pm = example_tree.parent
    assert pm[E] == B and pm[B] == A and pm[A] is None


def deep_child_lists(rng, depth):
    """A random tree at least ``depth`` levels deep, over shuffled vertex ids."""
    order = list(range(depth + 1 + rng.randint(0, 2 * depth)))
    rng.shuffle(order)
    children = [[] for _ in order]
    for k in range(1, len(order)):  # a spine first, then each vertex under an earlier one
        children[order[k - 1 if k <= depth else rng.randrange(k)]].append(order[k])
    for group in children:
        rng.shuffle(group)
    return children


def test_derived_orders_match_path_chasing_oracle(rng):
    trees = [random_tree_model(rng, 4, max_depth=4, max_leaves=10).tree for _ in range(40)]
    trees += [OrderedTree(random_child_lists(rng, rng.randint(1, 14))) for _ in range(40)]
    trees += [OrderedTree(deep_child_lists(rng, rng.randint(20, 30))) for _ in range(4)]
    for tree in trees:
        orders = tree.orders()
        expected = oracle_orders(tree)
        assert set(pairs(orders.parent_order)) == expected["parent"]
        assert set(pairs(orders.sibling_order)) == expected["sibling"]
        assert set(pairs(orders.left_uncle)) == expected["left_uncle"]
        assert set(pairs(orders.right_uncle)) == expected["right_uncle"]
        assert set(pairs(orders.left_to_right)) == expected["left_to_right"]
        assert set(pairs(orders.right_to_left)) == expected["right_to_left"]


def test_parent_and_sibling_orders_are_partial_orders(rng):
    trees = [OrderedTree(random_child_lists(rng, rng.randint(1, 12))) for _ in range(30)]
    trees += [OrderedTree(deep_child_lists(rng, rng.randint(10, 15))) for _ in range(3)]
    for tree in trees:
        orders = tree.orders()
        for rows in (orders.parent_order, orders.sibling_order):
            assert len(rows) == tree.n
            for i, j in pairs(rows):
                assert holds(rows, i, i) and holds(rows, j, j)  # reflexive
                assert i == j or not holds(rows, j, i)  # antisymmetric
                assert rows[j] & ~rows[i] == 0  # transitive: j's successors are i's
