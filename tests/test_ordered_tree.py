"""Closure, composition, and derived-order tests for ordered trees."""

import pytest
from hypothesis import given, strategies as st

from btconverge.ordered_tree import (
    OrderedTree,
    Relation,
    TreeStructureError,
    compose,
    reflexive_transitive_closure,
)

from helpers import oracle_orders, random_tree_model, walk_tree_check

# The eight-vertex example tree: a root A with children B, C, D; B has
# children E, F and C has children G, H.
A, B, C, D, E, F, G, H = range(8)


@pytest.fixture()
def example_tree() -> OrderedTree:
    return OrderedTree([[B, C, D], [E, F], [G, H], [], [], [], [], []])


def test_closure_includes_transitive_and_reflexive_pairs(example_tree):
    orders = example_tree.orders()
    # ancestors reach descendants through intermediate vertices
    assert (A, E) in orders.parent_order
    assert (A, A) in orders.parent_order
    assert (B, E) in orders.parent_order
    assert (E, A) not in orders.parent_order


def test_closure_of_empty_relation_is_identity():
    rel = reflexive_transitive_closure(Relation(2))
    assert set(rel.pairs()) == {(0, 0), (1, 1)}


def test_closure_of_chain_yields_all_upper_pairs():
    rel = reflexive_transitive_closure(Relation(3, [(0, 1), (1, 2)]))
    assert set(rel.pairs()) == {(i, j) for i in range(3) for j in range(3) if i <= j}


def test_closure_is_idempotent_on_random_relations():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 8)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        closed = reflexive_transitive_closure(Relation(n, pairs))
        assert reflexive_transitive_closure(closed) == closed
        assert closed.is_reflexive() and closed.is_transitive()


def test_compose_produces_left_uncles(example_tree):
    orders = example_tree.orders()
    sib_strict = orders.sibling_order.strict()
    lu = compose(sib_strict, orders.parent_order)
    assert (B, H) in lu  # left sibling of an ancestor
    assert (G, H) in lu  # ancestor-or-self keeps direct left siblings
    assert lu == orders.left_uncle


def test_compose_with_empty_right_factor_is_empty():
    r = Relation(3, [(0, 1), (1, 2)])
    assert set(compose(r, Relation(3)).pairs()) == set()


def test_compose_identity_neutral():
    r = Relation(3, [(0, 1), (1, 2)])
    ident = Relation(3, [(i, i) for i in range(3)])
    assert compose(ident, r) == r
    assert compose(r, ident) == r


def test_left_to_right_chain(example_tree):
    lr = example_tree.orders().left_to_right
    assert (E, G) in lr and (G, H) in lr and (H, D) in lr
    # pairs comparable under the ancestor order are incomparable here
    assert (A, C) not in lr and (C, A) not in lr


def test_single_vertex_tree_orders():
    tree = OrderedTree([[]])
    orders = tree.orders()
    assert set(orders.left_uncle.pairs()) == set()
    assert set(orders.right_uncle.pairs()) == set()
    assert orders.parent_map[0] is None


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
    with pytest.raises(TreeStructureError, match=message):
        OrderedTree(children)


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
        strict_parent = orders.parent_order.strict()
        strict_sib_closed = orders.sibling_order.strict()
        for pair in strict_parent.pairs():
            assert pair not in strict_sib_closed
            assert (pair[1], pair[0]) not in strict_sib_closed


def test_parent_map_is_direct_parent(example_tree):
    pm = example_tree.orders().parent_map
    assert pm[E] == B and pm[B] == A and pm[A] is None


def test_derived_orders_match_path_chasing_oracle(rng):
    for _ in range(40):
        model = random_tree_model(rng, 4, max_depth=4, max_leaves=10)
        orders = model.tree.orders()
        expected = oracle_orders(model)
        assert set(orders.parent_order.pairs()) == expected["parent"]
        assert set(orders.sibling_order.pairs()) == expected["sibling"]
        assert set(orders.left_uncle.pairs()) == expected["left_uncle"]
        assert set(orders.right_uncle.pairs()) == expected["right_uncle"]
        assert set(orders.left_to_right.pairs()) == expected["left_to_right"]
        assert set(orders.right_to_left.pairs()) == expected["right_to_left"]


@given(st.integers(1, 7), st.data())
def test_relation_closure_properties(n, data):
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=15)
    )
    closed = reflexive_transitive_closure(Relation(n, pairs))
    assert closed.is_reflexive()
    assert closed.is_transitive()
    for pair in pairs:
        assert pair in closed
