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

from helpers import closure_tree_check, oracle_orders, random_tree_model

# The seven-vertex example tree: a root A with children B, C, D; B has
# children E, F and C has children G, H.
A, B, C, D, E, F, G, H = range(8)


@pytest.fixture()
def example_tree() -> OrderedTree:
    return OrderedTree.from_children(
        {A: [B, C, D], B: [E, F], C: [G, H]}, 8
    )


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
    tree = OrderedTree(1, [], [])
    orders = tree.orders()
    assert set(orders.left_uncle.pairs()) == set()
    assert set(orders.right_uncle.pairs()) == set()
    assert orders.parent_map[0] is None


@pytest.mark.parametrize(
    "n, parents, siblings, message",
    [
        (3, [(1, 0), (2, 0), (0, 1)], [(1, 2)], "root"),
        (3, [(1, 0), (1, 2)], [], "two parents"),
        (3, [(1, 0), (2, 1)], [(1, 2)], "sibling edge"),
        (4, [(1, 0), (2, 0), (3, 0)], [(1, 2)], "sibling-ordered"),
        (3, [(1, 0), (2, 0)], [(1, 2), (2, 1)], "cycle"),
    ],
)
def test_malformed_trees_are_rejected(n, parents, siblings, message):
    with pytest.raises(TreeStructureError, match=message):
        OrderedTree(n, parents, siblings)


def random_tree_edges(rng, n):
    """Random ordered tree: consecutive sibling edges plus transitively redundant ones."""
    order = list(range(n))
    rng.shuffle(order)
    parents, groups = [], {}
    for k in range(1, n):
        child, par = order[k], order[rng.randrange(k)]
        parents.append((child, par))
        groups.setdefault(par, []).append(child)
    siblings = []
    for group in groups.values():
        rng.shuffle(group)
        siblings += zip(group, group[1:])
        for _ in range(rng.randint(0, 2)):
            if len(group) >= 3:
                i, j = sorted(rng.sample(range(len(group)), 2))
                siblings.append((group[i], group[j]))
    return parents, siblings


def mutate_tree_edges(rng, n, parents, siblings):
    """One random defect (or a harmless sibling self-loop) applied to valid edges."""
    parents, siblings = list(parents), list(siblings)
    kind = rng.choice(
        ["none", "drop", "reverse", "swap", "self", "random", "reparent", "root", "second"]
    )
    parent = dict(parents)
    if kind == "drop" and siblings:
        siblings.remove(rng.choice(siblings))
    elif kind == "reverse" and siblings:
        a, b = rng.choice(siblings)
        siblings.append((b, a))
    elif kind == "swap" and siblings:
        a, b = siblings.pop(rng.randrange(len(siblings)))
        siblings.append((b, a))
    elif kind == "self" and parents:
        v = rng.choice(parents)[0]
        siblings.append((v, v))
    elif kind == "random":
        siblings.append((rng.randrange(n), rng.randrange(n)))
    elif kind == "reparent" and parents:
        u = rng.choice(parents)[0]
        below = [v for v in range(n) if v != u and u in _ancestors(parent, v)]
        if below:
            parents.remove((u, parent[u]))
            parents.append((u, rng.choice(below)))
    elif kind == "root" and parents:
        parents.remove(rng.choice(parents))
    elif kind == "second" and parents:
        u = rng.choice(parents)[0]
        other = rng.choice([v for v in range(n) if v not in (u, parent[u])] or [u])
        if other != u:
            parents.append((u, other))
    return parents, siblings


def _ancestors(parent, v):
    out = []
    while v in parent and v not in out:
        out.append(v)
        v = parent[v]
    return out


ERROR_TEXT = {
    "range": "outside vertex range",
    "overlap": "overlap",
    "self-loop": "self-loop parent edge",
    "two-parents": "two parents",
    "root": "exactly one root",
    "sibling-edge": "does not join children of one parent",
    "sibling-cycle": "sibling edges contain a cycle",
}


def test_linear_validation_matches_closure_check(rng):
    for _ in range(400):
        n = rng.randint(1, 12)
        parents, siblings = random_tree_edges(rng, n)
        for _ in range(rng.randint(1, 2)):  # two defects test which one is reported
            parents, siblings = mutate_tree_edges(rng, n, parents, siblings)
        expected = closure_tree_check(n, parents, siblings)
        try:
            tree = OrderedTree(n, parents, siblings)
        except TreeStructureError as exc:
            message = str(exc)
            assert expected[0] == "error", (n, parents, siblings, message)
            reason, detail = expected[1], expected[2]
            if reason == "cycle":
                assert message == f"parent edges contain a cycle through {detail}"
            elif reason == "unordered":
                par, bad = detail
                words = message.split()
                a, b, got_par = int(words[1]), int(words[3]), int(words[5])
                assert message.endswith("are not sibling-ordered")
                assert got_par == par and (a, b) in bad
            else:
                assert ERROR_TEXT[reason] in message
        else:
            assert expected == ("ok", tree.children), (n, parents, siblings)


def test_validation_accepts_a_deep_tree():
    # 2,000 nested levels: no recursion, no per-vertex walk to the root
    n = 4001
    children = {v: [v + 1, v + 2] for v in range(0, n - 1, 2)}
    tree = OrderedTree.from_children(children, n)
    assert tree.children[0] == (1, 2) and tree.parent[n - 1] == n - 3


def test_parent_and_sibling_edges_must_not_overlap():
    with pytest.raises(TreeStructureError, match="overlap"):
        OrderedTree(2, [(1, 0)], [(1, 0)])


def test_strict_orders_are_complementary(rng):
    for _ in range(30):
        model = random_tree_model(rng, 4, max_depth=4, max_leaves=8)
        orders = model.orders()
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
        orders = model.orders()
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
