"""Document round-trips, validation diagnostics, CLI contract."""

import argparse
import json
import os
import re

import pytest

from btconverge.bt import BTModel
from btconverge.cli import EXAMPLES, build_parser, bundled_names, main
from btconverge.execution import FtsVerdict
from btconverge.prepares import FtsPreconditionError, certify_convergence
from btconverge.specfile import (
    SpecError,
    build_document,
    dump_document,
    library_document,
    parse_document,
    substitution_block,
)

from helpers import bundled_document, bundled_spec, staged_chain_library


def assert_models_equal(a: BTModel, b: BTModel) -> None:
    assert a.n == b.n
    assert a.kinds == b.kinds
    assert a.names == b.names
    assert a.world.cell_count == b.world.cell_count
    assert a.world.coords == b.world.coords
    assert a.world.neighbors == b.world.neighbors
    for v, leaf in a.leaves.items():
        other = b.leaves[v]
        assert leaf.success == other.success and leaf.failure == other.failure
        assert (leaf.controller is None) == (other.controller is None)
        if leaf.controller is not None:
            assert leaf.controller.targets == other.controller.targets
        assert (leaf.doa is None) == (other.doa is None)
        if leaf.doa is not None:
            assert leaf.doa.basin == other.doa.basin
            assert leaf.doa.goal == other.doa.goal
            assert leaf.doa.horizon == other.doa.horizon


@pytest.mark.parametrize("name", ["eat_tree", "surveying_robot", "patrol", "gridworld"])
def test_model_documents_round_trip(name):
    b = bundled_spec(name)
    doc = build_document(b.model, list(b.abstraction), b.delta)
    reparsed = parse_document(json.loads(dump_document(doc)))
    assert_models_equal(b.model, reparsed.model)
    assert reparsed.abstraction == list(b.abstraction)


def test_patrol_document_with_substitution_round_trips():
    b = bundled_spec("patrol")
    spec = b.substitution
    doc = build_document(
        b.model, list(b.abstraction), b.delta,
        substitution=substitution_block(spec, "mb_patrol"),
    )
    loaded = parse_document(json.loads(dump_document(doc)))
    got = loaded.substitution
    assert got.target == spec.target
    assert got.time_budget == spec.time_budget
    assert got.rok_success == spec.rok_success
    assert got.rr.success == spec.rr.success
    assert got.rr.doa.horizon == spec.rr.doa.horizon


def test_library_document_round_trips():
    manip = bundled_spec("mobile_manipulator")
    lib, root = manip.library, manip.library_root
    doc = library_document(lib, root)
    loaded = parse_document(json.loads(dump_document(doc)))
    assert loaded.library_root == root
    got = loaded.library
    assert set(got.actions) == set(lib.actions)
    assert set(got.conditions) == set(lib.conditions)
    for aid, entry in lib.actions.items():
        assert got.actions[aid].preconditions == entry.preconditions
        assert got.actions[aid].leaf.success == entry.leaf.success


def test_augmented_document_round_trips():
    from btconverge.substitution import substitute

    b = bundled_spec("patrol")
    result = substitute(b.model, b.substitution, base_delta=b.delta)
    doc = build_document(result.new_model)
    loaded = parse_document(json.loads(dump_document(doc)))
    assert_models_equal(result.new_model, loaded.model)


def random_json(rng, depth=0):
    """A random JSON value mixing the shapes documents use with the encoder's edge cases."""
    scalars = [
        lambda: rng.randint(-5, 5),
        lambda: rng.choice([-(2**70), 2**64 + 1, -1, 0, 10**30]),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([-0.0, 0.0, 1e300, -1e-300, 0.1, 1.5, float("nan"),
                            float("inf"), float("-inf"), rng.uniform(-1e6, 1e6)]),
        lambda: rng.choice(["", "a", "caf\u00e9", "\u2603 snow", "tab\tnew\nline",
                            "quote\" back\\slash", "\x00\x1f\x7f", "\U0001f600", "/"]),
    ]
    roll = rng.random()
    if depth >= 4 or roll < 0.35:
        return rng.choice(scalars)()
    if roll < 0.55:  # an int list, sometimes with a bool, float or nested list inside
        items = [rng.randint(-(2**40), 2**40) for _ in range(rng.randint(0, 6))]
        if items and rng.random() < 0.4:
            items[rng.randrange(len(items))] = rng.choice([True, False, 2.0, [], [1]])
        return items
    if roll < 0.75:
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = ["", "a", "B", "b", "caf\u00e9", "z\n", "\u2603", "10", "9"]
    return {k: random_json(rng, depth + 1) for k in rng.sample(keys, rng.randint(0, 5))}


def test_dump_document_matches_json_dumps_on_random_trees(rng):
    for _ in range(300):
        doc = {"root": random_json(rng)}
        assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for value in ([], {}, [[]], [{}], {"a": {}}, [True, 1], [1, True], (1, 2), [0.0, -0.0], [True, 1.0, -1]):
        doc = {"v": value}
        assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # int lists share one table of decimal texts per call: repeats within and
    # across lists, one-element lists, negatives, and ints past 2**63
    big = [2**63, -(2**63) - 1, 2**64 + 7, -(10**30)]
    for _ in range(50):
        pool = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))] + rng.sample(big, 2)
        lists = [
            [rng.choice(pool) for _ in range(rng.choice([1, 1, 2, 40, 300]))]
            for _ in range(rng.randint(1, 6))
        ]
        doc = {"lists": lists, "one": [rng.choice(pool)], "nested": {"x": lists[0], "y": [lists[-1]]}}
        assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for value in ([0], [-1], [2**63], [True], [False], [[7]], [7, [7]], [-0, 0, -0]):
        doc = {"v": value, "w": value}
        assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_document_cell_lists_match_region_cells(rng):
    from btconverge.bt import condition, seq
    from btconverge.statespace import Region, World

    for n in (1, 2, 63, 64, 65, 300):
        sparse = Region.from_cells(n, rng.sample(range(n), max(1, n // 20)))
        dense = Region(n, rng.getrandbits(n)) | Region.from_cells(n, [n - 1])
        regions = [Region.full(n), Region.empty(n), sparse, dense]
        model = BTModel(World(n), seq(*(condition(f"c{k}", r) for k, r in enumerate(regions))))
        got = [(entry["success"], entry["failure"]) for entry in build_document(model)["leaves"]]
        assert got == [(sorted(r.cells()), sorted(r.complement().cells())) for r in regions]


def program_documents():
    """The six bundled documents as read, the built documents and a patrol substitute output."""
    from btconverge.substitution import substitute

    docs = {name: bundled_document(name) for name in bundled_names()}
    docs.update(built_documents())
    b = bundled_spec("patrol")
    result = substitute(b.model, b.substitution, base_delta=b.delta)
    docs["patrol-substitute"] = build_document(result.new_model)
    return docs


def test_dump_document_matches_json_dumps_on_program_documents():
    docs = program_documents()
    assert len(docs) == 15
    for name, doc in docs.items():
        assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n", name


def interning_document(rng):
    """A leaves-and-tree document over a few cells whose region lists repeat.

    Every list is drawn from a pool of four cell lists, their complements
    and the full and empty lists; each occurrence is the pool's list object
    or an equal copy.  Actions reach the goal of their own success region,
    so a built document shares one array between a success and a goal.
    """
    from btconverge.specfile import FORMAT

    n = rng.randint(2, 12)
    full, empty = list(range(n)), []
    pool = [sorted(rng.sample(full, rng.randint(0, n))) for _ in range(4)]
    outside = [[c for c in full if c not in cells] for cells in pool]

    def occurrence(cells):
        return cells if rng.random() < 0.5 else list(cells)

    leaves = []
    for k in range(rng.randint(2, 6)):
        p = rng.randrange(len(pool))
        if rng.random() < 0.3:
            entry = {"name": f"c{k}", "kind": "condition", "success": occurrence(pool[p])}
            if rng.random() < 0.5:
                entry["failure"] = occurrence(outside[p])
            leaves.append(entry)
            continue
        own_basin = rng.random() < 0.5  # the basin is the success region, the failure all else
        leaves.append({
            "name": f"a{k}",
            "kind": "action",
            "success": occurrence(pool[p]),
            "failure": occurrence(outside[p] if own_basin else empty),
            "next": [rng.randrange(n) for _ in full],
            "doa": {
                "horizon": rng.randint(1, 3),
                "basin": occurrence(pool[p] if own_basin else full),
                "goal": occurrence(pool[p] if rng.random() < 0.8 else empty),
            },
        })
    tree = {"seq": [{"leaf": entry["name"]} for entry in leaves]}
    return {"format": FORMAT, "universe": {"cells": n}, "leaves": leaves, "tree": tree}


def region_fields(doc):
    """(JSON path, owning object, key) of each cell list in doc's leaves, in the order they are read."""
    for i, entry in enumerate(doc["leaves"]):
        for owner, key, path in (
            (entry, "success", f"leaves[{i}].success"),
            (entry, "failure", f"leaves[{i}].failure"),
            (entry.get("doa", {}), "basin", f"leaves[{i}].doa.basin"),
            (entry.get("doa", {}), "goal", f"leaves[{i}].doa.goal"),
        ):
            if key in owner:
                yield path, owner, key


def parsed_region(spec, doc, path):
    """The parsed region that path names."""
    i, field = re.fullmatch(r"leaves\[(\d+)\]\.(?:doa\.)?(\w+)", path).groups()
    data = spec.model.leaves[spec.model.vertex_of(doc["leaves"][int(i)]["name"])]
    return getattr(data.doa if ".doa." in path else data, field)


def test_region_interning_reads_each_list_as_its_own_cells(rng):
    """Each parsed region is its own list's cells, and equal lists, whether one
    object or copies, share one Region."""
    from btconverge.statespace import Region

    same = copies = 0
    for _ in range(200):
        doc = interning_document(rng)
        spec = parse_document(doc)
        n = doc["universe"]["cells"]
        earlier = {}  # cell tuple -> (the lists read so far, their region)
        for path, owner, key in region_fields(doc):
            cells, region = owner[key], parsed_region(spec, doc, path)
            assert region == Region.from_cells(n, cells), path
            lists, first = earlier.setdefault(tuple(cells), ([], region))
            assert region is first, path
            if lists:
                same += any(cells is other for other in lists)
                copies += all(cells is not other for other in lists)
            lists.append(cells)
    assert same >= 100 and copies >= 100, (same, copies)


def test_region_interning_refuses_a_bad_repeat_at_its_own_path(rng):
    """A repeat of a list already read that carries true for 1, or a cell
    outside the universe, is refused with the reader's message at that
    occurrence's JSON path: the type scan comes before the table, whose
    keys cannot tell True from 1."""
    tried = {"bool": 0, "range": 0}
    for _ in range(300):
        doc = interning_document(rng)
        n = doc["universe"]["cells"]
        seen, repeats = set(), []
        for path, owner, key in region_fields(doc):
            if tuple(owner[key]) in seen:
                repeats.append((path, owner, key))
            seen.add(tuple(owner[key]))
        if not repeats:
            continue
        path, owner, key = rng.choice(repeats)
        cells = list(owner[key])
        if 1 in cells and rng.random() < 0.5:
            at = cells.index(1)
            cells[at] = True
            message = f"{path}: expected integers, got True at [{at}]"
            tried["bool"] += 1
        else:
            bad = n + rng.randrange(3)
            cells.insert(rng.randint(0, len(cells)), bad)
            message = f"{path}: cell {bad} outside universe of {n} cells"
            tried["range"] += 1
        owner[key] = cells
        with pytest.raises(SpecError) as err:
            parse_document(doc)
        assert str(err.value) == message
    assert min(tried.values()) >= 30, tried


def test_writer_interning_dumps_a_shared_array_at_each_indent(rng):
    """A built document shares one cell array among its equal regions, here
    leaves[i].success and leaves[j].doa.goal at two indents, and the writer
    still gives json.dumps' text."""
    shared = 0
    for _ in range(200):
        built = build_document(parse_document(interning_document(rng)).model)
        goals = {id(entry["doa"]["goal"]) for entry in built["leaves"] if "doa" in entry}
        shared += any(id(entry["success"]) in goals for entry in built["leaves"] if entry["success"])
        assert dump_document(built) == json.dumps(built, indent=2, sort_keys=True) + "\n"
    assert shared >= 100


def built_documents():
    """Documents the writers build themselves, whose cell and target arrays are the writer's own."""
    from btconverge.backchain import build_bcbt

    from helpers import staged_chain_library

    docs = {}
    for name in bundled_names():
        spec = bundled_spec(name)
        if spec.model is not None:
            block = None
            if spec.substitution is not None:
                block = substitution_block(spec.substitution, bundled_document(name)["substitution"]["target"])
            docs[f"{name}-built"] = build_document(spec.model, spec.abstraction, spec.delta, block)
        if spec.library is not None:
            docs[f"{name}-library"] = library_document(spec.library, spec.library_root)
    lib, root = staged_chain_library(20)
    abstraction = [lib.actions[a].leaf.name for a in lib.action_ids()]
    docs["chain20-backchain"] = build_document(build_bcbt(lib, root).model, abstraction, 1.0)
    docs["chain20-library"] = library_document(lib, root)
    return docs


@pytest.mark.parametrize("name", bundled_names())
def test_loaded_spec_keeps_no_reference_to_the_decoded_document(name, monkeypatch):
    """Once load_path returns, the decoded JSON is garbage: the parsed spec
    holds only what was built from it."""
    import sys

    from btconverge import specfile

    decoded, real_load = [], specfile.json.load

    def keep(fh):
        decoded.append(real_load(fh))
        return decoded[0]

    monkeypatch.setattr(specfile.json, "load", keep)
    spec = specfile.load_path(os.path.join(EXAMPLES, f"{name}.json"))
    referrers = sys.getrefcount(decoded[0])  # outside an assert, which keeps its operands
    assert referrers == 2  # the list's slot and getrefcount's argument
    assert spec.world.cell_count == decoded[0]["universe"]["cells"]


def test_built_documents_parse_without_a_json_round_trip():
    for name, doc in built_documents().items():
        direct = parse_document(doc)
        reread = parse_document(json.loads(dump_document(doc)))
        if direct.model is not None:
            assert_models_equal(direct.model, reread.model)
        if direct.library is not None:
            assert direct.library.action_ids() == reread.library.action_ids()
            for aid, entry in direct.library.actions.items():
                assert entry.leaf.success == reread.library.actions[aid].leaf.success
                assert entry.leaf.controller == reread.library.actions[aid].leaf.controller
        if direct.substitution is not None:
            assert direct.substitution == reread.substitution, name


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(format="nope"), "format"),
        (lambda d: d["leaves"][0].update(success=[999]), "outside universe"),
        (lambda d: d["tree"]["seq"].append({"leaf": "ghost"}), "unknown leaf"),
        (lambda d: d["leaves"].append(dict(d["leaves"][0])), "duplicate"),
        (lambda d: d["leaves"][0].pop("next"), "one target per cell"),
        (lambda d: d.update(abstraction=["ghost"]), "unknown leaf"),
        (lambda d: d.update(abstraction=[]), "abstraction must be a nonempty list"),
        (lambda d: d.update(delta=float("nan")), "delta"),
        (lambda d: d.update(delta=-1), "delta"),
        (lambda d: d.update(delta=True), "delta"),
        # integer fields take neither JSON booleans nor floats
        (lambda d: d["leaves"][0].update(success=[True]), "success: expected integers"),
        (lambda d: d["leaves"][0].update(success=[1.0]), "success: expected integers"),
        (lambda d: d["leaves"][0]["doa"].update(basin=[False]), "doa.basin: expected integers"),
        (lambda d: d["leaves"][0]["next"].__setitem__(0, True), "next: expected integers"),
        (lambda d: d["leaves"][0]["next"].__setitem__(0, 1.0), "next: expected integers"),
        (lambda d: d["leaves"][0]["doa"].update(horizon=True), "doa.horizon"),
        (lambda d: d["leaves"][0]["doa"].update(horizon=3.0), "doa.horizon"),
        (lambda d: d["universe"].update(cells=True), "universe.cells"),
        (lambda d: d["universe"].update(cells=54.0), "universe.cells"),
        (lambda d: d["universe"].update(coords=None, adjacency=[[0, True]]), "universe.adjacency"),
        (lambda d: d["universe"].update(coords=None, adjacency=[[0, 1.0]]), "universe.adjacency"),
        # a universe is metric or a graph: neither block is dropped silently
        (lambda d: d["universe"].update(adjacency=[[0, 1]]), "universe: give coords or adjacency, not both"),
        (
            lambda d: d["universe"].update(adjacency=[[0, 1]], adjacency_directed="yes"),
            "universe: give coords or adjacency, not both",
        ),
        (
            lambda d: d["universe"].update(adjacency_directed=True),
            "universe.adjacency_directed without universe.adjacency",
        ),
        (
            lambda d: d["universe"].update(coords=None, adjacency_directed=False),
            "universe.adjacency_directed without universe.adjacency",
        ),
        (lambda d: d.update(substitution={"target": True}), "substitution.target"),
        (lambda d: d.update(substitution={"target": 1.0}), "substitution.target"),
        (
            lambda d: d.update(substitution={"target": 0, "time_budget": True}),
            "substitution.time_budget",
        ),
        (
            lambda d: d.update(substitution={"target": 0, "time_budget": 5.0}),
            "substitution.time_budget",
        ),
        (
            lambda d: d.update(
                substitution={"target": 0, "time_budget": 5, "hysteresis_cap": True}
            ),
            "substitution.hysteresis_cap",
        ),
        (
            lambda d: d.update(
                substitution={"target": 0, "time_budget": 5, "hysteresis_cap": 2.0}
            ),
            "substitution.hysteresis_cap",
        ),
    ],
)
def test_parse_errors_are_reported(mutate, message):
    b = bundled_spec("surveying_robot")
    doc = json.loads(dump_document(build_document(b.model, list(b.abstraction), b.delta)))
    # leaves[0] must be an action for the 'next' mutation; reorder for stability
    doc["leaves"].sort(key=lambda e: e["kind"])
    mutate(doc)
    with pytest.raises(SpecError, match=message):
        parse_document(doc)


def gridworld_document() -> dict:
    b = bundled_spec("gridworld")
    return json.loads(dump_document(build_document(b.model, list(b.abstraction), b.delta)))


@pytest.mark.parametrize(
    "coords, message",
    [
        (5, "universe.coords must be a list of 36 coordinate lists"),
        ("x", "universe.coords must be a list of 36 coordinate lists"),
        ([[0, 0]] * 35, "universe.coords must be a list of 36 coordinate lists"),
        ({2: [None, 0]}, r"universe.coords\[2\] must be a list of numbers"),
        ({2: None}, r"universe.coords\[2\] must be a list of numbers"),
        ({1: ["0", "1"]}, r"universe.coords\[1\] must be a list of numbers"),
        ({0: [True, 1]}, r"universe.coords\[0\] must be a list of numbers"),
        ({4: [[1], 2]}, r"universe.coords\[4\] must be a list of numbers"),
        ({4: {"x": 1}}, r"universe.coords\[4\] must be a list of numbers"),
        ({3: [1, 2, 3]}, r"universe.coords\[3\] has 3 coordinates, not 2"),
        ({3: [10**400, 0]}, r"universe.coords\[3\] holds an integer past the float range"),
    ],
)
def test_malformed_coords_exit_two_naming_the_entry(coords, message, tmp_path, capsys):
    doc = gridworld_document()
    if isinstance(coords, dict):
        for i, point in coords.items():
            doc["universe"]["coords"][i] = point
    else:
        doc["universe"]["coords"] = coords
    with pytest.raises(SpecError, match=message):
        parse_document(doc)
    path = tmp_path / "coords.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("check", "--spec", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert "universe.coords" in err and "Traceback" not in err


def test_integer_coordinates_still_load():
    doc = gridworld_document()
    doc["universe"]["coords"] = [[int(x) for x in p] for p in doc["universe"]["coords"]]
    assert parse_document(doc).world.coords == parse_document(gridworld_document()).world.coords


@pytest.mark.parametrize("value", ["false", "no", "true", 1.5, 0, 1, None, [], {}])
def test_boolean_fields_take_only_json_booleans(value):
    patrol, eat = bundled_spec("patrol"), bundled_spec("eat_tree")
    sub_doc = build_document(
        patrol.model, list(patrol.abstraction), patrol.delta,
        substitution=substitution_block(patrol.substitution, "mb_patrol"),
    )
    adj_doc = build_document(eat.model, list(eat.abstraction), eat.delta)
    for doc, block, key, message in (
        (sub_doc, "substitution", "hysteresis", "substitution.hysteresis"),
        (adj_doc, "universe", "adjacency_directed", "universe.adjacency_directed"),
    ):
        bad = json.loads(dump_document(doc))
        bad[block][key] = value
        with pytest.raises(SpecError, match=message + " must be true or false"):
            parse_document(bad)
    for flag in (True, False):
        good = json.loads(dump_document(sub_doc))
        good["substitution"]["hysteresis"] = flag
        assert parse_document(good).substitution.hysteresis is flag
        good = json.loads(dump_document(adj_doc))
        good["universe"]["adjacency_directed"] = flag
        # eat_tree lists every pair both ways, so reading them as directed changes nothing
        assert parse_document(good).world.neighbors == eat.model.world.neighbors


def test_directed_adjacency_round_trips():
    from btconverge.specfile import FORMAT, _world_block

    universe = {"cells": 4, "adjacency": [[0, 1], [1, 2], [2, 1], [3, 3]], "adjacency_directed": True}
    world = parse_document({"format": FORMAT, "universe": universe}).world
    assert world.neighbors == ((1,), (2,), (1,), (3,))
    assert _world_block(world) == universe
    del universe["adjacency_directed"]
    world = parse_document({"format": FORMAT, "universe": universe}).world
    assert world.neighbors == ((1,), (0, 2), (1,), (3,))
    assert _world_block(world) == {**universe, "adjacency": [[0, 1], [1, 0], [1, 2], [2, 1], [3, 3]]}


def set_in(*keys_and_value):
    """A mutation that sets doc[k0][k1]... to the last argument and returns doc."""
    *keys, value = keys_and_value

    def mutate(doc):
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        return doc

    return mutate


@pytest.mark.parametrize(
    "name, mutate, path",
    [
        # document level
        ("eat_tree", lambda d: [d], "document"),
        ("eat_tree", set_in("format", "btconverge/0"), "format"),
        ("eat_tree", lambda d: d.pop("universe") and d, "universe"),
        ("eat_tree", set_in("delta", "1"), "delta"),
        ("eat_tree", set_in("delta", 10**400), "delta"),
        # universe block
        ("eat_tree", set_in("universe", "cells", 0), "universe.cells"),
        ("eat_tree", set_in("universe", "adjacency", {}), "universe.adjacency"),
        ("eat_tree", set_in("universe", "adjacency", 1, [0]), "universe.adjacency[1]"),
        ("eat_tree", set_in("universe", "adjacency", 2, [0, True]), "universe.adjacency[2]"),
        ("eat_tree", set_in("universe", "adjacency", 0, [0, 99]), "universe"),
        ("eat_tree", set_in("universe", "adjacency_directed", 1), "universe.adjacency_directed"),
        ("gridworld", set_in("universe", "coords", 4, ["0", 1]), "universe.coords[4]"),
        # leaves: every field of an entry
        ("eat_tree", set_in("leaves", {}), "leaves"),
        ("eat_tree", set_in("leaves", 1, 5), "leaves"),
        ("eat_tree", set_in("leaves", 2, "name", ""), "leaves[2].name"),
        ("eat_tree", set_in("leaves", 2, "name", "eat_apple"), "leaves[2].name"),
        ("eat_tree", set_in("leaves", 1, "kind", "both"), "leaves[1].kind"),
        ("eat_tree", set_in("leaves", 0, "success", "x"), "leaves[0].success"),
        ("eat_tree", set_in("leaves", 0, "failure", [99]), "leaves[0].failure"),
        ("eat_tree", set_in("leaves", 0, "next", [0]), "leaves[0].next"),
        ("eat_tree", set_in("leaves", 0, "next", 0, -1), "leaves[0].next"),
        ("eat_tree", set_in("leaves", 0, "doa", []), "leaves[0].doa"),
        ("eat_tree", set_in("leaves", 0, "doa", "horizon", 0), "leaves[0].doa.horizon"),
        ("eat_tree", set_in("leaves", 0, "doa", "goal", [True]), "leaves[0].doa.goal"),
        (  # failure overlaps success
            "eat_tree",
            lambda d: d["leaves"][1].update(failure=d["leaves"][1]["success"][:1]) or d,
            "leaves[1]",
        ),
        ("eat_tree", set_in("leaves", 0, "doa", "goal", [0]), "leaves[0]"),  # goal outside basin
        (  # an entry the tree never references is checked all the same
            "eat_tree",
            lambda d: d["leaves"].append(dict(d["leaves"][0], name="x", failure=d["leaves"][0]["success"])) or d,
            "leaves[3]",
        ),
        # tree: the path follows the node keys down
        ("eat_tree", set_in("tree", []), "tree"),
        ("eat_tree", set_in("tree", {"seq": [], "fal": []}), "tree"),
        ("eat_tree", set_in("tree", "fal", []), "tree.fal"),
        ("eat_tree", set_in("tree", "fal", 1, "seq", 0, "leaf", "ghost"), "tree.fal[1].seq[0].leaf"),
        ("eat_tree", set_in("tree", "fal", 1, "seq", 1, {"par": []}), "tree.fal[1].seq[1].par"),
        ("patrol", set_in("tree", "seq", 1, 5), "tree.seq[1]"),
        # abstraction
        ("eat_tree", set_in("abstraction", "eat_apple"), "abstraction"),
        ("eat_tree", set_in("abstraction", 1, "ghost"), "abstraction[1]"),
        ("surveying_robot_library", set_in("abstraction", ["charge"]), "abstraction"),
        # library
        ("surveying_robot_library", set_in("library", []), "library"),
        ("surveying_robot_library", set_in("library", "actions", 2, None), "library.actions"),
        ("surveying_robot_library", set_in("library", "actions", 0, "next", [0]), "library.actions[0].next"),
        (
            "surveying_robot_library",
            set_in("library", "actions", 0, "preconditions", [1]),
            "library.actions[0].preconditions",
        ),
        (
            "surveying_robot_library",
            set_in("library", "conditions", 0, "achievers", "go_home"),
            "library.conditions[0].achievers",
        ),
        ("surveying_robot_library", set_in("library", "conditions", 0, "name", 7), "library.conditions[0].name"),
        ("surveying_robot_library", set_in("library", "actions", 0, "preconditions", ["ghost"]), "library"),
        ("surveying_robot_library", set_in("library", "root", "at_home"), "library.root"),
        (
            "surveying_robot_library",
            lambda d: d["library"]["actions"].append(d["library"]["actions"][0]) or d,
            "library.actions[5].name",
        ),
        (
            "surveying_robot_library",
            lambda d: d["library"]["conditions"].append(d["library"]["conditions"][0]) or d,
            "library.conditions[6].name",
        ),
        (
            "surveying_robot_library",
            set_in("library", "conditions", 0, "failure", []),  # a condition that runs
            "library.conditions[0]",
        ),
        # substitution
        ("patrol", set_in("substitution", 5), "substitution"),
        ("surveying_robot_library", set_in("substitution", {}), "substitution"),
        ("patrol", set_in("substitution", "target", "ghost"), "substitution.target"),
        (
            "patrol",
            lambda d: d.update(tree={"leaf": "mb_patrol"}, abstraction=None) or d,  # a root leaf
            "substitution.target",
        ),
        ("patrol", set_in("substitution", "target", [1]), "substitution.target"),
        ("patrol", set_in("substitution", "target", -1), "substitution.target"),
        ("patrol", set_in("substitution", "time_budget", -1), "substitution.time_budget"),
        ("patrol", set_in("substitution", "hysteresis_cap", None), "substitution.hysteresis_cap"),
        ("patrol", set_in("substitution", "dd_next", 0, 2.0), "substitution.dd_next"),
        ("patrol", set_in("substitution", "dd_next", [0] * 9), "substitution.dd_next"),
        ("patrol", set_in("substitution", "dd_next", 0, 10**6), "substitution.dd_next"),
        ("patrol", lambda d: d["substitution"]["rr"].pop("next") and d, "substitution.rr.next"),
        ("patrol", set_in("substitution", "rr", "next", [0] * 9), "substitution.rr.next"),
        ("patrol", set_in("substitution", "rr", None), "substitution.rr"),
        ("patrol", set_in("substitution", "rr", "next", [5]), "substitution.rr.next"),
        ("patrol", set_in("substitution", "rr", "doa", "horizon", 0), "substitution.rr.doa.horizon"),
        ("patrol", set_in("substitution", "rr", "success", [99]), "substitution.rr.success"),
        ("patrol", set_in("substitution", "dd_failure", {}), "substitution.dd_failure"),
        ("patrol", set_in("substitution", "risk_ok", [-1]), "substitution.risk_ok"),
        ("patrol", set_in("substitution", "hysteresis", "no"), "substitution.hysteresis"),
    ],
)
def test_spec_errors_start_with_the_json_path(name, mutate, path, tmp_path, capsys):
    doc = mutate(bundled_document(name))
    with pytest.raises(SpecError) as exc:
        parse_document(doc)
    assert re.match(re.escape(path) + "[ :]", str(exc.value)), str(exc.value)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_cli("export", "--spec", str(spec), "--which", "tree", capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")


def test_dd_next_may_list_one_target_per_augmented_cell():
    from btconverge.substitution import substitute

    doc = bundled_document("patrol")
    sub = doc["substitution"]
    block = (sub["time_budget"] + 1) * (sub["hysteresis_cap"] + 1)
    per_base = parse_document(doc)
    sub["dd_next"] = [t for t in sub["dd_next"] for _ in range(block)]
    per_aug = parse_document(doc)
    assert len(per_aug.substitution.dd_targets) == block * per_base.world.cell_count
    loops = [
        substitute(s.model, s.substitution, base_delta=s.delta).new_model.closed_loop()
        for s in (per_base, per_aug)
    ]
    assert loops[0] == loops[1]


SPEC_ERROR_PATH = re.compile(
    r"^(document|format|universe|delta|leaves|tree|abstraction|library|substitution)\b"
)


def deep_tree(doc: dict, levels: int) -> dict:
    for _ in range(levels):
        doc["tree"] = {"seq": [doc["tree"]]}
    return doc


def test_deeply_nested_document_exits_two(tmp_path, capsys):
    doc = bundled_document("eat_tree")
    text = json.dumps(doc).replace('"tree": ', '"tree": ' + '{"seq": [' * 5000, 1)
    text = text[:-1] + "]}" * 5000 + "}"  # the tree is the last key json.dumps wrote
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli("check", "--spec", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not valid JSON: nested too deeply\n"


def test_tree_nested_past_the_recursion_limit_is_a_spec_error():
    import sys

    doc = deep_tree(bundled_document("eat_tree"), sys.getrecursionlimit())
    with pytest.raises(SpecError, match="^tree: nested too deeply$"):
        parse_document(doc)
    assert parse_document(deep_tree(bundled_document("eat_tree"), 50)).model.n == 55


BAD_VALUES = [None, [], {}, "x", 1.5, True, -1, 10**9, [[1, [2]]], [[0.5], "y"]]


def field_paths(rng, value, path=(), depth=0):
    """Paths to the fields of value and to a few entries of its lists, two levels down."""
    if isinstance(value, dict):
        keys = value.keys()
    elif isinstance(value, list) and value:
        keys = sorted({0, len(value) - 1, rng.randrange(len(value))})
    else:
        return
    for key in keys:
        yield path + (key,)
        if depth < 2:
            yield from field_paths(rng, value[key], path + (key,), depth + 1)


def test_parse_fuzz_raises_only_spec_errors(rng):
    """Single-field mutations of every block of the bundled documents."""
    import copy

    tried = 0
    for name in bundled_names():
        doc = bundled_document(name)
        blocks = list(doc)
        paths = [(key,) for key in blocks]
        for key in blocks:
            paths += field_paths(rng, doc[key], (key,))
        for path in paths:
            for bad in BAD_VALUES:
                mutated = copy.deepcopy(doc)
                parent = mutated
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = copy.deepcopy(bad)
                tried += 1
                try:
                    parse_document(mutated)
                except SpecError as exc:
                    assert SPEC_ERROR_PATH.match(str(exc)), f"{name} {path} = {bad!r}: {exc}"
                except Exception as exc:
                    pytest.fail(f"{name} {path} = {bad!r}: {type(exc).__name__}: {exc}")
    assert tried > 500


# ----------------------------------------------------------------------
# CLI


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_bundled_surveying_exits_zero(capsys):
    code, out, _err = run_cli("check", "--spec", "bundled:surveying_robot", capsys=capsys)
    assert code == 0
    assert "status: certified" in out
    assert "3 * T" in out


def test_check_eat_tree_refutes_with_witness(capsys):
    code, out, _err = run_cli(
        "check", "--spec", "bundled:eat_tree", "--format", "json", capsys=capsys
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "refuted"
    assert report["kind"] == "no-exit"
    assert isinstance(report["witness_cell"], int)


def test_check_malformed_spec_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    b = bundled_spec("patrol")
    doc = build_document(b.model, list(b.abstraction), b.delta)
    doc["abstraction"] = ["ghost"]
    path.write_text(dump_document(doc))
    code, _out, err = run_cli("check", "--spec", str(path), capsys=capsys)
    assert code == 2
    assert "ghost" in err


def test_check_nan_coordinate_exits_two(tmp_path, capsys):
    b = bundled_spec("gridworld")
    doc = json.loads(dump_document(build_document(b.model, list(b.abstraction), b.delta)))
    doc["universe"]["coords"][3][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes the bare NaN token it also reads
    assert "NaN" in path.read_text()
    code, _out, err = run_cli("check", "--spec", str(path), capsys=capsys)
    assert code == 2
    assert "universe: coordinates of cell 3 are not finite" in err


@pytest.mark.parametrize("command", [["check"], ["export", "--which", "prepares"], ["substitute"]])
@pytest.mark.parametrize("value", ["nan", "-1", "-inf", "one"])
def test_malformed_delta_flag_is_a_usage_error(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--spec", "bundled:patrol", f"--delta={value}"])
    assert exc.value.code == 2
    assert "--delta: must be a non-negative number" in capsys.readouterr().err


def test_infinite_delta_flag_still_certifies(capsys):
    code, out, _err = run_cli(
        "check", "--spec", "bundled:gridworld", "--delta", "inf", capsys=capsys
    )
    assert code == 0
    assert "status: certified" in out


def test_check_missing_file_exits_two(capsys):
    code, _out, _err = run_cli("check", "--spec", "/nonexistent.json", capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["check", "backchain", "substitute", "simulate"])
def test_spec_path_that_is_a_directory_exits_two(command, tmp_path, capsys):
    extra = ["--x0", "0"] if command == "simulate" else []
    code, _out, err = run_cli(command, "--spec", str(tmp_path), *extra, capsys=capsys)
    assert code == 2
    assert err.startswith("error: ") and "Is a directory" in err


def test_out_path_that_is_a_directory_exits_two(tmp_path, capsys):
    code, _out, err = run_cli(
        "check", "--spec", "bundled:surveying_robot", "--out", str(tmp_path), capsys=capsys
    )
    assert code == 2
    assert err.startswith("error: ") and "Is a directory" in err


def test_check_seed_classes(capsys):
    code, out, _err = run_cli(
        "check",
        "--spec", "bundled:surveying_robot",
        "--seed-classes", "b:idle",
        "--format", "json",
        capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["classes_in_analysis_set"] == 2


SEED_COMMANDS = [["check"], ["export", "--which", "condensed"], ["export", "--which", "tree"]]


@pytest.mark.parametrize("tokens", [",", " ", ""])
@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_seed_classes_naming_no_class_exit_two(command, tokens, capsys):
    """An empty list, or only commas or spaces, names no class: an error, not
    a bound-0 certificate of a refuted model, nor the default of every class.
    The tree export, which reads no seed, refuses it too."""
    argv = [command[0], "--spec", "bundled:eat_tree", *command[1:], "--seed-classes", tokens]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out, err) == (2, "", "error: no seed class given\n")


@pytest.mark.parametrize(
    "tokens, message",
    [
        ("bogus", "seed class 'bogus' is not flavor:leaf"),
        ("b:eat_apple,bogus", "seed class 'bogus' is not flavor:leaf"),
        ("b:ghost", "unknown leaf 'ghost'"),
        ("z:eat_apple", "seed class 'z:eat_apple': flavor 'z' is not a, b or c"),
    ],
)
@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_malformed_seed_token_exits_two(command, tokens, message, capsys):
    argv = [command[0], "--spec", "bundled:eat_tree", *command[1:], "--seed-classes", tokens]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", SEED_COMMANDS[:2])
def test_seed_leaf_without_a_slice_of_its_flavor_exits_two_naming_token_and_leaf(command, capsys):
    """gridworld's go_right has no goal slice: only the slice graph shows it."""
    argv = [command[0], "--spec", "bundled:gridworld", *command[1:], "--seed-classes", "b:dock,c:go_right"]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out, err) == (2, "", "error: seed class 'c:go_right': leaf 'go_right' has no c slice\n")


def test_tree_export_takes_well_formed_seed_classes(capsys):
    argv = ["export", "--spec", "bundled:eat_tree", "--which", "tree"]
    plain = run_cli(*argv, capsys=capsys)
    assert run_cli(*argv, "--seed-classes", "b:eat_apple", capsys=capsys) == plain
    assert plain[0] == 0


def test_export_is_deterministic(capsys):
    args = ("export", "--spec", "bundled:surveying_robot", "--which", "condensed")
    code1, out1, _ = run_cli(*args, capsys=capsys)
    code2, out2, _ = run_cli(*args, capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("digraph condensed {")
    assert "penwidth=2" in out1


def test_export_tree_single_leaf(tmp_path, capsys):
    doc = {
        "format": "btconverge/1",
        "universe": {"cells": 2},
        "leaves": [{"name": "only", "kind": "condition", "success": [0]}],
        "tree": {"leaf": "only"},
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("export", "--spec", str(path), "--which", "tree", capsys=capsys)
    assert code == 0
    assert out.count("label=") == 1


def test_export_prepares_and_behavior(capsys):
    for which in ("prepares", "behavior"):
        code, out, _ = run_cli(
            "export", "--spec", "bundled:patrol", "--which", which, capsys=capsys
        )
        assert code == 0
        assert out.startswith(f"digraph {which}")


def test_export_escapes_quotes_and_backslashes_in_names(tmp_path, capsys):
    """A leaf name may hold any character; every renderer writes it as a valid DOT string."""
    name = 'dock "home" \\'
    text = json.dumps(bundled_document("gridworld")).replace('"dock"', json.dumps(name))
    path = tmp_path / "quoted.json"
    path.write_text(text)
    quoted = re.compile(r'label="((?:[^"\\]|\\.)*)"(?=[ \]])')
    for which in ("tree", "prepares", "condensed", "behavior"):
        code, out, _ = run_cli("export", "--spec", str(path), "--which", which, capsys=capsys)
        assert code == 0
        assert 'dock \\"home\\" \\\\' in out, which
        for line in out.splitlines():
            if "label=" in line:
                assert quoted.search(line), (which, line)
        labels = [re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(out)]
        assert any(name in label for label in labels), which


def test_simulate_trace_log(capsys):
    code, out, _ = run_cli(
        "simulate", "--spec", "bundled:patrol", "--x0", "0", "--steps", "3", capsys=capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 0 mb_patrol running"
    assert len(lines) == 4  # three steps plus the halt marker


def test_simulate_single_step_from_goal(capsys):
    code, out, _ = run_cli(
        "simulate", "--spec", "bundled:patrol", "--x0", "9", "--steps", "1", capsys=capsys
    )
    assert code == 0
    data_lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 1
    assert "success" in data_lines[0]


def test_backchain_generates_reingestible_spec(tmp_path, capsys):
    out_path = tmp_path / "generated.json"
    code, out, _err = run_cli(
        "backchain",
        "--spec", "bundled:mobile_manipulator",
        "--out", str(out_path),
        capsys=capsys,
    )
    assert code == 0
    assert "influence[place_object]" in out
    loaded = parse_document(json.loads(out_path.read_text()))
    assert loaded.model is not None
    assert len(loaded.model.leaves) == 14
    # the generated document re-parses to the same structure it was built from
    from btconverge.backchain import build_bcbt

    manip = bundled_spec("mobile_manipulator")
    assert_models_equal(build_bcbt(manip.library, manip.library_root).model, loaded.model)


def test_backchain_certify_survey_library(capsys):
    code, out, _err = run_cli(
        "backchain",
        "--spec", "bundled:surveying_robot_library",
        "--certify",
        "--out", "/dev/null",
        capsys=capsys,
    )
    assert code == 0
    assert "certified: bound" in out


def test_backchain_certify_builds_the_tree_once(monkeypatch, capsys):
    from btconverge import backchain

    calls = []
    real_build = backchain.build_bcbt

    def counting_build(*args, **kwargs):
        calls.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(backchain, "build_bcbt", counting_build)
    code, out, _err = run_cli(
        "backchain",
        "--spec", "bundled:mobile_manipulator",
        "--certify",
        "--out", "/dev/null",
        capsys=capsys,
    )
    assert code == 0
    assert "certified: bound" in out
    assert len(calls) == 1


def test_backchain_certify_computes_links_once(monkeypatch, capsys):
    from btconverge import backchain

    calls = []
    real_links = backchain.compute_links

    def counting_links(*args, **kwargs):
        calls.append(args)
        return real_links(*args, **kwargs)

    monkeypatch.setattr(backchain, "compute_links", counting_links)
    code, out, _err = run_cli(
        "backchain",
        "--spec", "bundled:mobile_manipulator",
        "--certify",
        "--out", "/dev/null",
        capsys=capsys,
    )
    assert code == 0
    assert "certified: bound" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--steps", "0", "--steps: must be a positive integer, got '0'"),
        ("--steps", "-3", "--steps: must be a positive integer, got '-3'"),
        ("--x0", "-1", "--x0: must be a non-negative integer, got '-1'"),
        ("--x0", "abc", "--x0: must be a non-negative integer, got 'abc'"),
    ],
)
def test_malformed_simulate_flag_is_a_usage_error(flag, value, message, capsys):
    argv = {"--x0": "0", "--steps": "5", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "bundled:patrol", *(x for kv in argv.items() for x in kv)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_simulate_start_outside_universe_exits_two(capsys):
    code, _out, err = run_cli(
        "simulate", "--spec", "bundled:patrol", "--x0", "10", capsys=capsys
    )
    assert code == 2
    assert "start cell 10 outside universe" in err


def _library_document(horizon=None, delta=None):
    doc = bundled_document("surveying_robot_library")
    if delta is not None:
        doc["delta"] = delta
    for entry in doc["library"]["actions"]:
        if horizon is not None and entry.get("doa"):
            entry["doa"]["horizon"] = horizon
    return dump_document(doc)


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["check", "--spec", "bundled:surveying_robot", "--seed-classes", "b:nope"], None,
         "unknown leaf 'nope'"),
        (["simulate", "--spec", "bundled:patrol", "--x0", "99999"], None,
         "start cell 99999 outside universe"),
        (["backchain", "--certify"], _library_document(delta=0.5),
         "leaf 'go_home' moves cell 18 to 0: 1.0 apart, past delta = 0.5"),
        (["check"], b"{\"format\": \"btconverge/1\xff\"}", "not valid JSON"),
        (["check"], '{"format": ' + "9" * 5000 + "}", "not valid JSON"),
    ],
    ids=["model", "execution", "world", "utf-8", "digit-limit"],
)
def test_package_errors_exit_two(argv, text, message, tmp_path, capsys):
    if text is not None:
        path = tmp_path / "spec.json"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        argv = [argv[0], "--spec", str(path), "--out", str(tmp_path / "out"), *argv[1:]]
    code, _out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_fts_precondition_report_names_kind_cell_and_step(tmp_path, capsys):
    """Each violation is a {kind, witness_cell, step} object in JSON and one line of text."""
    doc = bundled_document("gridworld")
    for entry in doc["leaves"]:
        if "doa" in entry:
            entry["doa"]["horizon"] = 1
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code, out, _err = run_cli("check", "--spec", str(path), "--format", "json", capsys=capsys)
    assert code == 1
    assert json.loads(out) == {
        "status": "refuted",
        "kind": "fts-precondition",
        "violations": {
            "go_right": {"kind": "deadline", "witness_cell": 1, "step": 2},
            "go_up": {"kind": "deadline", "witness_cell": 3, "step": 3},
            "dock": {"kind": "deadline", "witness_cell": 21, "step": 4},
        },
    }
    code, out, _err = run_cli("check", "--spec", str(path), capsys=capsys)
    assert code == 1
    assert out.splitlines()[2:] == [
        "violation at go_right: deadline at cell 1 (step 2)",
        "violation at go_up: deadline at cell 3 (step 3)",
        "violation at dock: deadline at cell 21 (step 4)",
    ]


def test_check_reports_a_member_without_basin_data(tmp_path, capsys):
    """check runs the hypotheses before the slice graph, as certify_convergence does,
    so a member with no doa is an fts-precondition violation, not an error naming a vertex."""
    doc = bundled_document("gridworld")
    (entry,) = (entry for entry in doc["leaves"] if entry["name"] == "go_up")
    del entry["doa"]
    path = tmp_path / "no_doa.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("check", "--spec", str(path), "--format", "json", capsys=capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "status": "refuted",
        "kind": "fts-precondition",
        "violations": {"go_up": {"kind": "missing-basin-data", "witness_cell": None, "step": None}},
    }
    code, out, err = run_cli("check", "--spec", str(path), capsys=capsys)
    assert (code, err) == (1, "")
    assert out == "status: refuted\nkind: fts-precondition\nviolation at go_up: missing-basin-data\n"
    spec = parse_document(doc)
    members = [spec.model.vertex_of(name) for name in spec.abstraction]
    outcome = certify_convergence(spec.model, members, delta=spec.delta)
    assert isinstance(outcome, FtsPreconditionError)
    assert outcome.failures == {"go_up": FtsVerdict(False, "missing-basin-data")}


@pytest.mark.parametrize("delta", ["0", "0.5"])
def test_understated_delta_exits_two(delta, capsys):
    code, out, err = run_cli("check", "--spec", "bundled:gridworld", "--delta", delta, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: leaf 'go_right' moves cell 0 to 1: 1.0 apart, past delta = {float(delta)}\n"


def test_step_to_a_non_adjacent_cell_exits_two(tmp_path, capsys):
    doc = bundled_document("eat_tree")
    assert doc["leaves"][0]["name"] == "eat_apple"  # it runs at cell 0, which is not next to 4
    doc["leaves"][0]["next"][0] = 4
    path = tmp_path / "jump.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("check", "--spec", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: leaf 'eat_apple' moves cell 0 to 4: not a neighbour\n"


def test_internal_value_error_is_not_a_spec_error(monkeypatch):
    from btconverge import execution

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(execution, "simulate", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["simulate", "--spec", "bundled:patrol", "--x0", "0"])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--x0", "0"],
        ["export", "--which", "tree"],
        ["backchain"],
        ["substitute"],
    ],
)
def test_format_is_a_check_option_only(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--spec", "bundled:patrol", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


OUT = "<out>"  # stands for an --out path
# (a call, one optional flag for it): the call runs with the flag given and then omitted
ONE_FLAG_CALLS = [
    (["check", "--spec", "bundled:surveying_robot"], ["--delta", "2"]),
    (["check", "--spec", "bundled:surveying_robot"], ["--seed-classes", "b:idle"]),
    (["check", "--spec", "bundled:eat_tree"], ["--format", "json"]),
    (["check", "--spec", "bundled:gridworld", "--format", "json"], ["--out", OUT]),
    (["simulate", "--spec", "bundled:patrol", "--x0", "0"], ["--steps", "5"]),
    (["export", "--spec", "bundled:gridworld", "--which", "condensed"], ["--seed-classes", "b:go_up"]),
    (["export", "--spec", "bundled:gridworld", "--which", "prepares"], ["--delta", "inf"]),
    (["backchain", "--spec", "bundled:surveying_robot_library"], ["--root", "idle"]),
    (["backchain", "--spec", "bundled:mobile_manipulator"], ["--certify"]),
    (["substitute", "--spec", "bundled:patrol"], ["--delta", "1"]),
    (["substitute", "--spec", "bundled:patrol"], ["--out", OUT]),
]
USAGE_ERRORS = [
    ["check"],
    ["check", "--spec", "bundled:patrol", "--format", "xml"],
    ["simulate", "--spec", "bundled:patrol", "--x0", "-1"],
    ["export", "--spec", "bundled:patrol", "--which", "tree", "--steps", "3"],
    ["substitute", "--spec", "bundled:patrol", "--delta", "nan"],
]


def test_one_parser_serves_every_call_in_a_process(rng, monkeypatch, tmp_path, capsys):
    """main reuses one parser.  In a seeded shuffle where each optional flag
    is given and then omitted, with a usage error in between, every call
    parses to a fresh parser's namespace and gives what it gives as the
    process's first call; once the parser is built, no call builds another."""
    from btconverge import cli

    out = str(tmp_path / "out")
    pairs = [(call + flag, call) for call, flag in ONE_FLAG_CALLS]
    rng.shuffle(pairs)
    calls = []
    for given, omitted in pairs:
        calls += [given, rng.choice(USAGE_ERRORS), omitted]
    calls = [[out if word == OUT else word for word in argv] for argv in calls]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                written = fh.read()
            os.remove(out)
        return code, captured.out, captured.err, written

    first = {}
    for argv in calls:
        cli._parser.cache_clear()
        first[tuple(argv)] = outcome(argv)
    assert {code for code, *_ in first.values()} == {0, 1, 2}

    parse = argparse.ArgumentParser.parse_args
    parsed = []

    def recording(self, args=None, namespace=None):
        parsed.append(parse(self, args, namespace))
        return parsed[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for argv in calls:
        parsed.clear()
        assert outcome(argv) == first[tuple(argv)], argv
        assert parsed == ([] if argv in USAGE_ERRORS else [parse(build_parser(), argv)]), argv

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in rng.sample(calls, len(calls)):
        assert outcome(argv) == first[tuple(argv)], argv
    assert built == []
    build_parser()
    assert built != []  # the count sees every parser built


def test_substitute_patrol(tmp_path, capsys):
    out_path = tmp_path / "substituted.json"
    code, out, _err = run_cli(
        "substitute", "--spec", "bundled:patrol", "--out", str(out_path), capsys=capsys
    )
    assert code == 0
    assert "preserved: True" in out
    loaded = parse_document(json.loads(out_path.read_text()))
    assert loaded.model.world.cell_count == 120


def test_empty_dd_regions_state_the_whole_universe_requirement(tmp_path, capsys):
    """Empty dd_success / dd_failure lists substitute exactly like leaving them out;
    one cell in dd_success violates R_DD."""
    plain_out = tmp_path / "plain.json"
    plain = run_cli("substitute", "--spec", "bundled:patrol", "--out", str(plain_out), capsys=capsys)
    doc = bundled_document("patrol")
    doc["substitution"].update(dd_success=[], dd_failure=[])
    spec_path, empty_out = tmp_path / "spec.json", tmp_path / "empty.json"
    spec_path.write_text(json.dumps(doc))
    empty = run_cli("substitute", "--spec", str(spec_path), "--out", str(empty_out), capsys=capsys)
    assert empty == plain and plain[0] == 0
    assert empty_out.read_bytes() == plain_out.read_bytes()
    doc["substitution"]["dd_success"] = [0]
    spec_path.write_text(json.dumps(doc))
    code, out, err = run_cli("substitute", "--spec", str(spec_path), capsys=capsys)
    assert (code, out, err) == (2, "", "error: violated requirement: R_DD is the whole universe\n")


def test_hysteresis_on_substitution_output_certifies(tmp_path, capsys):
    """The written (30, 4) product with the hysteresis guard on re-certifies from the file."""
    doc = bundled_document("patrol")
    doc["substitution"].update(time_budget=30, hysteresis_cap=4, hysteresis=True)
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "substituted.json"
    spec_path.write_text(json.dumps(doc))
    code, out, _err = run_cli(
        "substitute", "--spec", str(spec_path), "--out", str(out_path), capsys=capsys
    )
    assert code == 0 and "augmented universe: 1550 cells" in out
    code, out, err = run_cli("check", "--spec", str(out_path), capsys=capsys)
    assert (code, err) == (0, "")
    assert "status: certified" in out and "bound formula: 5 * T = 55 (T = 11)" in out


PATROL_FALLBACK = [{"leaf": "task_done"}, {"leaf": "mb_patrol"}]


@pytest.mark.parametrize(
    "tree, target, message",
    [
        (None, 0, "target vertex 0 is not a fallback node"),  # the root Sequence
        (
            {"seq": [{"fal": PATROL_FALLBACK + [{"leaf": "park"}]}]},
            "mb_patrol",
            "target fallback must have exactly two children",
        ),
        (
            {"seq": [{"fal": PATROL_FALLBACK[::-1]}, {"leaf": "park"}]},
            "mb_patrol",
            "target children must be a condition then an action",
        ),
    ],
    ids=["not-a-fallback", "three-children", "action-first"],
)
def test_substitution_target_shape_is_a_spec_error(tree, target, message, tmp_path, capsys):
    doc = bundled_document("patrol")
    assert doc["tree"] == {"seq": [{"fal": PATROL_FALLBACK}, {"leaf": "park"}]}
    if tree is not None:
        doc["tree"] = tree
    doc["substitution"]["target"] = target
    with pytest.raises(SpecError) as exc:
        parse_document(doc)
    assert str(exc.value) == f"substitution.target: {message}"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("substitute", "--spec", str(path), capsys=capsys)
    assert (code, out, err) == (2, "", f"error: substitution.target: {message}\n")


def test_bundled_names_resolve(capsys):
    for name in bundled_names():
        code, out, _ = run_cli(
            "export", "--spec", f"bundled:{name}", "--which", "tree", capsys=capsys
        ) if name not in ("surveying_robot_library", "mobile_manipulator") else (0, "", "")
        assert code == 0


def test_unknown_bundled_name(capsys):
    code, _out, err = run_cli("check", "--spec", "bundled:nope", capsys=capsys)
    assert code == 2
    assert "unknown bundled" in err
    # a name with a path separator reaches no file, not even a shipped one
    for name in ("ghost", "../x", "../examples/patrol"):
        code, out, err = run_cli("check", "--spec", f"bundled:{name}", capsys=capsys)
        assert (code, out, err) == (2, "", f"error: unknown bundled spec {name!r}\n")


def test_shipped_examples_are_canonical_documents():
    assert bundled_names() == [
        "eat_tree",
        "gridworld",
        "mobile_manipulator",
        "patrol",
        "surveying_robot",
        "surveying_robot_library",
    ]
    for name in bundled_names():
        with open(os.path.join(EXAMPLES, f"{name}.json"), encoding="utf-8") as fh:
            text = fh.read()
        assert text == dump_document(json.loads(text)), name


@pytest.mark.parametrize("name", bundled_names())
def test_shipped_example_rebuilds_from_its_parsed_spec(name):
    """The writers reproduce each shipped document from what the parser read."""
    spec = bundled_spec(name)
    if spec.library is not None:
        doc = library_document(spec.library, spec.library_root)
        if spec.delta is not None:
            doc["delta"] = spec.delta
    else:
        substitution = None
        if spec.substitution is not None:
            target = bundled_document(name)["substitution"]["target"]  # the document names it by a leaf
            substitution = substitution_block(spec.substitution, target)
        doc = build_document(spec.model, spec.abstraction, spec.delta, substitution)
    assert doc == bundled_document(name)


# ----------------------------------------------------------------------
# one exit code per verdict, for check and backchain --certify


def _small_library(cells, adjacency, actions, conditions=()):
    universe = {"cells": cells, "adjacency": adjacency}
    library = {"root": "r", "actions": list(actions), "conditions": list(conditions)}
    return {"format": "btconverge/1", "universe": universe, "library": library}


def _no_exit_library():
    """Cells 0 - 1 - 2.  The root r needs c (cell 1 or 2) and drives cell 1 to its
    goal 2; c's achiever a has an empty basin and leaves cell 0 where it is."""
    return _small_library(
        3,
        [[0, 1], [1, 2]],
        [
            {"name": "r", "success": [2], "next": [0, 2, 2], "preconditions": ["c"],
             "doa": {"basin": [1, 2], "goal": [2], "horizon": 1}},
            {"name": "a", "success": [], "next": [0, 1, 2], "preconditions": [],
             "doa": {"basin": [], "goal": [], "horizon": 1}},
        ],
        [{"name": "c", "success": [1, 2], "achievers": ["a"]}],
    )


def _sink_library():
    """One action with an empty basin: its one slice lies outside the basin,
    reaches no other slice and is no goal."""
    return _small_library(
        2,
        [[0, 1]],
        [{"name": "r", "success": [], "next": [0, 1], "preconditions": [],
          "doa": {"basin": [], "goal": [], "horizon": 1}}],
    )


def _surveying_library(horizon=None, delta=None):
    return json.loads(_library_document(horizon, delta))


# outcome: (library document, exit code, a line of check's output, a line of backchain's)
OUTCOMES = {
    "certified": (
        # a metric library with no delta: both commands derive it from the controllers
        lambda: library_document(*staged_chain_library(4)),
        0,
        "status: certified",
        "certified: bound 25, pattern holds: True",
    ),
    "no-exit": (_no_exit_library, 1, "kind: no-exit", "refuted: cell 0 never leaves class ((4, 'a'),)"),
    "non-goal-sink": (
        _sink_library, 1, "kind: non-goal-sink", "refuted: sink class ((1, 'a'),) contains non-goal slices"
    ),
    "fts-precondition": (
        lambda: _surveying_library(horizon=1),
        1,
        "kind: fts-precondition",
        "violation at go_home: deadline at cell 36 (step 2)",
    ),
    "StepError": (
        lambda: _surveying_library(delta=0.5),
        2,
        "error: leaf 'go_home' moves cell 18 to 0: 1.0 apart, past delta = 0.5",
        "error: leaf 'go_home' moves cell 18 to 0: 1.0 apart, past delta = 0.5",
    ),
    "spec error": (
        lambda: _surveying_library(horizon=0),
        2,
        "error: library.actions[0].doa.horizon must be a positive integer",
        "error: library.actions[0].doa.horizon must be a positive integer",
    ),
}


@pytest.mark.parametrize("outcome", list(OUTCOMES))
def test_one_exit_code_per_outcome(outcome, tmp_path, capsys):
    """backchain --certify on a library and check on the tree it generates give
    the outcome's one exit code; a spec error is the same document for both."""
    from btconverge.backchain import build_bcbt

    make, code, check_line, backchain_line = OUTCOMES[outcome]
    doc = make()
    library = tmp_path / "library.json"
    library.write_text(dump_document(doc))
    got, out, err = run_cli(
        "backchain", "--spec", str(library), "--certify", "--out", str(tmp_path / "tree.json"),
        capsys=capsys,
    )
    assert (got, backchain_line in (out + err).splitlines()) == (code, True), out + err
    tree = library
    if outcome != "spec error":  # the document backchain writes, built here if it raised
        spec = parse_document(doc)
        lib = spec.library
        model = build_bcbt(lib, spec.library_root).model
        names = [lib.actions[a].leaf.name for a in lib.action_ids()]
        tree = tmp_path / "built.json"
        tree.write_text(dump_document(build_document(model, names, spec.delta)))
    got, out, err = run_cli("check", "--spec", str(tree), capsys=capsys)
    assert (got, check_line in (out + err).splitlines()) == (code, True), out + err


@pytest.mark.parametrize("tokens", ["bogus", "", "a:ghost", "z:go_right"])
def test_malformed_seed_classes_exit_two_whatever_the_hypotheses(tokens, tmp_path, capsys):
    """check reads --seed-classes before the hypotheses: a malformed list is the
    same usage error on a spec whose deadlines fail as on the bundled one."""
    doc = bundled_document("gridworld")
    for leaf in doc["leaves"]:
        if "doa" in leaf:
            leaf["doa"]["horizon"] = 1
    path = tmp_path / "slow.json"
    path.write_text(dump_document(doc))
    code, out, _err = run_cli("check", "--spec", str(path), capsys=capsys)
    assert (code, out.splitlines()[:2]) == (1, ["status: refuted", "kind: fts-precondition"])
    healthy = run_cli("check", "--spec", "bundled:gridworld", "--seed-classes", tokens, capsys=capsys)
    assert healthy[0] == 2 and healthy[2].startswith("error: ")
    assert run_cli("check", "--spec", str(path), "--seed-classes", tokens, capsys=capsys) == healthy


def test_backchain_certify_prints_the_violations_check_prints(tmp_path, capsys):
    path = tmp_path / "slow.json"
    path.write_text(_library_document(horizon=1))
    code, out, _err = run_cli(
        "backchain", "--spec", str(path), "--certify", "--out", str(tmp_path / "tree.json"),
        capsys=capsys,
    )
    assert code == 1
    lines = out.splitlines()
    start = lines.index(
        "refuted: finite-time-success check failed for: "
        "['charge', 'follow_path', 'go_home', 'goto_path', 'idle']"
    )
    code, out, _err = run_cli("check", "--spec", str(tmp_path / "tree.json"), capsys=capsys)
    assert code == 1
    assert lines[start + 1 :] == out.splitlines()[2:] != []


def test_running_out_of_memory_is_an_error_not_a_verdict(monkeypatch, capsys):
    """A MemoryError exits 2 with one error line, never 1, the refuted code: a
    substitution's budget or cap of 10**9 asks for about 10**11 product cells."""
    from btconverge import substitution

    def too_large(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(substitution, "substitute", too_large)
    assert run_cli("substitute", "--spec", "bundled:patrol", capsys=capsys) == (
        2, "", "error: out of memory\n"
    )


@pytest.mark.parametrize("pattern, code", [(False, 1), (None, 0), (True, 0)])
def test_a_failed_pattern_claim_fails_backchain_certify(pattern, code, monkeypatch, tmp_path, capsys):
    """A certificate whose pattern claim fails exits 1; a skipped claim (n/a) exits 0."""
    from btconverge import backchain

    real = backchain.check_bc_convergence

    def with_pattern(*args, **kwargs):
        return real(*args, **kwargs)._replace(pattern_ok=pattern)

    monkeypatch.setattr(backchain, "check_bc_convergence", with_pattern)
    got, out, _err = run_cli(
        "backchain", "--spec", "bundled:mobile_manipulator", "--certify", "--out", str(tmp_path / "t"),
        capsys=capsys,
    )
    assert got == code
    assert out.splitlines()[-1].startswith("certified: bound 10, pattern holds: ")


@pytest.mark.parametrize("where", ["tree leaf", "library action"])
@pytest.mark.parametrize(
    "rule, message",
    [("basin", "basin must avoid the failure region"), ("goal", "goal must lie in basin and success region")],
)
def test_leaf_statics_are_spec_errors(where, rule, message, tmp_path, capsys):
    """A basin meeting the failure region, or a goal outside basin and success,
    is refused while the document is read, for every subcommand."""
    if where == "tree leaf":
        doc = bundled_document("gridworld")
        index = next(k for k, entry in enumerate(doc["leaves"]) if "doa" in entry)
        entry, path, argv = doc["leaves"][index], f"leaves[{index}]", ["check"]
    else:
        doc = bundled_document("surveying_robot_library")
        index = next(k for k, entry in enumerate(doc["library"]["actions"]) if "doa" in entry)
        entry, path, argv = doc["library"]["actions"][index], f"library.actions[{index}]", ["backchain", "--certify"]
    if rule == "basin":
        entry["failure"] = entry["doa"]["basin"][:1]
        entry["success"] = [c for c in entry["success"] if c not in entry["failure"]]
    else:
        entry["doa"]["goal"] = [c for c in range(doc["universe"]["cells"]) if c not in entry["doa"]["basin"]][:1]
    spec = tmp_path / "spec.json"
    spec.write_text(dump_document(doc))
    code, out, err = run_cli(argv[0], "--spec", str(spec), *argv[1:], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: leaf {entry['name']!r}: {message}\n"


LIBRARY_ROOTS = [
    (name, entry["name"])
    for name in ("surveying_robot_library", "mobile_manipulator")
    for entry in bundled_document(name)["library"]["actions"]
]


@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
@pytest.mark.parametrize("library, root", LIBRARY_ROOTS)
def test_every_library_action_can_be_the_backchain_root(library, root, certify, tmp_path, capsys):
    """A root whose tree leaves some library actions out is checked on the
    actions the tree holds, and the tree it writes re-reads."""
    out = str(tmp_path / "tree.json")
    argv = ["backchain", "--spec", f"bundled:{library}", "--root", root, "--out", out]
    code, stdout, err = run_cli(*argv, *["--certify"] * certify, capsys=capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert (stdout, err.count("\n")) == ("", 1) and err.startswith("error: "), err
        return
    assert "operating-region facts hold: True" in stdout
    assert run_cli("check", "--spec", out, capsys=capsys)[0] in (0, 1)


def fuzz_commands(doc: dict) -> list[list[str]]:
    """Every subcommand, with each --root of the document's library."""
    roots = [[]] + [["--root", entry["name"]] for entry in doc.get("library", {}).get("actions", [])]
    return [
        ["check"],
        ["check", "--format", "json"],
        ["simulate", "--x0", "0", "--steps", "5"],
        *(["export", "--which", which] for which in ("tree", "prepares", "condensed", "behavior")),
        *(["backchain", *root, *certify] for root in roots for certify in ([], ["--certify"])),
        ["substitute"],
    ]


def test_cli_fuzz_exits_with_a_verdict_or_an_error(rng, tmp_path, capsys):
    """Seeded single-field mutations of the bundled documents, run through
    every subcommand: each call exits 0, 1 or 2, an exit 2 prints one
    `error:` line, and nothing escapes main.

    A budget or cap of 10**9 is well formed, and asks `substitute` for a
    product of about 10**11 cells, which it starts to build: the cost of a
    valid request, not of a malformed field, so those two runs are left out.
    """
    import copy

    spec = str(tmp_path / "spec.json")
    calls = 0
    for name in bundled_names():
        doc = bundled_document(name)
        paths = [(key,) for key in doc]
        for key in doc:
            paths += field_paths(rng, doc[key], (key,))
        commands = fuzz_commands(doc)
        for path, bad in rng.sample([(p, v) for p in paths for v in BAD_VALUES], 40):
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(bad)
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(mutated, fh)
            huge_product = path[-1] in ("time_budget", "hysteresis_cap") and bad == 10**9
            for command in commands:
                if huge_product and command == ["substitute"]:
                    continue
                calls += 1
                try:
                    code, out, err = run_cli(command[0], "--spec", spec, *command[1:], capsys=capsys)
                except Exception as exc:
                    pytest.fail(f"{name} {path} = {bad!r}, {command}: {type(exc).__name__}: {exc}")
                assert code in (0, 1, 2), (name, path, bad, command)
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (name, path, bad, command, err)
    assert calls > 2000
