"""JSON spec documents: the on-disk format the CLI reads and writes.

A document carries a universe block, leaf definitions, a tree, and
optionally an abstraction list, an action/condition library, and a
substitution block.  Regions serialize as sorted cell-index arrays,
dynamics as per-cell target arrays.  Parsing validates every reference and
index and reports the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Optional

from .backchain import ActionConditionLibrary, ActionEntry, ConditionEntry, LibraryError
from .bt import BTModel, Doa, LeafData, ModelError, NodeKind, NodeSpec
from .statespace import Region, SuccessorMap, World, WorldError
from .substitution import RrLeaf, SubstitutionSpec

FORMAT = "btconverge/1"


class SpecError(ValueError):
    pass


@dataclass
class LoadedSpec:
    document: dict
    world: World
    model: Optional[BTModel]
    abstraction: Optional[list[str]]
    delta: Optional[float]
    library: Optional[ActionConditionLibrary]
    library_root: Optional[str]
    substitution: Optional[SubstitutionSpec]


def load_path(path: str) -> LoadedSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past the digit limit
            raise SpecError(f"{path}: not valid JSON: {exc}") from exc
    return parse_document(doc)


def parse_document(doc: dict) -> LoadedSpec:
    if not isinstance(doc, dict):
        raise SpecError("document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise SpecError(f"unsupported format {doc.get('format')!r}; expected {FORMAT!r}")
    world = _parse_world(_require(doc, "universe", dict))
    delta = doc.get("delta")
    if delta is not None and (
        isinstance(delta, bool) or not isinstance(delta, (int, float)) or not delta >= 0
    ):
        raise SpecError(f"delta must be a non-negative number, got {delta!r}")

    leaves = {}
    for entry in _list_of(doc, "leaves", dict):
        leaf = _parse_leaf(entry, world)
        if leaf.name in leaves:
            raise SpecError(f"duplicate leaf {leaf.name!r}")
        leaves[leaf.name] = leaf

    model = None
    if "tree" in doc:
        spec = _parse_tree(doc["tree"], leaves)
        try:
            model = BTModel(world, spec)
        except ModelError as exc:
            raise SpecError(f"tree: {exc}") from exc

    abstraction = None
    if doc.get("abstraction") is not None:
        abstraction = _list_of(doc, "abstraction", str)
        if model is None:
            raise SpecError("abstraction block without a tree")
        for name in abstraction:
            if name not in model.leaf_by_name:
                raise SpecError(f"abstraction references unknown leaf {name!r}")

    library = None
    library_root = None
    if "library" in doc:
        library, library_root = _parse_library(doc["library"], world)

    substitution = None
    if "substitution" in doc:
        if model is None:
            raise SpecError("substitution block without a tree")
        substitution = _parse_substitution(doc["substitution"], world, model)

    return LoadedSpec(doc, world, model, abstraction, delta, library, library_root, substitution)


def _require(doc: dict, key: str, typ: type) -> Any:
    if key not in doc:
        raise SpecError(f"missing {key!r} block")
    value = doc[key]
    if not isinstance(value, typ):
        raise SpecError(f"{key!r} must be a {typ.__name__}")
    return value


def _is_int(value: Any) -> bool:
    """A JSON integer; ``true``/``false`` are ints to Python but not here."""
    return type(value) is int


def _check_ints(values: list, where: str) -> None:
    if not _INT.issuperset(map(type, values)):
        bad = next(value for value in values if type(value) is not int)
        raise SpecError(f"{where}: expected integers, got {bad!r}")


def _parse_bool(block: dict, key: str, where: str) -> bool:
    """An optional JSON ``true``/``false`` field, false when missing; nothing else is read as one."""
    value = block.get(key, False)
    if type(value) is not bool:
        raise SpecError(f"{where}.{key} must be true or false, got {value!r}")
    return value


_NUMBER = frozenset({int, float})


def _fits_floats(numbers: Any) -> bool:
    try:
        list(map(float, numbers))
    except OverflowError:  # an integer past the float range
        return False
    return True


def _check_coords(coords: Any, cells: int) -> None:
    """One list of non-bool numbers per cell, all of one length; World checks finiteness.

    The whole block is checked in C first; only a bad block is walked
    point by point, to name the first bad entry.
    """
    if not isinstance(coords, list) or len(coords) != cells:
        raise SpecError(f"universe.coords must be a list of {cells} coordinate lists")
    if {list} == set(map(type, coords)) and len(set(map(len, coords))) == 1:
        flat = list(chain.from_iterable(coords))
        types = set(map(type, flat))
        if _NUMBER.issuperset(types) and (int not in types or _fits_floats(flat)):
            return
    dim = len(coords[0]) if isinstance(coords[0], list) else None
    for i, point in enumerate(coords):
        if not isinstance(point, list) or not _NUMBER.issuperset(map(type, point)):
            raise SpecError(f"universe.coords[{i}] must be a list of numbers")
        if len(point) != dim:
            raise SpecError(f"universe.coords[{i}] has {len(point)} coordinates, not {dim}")
        if not _fits_floats(point):
            raise SpecError(f"universe.coords[{i}] holds an integer past the float range")


def _parse_world(block: dict) -> World:
    cells = block.get("cells")
    if not _is_int(cells) or cells <= 0:
        raise SpecError("universe.cells must be a positive integer")
    coords = block.get("coords")
    adjacency = block.get("adjacency")
    try:
        if coords is not None:
            _check_coords(coords, cells)
            return World(cells, coords=coords)
        if adjacency is not None:
            if not isinstance(adjacency, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in adjacency
            ):
                raise SpecError("universe.adjacency must be a list of cell pairs")
            _check_ints([c for pair in adjacency for c in pair], "universe.adjacency")
            directed = _parse_bool(block, "adjacency_directed", "universe")
            return World(cells, adjacency=adjacency, symmetric=not directed)
        return World(cells)
    except WorldError as exc:
        raise SpecError(f"universe: {exc}") from exc


def _parse_region(value: Any, world: World, where: str) -> Region:
    if not isinstance(value, list):
        raise SpecError(f"{where}: expected a list of cell indices")
    _check_ints(value, where)
    try:
        return Region.from_cells(world.cell_count, value)
    except WorldError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _parse_leaf(entry: dict, world: World) -> LeafData:
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError("leaf without a name")
    kind = entry.get("kind")
    if kind not in ("action", "condition"):
        raise SpecError(f"leaf {name!r}: kind must be action or condition")
    success = _parse_region(entry.get("success", []), world, f"leaf {name!r} success")
    if "failure" in entry:
        failure = _parse_region(entry["failure"], world, f"leaf {name!r} failure")
    elif kind == "condition":
        failure = success.complement()
    else:
        failure = Region.empty(world.cell_count)
    controller = None
    if kind == "action":
        targets = entry.get("next")
        if not isinstance(targets, list) or len(targets) != world.cell_count:
            raise SpecError(f"leaf {name!r}: next must list one target per cell")
        _check_ints(targets, f"leaf {name!r} next")
        try:
            controller = SuccessorMap(targets)
        except WorldError as exc:
            raise SpecError(f"leaf {name!r} next: {exc}") from exc
    doa = None
    if entry.get("doa") is not None:
        doa = _parse_doa(entry["doa"], world, name)
    return LeafData(
        name,
        NodeKind.ACTION if kind == "action" else NodeKind.CONDITION,
        success,
        failure,
        controller,
        doa,
    )


def _parse_doa(block: Any, world: World, name: str) -> Doa:
    if not isinstance(block, dict):
        raise SpecError(f"leaf {name!r}: doa must be an object")
    horizon = block.get("horizon")
    if not _is_int(horizon) or horizon <= 0:
        raise SpecError(f"leaf {name!r}: doa.horizon must be a positive integer")
    return Doa(
        _parse_region(block.get("basin", []), world, f"leaf {name!r} doa.basin"),
        _parse_region(block.get("goal", []), world, f"leaf {name!r} doa.goal"),
        horizon,
    )


def _parse_tree(node: Any, leaves: dict[str, LeafData]) -> NodeSpec:
    if not isinstance(node, dict) or len(node) != 1:
        raise SpecError("tree nodes must be objects with one of seq / fal / leaf")
    key, value = next(iter(node.items()))
    if key == "leaf":
        if not isinstance(value, str) or value not in leaves:
            raise SpecError(f"tree references unknown leaf {value!r}")
        leaf = leaves[value]
        return NodeSpec(leaf.kind, leaf=leaf)
    if key in ("seq", "fal"):
        if not isinstance(value, list) or not value:
            raise SpecError(f"{key} node needs a nonempty child list")
        kind = NodeKind.SEQUENCE if key == "seq" else NodeKind.FALLBACK
        return NodeSpec(kind, tuple(_parse_tree(child, leaves) for child in value))
    raise SpecError(f"unknown tree node type {key!r}")


def _parse_library(block: Any, world: World) -> tuple[ActionConditionLibrary, Optional[str]]:
    if not isinstance(block, dict):
        raise SpecError("library must be an object")
    actions = {}
    for i, entry in enumerate(_list_of(block, "actions", dict, "library")):
        leaf = _parse_leaf({**entry, "kind": "action"}, world)
        pre = _list_of(entry, "preconditions", str, f"library.actions[{i}]")
        actions[leaf.name] = ActionEntry(leaf, tuple(pre))
    conditions = {}
    for i, entry in enumerate(_list_of(block, "conditions", dict, "library")):
        leaf = _parse_leaf({**entry, "kind": "condition"}, world)
        ach = _list_of(entry, "achievers", str, f"library.conditions[{i}]")
        conditions[leaf.name] = ConditionEntry(leaf, tuple(ach))
    try:
        lib = ActionConditionLibrary(world, actions, conditions)
    except LibraryError as exc:
        raise SpecError(f"library: {exc}") from exc
    root = block.get("root")
    if root is not None and (not isinstance(root, str) or root not in actions):
        raise SpecError(f"library root {root!r} is not an action")
    return lib, root


def _list_of(block: dict, key: str, typ: type, where: str = "") -> list:
    """The optional list field block[key] (empty when missing), each entry a typ.

    ``where`` is the path of ``block`` in the document, empty for the top level.
    """
    value = block.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, typ) for v in value):
        noun = "objects" if typ is dict else "strings"
        path = f"{where}.{key}" if where else key
        raise SpecError(f"{path} must be a list of {noun}")
    return value


def _parse_substitution(block: Any, world: World, model: BTModel) -> SubstitutionSpec:
    if not isinstance(block, dict):
        raise SpecError("substitution must be an object")
    target = block.get("target")
    if isinstance(target, str):
        if target not in model.leaf_by_name:
            raise SpecError(f"substitution target leaf {target!r} unknown")
        vertex = model.leaf_by_name[target]
        parent = model.tree.parent[vertex]
        if parent is None:
            raise SpecError("substitution target has no enclosing fallback")
        target = parent
    if not _is_int(target):
        raise SpecError("substitution.target must be a leaf name or vertex id")
    budget = block.get("time_budget")
    if not _is_int(budget) or budget < 0:
        raise SpecError("substitution.time_budget must be a non-negative integer")
    hyst_cap = block.get("hysteresis_cap", 0)
    if not _is_int(hyst_cap) or hyst_cap < 0:
        raise SpecError("substitution.hysteresis_cap must be a non-negative integer")
    dd_next = block.get("dd_next")
    if not isinstance(dd_next, list):
        raise SpecError("substitution.dd_next must be a target array")
    _check_ints(dd_next, "substitution.dd_next")
    rr_block = block.get("rr")
    if not isinstance(rr_block, dict):
        raise SpecError("substitution.rr block missing")
    rr_next = rr_block.get("next", [])
    if not isinstance(rr_next, list):
        raise SpecError("substitution.rr.next must be a target array")
    _check_ints(rr_next, "substitution.rr.next")
    try:
        rr_ctrl = SuccessorMap(rr_next)
    except WorldError as exc:
        raise SpecError(f"substitution.rr.next: {exc}") from exc
    rr_doa = None
    if rr_block.get("doa") is not None:
        rr_doa = _parse_doa(rr_block["doa"], world, "rr_controller")
    rr = RrLeaf(
        success=_parse_region(rr_block.get("success", []), world, "substitution.rr.success"),
        failure=_parse_region(rr_block.get("failure", []), world, "substitution.rr.failure"),
        controller=rr_ctrl,
        doa=rr_doa,
    )
    dd_success = None
    if block.get("dd_success") is not None:
        dd_success = _parse_region(block["dd_success"], world, "substitution.dd_success")
    dd_failure = None
    if block.get("dd_failure") is not None:
        dd_failure = _parse_region(block["dd_failure"], world, "substitution.dd_failure")
    return SubstitutionSpec(
        target=target,
        dd_targets=dd_next,
        rr=rr,
        rok_success=_parse_region(block.get("risk_ok", []), world, "substitution.risk_ok"),
        time_budget=budget,
        hysteresis_cap=hyst_cap,
        hysteresis=_parse_bool(block, "hysteresis", "substitution"),
        dd_success=dd_success,
        dd_failure=dd_failure,
    )


# ----------------------------------------------------------------------
# serialization


def _world_block(world: World) -> dict:
    block: dict[str, Any] = {"cells": world.cell_count}
    if world.coords is not None:
        block["coords"] = [list(p) for p in world.coords]
    elif world.neighbors is not None:
        pairs = [(p, q) for p, near in enumerate(world.neighbors) for q in near]
        block["adjacency"] = list(map(list, pairs))
        edges = set(pairs)
        if any((q, p) not in edges for p, q in pairs):
            block["adjacency_directed"] = True
    return block


def _leaf_entry(leaf: LeafData, ids: list[int]) -> dict:
    """The leaf's document entry; ids is ``list(range(cells))``, shared by one document's regions."""
    entry: dict[str, Any] = {
        "name": leaf.name,
        "kind": "action" if leaf.kind is NodeKind.ACTION else "condition",
        "success": leaf.success.pick(ids),
        "failure": leaf.failure.pick(ids),
    }
    if leaf.controller is not None:
        entry["next"] = list(leaf.controller.targets)
    if leaf.doa is not None:
        entry["doa"] = {
            "basin": leaf.doa.basin.pick(ids),
            "goal": leaf.doa.goal.pick(ids),
            "horizon": leaf.doa.horizon,
        }
    return entry


def _tree_block(model: BTModel, vertex: int) -> dict:
    kind = model.kinds[vertex]
    if kind in (NodeKind.ACTION, NodeKind.CONDITION):
        return {"leaf": model.names[vertex]}
    key = "seq" if kind is NodeKind.SEQUENCE else "fal"
    return {key: [_tree_block(model, c) for c in model.tree.children[vertex]]}


def build_document(
    model: BTModel,
    abstraction: Optional[list[str]] = None,
    delta: Optional[float] = None,
    substitution: Optional[dict] = None,
) -> dict:
    ids = list(range(model.world.cell_count))
    doc: dict[str, Any] = {
        "format": FORMAT,
        "universe": _world_block(model.world),
        "leaves": [_leaf_entry(model.leaves[v], ids) for v in sorted(model.leaves)],
        "tree": _tree_block(model, model.tree.root),
    }
    if delta is not None:
        doc["delta"] = delta
    if abstraction is not None:
        doc["abstraction"] = list(abstraction)
    if substitution is not None:
        doc["substitution"] = substitution
    return doc


def substitution_block(spec: SubstitutionSpec, target_name: Optional[str] = None) -> dict:
    ids = list(range(spec.rok_success.n))
    block: dict[str, Any] = {
        "target": target_name if target_name is not None else spec.target,
        "time_budget": spec.time_budget,
        "hysteresis_cap": spec.hysteresis_cap,
        "hysteresis": spec.hysteresis,
        "risk_ok": spec.rok_success.pick(ids),
        "dd_next": list(spec.dd_targets),
        "rr": {
            "success": spec.rr.success.pick(ids),
            "failure": spec.rr.failure.pick(ids),
            "next": list(spec.rr.controller.targets),
        },
    }
    if spec.rr.doa is not None:
        block["rr"]["doa"] = {
            "basin": spec.rr.doa.basin.pick(ids),
            "goal": spec.rr.doa.goal.pick(ids),
            "horizon": spec.rr.doa.horizon,
        }
    if spec.dd_success is not None:
        block["dd_success"] = spec.dd_success.pick(ids)
    if spec.dd_failure is not None:
        block["dd_failure"] = spec.dd_failure.pick(ids)
    return block


def library_document(lib: ActionConditionLibrary, root: Optional[str] = None) -> dict:
    ids = list(range(lib.world.cell_count))
    actions = []
    for aid in lib.action_ids():
        entry = _leaf_entry(lib.actions[aid].leaf, ids)
        entry.pop("kind")
        entry["preconditions"] = list(lib.actions[aid].preconditions)
        actions.append(entry)
    conditions = []
    for cid in lib.condition_ids():
        entry = _leaf_entry(lib.conditions[cid].leaf, ids)
        entry.pop("kind")
        entry["achievers"] = list(lib.conditions[cid].achievers)
        conditions.append(entry)
    block: dict[str, Any] = {"actions": actions, "conditions": conditions}
    if root is not None:
        block["root"] = root
    return {
        "format": FORMAT,
        "universe": _world_block(lib.world),
        "library": block,
    }


def dump_document(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With an indent the stdlib encoder runs in pure Python, one call per
    value.  This writer does the same walk but writes a list of plain ints
    (cell arrays, successor targets: most of a document) with one gather
    from a per-call table of decimal texts and one join.
    Keys must be strings, as they are in every document.
    """
    out: list[str] = []
    _write(doc, "\n", out, _Decimals())
    out.append("\n")
    return "".join(out)


_INT = frozenset({int})


class _Decimals(dict):
    """int -> its decimal text, each entry made on first use; one table per document.

    A document repeats the same few thousand cell ids hundreds of times, so
    a list of ints becomes its texts in one ``itemgetter`` gather instead of
    one ``int.__repr__`` call per entry.
    """

    __slots__ = ()

    def __missing__(self, key: int) -> str:
        text = self[key] = int.__repr__(key)
        return text


def _write(value: Any, newline: str, out: list[str], decimals: _Decimals) -> None:
    """Append value's indented JSON text; newline is "\\n" plus its indent."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(item, inner, out, decimals)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif _INT.issuperset(map(type, value)):  # plain ints only: bools print as true/false
            if len(value) == 1:  # itemgetter of one key returns the text, not a tuple
                body = decimals[value[0]]
            else:
                body = ("," + inner).join(itemgetter(*value)(decimals))
            out.append("[" + inner + body + newline + "]")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out, decimals)
                sep = "," + inner
            out.append(newline + "]")
    else:
        out.append(_scalar(value))


def _scalar(value: Any) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
