"""JSON spec documents: the on-disk format the CLI reads and writes.

A document carries a universe block, leaf definitions, a tree, and
optionally an abstraction list, an action/condition library, and a
substitution block.  Regions serialize as sorted cell-index arrays,
dynamics as per-cell target arrays.  Parsing validates every reference and
index; every error starts with the JSON path of the offending field, from
the document root (``leaves[3].doa.horizon``, ``tree.seq[1].fal[0]``).
"""

from __future__ import annotations

import json
import math
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from .bt import BTModel, Doa, LeafData, ModelError, NodeKind, NodeSpec, check_leaf
from .statespace import BTConvergeError, Region, SuccessorMap, World, WorldError, _gather, bit_selector, check_targets

if TYPE_CHECKING:  # the library and substitution readers import these when they run
    from .backchain import ActionConditionLibrary
    from .substitution import RrLeaf, SubstitutionSpec

FORMAT = "btconverge/1"


class SpecError(BTConvergeError):
    pass


class LoadedSpec(NamedTuple):
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
        except RecursionError:  # the decoder nests as deep as the interpreter's recursion limit
            raise SpecError(f"{path}: not valid JSON: nested too deeply") from None
    return parse_document(doc)


def parse_document(doc: dict) -> LoadedSpec:
    doc = _obj(doc, "document")
    if doc.get("format") != FORMAT:
        raise SpecError(f"format must be {FORMAT!r}, got {doc.get('format')!r}")
    world = _parse_world(_obj(doc.get("universe"), "universe"))
    regions = _Regions(world)
    delta = _optional(_number, doc.get("delta"), "delta")

    leaves: dict[str, LeafData] = {}
    for i, entry in enumerate(_list(doc.get("leaves", []), "leaves", of=dict)):
        leaf = _parse_leaf(entry, regions, f"leaves[{i}]")
        if leaf.name in leaves:
            raise SpecError(f"leaves[{i}].name: duplicate leaf {leaf.name!r}")
        leaves[leaf.name] = leaf

    model = None
    if "tree" in doc:
        try:
            model = BTModel(world, _parse_tree(doc["tree"], leaves, "tree"))
        except ModelError as exc:
            raise SpecError(f"tree: {exc}") from exc
        except RecursionError:  # both walks recurse once per tree level
            raise SpecError("tree: nested too deeply") from None

    abstraction = None
    if doc.get("abstraction") is not None:
        abstraction = _list(doc["abstraction"], "abstraction", of=str)
        if not abstraction:
            raise SpecError("abstraction must be a nonempty list")
        if model is None:
            raise SpecError("abstraction: block without a tree")
        for i, name in enumerate(abstraction):
            if name not in model.leaf_by_name:
                raise SpecError(f"abstraction[{i}]: unknown leaf {name!r}")

    library, library_root = None, None
    if "library" in doc:
        library, library_root = _parse_library(_obj(doc["library"], "library"), regions)

    substitution = None
    if "substitution" in doc:
        if model is None:
            raise SpecError("substitution: block without a tree")
        substitution = _parse_substitution(_obj(doc["substitution"], "substitution"), regions, model)

    return LoadedSpec(world, model, abstraction, delta, library, library_root, substitution)


# ----------------------------------------------------------------------
# typed readers: each takes a value and its JSON path from the document
# root, and raises SpecError("<path> ...") unless the value has its type.
# The block parsers after them add only the cross-reference checks.


def _obj(value: Any, path: str) -> dict:
    if type(value) is not dict:
        raise SpecError(f"{path} must be an object")
    return value


_NOUNS = {dict: "objects", str: "strings", list: "lists", int: "integers"}
_INT = frozenset({int})
_NUMBER = frozenset({int, float})


def _list(value: Any, path: str, of: Optional[type] = None) -> list:
    """A JSON array; with ``of``, every entry of exactly that type (a JSON
    ``true`` is no integer), checked in C and walked only to name the first
    bad entry."""
    if not isinstance(value, list):
        raise SpecError(f"{path} must be a list")
    if of is not None and not {of}.issuperset(map(type, value)):
        i, bad = next((i, item) for i, item in enumerate(value) if type(item) is not of)
        raise SpecError(f"{path}: expected {_NOUNS[of]}, got {bad!r} at [{i}]")
    return value


def _int(value: Any, path: str, low: int) -> int:
    """A JSON integer of at least low (0 or 1)."""
    if type(value) is not int or value < low:
        raise SpecError(f"{path} must be a {'positive' if low else 'non-negative'} integer")
    return value


def _number(value: Any, path: str) -> float:
    """A non-negative JSON number inside the float range, inf included; not NaN or a boolean."""
    if type(value) not in _NUMBER or not value >= 0 or not _fits_floats((value,)):
        raise SpecError(f"{path} must be a non-negative number, got {value!r}")
    return value


def _bool(value: Any, path: str) -> bool:
    if type(value) is not bool:
        raise SpecError(f"{path} must be true or false, got {value!r}")
    return value


def _name(value: Any, path: str) -> str:
    if type(value) is not str or not value:
        raise SpecError(f"{path} must be a nonempty string")
    return value


def _optional(read: Callable[..., Any], value: Any, path: str, *args: Any) -> Any:
    """read(value, path, *args), or None for a missing or null field."""
    return None if value is None else read(value, path, *args)


class _Regions(dict):
    """cell tuple -> its Region of world, each made on first use; one table per document.

    A document lists the same region many times (a postcondition is the
    next action's precondition), so each distinct cell list is marked once
    and its repeats share one immutable Region.
    """

    __slots__ = ("world",)

    def __init__(self, world: World) -> None:
        self.world = world

    def __missing__(self, cells: tuple[int, ...]) -> Region:
        region = self[cells] = Region.from_cells(self.world.cell_count, cells)
        return region


def _region(value: Any, path: str, regions: _Regions) -> Region:
    """A list of cells, read through the document's table.  The type scan
    comes first: ``True == 1`` and they hash alike, so only it refuses ``[true]``."""
    try:
        return regions[tuple(_list(value, path, of=int))]
    except WorldError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _targets(value: Any, path: str, cells: int) -> SuccessorMap:
    """A successor map: one target cell per cell, ``cells`` of them."""
    if not isinstance(value, list) or len(value) != cells:
        raise SpecError(f"{path} must list one target per cell")
    try:
        return SuccessorMap(_list(value, path, of=int))
    except WorldError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _pairs(value: Any, path: str) -> list[list[int]]:
    """A list of [p, q] cell pairs, checked in C; only a bad list is walked."""
    pairs = _list(value, path, of=list)
    if not ({2} >= set(map(len, pairs)) and _INT.issuperset(map(type, chain.from_iterable(pairs)))):
        for i, pair in enumerate(pairs):
            if len(_list(pair, f"{path}[{i}]", of=int)) != 2:
                raise SpecError(f"{path}[{i}] must be a pair of cells")
    return pairs


def _fits_floats(numbers: Any) -> bool:
    try:
        list(map(float, numbers))
    except OverflowError:  # an integer past the float range
        return False
    return True


def _coords(coords: Any, cells: int) -> list:
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
            return coords
    dim = len(coords[0]) if isinstance(coords[0], list) else None
    for i, point in enumerate(coords):
        if not isinstance(point, list) or not _NUMBER.issuperset(map(type, point)):
            raise SpecError(f"universe.coords[{i}] must be a list of numbers")
        if len(point) != dim:
            raise SpecError(f"universe.coords[{i}] has {len(point)} coordinates, not {dim}")
        if not _fits_floats(point):
            raise SpecError(f"universe.coords[{i}] holds an integer past the float range")
    return coords


def _fallback(value: Any, model: BTModel) -> int:
    """substitution.target: a vertex id, or the name of a leaf whose parent it is."""
    if type(value) is int:
        if not 0 <= value < model.n:
            raise SpecError(f"substitution.target: vertex {value} outside 0..{model.n - 1}")
        return value
    if not isinstance(value, str):
        raise SpecError("substitution.target must be a leaf name or vertex id")
    if value not in model.leaf_by_name:
        raise SpecError(f"substitution.target: unknown leaf {value!r}")
    parent = model.tree.parent[model.leaf_by_name[value]]
    if parent is None:
        raise SpecError(f"substitution.target: leaf {value!r} has no enclosing fallback")
    return parent


def _parse_world(block: dict) -> World:
    cells = _int(block.get("cells"), "universe.cells", 1)
    coords = block.get("coords")
    adjacency = block.get("adjacency")
    if coords is not None and adjacency is not None:
        raise SpecError("universe: give coords or adjacency, not both")
    if adjacency is None and "adjacency_directed" in block:
        raise SpecError("universe.adjacency_directed without universe.adjacency")
    try:
        if coords is not None:
            return World(cells, coords=_coords(coords, cells))
        if adjacency is not None:
            pairs = _pairs(adjacency, "universe.adjacency")
            directed = _bool(block.get("adjacency_directed", False), "universe.adjacency_directed")
            return World(cells, adjacency=pairs, symmetric=not directed)
        return World(cells)
    except WorldError as exc:
        raise SpecError(f"universe: {exc}") from exc


def _parse_leaf(entry: dict, regions: _Regions, path: str, kind: Optional[str] = None) -> LeafData:
    """One leaf entry; a library entry passes its kind instead of carrying one."""
    world = regions.world
    name = _name(entry.get("name"), f"{path}.name")
    if kind is None:
        kind = entry.get("kind")
        if kind not in ("action", "condition"):
            raise SpecError(f"{path}.kind must be action or condition")
    success = _region(entry.get("success", []), f"{path}.success", regions)
    if "failure" in entry:
        failure = _region(entry["failure"], f"{path}.failure", regions)
    elif kind == "condition":
        failure = success.complement()
    else:
        failure = Region.empty(world.cell_count)
    controller = None
    if kind == "action":
        controller = _targets(entry.get("next"), f"{path}.next", world.cell_count)
    doa = _optional(_parse_doa, entry.get("doa"), f"{path}.doa", regions)
    leaf = LeafData(name, NodeKind(kind), success, failure, controller, doa)
    try:
        check_leaf(leaf, world)
    except ModelError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    return leaf


def _parse_doa(value: Any, path: str, regions: _Regions) -> Doa:
    block = _obj(value, path)
    return Doa(  # keyword order is the order the fields are checked in
        horizon=_int(block.get("horizon"), f"{path}.horizon", 1),
        basin=_region(block.get("basin", []), f"{path}.basin", regions),
        goal=_region(block.get("goal", []), f"{path}.goal", regions),
    )


def _parse_tree(node: Any, leaves: dict[str, LeafData], path: str) -> NodeSpec:
    if len(_obj(node, path)) != 1:
        raise SpecError(f"{path} must hold exactly one of seq / fal / leaf")
    key, value = next(iter(node.items()))
    path = f"{path}.{key}"
    if key == "leaf":
        leaf = leaves.get(_name(value, path))
        if leaf is None:
            raise SpecError(f"{path}: unknown leaf {value!r}")
        return NodeSpec(leaf.kind, leaf=leaf)
    if key not in ("seq", "fal"):
        raise SpecError(f"{path}: unknown tree node type")
    if not _list(value, path):
        raise SpecError(f"{path} must be a nonempty list")
    children = (_parse_tree(child, leaves, f"{path}[{i}]") for i, child in enumerate(value))
    return NodeSpec(NodeKind(key), tuple(children))


def _parse_library(block: dict, regions: _Regions) -> tuple[ActionConditionLibrary, Optional[str]]:
    from .backchain import ActionConditionLibrary, ActionEntry, ConditionEntry, LibraryError

    actions = {}
    for i, entry in enumerate(_list(block.get("actions", []), "library.actions", of=dict)):
        path = f"library.actions[{i}]"
        leaf = _parse_leaf(entry, regions, path, "action")
        pre = _list(entry.get("preconditions", []), f"{path}.preconditions", of=str)
        if leaf.name in actions:
            raise SpecError(f"{path}.name: duplicate action {leaf.name!r}")
        actions[leaf.name] = ActionEntry(leaf, tuple(pre))
    conditions = {}
    for i, entry in enumerate(_list(block.get("conditions", []), "library.conditions", of=dict)):
        path = f"library.conditions[{i}]"
        leaf = _parse_leaf(entry, regions, path, "condition")
        ach = _list(entry.get("achievers", []), f"{path}.achievers", of=str)
        if leaf.name in conditions:
            raise SpecError(f"{path}.name: duplicate condition {leaf.name!r}")
        conditions[leaf.name] = ConditionEntry(leaf, tuple(ach))
    try:
        lib = ActionConditionLibrary(regions.world, actions, conditions)
    except LibraryError as exc:
        raise SpecError(f"library: {exc}") from exc
    root = block.get("root")
    if root is not None and _name(root, "library.root") not in actions:
        raise SpecError(f"library.root: {root!r} is not an action")
    return lib, root


def _parse_substitution(block: dict, regions: _Regions, model: BTModel) -> SubstitutionSpec:
    from .substitution import RrLeaf, SubstitutionError, SubstitutionSpec, _target_shape

    target = _fallback(block.get("target"), model)
    budget = _int(block.get("time_budget"), "substitution.time_budget", 0)
    hyst_cap = _int(block.get("hysteresis_cap", 0), "substitution.hysteresis_cap", 0)
    dd_next = _list(block.get("dd_next"), "substitution.dd_next", of=int)
    cells = regions.world.cell_count
    if len(dd_next) not in (cells, cells * (budget + 1) * (hyst_cap + 1)):
        raise SpecError("substitution.dd_next must list one target per base or augmented cell")
    try:  # every target is a base cell
        check_targets(dd_next, cells)
    except WorldError as exc:
        raise SpecError(f"substitution.dd_next: {exc}") from exc
    rr = _obj(block.get("rr"), "substitution.rr")
    spec = SubstitutionSpec(  # keyword order is the order the fields are checked in
        target=target,
        time_budget=budget,
        hysteresis_cap=hyst_cap,
        dd_targets=dd_next,
        rr=RrLeaf(
            controller=_targets(rr.get("next"), "substitution.rr.next", cells),
            doa=_optional(_parse_doa, rr.get("doa"), "substitution.rr.doa", regions),
            success=_region(rr.get("success", []), "substitution.rr.success", regions),
            failure=_region(rr.get("failure", []), "substitution.rr.failure", regions),
        ),
        dd_success=_optional(_region, block.get("dd_success"), "substitution.dd_success", regions),
        dd_failure=_optional(_region, block.get("dd_failure"), "substitution.dd_failure", regions),
        rok_success=_region(block.get("risk_ok", []), "substitution.risk_ok", regions),
        hysteresis=_bool(block.get("hysteresis", False), "substitution.hysteresis"),
    )
    try:  # once every field reads: the target must be a fallback of a condition and an action
        _target_shape(model, target)
    except SubstitutionError as exc:
        raise SpecError(f"substitution.target: {exc}") from exc
    return spec


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


class _Ints(list):
    """An array of plain ints that this module built: a region's cells or a
    successor map's targets.  The writer trusts it and skips its per-entry
    type scan; the reader scans it like every other list.  A built document
    shares one array among its equal regions, so none may be changed."""

    __slots__ = ()


class _CellLists(dict):
    """mask -> its cells as one ``_Ints``, made on first use; one table per built document.

    The cells are picked in C from ``list(range(cells))``, so no new int
    object is made per cell, and a region listed again shares the array.
    """

    __slots__ = ("ids",)

    def __init__(self, cells: int) -> None:
        self.ids = list(range(cells))

    def __missing__(self, mask: int) -> _Ints:
        cells = self[mask] = _Ints(compress(self.ids, bit_selector(mask)))
        return cells


def _leaf_entry(leaf: LeafData | RrLeaf, cells: _CellLists, **fields: Any) -> dict:
    """fields plus the leaf's regions, read through the document's table, and dynamics."""
    entry = {**fields, "success": cells[leaf.success.mask], "failure": cells[leaf.failure.mask]}
    if leaf.controller is not None:
        entry["next"] = _Ints(leaf.controller.targets)
    if leaf.doa is not None:
        entry["doa"] = {
            "basin": cells[leaf.doa.basin.mask],
            "goal": cells[leaf.doa.goal.mask],
            "horizon": leaf.doa.horizon,
        }
    return entry


def _tree_block(model: BTModel, vertex: int) -> dict:
    kind = model.kinds[vertex]
    if kind in (NodeKind.ACTION, NodeKind.CONDITION):
        return {"leaf": model.names[vertex]}
    return {kind.value: [_tree_block(model, c) for c in model.tree.children[vertex]]}


def build_document(
    model: BTModel,
    abstraction: Optional[list[str]] = None,
    delta: Optional[float] = None,
    substitution: Optional[dict] = None,
) -> dict:
    cells = _CellLists(model.world.cell_count)
    doc: dict[str, Any] = {
        "format": FORMAT,
        "universe": _world_block(model.world),
        "leaves": [
            _leaf_entry(leaf, cells, name=leaf.name, kind=leaf.kind.value)
            for leaf in map(model.leaves.__getitem__, sorted(model.leaves))
        ],
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
    cells = _CellLists(spec.rok_success.n)
    block: dict[str, Any] = {
        "target": target_name if target_name is not None else spec.target,
        "time_budget": spec.time_budget,
        "hysteresis_cap": spec.hysteresis_cap,
        "hysteresis": spec.hysteresis,
        "risk_ok": cells[spec.rok_success.mask],
        "dd_next": list(spec.dd_targets),
        "rr": _leaf_entry(spec.rr, cells),
    }
    if spec.dd_success is not None:
        block["dd_success"] = cells[spec.dd_success.mask]
    if spec.dd_failure is not None:
        block["dd_failure"] = cells[spec.dd_failure.mask]
    return block


def library_document(lib: ActionConditionLibrary, root: Optional[str] = None) -> dict:
    cells = _CellLists(lib.world.cell_count)
    actions = [
        _leaf_entry(a.leaf, cells, name=a.leaf.name, preconditions=list(a.preconditions))
        for a in map(lib.actions.__getitem__, lib.action_ids())
    ]
    conditions = [
        _leaf_entry(c.leaf, cells, name=c.leaf.name, achievers=list(c.achievers))
        for c in map(lib.conditions.__getitem__, lib.condition_ids())
    ]
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
    from a per-call table of decimal texts and one join; an ``_Ints`` array
    skips the type scan that tells such a list apart, and its text is made
    once however many times, and at however many indents, a built document
    shares it.
    Keys must be strings, as they are in every document.
    """
    out: list[str] = []
    _write(doc, "\n", out, _Decimals(), {})
    out.append("\n")
    return "".join(out)


class _Decimals(dict):
    """int -> its decimal text, each entry made on first use; one table per document.

    A document repeats the same few thousand cell ids hundreds of times, so
    a list of ints becomes its texts in one C gather (``_gather``) instead of
    one ``int.__repr__`` call per entry.
    """

    __slots__ = ()

    def __missing__(self, key: int) -> str:
        text = self[key] = int.__repr__(key)
        return text


def _write(value: Any, newline: str, out: list[str], decimals: _Decimals, arrays: dict) -> None:
    """Append value's indented JSON text; newline is "\\n" plus its indent.

    arrays maps the id of each ``_Ints`` written so far to its text per
    newline; the document holds every such array while it is written, so no
    id is reused.  An array met again at another indent re-indents its first
    text with one ``str.replace`` instead of a second gather and join.
    """
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
            _write(item, inner, out, decimals, arrays)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif type(value) is _Ints:
            texts = arrays.setdefault(id(value), {})
            text = texts.get(newline)
            if text is None:
                if texts:  # re-indent the first text: its every line break starts with its newline
                    first, first_text = next(iter(texts.items()))
                    text = first_text.replace(first, newline)
                else:
                    text = _int_array(value, newline, decimals)
                texts[newline] = text
            out.append(text)
        elif _INT.issuperset(map(type, value)):  # bools print as true/false
            out.append(_int_array(value, newline, decimals))
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out, decimals, arrays)
                sep = "," + inner
            out.append(newline + "]")
    else:
        out.append(_scalar(value))


def _int_array(value: list[int], newline: str, decimals: _Decimals) -> str:
    """A nonempty list of plain ints at newline's indent: one gather of texts and one join."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(_gather(decimals, value)) + newline + "]"


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
