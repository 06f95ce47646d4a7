"""Workload inputs: generated `btconverge/1` documents and seeded relabellings.

Everything here builds plain JSON documents; nothing imports the program.
The grid and chain families are written out cell by cell, and the six
bundled examples come from the JSON fixtures next to this file.  A
relabelling permutes cell indices consistently through every block of a
document, so verdicts, bounds and slice-graph shapes are unchanged while
each operation still sees a distinct input.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Sequence

FORMAT = "btconverge/1"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BUNDLED = (
    "eat_tree",
    "surveying_robot",
    "surveying_robot_library",
    "mobile_manipulator",
    "patrol",
    "gridworld",
)


def _cells(n: int, pred: Callable[[int], bool]) -> list[int]:
    return [c for c in range(n) if pred(c)]


def _condition(name: str, n: int, pred: Callable[[int], bool]) -> dict:
    success = _cells(n, pred)
    inside = set(success)
    return {
        "name": name,
        "kind": "condition",
        "success": success,
        "failure": [c for c in range(n) if c not in inside],
    }


def _action(
    name: str,
    n: int,
    success: Callable[[int], bool],
    step: Callable[[int], int],
    basin: Callable[[int], bool],
    goal: Callable[[int], bool],
    horizon: int,
) -> dict:
    return {
        "name": name,
        "kind": "action",
        "success": _cells(n, success),
        "failure": [],
        "next": [step(c) for c in range(n)],
        "doa": {"basin": _cells(n, basin), "goal": _cells(n, goal), "horizon": horizon},
    }


def grid_document(side: int) -> dict:
    """The bundled 6x6 funnel gridworld generalized to ``side``.

    Halves split at side // 2, deadlines side / side / 2 * side, delta 1.0.
    Cell c sits at (c % side, c // side).
    """
    n = side * side
    half = side // 2
    last = side - 1

    def xy(c: int) -> tuple[int, int]:
        return c % side, c // side

    def cell(x: int, y: int) -> int:
        return x + side * y

    def right(c: int) -> bool:
        return xy(c)[0] >= half

    def top(c: int) -> bool:
        return xy(c)[1] >= half

    def corner(c: int) -> bool:
        return c == cell(last, last)

    def go_right(c: int) -> int:
        x, y = xy(c)
        return cell(x + 1, y) if x < half else c

    def go_up(c: int) -> int:
        x, y = xy(c)
        return cell(x, y + 1) if y < half else c

    def dock(c: int) -> int:
        x, y = xy(c)
        if x < last:
            return cell(x + 1, y)
        return cell(x, y + 1) if y < last else c

    leaves = [
        _condition("right_half", n, right),
        _action("go_right", n, right, go_right, lambda c: xy(c)[0] >= 1, right, side),
        _condition("top_half", n, top),
        _action("go_up", n, top, go_up, right, lambda c: right(c) and top(c), side),
        _action("dock", n, corner, dock, lambda c: right(c) and top(c), corner, 2 * side),
    ]
    tree = {
        "seq": [
            {"fal": [{"leaf": "right_half"}, {"leaf": "go_right"}]},
            {"fal": [{"leaf": "top_half"}, {"leaf": "go_up"}]},
            {"leaf": "dock"},
        ]
    }
    return {
        "format": FORMAT,
        "universe": {"cells": n, "coords": [[float(c % side), float(c // side)] for c in range(n)]},
        "leaves": leaves,
        "tree": tree,
        "abstraction": ["go_right", "go_up", "dock"],
        "delta": 1.0,
    }


def chain_document(stages: int, width: int) -> dict:
    """A funnel library on a line: ``stages`` actions of ``width`` cells each.

    Action a_i drives [w*i, w*(i+1)) forward by one cell per step.  Condition
    c_i is x >= w*(i+1); a_i achieves it and it is the only precondition of
    a_(i+1).  The root is the last action, so backchaining nests every stage.
    """
    n = stages * width + 1
    names = [f"a{i:03d}" for i in range(stages)]
    conds = [f"c{i:03d}" for i in range(stages - 1)]
    actions = []
    for i, name in enumerate(names):
        lo, hi = width * i, width * (i + 1)
        entry = _action(
            name,
            n,
            lambda c, hi=hi: c >= hi,
            lambda c, lo=lo, hi=hi: c + 1 if lo <= c < hi else c,
            lambda c, lo=lo: c >= lo,
            lambda c, hi=hi: c >= hi,
            width,
        )
        del entry["kind"]
        entry["preconditions"] = [conds[i - 1]] if i else []
        actions.append(entry)
    conditions = []
    for i, name in enumerate(conds):
        entry = _condition(name, n, lambda c, hi=width * (i + 1): c >= hi)
        del entry["kind"]
        entry["achievers"] = [names[i]]
        conditions.append(entry)
    return {
        "format": FORMAT,
        "universe": {"cells": n, "coords": [[float(c)] for c in range(n)]},
        "library": {"actions": actions, "conditions": conditions, "root": names[-1]},
        "delta": 1.0,
    }


def bundled_document(name: str) -> dict:
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def patrol_sub_document(time_budget: int, hysteresis_cap: int) -> dict:
    """The bundled patrol spec with the substitution counters resized."""
    doc = bundled_document("patrol")
    doc["substitution"].update(
        time_budget=time_budget, hysteresis_cap=hysteresis_cap, hysteresis=False
    )
    return doc


# ----------------------------------------------------------------------
# relabelling


def permutation(n: int, rng: random.Random) -> list[int]:
    """perm[old_cell] = new_cell."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _region(cells: Sequence[int], perm: Sequence[int]) -> list[int]:
    return sorted(perm[c] for c in cells)


def _targets(targets: Sequence[int], perm: Sequence[int]) -> list[int]:
    out = [0] * len(perm)
    for c, t in enumerate(targets):
        out[perm[c]] = perm[t]
    return out


def _relabel_leaf(entry: dict, perm: Sequence[int]) -> dict:
    out = dict(entry)
    for key in ("success", "failure"):
        if key in out:
            out[key] = _region(out[key], perm)
    if "next" in out:
        out["next"] = _targets(out["next"], perm)
    if out.get("doa") is not None:
        doa = dict(out["doa"])
        doa["basin"] = _region(doa["basin"], perm)
        doa["goal"] = _region(doa["goal"], perm)
        out["doa"] = doa
    return out


def relabel(doc: dict, perm: Sequence[int]) -> dict:
    """Apply a cell permutation to every cell-indexed field of a document."""
    n = doc["universe"]["cells"]
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of the universe")
    out = dict(doc)
    universe = dict(doc["universe"])
    if "coords" in universe:
        coords = [None] * n
        for c, point in enumerate(universe["coords"]):
            coords[perm[c]] = point
        universe["coords"] = coords
    if "adjacency" in universe:
        universe["adjacency"] = sorted([perm[p], perm[q]] for p, q in universe["adjacency"])
    out["universe"] = universe
    if "leaves" in doc:
        out["leaves"] = [_relabel_leaf(e, perm) for e in doc["leaves"]]
    if "library" in doc:
        lib = dict(doc["library"])
        lib["actions"] = [_relabel_leaf(e, perm) for e in lib.get("actions", [])]
        lib["conditions"] = [_relabel_leaf(e, perm) for e in lib.get("conditions", [])]
        out["library"] = lib
    if "substitution" in doc:
        sub = dict(doc["substitution"])
        if len(sub["dd_next"]) != n:
            raise ValueError("only per-base-cell dd_next arrays can be relabelled")
        sub["dd_next"] = _targets(sub["dd_next"], perm)
        for key in ("risk_ok", "dd_success", "dd_failure"):
            if sub.get(key) is not None:
                sub[key] = _region(sub[key], perm)
        sub["rr"] = _relabel_leaf(sub["rr"], perm)
        out["substitution"] = sub
    return out


def write_document(doc: dict, path: Path) -> int:
    """Write in the layout the program itself emits; return the byte count."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))
