"""Expected answers, kept apart from the program under test.

Bounds come from closed forms of the generated families and from the
values the acceptance suite pins for the bundled examples.  A naive
closed-loop stepper reads the JSON documents directly (sets and a recursive
tick, no bitsets, no region analysis) and confirms that every start cell
reaches the goal within a reported bound and that `simulate` logs are what
the tree semantics say.
"""

from __future__ import annotations

from typing import Optional, Sequence

SUCCESS, FAILURE, RUNNING = "success", "failure", "running"


def grid_bounds(side: int) -> tuple[int, int]:
    """(bound, refined_bound) of the side x side funnel grid."""
    return 5 * (side - 2), 2 * side - 2


def chain_bound(stages: int, width: int) -> int:
    return (stages + 1) * width


# check verdicts of the bundled tree specs: (exit code, status, bound, refined)
BUNDLED_CHECK = {
    "eat_tree": (1, "refuted", None, None),
    "surveying_robot": (0, "certified", 75, 27),
    "gridworld": (0, "certified", 20, 10),
    "patrol": (0, "certified", 24, 9),
}
# backchain --certify on the bundled libraries: (bound, pattern verdict);
# both fail the basin hypothesis, so the pattern claim is not made
BUNDLED_BACKCHAIN = {"surveying_robot_library": (75, None), "mobile_manipulator": (10, None)}
# substitute on bundled patrol: augmented cells at time budget 5, cap 1
BUNDLED_SUBSTITUTE_CELLS = 10 * 6 * 2

# patrol with time budget 100, hysteresis cap 10, hysteresis off
PATROL_SUB = {"old_bound": 24, "bound": 32, "loop_exit": 8, "aug_cells": 10 * 101 * 11}


class Stepper:
    """Closed-loop semantics of a tree document, evaluated cell by cell."""

    def __init__(self, doc: dict) -> None:
        n = doc["universe"]["cells"]
        self.n = n
        self.tree = doc["tree"]
        self.leaves: dict[str, tuple[str, frozenset, frozenset, Optional[list]]] = {}
        for entry in doc["leaves"]:
            success = frozenset(entry.get("success", []))
            if "failure" in entry:
                failure = frozenset(entry["failure"])
            elif entry["kind"] == "condition":
                failure = frozenset(range(n)) - success
            else:
                failure = frozenset()
            self.leaves[entry["name"]] = (entry["kind"], success, failure, entry.get("next"))

    def tick(self, x: int, node: Optional[dict] = None) -> tuple[str, str]:
        """(executing leaf name, root status) at cell x."""
        node = self.tree if node is None else node
        (key, value), = node.items()
        if key == "leaf":
            _kind, success, failure, _next = self.leaves[value]
            if x in success:
                return value, SUCCESS
            return value, FAILURE if x in failure else RUNNING
        stop_unless = SUCCESS if key == "seq" else FAILURE
        for child in value:
            leaf, status = self.tick(x, child)
            if status != stop_unless:
                return leaf, status
        return leaf, status

    def successor(self, x: int) -> Optional[int]:
        """Next cell under the loop, or None where a condition resolves."""
        leaf, _status = self.tick(x)
        kind, _s, _f, targets = self.leaves[leaf]
        return targets[x] if kind == "action" else None

    def goal(self) -> set[int]:
        return {x for x in range(self.n) if self.tick(x)[1] == SUCCESS}

    def hitting_times(self) -> list[Optional[int]]:
        """Steps from each cell to the first cell where the root succeeds.

        None marks a cell whose run freezes on a condition or cycles
        outside the goal.
        """
        nxt = [self.successor(x) for x in range(self.n)]
        goal = self.goal()
        unknown = object()
        hit: list = [unknown] * self.n
        for start in range(self.n):
            path = []
            on_path = set()
            x: Optional[int] = start
            while x is not None and hit[x] is unknown and x not in goal and x not in on_path:
                path.append(x)
                on_path.add(x)
                x = nxt[x]
            if x is None or x in on_path:
                tail = None
            elif x in goal:
                hit[x] = 0
                tail = 0
            else:
                tail = hit[x]
            for y in reversed(path):
                tail = None if tail is None else tail + 1
                hit[y] = tail
        return hit

    def simulate_log(self, x0: int, steps: int) -> str:
        """The `simulate` log the tree semantics prescribe."""
        lines = []
        x = x0
        halt = "max-steps"
        for k in range(steps):
            leaf, status = self.tick(x)
            lines.append(f"{k} {x} {leaf} {status}")
            kind, _s, _f, targets = self.leaves[leaf]
            if kind != "action":
                halt = "no-action"
                break
            x = targets[x]
        lines.append(f"# halt: {halt}")
        return "\n".join(lines) + "\n"


def reach_problem(doc: dict, bound: int) -> Optional[str]:
    """None when every cell reaches the root-success set within bound steps."""
    hits = Stepper(doc).hitting_times()
    for x, h in enumerate(hits):
        if h is None:
            return f"cell {x} never reaches the goal"
        if h > bound:
            return f"cell {x} needs {h} steps, over the bound {bound}"
    return None


def never_reaches(doc: dict, cell: int) -> bool:
    return Stepper(doc).hitting_times()[cell] is None


def mismatch(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def first_problem(problems: Sequence[Optional[str]]) -> Optional[str]:
    return next((p for p in problems if p), None)
