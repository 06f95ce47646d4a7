"""Closed-loop simulation, finite-time-success checks and exact hit times.

The discrete-time execution ticks the tree at the current cell, applies the
resolved action's successor map, and repeats.  When the tick resolves a
Condition leaf there is no controller to apply; the simulator halts and
reports it rather than freezing silently.

Exit times, hitting times and action deadlines all come from one memoized
walk over a finite deterministic step map.  A walk ends in the goal, at a
cell with no step, or by closing a cycle, so its answer is exact and needs
no step cap.  Closed-loop walks read the model's per-cell successor list
(``BTModel.closed_loop``, built once per model), so no cell is ticked per
query; only ``simulate`` ticks, because it reports statuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .bt import BTModel, NodeKind, Status, tick
from .statespace import Region

HALT_STOP = "stop"
HALT_NO_ACTION = "no-action"
HALT_MAX_STEPS = "max-steps"


class ExecutionError(ValueError):
    pass


@dataclass(frozen=True)
class Trace:
    """One closed-loop run: per step the cell, the resolved leaf, the root status."""

    states: tuple[int, ...]
    leaves: tuple[int, ...]
    statuses: tuple[Status, ...]
    halt: str

    def __len__(self) -> int:
        return len(self.states)

    def to_log(self, model: BTModel) -> str:
        lines = []
        for k, (cell, leaf, status) in enumerate(zip(self.states, self.leaves, self.statuses)):
            name = model.names[leaf] or f"v{leaf}"
            lines.append(f"{k} {cell} {name} {status.value}")
        lines.append(f"# halt: {self.halt}")
        return "\n".join(lines)


def _hit_times(
    step: Callable[[int], Optional[int]], goal: Region, starts: Iterable[int]
) -> Iterator[tuple[int, Optional[int]]]:
    """Yield (start, k) per start: the first k >= 0 with step^k(start) in goal.

    k is None when the walk reaches a cell whose step is None or closes a
    cycle outside goal.  The walks share one memo, so every cell is stepped
    at most once per call.
    """
    memo: dict[int, Optional[int]] = {}
    in_goal = goal.digits()
    for start in starts:
        path: list[int] = []
        x: Optional[int] = start
        while x is not None and x not in memo and in_goal[x] != "1":
            memo[x] = None  # provisional: a walk that returns here closed a cycle
            path.append(x)
            x = step(x)
        hit = None if x is None else memo.get(x, 0)  # not memoized: x is in goal
        for y in reversed(path):
            hit = None if hit is None else hit + 1
            memo[y] = hit
        yield start, hit


def simulate(
    model: BTModel,
    x0: int,
    max_steps: int,
    stop: Optional[Callable[[int, Status], bool]] = None,
) -> Trace:
    """Tick-then-step from x0 until stop holds, a Condition resolves, or max_steps."""
    if not 0 <= x0 < model.world.cell_count:
        raise ExecutionError(f"start cell {x0} outside universe")
    if max_steps <= 0:
        raise ExecutionError("max_steps must be positive")
    states: list[int] = []
    leaves: list[int] = []
    statuses: list[Status] = []
    x = x0
    halt = HALT_MAX_STEPS
    for _ in range(max_steps):
        leaf, status = tick(model, x)
        states.append(x)
        leaves.append(leaf)
        statuses.append(status)
        if stop is not None and stop(x, status):
            halt = HALT_STOP
            break
        if model.kinds[leaf] is not NodeKind.ACTION:
            halt = HALT_NO_ACTION
            break
        x = model.leaves[leaf].controller.next(x)
    return Trace(tuple(states), tuple(leaves), tuple(statuses), halt)


@dataclass(frozen=True)
class FtsVerdict:
    """Outcome of a finite-time-success check.

    kind is one of basin-static, goal-static, basin-invariance,
    goal-invariance, deadline; witness is the offending cell and step the
    first step count involved (None when not applicable).
    """

    ok: bool
    kind: Optional[str] = None
    witness: Optional[int] = None
    step: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def check_fts(model: BTModel, leaf: int) -> FtsVerdict:
    """Verify the basin/goal/deadline contract of one action leaf.

    The leaf's own dynamics are iterated from every basin cell: the basin
    and the goal must each be closed under one step, and every basin cell
    must reach the goal within the leaf's step deadline.  An empty basin is
    vacuously fine.
    """
    data = model.leaves.get(leaf)
    if data is None or model.kinds[leaf] is not NodeKind.ACTION:
        raise ExecutionError(f"vertex {leaf} is not an action leaf")
    if data.doa is None:
        raise ExecutionError(f"leaf {data.name!r} has no attraction basin data")
    basin, goal, horizon = data.doa.basin, data.doa.goal, data.doa.horizon
    if basin.is_empty:
        return FtsVerdict(True)
    universe = model.world.full_region()
    running = universe - data.success - data.failure
    if not basin.issubset(running | data.success):
        bad = (basin - (running | data.success)).any_cell()
        return FtsVerdict(False, "basin-static", bad, None)
    if not goal.issubset(basin & data.success):
        bad = (goal - (basin & data.success)).any_cell()
        return FtsVerdict(False, "goal-static", bad, None)
    nxt = data.controller.targets
    basin_cells = list(basin.cells())
    in_basin, in_goal = basin.digits(), goal.digits()
    for c in basin_cells:
        if in_basin[nxt[c]] != "1":
            return FtsVerdict(False, "basin-invariance", c, 1)
    for c in goal.cells():
        if in_goal[nxt[c]] != "1":
            return FtsVerdict(False, "goal-invariance", c, 1)
    for c, hit in _hit_times(nxt.__getitem__, goal, basin_cells):
        if hit is None or hit > horizon:
            return FtsVerdict(False, "deadline", c, hit)
    return FtsVerdict(True)


@dataclass(frozen=True)
class ExitResult:
    """Max first-exit step over all start cells, or the cell that never exits."""

    steps: Optional[int]
    witness: Optional[int] = None

    def __bool__(self) -> bool:
        return self.steps is not None


def empirical_exit_time(model: BTModel, region: Region) -> ExitResult:
    """Closed-loop bound on how long the state can remain inside region.

    Walks the full loop from every region cell and returns the maximum
    first step at which the state leaves.  The witness is the smallest cell
    whose walk never leaves: it closes a cycle inside region or reaches a
    cell where a Condition resolves.
    """
    if region.n != model.world.cell_count:
        raise ExecutionError("region over a different universe")
    worst = 0
    step = model.closed_loop().__getitem__
    for c, steps in _hit_times(step, region.complement(), region.cells()):
        if steps is None:
            return ExitResult(None, c)
        worst = max(worst, steps)
    return ExitResult(worst)


def hitting_time(model: BTModel, x0: int, goal: Region, max_steps: int) -> Optional[int]:
    """First step, if at most max_steps, at which the closed loop reaches goal from x0."""
    if not 0 <= x0 < model.world.cell_count:
        raise ExecutionError(f"start cell {x0} outside universe")
    _, hit = next(_hit_times(model.closed_loop().__getitem__, goal, [x0]))
    return hit if hit is not None and hit <= max_steps else None


def closed_loop_targets(model: BTModel) -> list[Optional[int]]:
    """Per-cell next cell under the full loop; None where a Condition resolves."""
    return list(model.closed_loop())
