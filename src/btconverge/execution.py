"""Closed-loop simulation, finite-time-success checks and exact hit times.

The discrete-time execution ticks the tree at the current cell, applies the
resolved action's successor map, and repeats.  When the tick resolves a
Condition leaf there is no controller to apply; the simulator halts and
reports it rather than freezing silently.

Exit times and action deadlines come from one hit-time kernel over a
finite deterministic step map.  A walk ends in the goal, at a cell with no
step, or by closing a cycle, so its answer is exact and needs no step cap.
The kernel's memo is one list per call, seeded in C from the goal's digits;
its answers, the successors of a check's cells and their membership in a
region are read with ``operator.itemgetter`` gathers, so Python only loops
over the cells a walk has to step.  ``hitting_time`` is the same kernel
with one start.  Closed-loop walks read the model's per-cell successor
list (``BTModel.closed_loop``, built once per model), so no cell is ticked
per query.  ``simulate`` ticks, because it reports statuses; a tick reads
the model's per-cell leaf table (``BTModel.leaf_at``), which is filled
from the leaves' tick regions (``NodeAnalysis.reached``) on the first tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .bt import BTModel, LeafData, NodeKind, Status, tick
from .statespace import BTConvergeError, Region

HALT_STOP = "stop"
HALT_NO_ACTION = "no-action"
HALT_MAX_STEPS = "max-steps"


class ExecutionError(BTConvergeError):
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
    targets: Sequence[Optional[int]], goal: Region, starts: Sequence[int]
) -> tuple[Optional[int], ...]:
    """Per start, the first k >= 0 with targets^k(start) in goal, aligned with starts.

    k is None when the walk reaches a cell whose target is None or closes a
    cycle outside goal.  The memo is one list per call, seeded in C from
    the goal's digits (0 in goal, -1 not yet walked), so every cell is
    stepped at most once per call and the answers are one gather.
    """
    memo: list[Optional[int]] = list(map(_MEMO_SEED, goal.digits()))
    for x in starts:
        if memo[x] != -1:
            continue
        path: list[int] = []
        while x is not None and memo[x] == -1:
            memo[x] = None  # provisional: a walk that returns here closed a cycle
            path.append(x)
            x = targets[x]
        hit = None if x is None else memo[x]
        if hit is not None:  # on a None hit the path keeps its provisional None
            for y in reversed(path):
                hit += 1
                memo[y] = hit
    return _gather(memo, starts)


_MEMO_SEED = {"1": 0, "0": -1}.__getitem__


def _gather(seq: Sequence, keys: Sequence[int]) -> tuple:
    """seq[k] for each k in keys, as a tuple, gathered in C."""
    if len(keys) > 1:
        return itemgetter(*keys)(seq)
    return tuple(seq[k] for k in keys)  # itemgetter returns no tuple for 0 or 1 keys


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
    goal-invariance, deadline, or missing-basin-data for a member with no
    basin data; witness is the offending cell and step the first step count
    involved (None when not applicable).
    """

    ok: bool
    kind: Optional[str] = None
    witness: Optional[int] = None
    step: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def check_fts(model: BTModel, leaf: int) -> FtsVerdict:
    """Verify the basin/goal/deadline contract of one action leaf (see leaf_fts)."""
    data = model.leaves.get(leaf)
    if data is None or model.kinds[leaf] is not NodeKind.ACTION:
        raise ExecutionError(f"vertex {leaf} is not an action leaf")
    if data.doa is None:
        raise ExecutionError(f"leaf {data.name!r} has no attraction basin data")
    return leaf_fts(data)


def leaf_fts(data: LeafData) -> FtsVerdict:
    """The finite-time-success verdict of one action leaf's data, over its regions' universe.

    The leaf's own dynamics are iterated from every basin cell: the basin
    and the goal must each be closed under one step, and every basin cell
    must reach the goal within the leaf's step deadline.  A goal cell hits
    at step 0, so only basin - goal is walked.  An empty basin is vacuously
    fine.  The data must carry a controller and basin data.
    """
    basin, goal, horizon = data.doa.basin, data.doa.goal, data.doa.horizon
    if basin.is_empty:
        return FtsVerdict(True)
    running = Region.full(basin.n) - data.success - data.failure
    if not basin.issubset(running | data.success):
        bad = (basin - (running | data.success)).any_cell()
        return FtsVerdict(False, "basin-static", bad, None)
    if not goal.issubset(basin & data.success):
        bad = (goal - (basin & data.success)).any_cell()
        return FtsVerdict(False, "goal-static", bad, None)
    nxt = data.controller.targets
    for kind, closed in (("basin-invariance", basin), ("goal-invariance", goal)):
        cells = list(closed.cells())
        ok = _gather(closed.digits(), _gather(nxt, cells))
        if "0" in ok:
            return FtsVerdict(False, kind, cells[ok.index("0")], 1)
    # goal cells hit at 0 and the horizon is positive, so only basin - goal can fail
    starts = list((basin - goal).cells())
    hits = _hit_times(nxt, goal, starts)
    if None in hits or max(hits, default=0) > horizon:
        for c, hit in zip(starts, hits):
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
    cells = list(region.cells())
    hits = _hit_times(model.closed_loop(), region.complement(), cells)
    if None in hits:
        return ExitResult(None, cells[hits.index(None)])
    return ExitResult(max(hits, default=0))


def hitting_time(model: BTModel, x0: int, goal: Region, max_steps: int) -> Optional[int]:
    """First step, if at most max_steps, at which the closed loop reaches goal from x0."""
    if not 0 <= x0 < model.world.cell_count:
        raise ExecutionError(f"start cell {x0} outside universe")
    if goal.n != model.world.cell_count:
        raise ExecutionError("region over a different universe")
    hit = _hit_times(model.closed_loop(), goal, [x0])[0]
    return hit if hit is not None and hit <= max_steps else None
