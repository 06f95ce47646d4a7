"""Closed-loop simulation, finite-time-success checks and exact hit times.

The discrete-time execution ticks the tree at the current cell, applies the
resolved action's successor map, and repeats.  When the tick resolves a
Condition leaf there is no controller to apply; the simulator halts and
reports it rather than freezing silently.

Exit times, action deadlines and hit times come from one exit-walk kernel
over a finite deterministic step map and a per-cell label: a walk ends
where the label changes, at a cell with no step, or by closing a cycle, so
its answer is exact and needs no step cap.  An exit time walks under the
region's digits; a hit time is the exit walk under the goal's digits from a
start outside the goal.  The kernel's memo is one unseeded list per call;
its answers, the successors of a check's cells and their membership in a
region are read with C gathers (``statespace._gather``), so Python only
loops over the cells a walk has to step.  ``hitting_time`` is the same
kernel with one start.  Closed-loop walks read the model's per-cell successor
list (``BTModel.closed_loop``, built once per model), so no cell is ticked
per query.  ``simulate`` ticks, because it reports statuses; a tick reads
the model's per-cell leaf table (``BTModel.leaf_at``), which is filled
from the leaves' tick regions (``NodeAnalysis.reached``) on the first tick.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .bt import BTModel, FrozenRecord, LeafData, NodeKind, Status, tick
from .statespace import BTConvergeError, Region, _gather

HALT_STOP = "stop"
HALT_NO_ACTION = "no-action"
HALT_MAX_STEPS = "max-steps"


class ExecutionError(BTConvergeError):
    pass


class Trace(FrozenRecord):
    """One closed-loop run: per step the cell, the resolved leaf, the root status."""

    __slots__ = ("states", "leaves", "statuses", "halt")
    states: tuple[int, ...]
    leaves: tuple[int, ...]
    statuses: tuple[Status, ...]
    halt: str

    def __init__(
        self, states: tuple[int, ...], leaves: tuple[int, ...], statuses: tuple[Status, ...], halt: str
    ) -> None:
        super().__init__(states, leaves, statuses, halt)

    def __len__(self) -> int:
        return len(self.states)

    def to_log(self, model: BTModel) -> str:
        lines = []
        for k, (cell, leaf, status) in enumerate(zip(self.states, self.leaves, self.statuses)):
            name = model.names[leaf] or f"v{leaf}"
            lines.append(f"{k} {cell} {name} {status.value}")
        lines.append(f"# halt: {self.halt}")
        return "\n".join(lines)


def _exit_times(
    targets: Sequence[Optional[int]], label: Sequence, starts: Sequence[int]
) -> tuple[Optional[int], ...]:
    """Per start, the first k >= 1 at which the walk reaches a cell whose label
    differs from the start's, aligned with starts.

    k is None when the walk reaches a cell whose target is None or closes a
    cycle inside the start's label.  Each cell has one label, so one memo
    (-1 not yet walked) serves the starts of every label: every cell is
    stepped at most once per call, and the answers are one gather.
    """
    memo: list[Optional[int]] = [-1] * len(label)
    for x in starts:
        if memo[x] != -1:
            continue
        mine = label[x]
        path: list[int] = []
        while x is not None and memo[x] == -1 and label[x] == mine:
            memo[x] = None  # provisional: a walk that returns here closed a cycle
            path.append(x)
            x = targets[x]
        hit = None if x is None else 0 if label[x] != mine else memo[x]
        if hit is not None:  # on a None hit the path keeps its provisional None
            for y in reversed(path):
                hit += 1
                memo[y] = hit
    return _gather(memo, starts)


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


class FtsVerdict(NamedTuple):
    """Outcome of a finite-time-success check.

    kind is one of basin-invariance, goal-invariance, deadline, or
    missing-basin-data for a member with no basin data; witness is the
    offending cell and step the first step count involved (None when not
    applicable).  The static rules (basin outside the failure region, goal
    inside basin and success) are ``bt.check_leaf``'s.
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
    and the goal must each be closed under one step, which only a moved
    cell can break (``SuccessorMap.moved``), and every basin cell must
    reach the goal within the leaf's step deadline.  A goal cell hits at
    step 0, so only basin - goal is walked.  An empty basin is vacuously
    fine.  The data must carry a controller and basin data, and pass
    ``bt.check_leaf``.
    """
    basin, goal, horizon = data.doa.basin, data.doa.goal, data.doa.horizon
    if basin.is_empty:
        return FtsVerdict(True)
    nxt, moved = data.controller.targets, data.controller.moved
    for kind, closed in (("basin-invariance", basin), ("goal-invariance", goal)):
        cells = list((closed & moved).cells())  # a cell kept in place stays in closed
        ok = _gather(closed.digits(), _gather(nxt, cells))
        if "0" in ok:
            return FtsVerdict(False, kind, cells[ok.index("0")], 1)
    # goal cells hit at 0 and the horizon is positive, so only basin - goal can fail
    starts = list((basin - goal).cells())
    hits = _exit_times(nxt, goal.digits(), starts)
    if None in hits or max(hits, default=0) > horizon:
        for c, hit in zip(starts, hits):
            if hit is None or hit > horizon:
                return FtsVerdict(False, "deadline", c, hit)
    return FtsVerdict(True)


class ExitResult(NamedTuple):
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
    hits = _exit_times(model.closed_loop(), region.digits(), cells)
    if None in hits:
        return ExitResult(None, cells[hits.index(None)])
    return ExitResult(max(hits, default=0))


def hitting_time(model: BTModel, x0: int, goal: Region, max_steps: int) -> Optional[int]:
    """First step, if at most max_steps, at which the closed loop reaches goal from x0."""
    if not 0 <= x0 < model.world.cell_count:
        raise ExecutionError(f"start cell {x0} outside universe")
    if goal.n != model.world.cell_count:
        raise ExecutionError("region over a different universe")
    hit = 0 if x0 in goal else _exit_times(model.closed_loop(), goal.digits(), [x0])[0]
    return hit if hit is not None and hit <= max_steps else None
