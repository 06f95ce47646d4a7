"""The four workloads: inputs, the timed operation, its traced twin, the check.

Each workload hands out operation inputs one at a time.  An input is a
seeded cell relabelling of the workload's model, written to disk before the
clock starts.  ``run`` is the operation a user waits on; ``run_traced``
performs the same public calls one layer at a time inside spans, in
dependency order on a freshly parsed copy; ``verdict`` turns either
outcome into a comparable record and ``check`` compares that record with
the oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import oracle
import specs
from spans import Tracer

from btconverge import backchain, bt, cli, dotexport, execution, prepares, specfile, substitution
from btconverge.statespace import Region, step_bound

GRID_SIDE = 60
CHAIN_STAGES = 120
CHAIN_WIDTH = 5
PATROL_BUDGET = 100
PATROL_HYST_CAP = 10
SIMULATE_STEPS = 100


@dataclass
class OpInput:
    k: int
    path: Path
    doc: dict
    doc_bytes: int
    out: Path
    item: tuple = ()
    extra: dict = field(default_factory=dict)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its console output captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def resolve_delta(spec) -> Optional[float]:
    """The step bound the CLI would use when none is given on the command line."""
    if spec.delta is not None:
        return float(spec.delta)
    if spec.world.coords is not None and spec.model is not None:
        maps = [leaf.controller for leaf in spec.model.leaves.values() if leaf.controller]
        return step_bound(spec.world, maps)
    return None


def abstraction_vertices(spec) -> list[int]:
    if spec.abstraction:
        return [spec.model.vertex_of(name) for name in spec.abstraction]
    return list(spec.model.action_vertices())


# ----------------------------------------------------------------------
# traced layers


def model_layers(tr: Tracer, model, delta: Optional[float], neighborhood: bool = True) -> None:
    """Tree orders, region analysis and the first neighbourhood query.

    All three are cached on the model or world, so the verdict call that
    follows does not repeat them: their spans count as wrapped work.
    """
    tr.call("ordered_tree.orders", model.tree.orders, wrapped=True)
    tr.call("bt.analysis", model.analysis, wrapped=True)
    if not neighborhood:
        return
    world = model.world
    one = Region.from_cells(world.cell_count, [0])
    tr.call(
        "statespace.neighborhood",
        world.neighboring,
        one,
        world.full_region(),
        delta if world.coords is not None else None,
        wrapped=True,
    )


def certify_layers(tr: Tracer, model, members, delta, counts: dict) -> None:
    """The stages certify_convergence runs, called one by one.

    These repeat work the verdict call does itself, so none is wrapped.
    """
    n = model.world.cell_count
    with tr.span("bt.tick"):
        for x in range(n):
            bt.tick(model, x)
    with tr.span("execution.fts"):
        for i in members:
            leaf = model.leaves.get(i)
            if leaf is not None and leaf.controller is not None and leaf.doa is not None:
                execution.check_fts(model, i)
    graph = tr.call("prepares.graph", prepares.build_prepares_graph, model, members, delta)
    condensed = tr.call("prepares.condense", prepares.condense, graph)
    chosen = tr.call(
        "prepares.analysis_set", prepares.analysis_set, condensed, range(len(condensed.classes))
    )
    exit_cells = 0
    worst = 0
    with tr.span("execution.exit_time"):
        for ci in sorted(chosen):
            if ci in condensed.sinks:
                continue
            cells = condensed.class_cells(ci)
            exit_cells += len(cells)
            result = execution.empirical_exit_time(model, cells)
            if result.steps is None:
                break
            worst = max(worst, result.steps)
    chosen_vertices = [v for ci in chosen for v in condensed.classes[ci]]
    tr.call(
        "prepares.reachability",
        lambda: prepares.behavior_graph(graph, chosen_vertices).reachability(),
    )
    counts["prepares.slices"] = counts.get("prepares.slices", 0) + len(graph.vertices)
    counts["prepares.edges"] = counts.get("prepares.edges", 0) + len(graph.edges)
    counts["prepares.classes"] = counts.get("prepares.classes", 0) + len(condensed.classes)
    counts["execution.exit_cells"] = counts.get("execution.exit_cells", 0) + exit_cells
    counts["execution.max_exit_steps"] = max(counts.get("execution.max_exit_steps", 0), worst)


def parse_layer(tr: Tracer, inp: OpInput, counts: dict):
    counts["specfile.doc_bytes"] = inp.doc_bytes
    spec = tr.call("specfile.parse", specfile.load_path, str(inp.path), wrapped=True)
    counts["statespace.cells"] = spec.world.cell_count
    if spec.model is not None:
        counts["bt.tree_vertices"] = spec.model.n
    return spec


# ----------------------------------------------------------------------
# verdict records


def certify_verdict(outcome) -> dict:
    if isinstance(outcome, prepares.Certificate):
        return {
            "code": cli.EXIT_OK,
            "status": "certified",
            "bound": outcome.bound,
            "refined_bound": outcome.refined_bound,
        }
    return {
        "code": cli.EXIT_REFUTED,
        "status": "refuted",
        "kind": outcome.kind,
        "witness_cell": outcome.witness_cell,
    }


def check_report_verdict(code: int, out: Path) -> dict:
    report = json.loads(out.read_text(encoding="utf-8"))
    verdict = {"code": code, "status": report["status"]}
    for key in ("bound", "refined_bound", "kind", "witness_cell"):
        if key in report:
            verdict[key] = report[key]
    return verdict


def check_problem(doc: dict, verdict: dict, want: tuple) -> Optional[str]:
    code, status, bound, refined = want
    problem = oracle.first_problem(
        [
            oracle.mismatch("exit code", verdict.get("code"), code),
            oracle.mismatch("status", verdict.get("status"), status),
            oracle.mismatch("bound", verdict.get("bound"), bound),
            oracle.mismatch("refined bound", verdict.get("refined_bound"), refined),
        ]
    )
    if problem:
        return problem
    if status == "certified":
        return oracle.reach_problem(doc, min(bound, refined))
    if verdict.get("kind") != "no-exit":
        return f"refutation kind {verdict.get('kind')!r}, expected 'no-exit'"
    if not oracle.never_reaches(doc, verdict["witness_cell"]):
        return f"witness cell {verdict['witness_cell']} does reach the goal"
    return None


def backchain_line_verdict(code: int, text: str) -> dict:
    verdict: dict[str, Any] = {"code": code}
    for line in text.splitlines():
        if line.startswith("generated tree with "):
            verdict["vertices"] = int(line.split()[3])
        elif line.startswith("operating-region facts hold: "):
            verdict["operating"] = line.endswith("True")
        elif line.startswith("certified: bound "):
            head, pattern = line.split(", pattern holds: ")
            verdict["bound"] = int(head.split()[-1])
            verdict["pattern"] = None if pattern.startswith("n/a") else pattern == "True"
        elif line.startswith("refuted: "):
            verdict["bound"] = None
    return verdict


def backchain_problem(verdict: dict, bound: int, pattern: Optional[bool]) -> Optional[str]:
    return oracle.first_problem(
        [
            oracle.mismatch("exit code", verdict.get("code"), cli.EXIT_OK),
            oracle.mismatch("operating facts", verdict.get("operating"), True),
            oracle.mismatch("bound", verdict.get("bound"), bound),
            oracle.mismatch("pattern", verdict.get("pattern"), pattern),
        ]
    )


def traced_backchain(tr: Tracer, inp: OpInput, counts: dict) -> dict:
    spec = parse_layer(tr, inp, counts)
    lib, root, delta = spec.library, spec.library_root, spec.delta
    built = tr.call("backchain.build", backchain.build_bcbt, lib, root, wrapped=True)
    model = built.model
    counts["bt.tree_vertices"] = model.n
    model_layers(tr, model, delta)
    with tr.span("backchain.operating", wrapped=True):
        links = backchain.compute_links(lib)
        operating = backchain.verify_bc_operating(lib, built, links)
    members = [built.vertex_of[i] for i in lib.actions]
    certify_layers(tr, model, members, delta, counts)
    tr.call("prepares.certify", prepares.certify_convergence, model, members, delta=delta)
    report = tr.call(
        "backchain.check", backchain.check_bc_convergence, lib, root, delta=delta, wrapped=True
    )
    result = report.result
    return {
        "code": cli.EXIT_OK if operating else cli.EXIT_REFUTED,
        "vertices": model.n,
        "operating": bool(operating),
        "bound": result.bound if isinstance(result, prepares.Certificate) else None,
        "pattern": report.pattern_ok,
    }


def traced_check(tr: Tracer, inp: OpInput, counts: dict) -> dict:
    spec = parse_layer(tr, inp, counts)
    model = spec.model
    delta = resolve_delta(spec)
    members = abstraction_vertices(spec)
    model_layers(tr, model, delta)
    certify_layers(tr, model, members, delta, counts)
    outcome = tr.call(
        "prepares.certify", prepares.certify_convergence, model, members, delta=delta, wrapped=True
    )
    return certify_verdict(outcome)


# ----------------------------------------------------------------------
# workloads


class Workload:
    """One family of operations; subclasses fill in the four hooks."""

    name = ""
    cli_ops = True  # whether the timed operation goes through cli.main

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir

    def _write(self, k: int, doc: dict, item: tuple = ()) -> OpInput:
        n = doc["universe"]["cells"]
        relabelled = specs.relabel(doc, specs.permutation(n, self.rng))
        path = self.workdir / f"in-{k}.json"
        size = specs.write_document(relabelled, path)
        return OpInput(k, path, relabelled, size, self.workdir / f"out-{k}.txt", item)

    def discard(self, inp: OpInput) -> None:
        inp.path.unlink(missing_ok=True)
        inp.out.unlink(missing_ok=True)

    def prepare(self, k: int, pair: int) -> OpInput:
        raise NotImplementedError

    def run(self, inp: OpInput) -> Any:
        raise NotImplementedError

    def run_traced(self, inp: OpInput, tr: Tracer, counts: dict) -> dict:
        raise NotImplementedError

    def verdict(self, inp: OpInput, raw: Any) -> dict:
        return raw

    def check(self, inp: OpInput, verdict: dict, traced: bool) -> Optional[str]:
        raise NotImplementedError


class Grid(Workload):
    name = "grid"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.template = specs.grid_document(GRID_SIDE)
        bound, refined = oracle.grid_bounds(GRID_SIDE)
        self.want = (cli.EXIT_OK, "certified", bound, refined)

    def prepare(self, k: int, pair: int) -> OpInput:
        return self._write(k, self.template)

    def run(self, inp: OpInput) -> Any:
        return cli.main(["check", "--spec", str(inp.path), "--format", "json", "--out", str(inp.out)])

    def verdict(self, inp: OpInput, raw: Any) -> dict:
        return raw if isinstance(raw, dict) else check_report_verdict(raw, inp.out)

    def run_traced(self, inp: OpInput, tr: Tracer, counts: dict) -> dict:
        return traced_check(tr, inp, counts)

    def check(self, inp: OpInput, verdict: dict, traced: bool) -> Optional[str]:
        return check_problem(inp.doc, verdict, self.want)


class Chain(Workload):
    name = "chain"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.template = specs.chain_document(CHAIN_STAGES, CHAIN_WIDTH)
        self.bound = oracle.chain_bound(CHAIN_STAGES, CHAIN_WIDTH)

    def prepare(self, k: int, pair: int) -> OpInput:
        return self._write(k, self.template)

    def run(self, inp: OpInput) -> Any:
        return call_cli(["backchain", "--spec", str(inp.path), "--certify", "--out", str(inp.out)])

    def verdict(self, inp: OpInput, raw: Any) -> dict:
        return raw if isinstance(raw, dict) else backchain_line_verdict(*raw)

    def run_traced(self, inp: OpInput, tr: Tracer, counts: dict) -> dict:
        return traced_backchain(tr, inp, counts)

    def check(self, inp: OpInput, verdict: dict, traced: bool) -> Optional[str]:
        problem = backchain_problem(verdict, self.bound, True)
        if problem or traced:
            return problem
        tree = json.loads(inp.out.read_text(encoding="utf-8"))
        return oracle.reach_problem(tree, self.bound)


class PatrolSub(Workload):
    name = "patrol-sub"
    cli_ops = False

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.template = specs.patrol_sub_document(PATROL_BUDGET, PATROL_HYST_CAP)
        self.stepped_new_model = False

    def prepare(self, k: int, pair: int) -> OpInput:
        return self._write(k, self.template)

    def run(self, inp: OpInput) -> Any:
        spec = specfile.load_path(str(inp.path))
        model = spec.model
        members = abstraction_vertices(spec)
        cert = prepares.certify_convergence(model, members, delta=spec.delta)
        result = substitution.substitute(model, spec.substitution, base_delta=spec.delta)
        preserved = substitution.verify_preservation(result)
        report = substitution.verify_substituted_convergence(cert, result)
        return self._verdict(cert, result, preserved, report)

    @staticmethod
    def _verdict(cert, result, preserved, report) -> dict:
        return {
            "old_bound": cert.bound,
            "aug_cells": result.new_model.world.cell_count,
            "preserved": bool(preserved),
            "ok": bool(report),
            "graph_diffs": list(report.graph_diffs),
            "loop_exit": report.loop_exit_steps,
            "bound": getattr(report.result, "bound", None),
            "new_model": result.new_model,
        }

    def run_traced(self, inp: OpInput, tr: Tracer, counts: dict) -> dict:
        spec = parse_layer(tr, inp, counts)
        model, delta = spec.model, spec.delta
        members = abstraction_vertices(spec)
        model_layers(tr, model, delta)
        certify_layers(tr, model, members, delta, counts)
        cert = tr.call(
            "prepares.certify", prepares.certify_convergence, model, members, delta=delta, wrapped=True
        )
        result = tr.call(
            "substitution.substitute",
            substitution.substitute,
            model,
            spec.substitution,
            base_delta=delta,
            wrapped=True,
        )
        new_model = result.new_model
        counts["substitution.aug_cells"] = new_model.world.cell_count
        model_layers(tr, new_model, None)
        preserved = tr.call(
            "substitution.preserve", substitution.verify_preservation, result, wrapped=True
        )
        certify_layers(tr, new_model, list(new_model.action_vertices()), None, counts)
        report = tr.call(
            "substitution.reverify",
            substitution.verify_substituted_convergence,
            cert,
            result,
            wrapped=True,
        )
        return self._verdict(cert, result, preserved, report)

    def check(self, inp: OpInput, verdict: dict, traced: bool) -> Optional[str]:
        want = oracle.PATROL_SUB
        problem = oracle.first_problem(
            [
                oracle.mismatch("old bound", verdict["old_bound"], want["old_bound"]),
                oracle.mismatch("augmented cells", verdict["aug_cells"], want["aug_cells"]),
                oracle.mismatch("regions preserved", verdict["preserved"], True),
                oracle.mismatch("graph diffs", verdict["graph_diffs"], []),
                oracle.mismatch("re-verified", verdict["ok"], True),
                oracle.mismatch("loop exit", verdict["loop_exit"], want["loop_exit"]),
                oracle.mismatch("bound", verdict["bound"], want["bound"]),
                oracle.reach_problem(inp.doc, want["old_bound"]),
            ]
        )
        if problem or self.stepped_new_model:
            return problem
        # once per run: step the substituted model itself, outside the clock
        self.stepped_new_model = True
        new_doc = specfile.build_document(verdict["new_model"])
        return oracle.reach_problem(new_doc, want["bound"])


class Small(Workload):
    """Every CLI subcommand on relabelled bundled specs, round robin."""

    name = "small"
    TREE_SPECS = ("eat_tree", "surveying_robot", "gridworld", "patrol")
    EXPORTS = ("tree", "prepares", "condensed", "behavior")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.docs = {name: specs.bundled_document(name) for name in specs.BUNDLED}
        items: list[tuple] = []
        for name in self.TREE_SPECS:
            items.append(("check", name))
            items.append(("simulate", name))
            items.extend(("export", name, which) for which in self.EXPORTS)
        items.extend(("backchain", name) for name in oracle.BUNDLED_BACKCHAIN)
        items.append(("substitute", "patrol"))
        self.items = items
        # DOT output carries no cell indices, so a relabelled spec must
        # render byte for byte like the original fixture
        self.reference_dot = {}
        for name in self.TREE_SPECS:
            path = workdir / "reference.json"
            specs.write_document(self.docs[name], path)
            for which in self.EXPORTS:
                out = workdir / "reference.dot"
                call_cli(["export", "--spec", str(path), "--which", which, "--out", str(out)])
                self.reference_dot[(name, which)] = out.read_text(encoding="utf-8")
                out.unlink()
            path.unlink()

    def prepare(self, k: int, pair: int) -> OpInput:
        item = self.items[pair % len(self.items)]
        inp = self._write(k, self.docs[item[1]], item)
        if item[0] == "simulate":
            inp.extra["x0"] = self.rng.randrange(inp.doc["universe"]["cells"])
        return inp

    def argv(self, inp: OpInput) -> list[str]:
        command, spec = inp.item[0], str(inp.path)
        argv = [command, "--spec", spec, "--out", str(inp.out)]
        if command == "check":
            argv += ["--format", "json"]
        elif command == "simulate":
            argv += ["--x0", str(inp.extra["x0"]), "--steps", str(SIMULATE_STEPS)]
        elif command == "export":
            argv += ["--which", inp.item[2]]
        elif command == "backchain":
            argv.append("--certify")
        return argv

    def run(self, inp: OpInput) -> Any:
        return call_cli(self.argv(inp))

    def verdict(self, inp: OpInput, raw: Any) -> dict:
        if isinstance(raw, dict):
            return raw
        code, text = raw
        command = inp.item[0]
        if command == "check":
            return check_report_verdict(code, inp.out)
        if command == "backchain":
            return backchain_line_verdict(code, text)
        if command == "substitute":
            lines = text.splitlines()
            return {
                "code": code,
                "aug_cells": int(lines[0].split()[2]),
                "preserved": lines[1].endswith("True"),
            }
        return {"code": code, "text": inp.out.read_text(encoding="utf-8")}

    def run_traced(self, inp: OpInput, tr: Tracer, counts: dict) -> dict:
        command = inp.item[0]
        if command == "check":
            return traced_check(tr, inp, counts)
        if command == "backchain":
            return traced_backchain(tr, inp, counts)
        spec = parse_layer(tr, inp, counts)
        model = spec.model
        if command == "simulate":
            model_layers(tr, model, None, neighborhood=False)
            trace = tr.call(
                "execution.simulate",
                execution.simulate,
                model,
                inp.extra["x0"],
                SIMULATE_STEPS,
                wrapped=True,
            )
            return {"code": cli.EXIT_OK, "text": trace.to_log(model) + "\n"}
        if command == "substitute":
            delta = resolve_delta(spec)
            model_layers(tr, model, delta)
            result = tr.call(
                "substitution.substitute",
                substitution.substitute,
                model,
                spec.substitution,
                base_delta=delta,
                wrapped=True,
            )
            model_layers(tr, result.new_model, None, neighborhood=False)
            counts["substitution.aug_cells"] = result.new_model.world.cell_count
            preserved = tr.call(
                "substitution.preserve", substitution.verify_preservation, result, wrapped=True
            )
            return {
                "code": cli.EXIT_OK if preserved else cli.EXIT_REFUTED,
                "aug_cells": result.new_model.world.cell_count,
                "preserved": bool(preserved),
            }
        which = inp.item[2]
        if which == "tree":
            text = tr.call("dotexport.render", dotexport.tree_dot, model, wrapped=True)
            return {"code": cli.EXIT_OK, "text": text}
        delta = resolve_delta(spec)
        model_layers(tr, model, delta)
        graph = tr.call(
            "prepares.graph",
            prepares.build_prepares_graph,
            model,
            abstraction_vertices(spec),
            delta,
            wrapped=True,
        )
        condensed = tr.call("prepares.condense", prepares.condense, graph, wrapped=True)
        chosen = tr.call(
            "prepares.analysis_set",
            prepares.analysis_set,
            condensed,
            range(len(condensed.classes)),
            wrapped=True,
        )
        chosen_vertices = [v for ci in chosen for v in condensed.classes[ci]]
        with tr.span("dotexport.render", wrapped=True):
            if which == "prepares":
                text = dotexport.prepares_dot(graph, model, chosen_vertices)
            elif which == "condensed":
                text = dotexport.condensed_dot(condensed, model, chosen)
            else:
                bg = prepares.behavior_graph(graph, chosen_vertices)
                text = dotexport.behavior_dot(bg, model)
        return {"code": cli.EXIT_OK, "text": text}

    def check(self, inp: OpInput, verdict: dict, traced: bool) -> Optional[str]:
        command, name = inp.item[0], inp.item[1]
        if command == "check":
            return check_problem(inp.doc, verdict, oracle.BUNDLED_CHECK[name])
        if command == "simulate":
            want = oracle.Stepper(inp.doc).simulate_log(inp.extra["x0"], SIMULATE_STEPS)
            return oracle.first_problem(
                [
                    oracle.mismatch("exit code", verdict["code"], cli.EXIT_OK),
                    None if verdict["text"] == want else "simulate log differs from the stepper",
                ]
            )
        if command == "export":
            want = self.reference_dot[(name, inp.item[2])]
            return oracle.first_problem(
                [
                    oracle.mismatch("exit code", verdict["code"], cli.EXIT_OK),
                    None if verdict["text"] == want else "DOT output changed under relabelling",
                ]
            )
        if command == "backchain":
            bound, pattern = oracle.BUNDLED_BACKCHAIN[name]
            problem = backchain_problem(verdict, bound, pattern)
            if problem or traced:
                return problem
            tree = json.loads(inp.out.read_text(encoding="utf-8"))
            return oracle.reach_problem(tree, bound)
        return oracle.first_problem(
            [
                oracle.mismatch("exit code", verdict["code"], cli.EXIT_OK),
                oracle.mismatch("augmented cells", verdict["aug_cells"], oracle.BUNDLED_SUBSTITUTE_CELLS),
                oracle.mismatch("regions preserved", verdict["preserved"], True),
            ]
        )


WORKLOADS = {cls.name: cls for cls in (Grid, Chain, PatrolSub, Small)}
