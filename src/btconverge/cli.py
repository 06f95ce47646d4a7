"""Command-line front end: check, simulate, export, backchain, substitute.

Spec files are JSON documents (see specfile).  The --spec argument accepts a
path or ``bundled:<name>`` for one of the shipped examples.  Exit codes are
a stable contract: ``main(argv)`` returns 0 for a certificate / success, 1
for a refuted or failed verdict and 2 for a spec error; an argparse usage
error raises ``SystemExit(2)``, in process too.  ``check`` and ``backchain
--certify`` take their verdict as one value, and ``_verdict_code`` alone
maps it to 0 or 1.  ``main`` builds its parser on the first call, not at
import, and reuses it for every later call in the process: parsing leaves
no state on it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional

from .specfile import LoadedSpec, SpecError, build_document, dump_document, load_path
from .statespace import BTConvergeError, step_bound

if TYPE_CHECKING:  # each subcommand imports the analysis modules it runs
    from .prepares import Certificate, CondensedGraph, FtsPreconditionError, Refutation

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2


# the shipped example documents, one <name>.json each
EXAMPLES = os.path.join(os.path.dirname(__file__), "examples")


def bundled_names() -> list[str]:
    entries = os.listdir(EXAMPLES)
    return sorted(entry.removesuffix(".json") for entry in entries if entry.endswith(".json"))


def _load_spec(ref: str) -> LoadedSpec:
    if ref.startswith("bundled:"):
        name = ref.split(":", 1)[1]
        if name not in bundled_names():  # also refuses any name that is a path
            raise SpecError(f"unknown bundled spec {name!r}")
        return load_path(os.path.join(EXAMPLES, f"{name}.json"))
    return load_path(ref)


def _resolve_delta(spec: LoadedSpec, override: Optional[float], model) -> Optional[float]:
    """The step bound: --delta, else the spec's delta, else in a metric world
    the largest step of model's controllers (the spec's tree, or the tree
    generated from its library)."""
    if override is not None:
        return override
    if spec.delta is not None:
        return float(spec.delta)
    if spec.world.coords is not None:
        maps = [leaf.controller for leaf in model.leaves.values() if leaf.controller is not None]
        return step_bound(spec.world, maps)
    return None


def _delta_arg(text: str) -> float:
    """argparse type for --delta: a non-negative float, +inf included."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")
    return value


def _int_arg(low: int, what: str) -> Callable[[str], int]:
    """argparse type for an integer flag that must be at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
        return value

    return parse


def _abstraction_vertices(spec: LoadedSpec) -> list[int]:
    model = spec.model
    if spec.abstraction:
        return [model.vertex_of(name) for name in spec.abstraction]
    return [v for v in model.action_vertices()]


def _seed_classes(tokens: Optional[str], model) -> Optional[Callable[[CondensedGraph], list[int]]]:
    """--seed-classes' flavor:leaf tokens, each checked as it is read, as the map
    from a condensation to the classes of the leaves' slices; None without the
    flag.  A leaf with no slice of its token's flavor is an error of the map."""
    if tokens is None:
        return None
    named = [token.strip() for token in tokens.split(",") if token.strip()]
    if not named:
        raise SpecError("no seed class given")
    leaves = []
    for token in named:
        try:
            flavor, name = token.split(":", 1)
        except ValueError:
            raise SpecError(f"seed class {token!r} is not flavor:leaf") from None
        if flavor not in ("a", "b", "c"):  # the slice flavors: outside, basin, goal
            raise SpecError(f"seed class {token!r}: flavor {flavor!r} is not a, b or c")
        leaves.append((token, (model.vertex_of(name), flavor)))

    def classes(condensed: CondensedGraph) -> list[int]:
        index = condensed.graph.index
        for token, (owner, flavor) in leaves:
            if (owner, flavor) not in index:
                raise SpecError(f"seed class {token!r}: leaf {model.names[owner]!r} has no {flavor} slice")
        return [condensed.class_of[index[key]] for _token, key in leaves]

    return classes


def _class_label(model, condensed, ci: int) -> list[str]:
    return [
        f"v_{flavor}({model.names[owner]})" for owner, flavor in condensed.class_keys(ci)
    ]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_document(doc: dict, report_lines: list[str], out: Optional[str]) -> None:
    """With --out, the document goes to the file and the report to stdout;
    without it, the report goes to stderr and the document to stdout."""
    report = "\n".join(report_lines) + "\n"
    if out:
        _emit(dump_document(doc), out)
        sys.stdout.write(report)
    else:
        sys.stderr.write(report)
        sys.stdout.write(dump_document(doc))


def cmd_check(args: argparse.Namespace) -> int:
    from .prepares import decide

    spec = _load_spec(args.spec)
    if spec.model is None:
        raise SpecError("check needs a spec with a tree block")
    model = spec.model
    delta = _resolve_delta(spec, args.delta, model)
    members = _abstraction_vertices(spec)
    seeds = _seed_classes(args.seed_classes, model)  # a usage error, whatever the hypotheses
    outcome = decide(model, members, delta, seeds)
    _print_report(_verdict_report(model, outcome), args)
    return _verdict_code(outcome)


def _verdict_code(outcome: Certificate | Refutation | FtsPreconditionError) -> int:
    """The exit code of a verdict, for check and backchain --certify: 0 for a
    certificate, 1 for a refutation or failed hypotheses."""
    from .prepares import Certificate

    return EXIT_OK if isinstance(outcome, Certificate) else EXIT_REFUTED


def _verdict_report(model, outcome: Certificate | Refutation | FtsPreconditionError) -> dict:
    """check's report of a verdict, for text or JSON output."""
    from .execution import simulate
    from .prepares import FtsPreconditionError, Refutation

    if isinstance(outcome, FtsPreconditionError):
        violations = {
            name: {"kind": v.kind, "witness_cell": v.witness, "step": v.step}
            for name, v in outcome.failures.items()
        }
        return {"status": "refuted", "kind": "fts-precondition", "violations": violations}
    condensed = outcome.condensed
    if isinstance(outcome, Refutation):
        report = {
            "status": "refuted",
            "kind": outcome.kind,
            "witness_cell": outcome.witness_cell,
            "class": _class_label(model, condensed, outcome.witness_class),
            "detail": outcome.detail,
        }
        if outcome.witness_cell is not None:
            report["witness_trace"] = list(simulate(model, outcome.witness_cell, 12).states)
        return report
    worst = max(outcome.per_class_exit.values(), default=0)
    return {
        "status": "certified",
        "bound": outcome.bound,
        "classes_in_analysis_set": len(outcome.analysis_classes),
        "max_exit_time": worst,
        "bound_formula": f"{len(outcome.analysis_classes)} * T = {outcome.bound} (T = {worst})",
        "transitions_bound": outcome.transitions_bound,
        "refined_bound": outcome.refined_bound,
        "sinks": [_class_label(model, condensed, ci) for ci in outcome.sink_classes],
        "per_class_exit": [
            {"class": _class_label(model, condensed, ci), "exit_time": t}
            for ci, t in sorted(outcome.per_class_exit.items())
        ],
    }


def _print_report(report: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        _emit(dump_document(report), args.out)
        return
    lines = [f"status: {report['status']}"]
    for key in (
        "bound_formula",
        "transitions_bound",
        "refined_bound",
        "kind",
        "witness_cell",
    ):
        if key in report and report[key] is not None:
            lines.append(f"{key.replace('_', ' ')}: {report[key]}")
    if "class" in report:
        lines.append(f"witness class: {{{', '.join(report['class'])}}}")
    if "witness_trace" in report:
        lines.append("witness trace: " + " ".join(str(c) for c in report["witness_trace"]))
    for entry in report.get("per_class_exit", []):
        lines.append(f"exit time {entry['exit_time']:>4}  {{{', '.join(entry['class'])}}}")
    for sink in report.get("sinks", []):
        lines.append(f"goal sink: {{{', '.join(sink)}}}")
    for name, v in report.get("violations", {}).items():
        lines.append(_violation_line(name, v["kind"], v["witness_cell"], v["step"]))
    _emit("\n".join(lines) + "\n", args.out)


def _violation_line(name: str, kind: str, cell: Optional[int], step: Optional[int]) -> str:
    at = "" if cell is None else f" at cell {cell}"
    return f"violation at {name}: {kind}{at}" + ("" if step is None else f" (step {step})")


def cmd_simulate(args: argparse.Namespace) -> int:
    from .execution import simulate

    spec = _load_spec(args.spec)
    if spec.model is None:
        raise SpecError("simulate needs a spec with a tree block")
    trace = simulate(spec.model, args.x0, args.steps)
    _emit(trace.to_log(spec.model) + "\n", args.out)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    from .dotexport import behavior_dot, condensed_dot, prepares_dot, tree_dot

    spec = _load_spec(args.spec)
    if spec.model is None:
        raise SpecError("export needs a spec with a tree block")
    model = spec.model
    if args.which == "tree":
        _seed_classes(args.seed_classes, model)  # unused, but refused where the other exports refuse it
        _emit(tree_dot(model), args.out)
        return EXIT_OK
    from .prepares import analysis_set, behavior_graph, build_prepares_graph, condense

    delta = _resolve_delta(spec, args.delta, model)
    graph = build_prepares_graph(model, _abstraction_vertices(spec), delta)
    condensed = condense(graph)
    seeds = _seed_classes(args.seed_classes, model)
    chosen = analysis_set(condensed, range(len(condensed.classes)) if seeds is None else seeds(condensed))
    chosen_vertices = [v for ci in chosen for v in condensed.classes[ci]]
    if args.which == "prepares":
        _emit(prepares_dot(graph, model, chosen_vertices), args.out)
    elif args.which == "condensed":
        _emit(condensed_dot(condensed, model, chosen), args.out)
    else:
        _emit(behavior_dot(behavior_graph(graph, chosen_vertices), model), args.out)
    return EXIT_OK


def cmd_backchain(args: argparse.Namespace) -> int:
    from .backchain import (
        bc_influence_terms,
        build_bcbt,
        check_bc_convergence,
        compute_links,
        verify_bc_operating,
    )
    from .prepares import Certificate, FtsPreconditionError

    spec = _load_spec(args.spec)
    if spec.library is None:
        raise SpecError("backchain needs a spec with a library block")
    root = args.root or spec.library_root
    if root is None:
        raise SpecError("no root action: give --root or a library.root field")
    lib = spec.library
    built = build_bcbt(lib, root)
    links = compute_links(lib)
    operating = verify_bc_operating(lib, built, links)
    report_lines = [f"generated tree with {built.model.n} vertices from root {root!r}"]
    for i in lib.action_ids():
        terms = bc_influence_terms(lib, links, i)
        report_lines.append(
            f"influence[{i}]: success of {list(terms.acc) + list(terms.pre)}, "
            f"failure of {list(terms.post)}"
        )
    report_lines.append(f"operating-region facts hold: {bool(operating)}")
    for issue in operating.violations:
        report_lines.append(f"  violation: {issue}")
    code = EXIT_OK if operating else EXIT_REFUTED
    if args.certify:
        delta = _resolve_delta(spec, None, built.model)
        try:
            report = check_bc_convergence(lib, root, delta=delta, built=built, links=links)
        except FtsPreconditionError as exc:
            outcome, pattern_ok = exc, None
            report_lines.append(f"refuted: {exc}")
            for name, v in exc.failures.items():
                report_lines.append(_violation_line(name, v.kind, v.witness, v.step))
        else:
            outcome, pattern_ok = report.result, report.pattern_ok
            pattern = pattern_ok
            if pattern_ok is None:
                pattern = "n/a (basin hypothesis fails; general certification used)"
            if isinstance(outcome, Certificate):
                report_lines.append(f"certified: bound {outcome.bound}, pattern holds: {pattern}")
            else:
                report_lines.append(f"refuted: {outcome.detail}")
        code = _verdict_code(outcome) if operating and pattern_ok is not False else EXIT_REFUTED
    abstraction = [a for a in lib.action_ids() if a in built.vertex_of]
    _emit_document(build_document(built.model, abstraction, spec.delta), report_lines, args.out)
    return code


def cmd_substitute(args: argparse.Namespace) -> int:
    from .substitution import substitute, verify_preservation

    spec = _load_spec(args.spec)
    if spec.model is None or spec.substitution is None:
        raise SpecError("substitute needs a spec with tree and substitution blocks")
    delta = _resolve_delta(spec, args.delta, spec.model)
    result = substitute(spec.model, spec.substitution, base_delta=delta)
    verdict = verify_preservation(result)
    report_lines = [
        f"augmented universe: {result.new_model.world.cell_count} cells",
        f"success/failure regions preserved: {bool(verdict)}",
    ]
    if not verdict:
        report_lines.append(f"  {verdict.detail} (cell {verdict.witness})")
    _emit_document(build_document(result.new_model), report_lines, args.out)
    return EXIT_OK if verdict else EXIT_REFUTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btconverge",
        description="Convergence analysis for behavior-tree control policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", required=True, help="spec path or bundled:<name>")
        p.add_argument("--out", help="write output to this file")

    p_check = sub.add_parser("check", help="certify convergence or refute it")
    common(p_check)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--seed-classes", help="comma list of flavor:leaf tokens")
    p_check.add_argument("--delta", type=_delta_arg)
    p_check.set_defaults(fn=cmd_check)

    p_sim = sub.add_parser("simulate", help="run the closed loop from a start cell")
    common(p_sim)
    p_sim.add_argument("--x0", type=_int_arg(0, "non-negative"), required=True)
    p_sim.add_argument("--steps", type=_int_arg(1, "positive"), default=100)
    p_sim.set_defaults(fn=cmd_simulate)

    p_exp = sub.add_parser("export", help="emit DOT graphs")
    common(p_exp)
    p_exp.add_argument("--which", choices=("tree", "prepares", "condensed", "behavior"), required=True)
    p_exp.add_argument("--seed-classes")
    p_exp.add_argument("--delta", type=_delta_arg)
    p_exp.set_defaults(fn=cmd_export)

    p_bc = sub.add_parser("backchain", help="generate a tree from a library")
    common(p_bc)
    p_bc.add_argument("--root", help="top-level action (default: library.root)")
    p_bc.add_argument("--certify", action="store_true", help="also run convergence certification")
    p_bc.set_defaults(fn=cmd_backchain)

    p_sub = sub.add_parser("substitute", help="install the guarded controller subtree")
    common(p_sub)
    p_sub.add_argument("--delta", type=_delta_arg)
    p_sub.set_defaults(fn=cmd_substitute)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on main's first call and reused: a build takes
    about 1 ms, up to half of a call on a small spec."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        BTConvergeError,  # the package's own errors: spec, world, tree, library, verdict
        OSError,  # an unreadable spec (missing, a directory, no permission) or --out path
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except MemoryError:  # a well-formed spec may ask for a product larger than memory
        sys.stderr.write("error: out of memory\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
