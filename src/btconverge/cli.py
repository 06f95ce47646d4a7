"""Command-line front end: check, simulate, export, backchain, substitute.

Spec files are JSON documents (see specfile).  The --spec argument accepts a
path or ``bundled:<name>`` for one of the shipped examples.  Exit codes are
a stable contract: 0 for a certificate / success, 1 for a refuted or failed
verdict, 2 for spec or usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional

from .specfile import LoadedSpec, SpecError, build_document, dump_document, load_path
from .statespace import BTConvergeError, step_bound

if TYPE_CHECKING:  # each subcommand imports the analysis modules it runs
    from .prepares import Certificate

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


def _resolve_delta(spec: LoadedSpec, override: Optional[float]) -> Optional[float]:
    if override is not None:
        return override
    if spec.delta is not None:
        return float(spec.delta)
    if spec.world.coords is not None and spec.model is not None:
        maps = [
            leaf.controller
            for leaf in spec.model.leaves.values()
            if leaf.controller is not None
        ]
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


def _parse_seed_classes(tokens: Optional[str], model, condensed) -> Optional[list[int]]:
    if not tokens:
        return None
    seeds = []
    for token in tokens.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            flavor, name = token.split(":", 1)
        except ValueError:
            raise SpecError(f"seed class {token!r} is not flavor:leaf") from None
        vertex = condensed.graph.vertex(model.vertex_of(name), flavor)
        seeds.append(condensed.class_of[vertex])
    return seeds


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
    from .execution import simulate
    from .prepares import (
        FtsPreconditionError,
        Refutation,
        build_prepares_graph,
        certify_convergence,
        condense,
    )

    spec = _load_spec(args.spec)
    if spec.model is None:
        raise SpecError("check needs a spec with a tree block")
    model = spec.model
    delta = _resolve_delta(spec, args.delta)
    members = _abstraction_vertices(spec)
    condensed = condense(build_prepares_graph(model, members, delta))
    seeds = _parse_seed_classes(args.seed_classes, model, condensed)
    try:
        outcome = certify_convergence(
            model, members, delta=delta, seeds=seeds, condensed=condensed
        )
    except FtsPreconditionError as exc:
        report = {
            "status": "refuted",
            "kind": "fts-precondition",
            "violations": {
                name: {"kind": v.kind, "witness_cell": v.witness, "step": v.step}
                for name, v in exc.failures.items()
            },
        }
        _print_report(report, args)
        return EXIT_REFUTED
    if isinstance(outcome, Refutation):
        report = {
            "status": "refuted",
            "kind": outcome.kind,
            "witness_cell": outcome.witness_cell,
            "class": _class_label(model, outcome.condensed, outcome.witness_class),
            "detail": outcome.detail,
        }
        if outcome.witness_cell is not None:
            trace = simulate(model, outcome.witness_cell, 12)
            report["witness_trace"] = list(trace.states)
        _print_report(report, args)
        return EXIT_REFUTED
    report = _certificate_report(model, outcome)
    _print_report(report, args)
    return EXIT_OK


def _certificate_report(model, cert: Certificate) -> dict:
    condensed = cert.condensed
    worst = max(cert.per_class_exit.values(), default=0)
    return {
        "status": "certified",
        "bound": cert.bound,
        "classes_in_analysis_set": len(cert.analysis_classes),
        "max_exit_time": worst,
        "bound_formula": f"{len(cert.analysis_classes)} * T = {cert.bound} (T = {worst})",
        "transitions_bound": cert.transitions_bound,
        "refined_bound": cert.refined_bound,
        "sinks": [_class_label(model, condensed, ci) for ci in cert.sink_classes],
        "per_class_exit": [
            {"class": _class_label(model, condensed, ci), "exit_time": t}
            for ci, t in sorted(cert.per_class_exit.items())
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
        at = "" if v["witness_cell"] is None else f" at cell {v['witness_cell']}"
        step = "" if v["step"] is None else f" (step {v['step']})"
        lines.append(f"violation at {name}: {v['kind']}{at}{step}")
    _emit("\n".join(lines) + "\n", args.out)


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
        _emit(tree_dot(model), args.out)
        return EXIT_OK
    from .prepares import analysis_set, behavior_graph, build_prepares_graph, condense

    delta = _resolve_delta(spec, args.delta)
    graph = build_prepares_graph(model, _abstraction_vertices(spec), delta)
    condensed = condense(graph)
    seeds = _parse_seed_classes(args.seed_classes, model, condensed)
    chosen = analysis_set(condensed, seeds if seeds is not None else range(len(condensed.classes)))
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
    from .prepares import Certificate

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
    if args.certify:
        report = check_bc_convergence(lib, root, delta=spec.delta, built=built, links=links)
        if report.pattern_ok is None:
            pattern = "n/a (basin hypothesis fails; general certification used)"
        else:
            pattern = str(report.pattern_ok)
        if isinstance(report.result, Certificate):
            report_lines.append(
                f"certified: bound {report.result.bound}, pattern holds: {pattern}"
            )
        else:
            report_lines.append(f"refuted: {report.result.detail}")
    abstraction = [lib.actions[a].leaf.name for a in lib.action_ids()]
    _emit_document(build_document(built.model, abstraction, spec.delta), report_lines, args.out)
    if not operating:
        return EXIT_REFUTED
    return EXIT_OK


def cmd_substitute(args: argparse.Namespace) -> int:
    from .substitution import substitute, verify_preservation

    spec = _load_spec(args.spec)
    if spec.model is None or spec.substitution is None:
        raise SpecError("substitute needs a spec with tree and substitution blocks")
    delta = _resolve_delta(spec, args.delta)
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        BTConvergeError,  # the package's own errors: spec, world, tree, library, verdict
        OSError,  # an unreadable spec (missing, a directory, no permission) or --out path
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
