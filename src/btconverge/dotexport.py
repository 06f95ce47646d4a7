"""Deterministic Graphviz DOT rendering of trees and analysis graphs.

Output is byte-stable for a fixed input: nodes and edges are emitted in
sorted order and all attributes are fixed.  Slice flavors are shape-coded
(outside: ellipse, basin: box, goal: doubleoctagon) and analysis-set
members get a heavier pen.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .bt import BTModel, NodeKind

if TYPE_CHECKING:  # annotations only: the tree renderer needs no slice graph
    from .prepares import BehaviorGraph, CondensedGraph, PreparesGraph

_FLAVOR_SHAPE = {"a": "ellipse", "b": "box", "c": "doubleoctagon"}


def _quoted(text: str) -> str:
    """text as a DOT string: backslashes and double quotes escaped, so any leaf name is safe."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _owner_label(model: Optional[BTModel], owner: int) -> str:
    if model is not None and model.names[owner]:
        return model.names[owner]
    return str(owner)


def tree_dot(model: BTModel) -> str:
    lines = ["digraph tree {", "  rankdir=TB;", "  node [fontsize=10];"]
    for v in range(model.n):
        kind = model.kinds[v]
        if kind in (NodeKind.SEQUENCE, NodeKind.FALLBACK):
            label = "seq" if kind is NodeKind.SEQUENCE else "fal"
            lines.append(f"  n{v} [label={_quoted(label)} shape=box];")
        else:
            shape = "ellipse" if kind is NodeKind.CONDITION else "box"
            style = ' style="rounded"' if kind is NodeKind.ACTION else ""
            lines.append(f"  n{v} [label={_quoted(model.names[v])} shape={shape}{style}];")
    for v in range(model.n):
        for c in model.tree.children[v]:
            lines.append(f"  n{v} -> n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def prepares_dot(
    graph: PreparesGraph,
    model: Optional[BTModel] = None,
    analysis_vertices: Optional[Iterable[int]] = None,
) -> str:
    chosen = set(analysis_vertices or ())
    lines = ["digraph prepares {", "  node [fontsize=10];"]
    for i, v in enumerate(graph.vertices):
        label = f"v_{v.flavor}({_owner_label(model, v.owner)})"
        pen = " penwidth=2" if i in chosen else ""
        lines.append(f"  n{i} [label={_quoted(label)} shape={_FLAVOR_SHAPE[v.flavor]}{pen}];")
    for u, w in sorted(graph.edges):
        lines.append(f"  n{u} -> n{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def condensed_dot(
    condensed: CondensedGraph,
    model: Optional[BTModel] = None,
    analysis_classes: Optional[Iterable[int]] = None,
) -> str:
    chosen = set(analysis_classes or ())
    lines = ["digraph condensed {", "  node [fontsize=10 shape=box];"]
    for ci, members in enumerate(condensed.classes):
        parts = [
            f"v_{condensed.graph.vertices[v].flavor}({_owner_label(model, condensed.graph.vertices[v].owner)})"
            for v in members
        ]
        label = "{" + ", ".join(parts) + "}"
        pen = " penwidth=2" if ci in chosen else ""
        lines.append(f"  c{ci} [label={_quoted(label)}{pen}];")
    for ci, cj in sorted(condensed.edges):
        lines.append(f"  c{ci} -> c{cj};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def behavior_dot(bg: BehaviorGraph, model: Optional[BTModel] = None) -> str:
    lines = ["digraph behavior {", "  node [fontsize=10 shape=box];"]
    for owner in bg.nodes:
        lines.append(f"  o{owner} [label={_quoted(_owner_label(model, owner))}];")
    for i, j in sorted(bg.edges):
        lines.append(f"  o{i} -> o{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
