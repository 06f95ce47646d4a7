"""The CLI's outputs, pinned: exit code, stdout, stderr and the sha256 of any --out bytes.

Each case runs ``main`` in process on one argv and compares what it wrote
with its entry in ``cli_golden.json``.  A change that moves an output shows
as a changed entry.  Regenerate the file after an intended change with

    PYTHONPATH=src:tests python tests/test_cli_golden.py

and review its diff.  The cases cover ``check`` in text and JSON on the six
bundled documents, ``backchain --certify --out`` on every action root of
both bundled libraries and on a 120-stage chain library, ``substitute
--out`` on patrol and ``check`` on the product it writes, the
``--seed-classes`` refusals, and the hypothesis failures of a gridworld and
a library whose deadlines are cut to one step.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Optional

import pytest

from btconverge.cli import bundled_names, main
from btconverge.specfile import dump_document, library_document

from helpers import bundled_document, staged_chain_library

GOLDEN = Path(__file__).with_name("cli_golden.json")
TMP = "{tmp}"  # stands for the case's scratch directory in argv and output


def _chain120(tmp: Path) -> None:
    (tmp / "chain120.json").write_text(dump_document(library_document(*staged_chain_library(120))))


def _patrol_product(tmp: Path) -> None:
    assert main(["substitute", "--spec", "bundled:patrol", "--out", str(tmp / "patrol-sub.json")]) == 0


def _one_step_deadlines(name: str) -> Callable[[Path], None]:
    """Write bundled document name, every deadline cut to one step, as slow.json."""

    def prep(tmp: Path) -> None:
        doc = bundled_document(name)
        entries = doc["library"]["actions"] if "library" in doc else doc["leaves"]
        for entry in entries:
            if entry.get("doa"):
                entry["doa"]["horizon"] = 1
        (tmp / "slow.json").write_text(dump_document(doc))

    return prep


def _library_roots() -> list[tuple[str, str]]:
    roots = []
    for name in bundled_names():
        doc = bundled_document(name)
        roots += [(name, entry["name"]) for entry in doc.get("library", {}).get("actions", [])]
    return roots


def cases() -> dict[str, tuple[Optional[Callable[[Path], None]], list[str]]]:
    """Case id -> (what to write into the scratch directory first, argv)."""
    out = ["--out", f"{TMP}/out.json"]
    found: dict[str, tuple[Optional[Callable[[Path], None]], list[str]]] = {}
    for name in bundled_names():
        found[f"check-{name}-text"] = (None, ["check", "--spec", f"bundled:{name}"])
        found[f"check-{name}-json"] = (None, ["check", "--spec", f"bundled:{name}", "--format", "json"])
    for library, root in _library_roots():
        argv = ["backchain", "--spec", f"bundled:{library}", "--root", root, "--certify", *out]
        found[f"backchain-{library}-{root}"] = (None, argv)
    found["backchain-chain120"] = (_chain120, ["backchain", "--spec", f"{TMP}/chain120.json", "--certify", *out])
    found["substitute-patrol"] = (None, ["substitute", "--spec", "bundled:patrol", *out])
    for fmt in ("text", "json"):
        argv = ["check", "--spec", f"{TMP}/patrol-sub.json", "--format", fmt]
        found[f"check-patrol-product-{fmt}"] = (_patrol_product, argv)
    slow_grid, slow_library = _one_step_deadlines("gridworld"), _one_step_deadlines("surveying_robot_library")
    for fmt in ("text", "json"):
        found[f"check-slow-gridworld-{fmt}"] = (slow_grid, ["check", "--spec", f"{TMP}/slow.json", "--format", fmt])
    found["backchain-slow-library"] = (slow_library, ["backchain", "--spec", f"{TMP}/slow.json", "--certify", *out])
    for spec, tokens in (
        ("bundled:surveying_robot", "b:idle"),
        ("bundled:gridworld", "c:go_right"),
        ("bundled:gridworld", "z:go_right"),
        ("bundled:gridworld", "b:go_right,z:dock"),
    ):
        argv = ["check", "--spec", spec, "--seed-classes", tokens]
        found[f"seed-{spec.split(':')[1]}-{tokens}"] = (None, argv)
    found["seed-slow-gridworld-z:dock"] = (slow_grid, ["check", "--spec", f"{TMP}/slow.json", "--seed-classes", "z:dock"])
    argv = ["export", "--spec", "bundled:gridworld", "--which", "condensed", "--seed-classes", "c:go_right"]
    found["seed-export-gridworld-c:go_right"] = (None, argv)
    return found


def run_case(prep: Optional[Callable[[Path], None]], argv: list[str], tmp: Path, capsys) -> dict:
    if prep is not None:
        prep(tmp)
        capsys.readouterr()
    code = main([arg.replace(TMP, str(tmp)) for arg in argv])
    captured = capsys.readouterr()
    written = tmp / "out.json"
    digest = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None
    return {
        "argv": argv,
        "exit": code,
        "stdout": captured.out.replace(str(tmp), TMP).split("\n"),
        "stderr": captured.err.replace(str(tmp), TMP).split("\n"),
        "out_sha256": digest,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_cli_output_matches_golden(case, golden, tmp_path, capsys):
    prep, argv = cases()[case]
    assert run_case(prep, argv, tmp_path, capsys) == golden[case]


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stderr, redirect_stdout
    from types import SimpleNamespace

    class _Capture:
        """capsys's readouterr, for a run outside pytest."""

        def __init__(self) -> None:
            self.out, self.err = io.StringIO(), io.StringIO()

        def readouterr(self) -> SimpleNamespace:
            got = SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())
            for buf in (self.out, self.err):
                buf.seek(0)
                buf.truncate()
            return got

    entries = {}
    for case, (prep, argv) in sorted(cases().items()):
        capture = _Capture()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(capture.out), redirect_stderr(capture.err):
            entries[case] = run_case(prep, argv, Path(tmp), capture)
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} cases to {os.path.relpath(GOLDEN)}")
