"""The CLI in a fresh interpreter: what `import btconverge.cli` loads, and
that every subcommand imports what it runs.  Also what the runtime may
import at all: the standard library and the package.

In-process tests cannot see a missing import: by the time they run, earlier
tests have loaded every module of the package.  These tests start a new
interpreter for each case.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import btconverge
from btconverge.cli import main
from btconverge.specfile import dump_document

from helpers import bundled_document

PACKAGE_ROOT = str(Path(btconverge.__file__).resolve().parents[1])
CLI_MODULES = [
    "btconverge",
    "btconverge.bt",
    "btconverge.cli",
    "btconverge.ordered_tree",
    "btconverge.specfile",
    "btconverge.statespace",
]
# runs one call in a fresh interpreter, output silenced, and prints the
# package modules loaded and those of the watched modules that were
PROBE = """
import contextlib, io, json, sys
import btconverge.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    {call}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("btconverge") or m in {watch!r})))
"""


def fresh_python(*args: str, **environ: str) -> subprocess.CompletedProcess:
    path = [PACKAGE_ROOT, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONIOENCODING="utf-8", **environ)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, encoding="utf-8", env=env, timeout=60
    )


def loaded_after(call: str, *argv: str, watch: tuple[str, ...] = ()) -> list[str]:
    run = fresh_python("-c", PROBE.format(call=call, watch=watch), *argv)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def specs(tmp_path_factory) -> dict:
    """File specs: three bundled documents, and two that fail in the analysis
    modules with FtsPreconditionError and SubstitutionError."""
    root = tmp_path_factory.mktemp("specs")
    docs = {name: bundled_document(name) for name in ("surveying_robot", "surveying_robot_library", "patrol")}
    slow = bundled_document("surveying_robot_library")
    for entry in slow["library"]["actions"]:
        if entry.get("doa"):
            entry["doa"]["horizon"] = 1  # too short for the controllers to reach their goals
    docs["library_fts"] = slow
    risky = bundled_document("patrol")
    risky["substitution"]["risk_ok"] = []  # S_RR no longer inside S_ROK
    docs["patrol_risky"] = risky
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(dump_document(doc))
    return paths


def test_importing_the_cli_loads_only_the_spec_layer(specs):
    assert loaded_after("pass") == CLI_MODULES
    # a spec without library or substitution blocks needs no analysis module to load
    assert loaded_after("btconverge.cli._load_spec(sys.argv[1])", specs["surveying_robot"]) == CLI_MODULES


def test_importing_the_cli_builds_no_parser():
    """main builds its parser on the first call, so the import pays nothing for it."""
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(self) or init(self, *a, **k)\n"
        "import btconverge.cli\n"
        "print(len(built))\n"
        "btconverge.cli.build_parser()\n"
        "print(len(built) > 0)\n"
    )
    run = fresh_python("-c", probe)
    assert (run.returncode, run.stdout) == (0, "0\nTrue\n"), run.stderr


HELP = """\
usage: btconverge [-h] {check,simulate,export,backchain,substitute} ...

Convergence analysis for behavior-tree control policies

positional arguments:
  {check,simulate,export,backchain,substitute}
    check               certify convergence or refute it
    simulate            run the closed loop from a start cell
    export              emit DOT graphs
    backchain           generate a tree from a library
    substitute          install the guarded controller subtree

options:
  -h, --help            show this help message and exit
"""
CHECK_WITHOUT_SPEC = """\
usage: btconverge check [-h] --spec SPEC [--out OUT] [--format {text,json}]
                        [--seed-classes SEED_CLASSES] [--delta DELTA]
btconverge check: error: the following arguments are required: --spec
"""


@pytest.mark.parametrize(
    "argv, code, out, err",
    [(["--help"], 0, HELP, ""), (["check"], 2, "", CHECK_WITHOUT_SPEC)],
    ids=["help", "check-without-spec"],
)
def test_console_help_and_usage_error_texts(argv, code, out, err):
    """The texts of one call per process, the console script's case, at 80 columns."""
    run = fresh_python("-m", "btconverge.cli", *argv, COLUMNS="80")
    assert (run.returncode, run.stdout, run.stderr) == (code, out, err)


def test_a_bundled_ref_loads_what_its_file_loads():
    # a shipped example is read like any spec file, so it adds no module either
    assert loaded_after('btconverge.cli._load_spec("bundled:surveying_robot")') == CLI_MODULES


@pytest.mark.parametrize(
    "argv, added",
    [
        (["check", "--spec", "surveying_robot"], ["execution", "prepares"]),
        (["simulate", "--spec", "surveying_robot", "--x0", "0"], ["execution"]),
        (["export", "--spec", "surveying_robot", "--which", "tree"], ["dotexport"]),
        (["export", "--spec", "surveying_robot", "--which", "behavior"], ["dotexport", "execution", "prepares"]),
        (["backchain", "--spec", "surveying_robot_library"], ["backchain", "execution", "prepares"]),
        (["substitute", "--spec", "patrol"], ["execution", "prepares", "substitution"]),
    ],
    ids=["check", "simulate", "export-tree", "export-behavior", "backchain", "substitute"],
)
def test_each_subcommand_imports_what_it_runs(argv, added, specs):
    argv = [specs.get(word, word) for word in argv]
    want = sorted(CLI_MODULES + [f"btconverge.{name}" for name in added])
    assert loaded_after("btconverge.cli.main(sys.argv[1:])", *argv) == want


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["check", "--spec", "surveying_robot"], []),
        (["simulate", "--spec", "surveying_robot", "--x0", "0"], []),
        (["export", "--spec", "surveying_robot", "--which", "behavior"], []),
        (["backchain", "--spec", "surveying_robot_library", "--certify"], []),
        (["substitute", "--spec", "patrol"], ["dataclasses", "inspect"]),
    ],
    ids=["import", "check", "simulate", "export", "backchain", "substitute"],
)
def test_only_the_substitution_layer_loads_dataclasses(argv, loaded, specs):
    """The records outside ``substitution`` are NamedTuples, so no other
    command pays for ``dataclasses`` and the ``inspect`` it imports."""
    argv = [specs.get(word, word) for word in argv]
    call = "btconverge.cli.main(sys.argv[1:])" if argv else "pass"
    watch = ("dataclasses", "inspect")
    got = loaded_after(call, *argv, watch=watch)
    assert [m for m in got if m in watch] == loaded


# (argv, exit code); a word naming a file spec in the fixture stands for its path
SUBCOMMANDS = {
    "check": (["check", "--spec", "bundled:surveying_robot"], 0),
    "check-json-refuted": (["check", "--spec", "bundled:eat_tree", "--format", "json"], 1),
    "check-file": (["check", "--spec", "surveying_robot"], 0),
    "simulate": (["simulate", "--spec", "bundled:patrol", "--x0", "0", "--steps", "8"], 0),
    "export-tree": (["export", "--spec", "bundled:surveying_robot", "--which", "tree"], 0),
    "export-tree-file": (["export", "--spec", "surveying_robot", "--which", "tree"], 0),
    "export-prepares": (["export", "--spec", "bundled:surveying_robot", "--which", "prepares"], 0),
    "export-condensed": (["export", "--spec", "bundled:gridworld", "--which", "condensed"], 0),
    "export-behavior": (["export", "--spec", "bundled:eat_tree", "--which", "behavior"], 0),
    "backchain-certify": (["backchain", "--spec", "bundled:mobile_manipulator", "--certify"], 0),
    "substitute": (["substitute", "--spec", "bundled:patrol"], 0),
    "LibraryError": (["backchain", "--spec", "surveying_robot_library", "--root", "ghost"], 2),
    "FtsPreconditionError": (["backchain", "--spec", "library_fts", "--certify"], 1),
    "SubstitutionError": (["substitute", "--spec", "patrol_risky"], 2),
}


@pytest.mark.parametrize("case", list(SUBCOMMANDS))
def test_fresh_interpreter_matches_in_process_main(case, specs, capsys):
    argv, code = SUBCOMMANDS[case]
    argv = [specs.get(word, word) for word in argv]
    run = fresh_python("-m", "btconverge.cli", *argv)
    got = main(argv)
    captured = capsys.readouterr()
    assert (run.returncode, run.stdout, run.stderr) == (got, captured.out, captured.err)
    assert got == code
    if code == 2:
        assert run.stdout == "" and run.stderr.startswith("error: ")


def test_the_runtime_imports_only_the_standard_library():
    """Every import in the package, function-level ones too, names a stdlib module or the package."""
    outside = []
    for path in sorted(Path(btconverge.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside the package
            tops = {name.partition(".")[0] for name in names}
            outside += [
                f"{path.name}:{node.lineno}: {top}"
                for top in sorted(tops - sys.stdlib_module_names - {"btconverge"})
            ]
    assert outside == []


# runs main in a fresh interpreter whose address space is capped, so an
# allocation that follows the declared universe fails fast instead of
# taking gigabytes of the machine
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
import btconverge.cli
sys.exit(btconverge.cli.main(sys.argv[1:]))
"""


def test_a_huge_declared_universe_costs_what_the_document_lists(tmp_path):
    """eat_tree declaring 10**9 cells lists one target per real cell, so the
    reader refuses it at once, naming the field, within a 1 GB address space."""
    import time

    doc = bundled_document("eat_tree")
    doc["universe"]["cells"] = 10**9
    path = tmp_path / "huge.json"
    path.write_text(dump_document(doc))
    started = time.perf_counter()
    run = fresh_python("-c", CAPPED.format(limit=2**30), "check", "--spec", str(path))
    took = time.perf_counter() - started
    assert (run.returncode, run.stdout) == (2, ""), run.stderr
    assert run.stderr == "error: leaves[0].next must list one target per cell\n"
    assert took < 10
