"""Tests for the benchmark's own code: generators, relabelling, oracle, spans.

    python3 -m pytest benchmark
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, coverage, layer_self_times, self_times  # noqa: E402

from btconverge.specfile import parse_document  # noqa: E402

SEEDS = (1, 2, 3)


def _relabelled(doc: dict, seed: int) -> dict:
    perm = specs.permutation(doc["universe"]["cells"], random.Random(seed))
    return specs.relabel(doc, perm)


def _generated() -> dict[str, dict]:
    docs = {
        "grid-6": specs.grid_document(6),
        "grid-60": specs.grid_document(workloads.GRID_SIDE),
        "chain-4x3": specs.chain_document(4, 3),
        "chain": specs.chain_document(workloads.CHAIN_STAGES, workloads.CHAIN_WIDTH),
        "patrol-sub": specs.patrol_sub_document(workloads.PATROL_BUDGET, workloads.PATROL_HYST_CAP),
    }
    docs.update({name: specs.bundled_document(name) for name in specs.BUNDLED})
    return docs


@pytest.mark.parametrize("name", sorted(_generated()))
def test_every_generator_yields_a_spec_that_parses(name):
    doc = _generated()[name]
    for candidate in (doc, _relabelled(doc, 7)):
        spec = parse_document(candidate)
        assert spec.world.cell_count == doc["universe"]["cells"]


def test_relabel_is_a_consistent_permutation():
    doc = specs.grid_document(4)
    perm = specs.permutation(16, random.Random(5))
    out = specs.relabel(doc, perm)
    for old in range(16):
        assert out["universe"]["coords"][perm[old]] == doc["universe"]["coords"][old]
    dock = {e["name"]: e for e in doc["leaves"]}["dock"]
    moved = {e["name"]: e for e in out["leaves"]}["dock"]
    for old in range(16):
        assert moved["next"][perm[old]] == perm[dock["next"][old]]
    assert moved["success"] == sorted(perm[c] for c in dock["success"])
    with pytest.raises(ValueError):
        specs.relabel(doc, [0] * 16)


@pytest.fixture()
def small(tmp_path):
    return workloads.Small(0, tmp_path)


@pytest.mark.parametrize("seed", SEEDS)
def test_relabelling_preserves_bundled_verdicts(small, seed):
    small.rng = random.Random(seed)
    seen = set()
    for k, item in enumerate(small.items):
        inp = small.prepare(k, k)
        verdict = small.verdict(inp, small.run(inp))
        assert small.check(inp, verdict, traced=False) is None, item
        seen.add(item[1])
        small.discard(inp)
    assert seen == set(specs.BUNDLED)


def test_traced_twins_agree_with_the_oracle(small):
    for k, item in enumerate(small.items):
        inp = small.prepare(k, k)
        tracer = Tracer()
        tracer.op = k
        with tracer.span("op"):
            verdict = small.run_traced(inp, tracer, {})
        assert small.check(inp, verdict, traced=True) is None, item
        small.discard(inp)


def test_oracle_flags_an_off_by_one_bound():
    doc = _relabelled(specs.grid_document(6), 3)
    bound, refined = oracle.grid_bounds(6)
    assert oracle.reach_problem(doc, refined) is None
    assert oracle.reach_problem(doc, refined - 1) is not None
    want = (0, "certified", bound, refined)
    good = {"code": 0, "status": "certified", "bound": bound, "refined_bound": refined}
    assert workloads.check_problem(doc, good, want) is None
    for key, delta in (("bound", 1), ("bound", -1), ("refined_bound", 1)):
        bad = dict(good, **{key: good[key] + delta})
        assert workloads.check_problem(doc, bad, want) is not None


def test_a_wrong_bound_counts_as_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GRID_SIDE", 6)

    class OffByOne(workloads.Grid):
        def verdict(self, inp, raw):
            verdict = super().verdict(inp, raw)
            verdict["bound"] += 1
            return verdict

    loop = run.closed_loop(OffByOne(1, tmp_path), 0.0, False, Tracer())
    assert loop["attempted"] == 1 and loop["failed"] == 1
    assert "bound" in loop["problems"][0]
    loop = run.closed_loop(workloads.Grid(1, tmp_path), 0.0, False, Tracer())
    assert loop["attempted"] == 1 and loop["failed"] == 0


def test_stepper_simulate_log_matches_tree_semantics():
    doc = specs.bundled_document("patrol")
    log = oracle.Stepper(doc).simulate_log(6, 5)
    assert log.splitlines() == [
        "0 6 mb_patrol running",
        "1 7 mb_patrol running",
        "2 8 park running",
        "3 9 park success",
        "4 9 park success",
        "# halt: max-steps",
    ]


def test_self_time_arithmetic():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a
        Span("a", 2.0, 3.0, 1, 0),  # nested a
        Span("c", 9.0, 12.0, 0, 0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 3.0, 1.0, 3.0])
    assert layer_self_times(spans) == pytest.approx({"op": 4.0, "a": 3.0, "b": 3.0, "c": 3.0})
    assert coverage(spans) == pytest.approx(0.6)


def test_op_spans_reindexes_parents():
    tracer = Tracer()
    for op in (0, 1):
        tracer.op = op
        with tracer.span("op"):
            with tracer.span("child"):
                pass
    spans = tracer.op_spans(1)
    assert [s.name for s in spans] == ["op", "child"]
    assert spans[0].parent is None and spans[1].parent == 0
