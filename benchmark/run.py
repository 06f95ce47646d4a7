"""btconverge benchmark: one closed-loop client, one workload per run.

    python3 benchmark/run.py --workload grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
inputs, outputs and traces go under ``.bench_out/``.  One client issues
operations back to back, each on a freshly generated input, until the time
is up.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
operations alternate and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, coverage, layer_self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9
REFERENCE_EVERY_S = 0.5  # of wall time, so also at least once per second of work
REFERENCE_ROUNDS = 55
REFERENCE_FILES = 700
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import btconverge.cli; "
    "print(repr(time.perf_counter() - t))"
)

# layer shares of the untraced op time seen in throwaway probes, checked
# against each traced run: (workload, span name, share of the op)
PROBE_SHARES = (
    ("grid", "statespace.neighborhood", 0.87 / 1.1),
    ("patrol-sub", "substitution.reverify", 0.68 / 0.85),
)
SHARE_TOLERANCE = 0.15

TIME_LAYERS = (
    "specfile.parse",
    "ordered_tree.orders",
    "bt.analysis",
    "bt.tick",
    "statespace.neighborhood",
    "prepares.graph",
    "prepares.condense",
    "prepares.analysis_set",
    "prepares.reachability",
    "prepares.certify",
    "execution.fts",
    "execution.exit_time",
    "execution.simulate",
    "backchain.build",
    "backchain.operating",
    "backchain.check",
    "substitution.substitute",
    "substitution.preserve",
    "substitution.reverify",
    "dotexport.render",
)
COUNTS = (
    "statespace.cells",
    "bt.tree_vertices",
    "prepares.slices",
    "prepares.edges",
    "prepares.classes",
    "execution.exit_cells",
    "execution.max_exit_steps",
    "substitution.aug_cells",
    "specfile.doc_bytes",
)


class _Node:
    __slots__ = ("kids",)

    def __init__(self, depth: int) -> None:
        self.kids = (_Node(depth - 1), _Node(depth - 1)) if depth else ()


_REF_TREE = _Node(9)
_REF_ROWS = tuple((c * 2654435761) & 0xFFFF for c in range(512))
_REF_TEXT = "".join(f"{r}\n" for r in _REF_ROWS)


def _descend(node: _Node, x: int) -> int:
    if not node.kids:
        return x
    return _descend(node.kids[x & 1], x >> 1)


def reference_loop(scratch: Path) -> float:
    """A fixed stdlib-only workload; returns its wall time in seconds.

    Recursive descents through slotted objects, big-int masks, dict traffic
    and small file round trips in ``scratch``: the kinds of work the
    operations do, in about 50 ms on a 2-core sandbox.  The file share
    matters: when the machine is contended, pure-Python work slows by about
    1.6x but file I/O by only 1.3x, and the ratio should not move.
    """
    start = time.perf_counter()
    seen: dict[int, int] = {}
    mask = acc = 0
    for r in range(REFERENCE_ROUNDS):
        for bits in _REF_ROWS:
            bits ^= r
            mask |= 1 << (bits & 1023)
            seen[bits] = seen.get(bits, 0) + 1
            acc += _descend(_REF_TREE, bits)
        mask &= (1 << 1000) - 1
    path = scratch / "reference.txt"
    for _ in range(REFERENCE_FILES):
        path.write_text(_REF_TEXT, encoding="utf-8")
        path.read_text(encoding="utf-8")
        path.unlink()
    return time.perf_counter() - start


class SetupSampler:
    """Fresh-interpreter times to import btconverge.cli, spread over the run.

    Spreading the samples over the whole run lets them see the same mix of
    machine speeds as the operations.  A first import that also writes the
    bytecode caches is not counted.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self.samples: list[float] = []
        self._env = dict(os.environ, PYTHONPATH=str(SRC))
        self._probe()

    def _probe(self) -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=self._env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        return float(done.stdout.strip())

    def keep_pace(self, fraction: float) -> None:
        """Take samples until they keep up with the elapsed share of the run."""
        while len(self.samples) < 1 + int((self.count - 1) * min(fraction, 1.0)):
            self.samples.append(self._probe())

    def median(self) -> float:
        self.keep_pace(1.0)
        return statistics.median(self.samples)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def closed_loop(workload, seconds: float, trace: bool, tracer: Tracer, setup=None) -> dict:
    """Issue operations back to back until the time is up."""
    untraced: list[float] = []
    untraced_ref: list[int] = []  # index of the last reference time before the op
    refs = [reference_loop(workload.workdir)]
    traced_ops: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    last_ref = time.perf_counter()
    start = time.perf_counter()
    k = 0
    while True:
        is_traced = trace and k % 2 == 1
        if setup is not None:
            setup.keep_pace((time.perf_counter() - start) / seconds if seconds else 1.0)
        inp = workload.prepare(k, k // 2 if trace else k)
        gc.collect()
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_loop(workload.workdir))
            last_ref = time.perf_counter()
        counts: dict = {}
        tracer.op = k
        t0 = time.perf_counter()
        try:
            if is_traced:
                with tracer.span("op"):
                    raw = workload.run_traced(inp, tracer, counts)
            else:
                raw = workload.run(inp)
            error = None
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        attempted += 1
        if error is None:
            try:
                error = workload.check(inp, workload.verdict(inp, raw), is_traced)
            except Exception as exc:  # unreadable output is a wrong answer
                error = f"output not understood: {type(exc).__name__}: {exc}"
        workload.discard(inp)
        if error is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(f"op {k} ({'traced' if is_traced else 'untraced'}): {error}")
        if is_traced:
            traced_ops.append({"k": k, "dt": dt, "counts": counts})
        else:
            untraced.append(dt)
            untraced_ref.append(len(refs) - 1)
        k += 1
        enough = untraced and (traced_ops or not trace)
        if enough and time.perf_counter() - start >= seconds:
            break
    refs.append(reference_loop(workload.workdir))
    # each op against the mean of the reference times taken just before and after it
    rel = [dt / ((refs[j] + refs[j + 1]) / 2) for dt, j in zip(untraced, untraced_ref)]
    return {
        "untraced": untraced,
        "rel": rel,
        "traced": traced_ops,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def layer_metrics(workload, loop: dict, tracer: Tracer) -> tuple[dict, list[str]]:
    per_op = []
    for op in loop["traced"]:
        spans = tracer.op_spans(op["k"])
        totals = layer_self_times(spans)
        wrapped = sum(s.duration for s in spans if s.wrapped)
        per_op.append((op, totals, coverage(spans), wrapped))
    untraced_p50 = statistics.median(loop["untraced"])
    # means, not medians: on `small` each layer runs on only some items
    metrics = {}
    for name in TIME_LAYERS:
        value = statistics.fmean(totals.get(name, 0.0) for _op, totals, _c, _w in per_op)
        metrics[f"{name}_s"] = (value, "s")
    for name in COUNTS:
        value = statistics.fmean(op["counts"].get(name, 0) for op, _t, _c, _w in per_op)
        metrics[name] = (value, "count")
    # paired: the untraced op just before each traced op used the same item
    overhead = 0.0
    if workload.cli_ops:
        overhead = statistics.median(
            plain - wrapped for (_op, _t, _c, wrapped), plain in zip(per_op, loop["untraced"])
        )
    metrics["cli.overhead_s"] = (overhead, "s")
    metrics["trace.coverage"] = (statistics.median(c for _op, _t, c, _w in per_op), "ratio")
    traced_p50 = statistics.median(op["dt"] for op in loop["traced"])
    metrics["trace.overhead"] = (traced_p50 / untraced_p50, "ratio")

    notes = []
    for name, span, share in PROBE_SHARES:
        if name != workload.name:
            continue
        seen = metrics[f"{span}_s"][0] / untraced_p50
        verdict = "mismatch" if abs(seen - share) > SHARE_TOLERANCE else "agrees"
        notes.append(f"probe share {span}: {seen:.2f} of the op (probe {share:.2f}) {verdict}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "btconverge" / "cli.py").is_file():
        sys.stderr.write(f"error: no program sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = SetupSampler(SETUP_SAMPLES)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer()
        loop = closed_loop(workload, args.seconds, bool(args.trace), tracer, setup)
        setup_s = setup.median()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = loop["attempted"], loop["failed"]
    notes = []
    if args.trace:
        metrics, notes = layer_metrics(workload, loop, tracer)
    else:
        metrics = {
            "verdict_rel.p50": (statistics.median(loop["rel"]), "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    times = loop["untraced"]
    # reported but not gated: raw seconds follow the machine's speed drift,
    # and below about 100 ops a run has too few samples for a steady p90
    ungated = {
        "verdict_s.p50": statistics.median(times),
        "verdict_s.p90": p90(times),
        "verdict_rel.p90": p90(loop["rel"]),
    }
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": len(loop["untraced"]),
        "traced_samples": len(loop["traced"]),
        "fail_ratio": failed / attempted,
        "ungated": ungated,
        "problems": loop["problems"],
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        tracer.dump(OUT / f"spans-{stem}.json", {"workload": args.workload, "seed": args.seed, **env})

    print(
        f"# {args.workload}: {len(times)} untraced and {len(loop['traced'])} traced ops, "
        f"verdict_s.p50 {ungated['verdict_s.p50']:.6f} s, verdict_s.p90 {ungated['verdict_s.p90']:.6f} s, "
        f"verdict_rel.p90 {ungated['verdict_rel.p90']:.4f}, "
        f"fail_ratio {failed / attempted:.4f}; python {env['python']}, nproc {env['nproc']}, "
        f"{env['platform']}"
    )
    for line in notes + loop["problems"]:
        print(f"# {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
