"""fasdlab benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  One
client runs one operation at a time, each starting after the previous one has
finished.  ``--seconds`` fixes how many rounds of operations a run covers,
every answer is checked, and the last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``).  The lines before it are a readable report.
See README.md in this directory.
"""

from __future__ import annotations

import os

# One process, one thread: keep numpy's BLAS pool from starting threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import traceback
import uuid
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from reference import CLOCK, KERNEL_S, Speedometer
from tracing import LAYERS, Lib, Tracer, load_modules, span_table
from workloads import WORKLOADS, Rejected, canon

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The clock for every timing (reference.CLOCK): the code under test is
# single-threaded and does no I/O, and CPU time varies less than wall time on
# a shared machine.  Untraced runs scale it to reference speed (reference.py).
CLOCK_NAME = "time.process_time, scaled to reference speed"

SETUP_REPEATS = 7


# ---------------------------------------------------------------------------
# running operations


def failing_call(exc: BaseException) -> str:
    """The fasdlab function the benchmark had called when ``exc`` was raised."""
    package = str(SRC / "fasdlab")
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = frame.f_code.co_filename
        if path.startswith(package):
            return f"{Path(path).stem}.{frame.f_code.co_name}"
    return "perfbench"


@dataclass
class Outcome:
    seconds: float
    arcs: int
    error: tuple | None  # (fasdlab call or "gate", exception type)
    rejection: str | None
    fingerprint: bytes  # hash of the canonical outcome, for the digest


def fingerprint(outcome) -> bytes:
    return hashlib.sha256(repr(canon(outcome)).encode()).digest()


def execute(op, lib, tracer: Tracer | None = None, clock=CLOCK) -> Outcome:
    """Run one operation, in an ``op`` span when traced; hashing its outcome is not timed."""
    span = tracer.begin("op") if tracer else None
    t0 = clock()
    try:
        res = op(lib)
    except Exception as exc:
        seconds = clock() - t0
        if span:
            tracer.end(span, type(exc).__name__)
        rejected = isinstance(exc, Rejected)
        error = ("gate" if rejected else failing_call(exc), type(exc).__name__)
        return Outcome(seconds, 0, error, str(exc) if rejected else None, fingerprint(error))
    seconds = clock() - t0
    if span:
        tracer.end(span)
    return Outcome(seconds, res.arcs, None, None, fingerprint(res.record))


@dataclass
class Run:
    """The operations of one run: outcomes, and the time that counts for each."""

    groups: list
    outcomes: list
    seconds: list
    round0: int  # operations in round 0, which the digest covers

    def failures(self) -> Counter:
        return Counter(o.error for o in self.outcomes if o.error is not None)

    def rejections(self) -> list:
        return [o.rejection for o in self.outcomes if o.rejection is not None]

    def digest(self) -> str:
        h = hashlib.sha256()
        for o in self.outcomes[: self.round0]:
            h.update(o.fingerprint)
        return h.hexdigest()


def rounds_for(workload, seconds: float) -> int:
    """Rounds that take about ``seconds`` on the calibration machine (at least one).

    The work of a run is fixed by ``--seconds`` alone, so both sides of a
    comparison do the same operations however fast they are.
    """
    return max(1, round(seconds / workload.seconds_per_round))


def measure(workload, lib, seconds: float, set_up_again):
    """Every operation of the rounds once, timed at reference speed (reference.py).

    The set-ups are spread over the run, so that they meet the same phases of
    the machine as the operations.  Returns the run, the set-up times at
    reference speed, and the speedometer.
    """
    groups, ops = [], []
    for r in range(rounds_for(workload, seconds)):
        for group, op in workload.round(r):
            groups.append(group)
            ops.append(op)
    at = {round(k * len(ops) / SETUP_REPEATS) for k in range(SETUP_REPEATS)}
    meter = Speedometer()
    setups, outcomes, spans = [], [], []
    meter.start()
    try:
        for k, op in enumerate(ops):
            if k in at:
                setups.append(meter.timed(set_up_again))
            first = len(meter.samples)
            outcomes.append(execute(op, lib, clock=meter.clock))
            spans.append((first, len(meter.samples)))
        setups += [meter.timed(set_up_again) for _ in range(SETUP_REPEATS - len(setups))]
    finally:
        meter.stop()
    seconds = [meter.scaled(o.seconds, span) for o, span in zip(outcomes, spans)]
    setups = [meter.scaled(t, span) for t, span in setups]
    return Run(groups, outcomes, seconds, len(workload.round(0))), setups, meter


def measure_traced(workload, raw, traced, tracer) -> tuple:
    """Each operation of the trace rounds runs twice, traced and plain.

    Which of the two goes first alternates from one operation to the next, so
    warm-up favours neither.  Returns the traced run and the plain outcomes.
    """
    groups, spanned, plain = [], [], []
    for r in range(workload.trace_rounds):
        for group, op in workload.round(r):
            for use_tracer in (False, True) if len(groups) % 2 == 0 else (True, False):
                if use_tracer:
                    spanned.append(execute(op, traced, tracer))
                else:
                    plain.append(execute(op, raw))
            groups.append(group)
    return Run(groups, spanned, [o.seconds for o in spanned], len(workload.round(0))), plain


# ---------------------------------------------------------------------------
# metrics


def tail(samples):
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it.

    With fewer than 40 samples none of them has ten beyond it, and the median
    stands in.
    """
    xs = sorted(samples)
    for q in (99.9, 99, 95, 90, 75):
        rank = math.ceil(q / 100 * len(xs))
        if len(xs) - rank >= 10:
            return xs[rank - 1], f"p{q:g}"
    return statistics.median(xs), "p50"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(run: Run, setup_s: float):
    ok = [o.error is None for o in run.outcomes]
    total = sum(run.seconds)
    arcs = sum(o.arcs for o in run.outcomes)
    tail_s, tail_name = tail(run.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(ok) / total, "1/s"),
        "arcs_per_s": (arcs / total, "1/s"),
        "op_p50_ms": (statistics.median(run.seconds) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    lines = [f"op_tail_ms is the {tail_name} of {len(run.seconds)} operations"]
    by_group = defaultdict(list)
    for group, seconds, good in zip(run.groups, run.seconds, ok):
        by_group[group].append((seconds, good))
    for group, rows in sorted(by_group.items()):
        lines.append(
            f"group {group}: {len(rows)} operations, {sum(t for t, _ in rows):.4f} s, "
            f"median {statistics.median(t for t, _ in rows) * 1000:.3f} ms, {sum(not g for _, g in rows)} failed"
        )
    return metrics, lines


def per_layer(table: dict, counts: Counter, overhead_pct: float):
    def busy(*names):
        return sum(row["busy"] for name, row in table.items() if name.split("[")[0] in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    module_busy = defaultdict(float)
    failed = Counter()
    for name, row in table.items():
        if "." in name:
            module_busy[name.split(".")[0]] += row["busy"]
            failed[name] = sum(row["failed"].values())
    fasd_nodes = counts["coloring.fasd_exact.nodes"]
    search_nodes = counts["coloring.good_coloring_search.nodes"]
    metrics = {f"{layer}.s": (module_busy[layer], "s") for layer in LAYERS}
    metrics.update(
        {
            "op.self_s": (table["op"]["self"] if "op" in table else 0.0, "s"),
            "generators.arcs": (counts["generators.arcs"], "count"),
            "generators.arcs_per_s": (rate(counts["generators.arcs"], module_busy["generators"]), "1/s"),
            "digraph.enumerate_cycles.cycles": (counts["digraph.enumerate_cycles.cycles"], "count"),
            "ordering.dp_states": (counts["ordering.dp_states"], "count"),
            "ordering.dp_states_per_s": (
                rate(counts["ordering.dp_states"], busy("ordering.fas_exact", "ordering.fas_weighted_exact")),
                "1/s",
            ),
            "coloring.fasd_exact.nodes": (fasd_nodes, "count"),
            "coloring.good_coloring_search.nodes": (search_nodes, "count"),
            "coloring.nodes_per_s": (
                rate(fasd_nodes + search_nodes, busy("coloring.fasd_exact", "coloring.good_coloring_search")),
                "1/s",
            ),
            "triples.decompose3.failed": (failed["triples.decompose3"], "count"),
            "delta3.fas_sixth.ratio": (
                rate(counts["delta3.fas_sixth.removed"], counts["delta3.fas_sixth.arcs"]),
                "ratio",
            ),
            "layers.failed": (sum(failed.values()), "count"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# provenance


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fasdlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "recursion_limit": sys.getrecursionlimit(),
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(),
        "clock": CLOCK_NAME,
    }


# ---------------------------------------------------------------------------
# one run


def set_up(cls, seed: int, tiny: bool):
    """Import fasdlab and build the workload's fixed inputs; returns modules, workload, seconds.

    numpy is imported before and is not counted.
    """
    import numpy  # noqa: F401

    t0 = CLOCK()
    modules = load_modules()
    workload = cls(Lib(modules), seed, tiny)
    seconds = CLOCK() - t0
    src = Path(modules["digraph"].__file__).resolve()
    if SRC not in src.parents:
        raise SystemExit(f"fasdlab was imported from {src}, not from {SRC}")
    return modules, workload, seconds


def set_up_again(cls, seed: int, tiny: bool) -> None:
    """Import fasdlab and build the fixed inputs once more; the run's own modules stay in use."""
    saved = {name: mod for name, mod in sys.modules.items() if name == "fasdlab" or name.startswith("fasdlab.")}
    try:
        cls(Lib(load_modules()), seed, tiny)
    finally:
        sys.modules.update(saved)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, out: Path = OUT):
    """Run one workload; returns (result line, report lines, details)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cls = WORKLOADS[name]
    modules, workload, setup_s = set_up(cls, seed, tiny)
    details = {"workload": name, "trace": int(trace), "provenance": provenance(seed)}
    lines = [f"provenance: {json.dumps(details['provenance'])}"]
    if trace:
        tracer = Tracer(CLOCK, uuid.uuid4().hex)
        traced = Lib(modules, tracer)
        run_span = tracer.begin("run")
        setup_span = tracer.begin("setup")
        workload = cls(traced, seed, tiny)
        tracer.end(setup_span)
        done, plain = measure_traced(workload, Lib(modules), traced, tracer)
        tracer.end(run_span)
        traced_s, plain_s = sum(done.seconds), sum(o.seconds for o in plain)
        overhead_pct = 100 * (traced_s / plain_s - 1)
        table = span_table(tracer.spans)
        metrics = per_layer(table, tracer.counts, overhead_pct)
        lines.append(f"traced {len(done.groups)} operations ({workload.trace_rounds} rounds), trace id {tracer.trace_id}")
        lines.append(f"{'span':40} {'calls':>7} {'busy_s':>10} {'self_s':>10}  failed")
        for span_name, row in sorted(table.items()):
            failed = ", ".join(f"{err} x{k}" for err, k in sorted(row["failed"].items())) or "-"
            lines.append(f"{span_name:40} {row['calls']:7d} {row['busy']:10.4f} {row['self']:10.4f}  {failed}")
        lines.append(
            f"tracing overhead: {overhead_pct:+.2f}% ({plain_s:.3f} s plain, {traced_s:.3f} s traced, same operations)"
        )
        details["counts"] = dict(sorted(tracer.counts.items()))
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"trace-{name}-seed{seed}.jsonl")
    else:
        done, setups, meter = measure(workload, Lib(modules), seconds, partial(set_up_again, cls, seed, tiny))
        details["setup_s"] = {"first, unscaled": setup_s, "scaled": setups}
        details["kernel_s"] = meter.samples
        metrics, notes = end_to_end(done, statistics.median(setups))
        speed = KERNEL_S / statistics.fmean(meter.samples)
        raw = sum(o.seconds for o in done.outcomes)
        lines.append(
            f"machine speed {speed:.3f} of reference ({len(meter.samples)} kernel samples, "
            f"{meter.busy:.3f} s); operations {raw:.3f} s unscaled, {sum(done.seconds):.3f} s at reference speed"
        )
        lines += notes
    attempted = len(done.groups)
    failures = done.failures()
    failed = sum(failures.values())
    rejections = done.rejections()
    correct = not rejections
    digest = done.digest()
    lines.append(f"digest of round 0: {digest}")
    lines.append(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for (where, error), k in sorted(failures.items()):
        lines.append(f"  failed in {where}: {error} x{k}")
    for why in rejections[:10]:
        lines.append(f"  REJECTED: {why}")
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric} = {value} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    details.update(
        ops=[[group, o.seconds, t] for group, o, t in zip(done.groups, done.outcomes, done.seconds)],
        digest=digest,
        failures={f"{where}:{error}": k for (where, error), k in sorted(failures.items())},
        result=result,
    )
    return result, lines, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fasdlab" / "__init__.py").is_file():
        print(f"fasdlab sources not found under {SRC}", file=sys.stderr)
        return 2
    result, lines, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
