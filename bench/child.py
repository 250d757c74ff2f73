"""One workload in one fresh process: set up, then measure or trace.

run.py starts this script once per set-up sample (--setup-only) and once for
the measured run, one process at a time, from the root of a checkout.  The
CLI runs in this process through isobound.cli.run(argv) with stdout and
stderr captured.  The last line of stdout is a JSON document for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"  # under the checkout root: scratch inputs, records, spans


@dataclass
class Pass:
    """One run over a workload's op list."""

    latencies: list[float]
    stdout_bytes: int
    spans: list


def run_op(cli, op) -> tuple[float, tuple[int | None, str, str]]:
    """(latency, (exit code, stdout, stderr)); a raising op gets code None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(op.argv))
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return time.perf_counter() - start, (None, out.getvalue(), repr(exc))
    return time.perf_counter() - start, (rc, out.getvalue(), err.getvalue())


def problem(op, outcome) -> str | None:
    """Why an op failed, or None: it raised, exited nonzero or failed a check."""
    rc, out, err = outcome
    if rc != 0:
        return f"{' '.join(op.argv)}: exit {rc}: {err.strip()[-300:]}"
    try:
        op.check(out)
    except (workloads.CheckError, LookupError, TypeError, ValueError) as exc:
        return f"{' '.join(op.argv)}: check failed: {exc!r}"
    return None


class Verdicts:
    """Checks every op outcome once; an identical later outcome reuses it."""

    def __init__(self, ops):
        self.ops = ops
        self.seen: dict = {}
        self.digests: set[str] = set()
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, outcomes) -> None:
        for i, (op, outcome) in enumerate(zip(self.ops, outcomes)):
            key = (i,) + outcome
            if key not in self.seen:
                self.seen[key] = problem(op, outcome)
            self.attempted += 1
            if self.seen[key] is not None:
                self.failures.append(self.seen[key])


def finish(ops, results, verdicts: Verdicts, spans=None) -> Pass:
    """Checks a pass's outputs after its timed loop and then drops them, so
    memory does not grow with the number of passes."""
    latencies = [elapsed for elapsed, _ in results]
    outcomes = [outcome for _, outcome in results]
    digest = hashlib.sha256()  # of every op's argv, exit code and stdout, in order
    for op, (rc, out, _) in zip(ops, outcomes):
        digest.update(f"{op.argv}\0{rc}\0{out}\0".encode())
    verdicts.add(outcomes)
    verdicts.digests.add(digest.hexdigest())
    return Pass(latencies, sum(len(o[1].encode()) for o in outcomes), spans or [])


def run_pass(cli, ops, verdicts: Verdicts) -> Pass:
    return finish(ops, [run_op(cli, op) for op in ops], verdicts)


def run_pair(cli, ops, verdicts: Verdicts, tracer) -> tuple[Pass, Pass]:
    """Each op runs untraced and then traced, back to back, so that both runs
    of an op see the same machine state."""
    plain, spanned = [], []
    for i, op in enumerate(ops):
        plain.append(run_op(cli, op))
        tracer.op = i
        tracer.install()
        try:
            spanned.append(run_op(cli, op))
        finally:
            tracer.uninstall()
    return finish(ops, plain, verdicts), finish(ops, spanned, verdicts, tracer.take())


def latency_summary(passes: list[Pass]) -> dict:
    """wall_s is the op list's time to solution, summed from each op's median
    latency over the passes: one slow stretch of the machine then shifts it
    less than it shifts a whole pass."""
    samples = [x for p in passes for x in p.latencies]
    per_op = [statistics.median(col) for col in zip(*(p.latencies for p in passes))]
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * statistics.median(samples),
        "op_p90_ms": 1000 * statistics.quantiles(samples, n=10)[8],
        "op_samples": len(samples),
        "op_median_ms": [1000 * x for x in per_op],
        "pass_walls_s": [sum(p.latencies) for p in passes],
    }


def another(start: float, seconds: float, rounds: int) -> bool:
    """Whether one more round fits in the budget at the mean round time; the
    first round always runs."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds


def measure(cli, wl, seconds: float, verdicts: Verdicts) -> dict:
    passes = []
    start = time.perf_counter()
    while another(start, seconds, len(passes)):
        passes.append(run_pass(cli, wl.ops, verdicts))
    return dict(latency_summary(passes), passes=len(passes))


def traced(cli, wl, seconds: float, verdicts: Verdicts, spans_path: Path) -> dict:
    """The defect probes run first, under the tracer and within the budget;
    then pairs of untraced and traced passes.  Per-layer values are medians
    over the traced passes."""
    start = time.perf_counter()
    tracer = tracing.Tracer()
    probes = []
    tracer.install()
    try:
        for j, op in enumerate(wl.probes):
            tracer.op = f"probe{j}"
            elapsed, outcome = run_op(cli, op)
            probes.append({"argv": op.argv, "seconds": elapsed, "problem": problem(op, outcome)})
    finally:
        tracer.uninstall()
    probe_spans = tracer.take()
    plain, spanned = [], []
    while another(start, seconds, len(spanned)):
        untraced, traced_pass = run_pair(cli, wl.ops, verdicts, tracer)
        plain.append(untraced)
        spanned.append(traced_pass)
    layers = tracing.median_metrics([tracing.layer_metrics(p.spans, p.stdout_bytes) for p in spanned])
    layers["trace.overhead_s"] = latency_summary(spanned)["wall_s"] - latency_summary(plain)["wall_s"]
    layers["certify.q72_failed"] += tracing.layer_metrics(probe_spans, 0)["certify.q72_failed"]
    tracing.write_spans(spans_path, [probe_spans] + [p.spans for p in spanned])
    return {"layers": layers, "probes": probes, "passes": len(plain) + len(spanned)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    cli = importlib.import_module("isobound.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: isobound was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    os.chdir(work)  # the edge lists' specs are relative, so outputs match across checkouts
    try:
        wl = workloads.build(args.workload, args.seed)
        _, outcome = run_op(cli, wl.warmup)
        warm_problem = problem(wl.warmup, outcome)
        if warm_problem is not None:
            print(f"error: warm-up op failed: {warm_problem}", file=sys.stderr)
            return 1
        result = {"setup_s": time.perf_counter() - start}
        if not args.setup_only:
            verdicts = Verdicts(wl.ops)
            if args.trace:
                spans = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
                result.update(traced(cli, wl, args.seconds, verdicts, spans))
            else:
                result.update(measure(cli, wl, args.seconds, verdicts))
                result["op_median_ms"] = [
                    [" ".join(op.argv), ms] for op, ms in zip(wl.ops, result["op_median_ms"])
                ]
            result.update(
                attempted=verdicts.attempted,
                failed=len(verdicts.failures),
                failures=sorted(set(verdicts.failures))[:20],
                deterministic=len(verdicts.digests) == 1,
                stdout_digest=sorted(verdicts.digests),
                properties=wl.properties(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
