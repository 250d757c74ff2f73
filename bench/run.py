"""isobound benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the root of an isobound checkout:

    python3 bench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
profile_search, query_mix, verify_products.  Every op is one CLI invocation
through isobound.cli.run(argv) in a single child process, closed loop with one
client and one thread.  The op list is repeated until --seconds have passed;
every output is checked against independent recomputations.

--trace 0 reports the end-to-end metrics, with tracing off:
  setup_s      import isobound, write the seeded edge lists, one warm-up op;
               median over fresh processes
  wall_s       time to finish the op list once (median over passes)
  op_p50_ms    median per-op latency over all passes
  op_p90_ms    90th percentile per-op latency (the sample count is printed)
  peak_rss_mb  peak resident memory of the workload's process
--trace 1 reports the per-layer metrics from traced passes that alternate
with untraced ones.  BENCHMARK.json at the root names every metric and unit.

Failed ops (raised, exited nonzero or failed a check) are counted, never
retried or dropped.  The last line of stdout is the JSON result; a record with
the input properties, machine, stdout digest and failures goes to
.bench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

# Set-up is sampled in fresh processes, half before and half after the
# measured process (which gives one more sample), so that the median spans
# the run rather than one moment of a machine whose speed drifts.
SETUP_SAMPLES_EACH_SIDE = 6
TIME_LIMIT_S = 170  # the whole run, set-up samples included


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "loadavg": os.getloadavg(),
    }


def child(args, deadline: float, setup_only: bool) -> dict:
    """Run child.py to completion, one process at a time, and parse its result."""
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("the workload did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"the workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(record: dict, metrics: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print(f"  machine: {json.dumps(record['machine'])}")
    print(f"  inputs: {json.dumps(record['properties'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "op_samples" in record:
        print(f"  latency samples: {record['op_samples']} ops over {record['passes']} passes")
    if record.get("probes"):
        print(f"  defect probe: {json.dumps(record['probes'])}")
    print(f"  ops attempted {record['attempted']}, failed {record['failed']}")
    for failure in record["failures"]:
        print(f"    FAILED {failure}")
    print(f"  stdout digest: {' '.join(record['stdout_digest'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "isobound" / "cli.py").is_file():
        print("error: run from the root of an isobound checkout (no src/isobound/cli.py here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine()}
    side = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
    try:
        setups = [child(args, deadline, setup_only=True)["setup_s"] for _ in range(side)]
        result = child(args, deadline, setup_only=False)
        setups.append(result["setup_s"])
        setups += [child(args, deadline, setup_only=True)["setup_s"] for _ in range(side)]
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(result, setup_samples_s=setups)
    record["machine"]["loadavg_end"] = os.getloadavg()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = result["layers"] if args.trace else dict(result, setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = result["failed"] == 0 and result["deterministic"]
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(record, metrics=metrics, correct=correct), indent=1) + "\n")
    report(record, metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
