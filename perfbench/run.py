"""q2dpoly benchmark: run one workload for a time budget and print its metrics.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every pass of the workload runs in a fresh
interpreter (perfbench/worker.py), one after another: at least two passes,
then more while another pass is expected to end within --seconds.  Set-up
is timed in every pass.

--trace 0 reports the end-to-end metrics:
  setup_s      median time to import q2dpoly and build the contexts (s)
  wall_s       median time of one pass: the sum of its check times (s)
  check_p50_s  median latency of one check, where a check's latency is its
               median over the run's passes (every pass runs the same checks
               in the same order), so that one slow moment of the host moves
               a check's figure less (s)
  check_p90_s  90th-percentile check latency, taken the same way (s)
  peak_rss_mb  median peak resident set size of a pass (MB)
The four times are seconds at the nominal host speed: each set-up and each
check is timed and then scaled by how fast the host ran a fixed reference
slice around it (hostspeed.py), because this shared CPU's speed drifts by up
to 1.8x between runs.  The times as measured are printed beside them.
--trace 1 runs an untraced pass and a traced pass in turn and reports the
per-layer metrics of the last traced pass (see tracer.py), plus
trace.wall_s and trace.overhead_s (traced minus untraced wall_s).

The checks' expected verdicts are enforced in the same run: `failed` counts
the checks that raised or gave another verdict, and `correct` is false when
any did.  Human-readable lines, including failed_frac and the run metadata,
come first; the last line of stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("exact-sweep", "numeric-sweep", "audit", "cli-cold")  # see workloads.py
MIN_PASSES = 2
HARD_LIMIT_S = 170.0


def run_worker(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "q2dpoly", "__init__.py")):
        print("perfbench: no src/q2dpoly in this checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    deadline = t0 + HARD_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    traced = bool(args.trace)

    passes, traced_passes, durations = [], [], []
    while True:
        for trace_pass in ((False, True) if traced else (False,)):
            started = time.perf_counter()
            doc = run_worker(base + (["--trace"] if trace_pass else []), deadline)
            (traced_passes if trace_pass else passes).append(doc)
            durations.append(time.perf_counter() - started)
        elapsed = time.perf_counter() - t0
        step = statistics.median(durations) * (2 if traced else 1)
        enough = traced or len(passes) >= MIN_PASSES
        if (enough and elapsed + step > args.seconds) or elapsed + 1.5 * step > HARD_LIMIT_S:
            break
    everyone = passes + traced_passes
    attempted = sum(p["attempted"] for p in everyone)
    failed = sum(p["failed"] for p in everyone)
    n_latencies = sum(len(p["latencies"]) for p in passes)
    wall = statistics.median(p["wall_s"] for p in passes)
    if traced:
        last = traced_passes[-1]
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in last["layers"].items()}
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
    else:
        metrics = {name: {"value": value, "unit": "s"}
                   for name, value in end_to_end(passes, lambda p: p["norm"]).items()}
        metrics["peak_rss_mb"] = {"value": statistics.median(p["rss_mb"] for p in passes),
                                  "unit": "MB"}

    meta = dict(passes[0]["meta"], nproc=os.cpu_count(), platform=platform.machine(),
                workload=args.workload, seed=args.seed, trace=args.trace,
                passes=len(passes), traced_passes=len(traced_passes),
                checks_per_pass=passes[0]["attempted"], run_s=time.perf_counter() - t0)
    if not traced:
        meta.update(ref_slice_s=statistics.median(p["norm"]["slice_s"] for p in passes),
                    ref_slices=sum(p["norm"]["slices"] for p in passes),
                    measured={k: round(v, 6)
                              for k, v in end_to_end(passes, lambda p: p).items()})
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for name, m in metrics.items():
        count = f" (n = {n_latencies})" if name.startswith("check_") else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{count}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checks)")
    if args.workload == "cli-cold":
        print(f"# share of wall_s by subcommand: {json.dumps(subcommand_shares(passes))}")
    if failed:
        labels = sorted({lab for p in everyone for lab in p["failures"]})
        print(f"# failed checks: {'; '.join(labels[:20])}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end(passes, times_of):
    """setup_s, wall_s, check_p50_s and check_p90_s from the passes' set-up
    and check times, as `times_of(pass)` gives them."""
    per_check = [statistics.median(ts) for ts in zip(*(times_of(p)["latencies"] for p in passes))]
    return {
        "setup_s": statistics.median(times_of(p)["setup_s"] for p in passes),
        "wall_s": statistics.median(sum(times_of(p)["latencies"]) for p in passes),
        "check_p50_s": statistics.median(per_check),
        "check_p90_s": statistics.quantiles(per_check, n=10, method="inclusive")[-1],
    }


def subcommand_shares(passes):
    """Each cli subcommand's share of the summed check latency of all passes."""
    spent = {}
    for p in passes:
        for label, latency in zip(p["labels"], p["latencies"]):
            kind = label.split()[0]
            spent[kind] = spent.get(kind, 0.0) + latency
    total = sum(spent.values())
    return {kind: round(t / total, 3) for kind, t in sorted(spent.items())}


def unit_of(name):
    stat = name.rsplit(".", 1)[1]
    return "s" if stat.endswith("_s") else "ratio" if stat == "reuse" else "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
