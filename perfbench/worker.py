"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload exact-sweep --seed 1 [--trace]

Caches in q2dpoly live at module level, so every pass runs in its own
process.  The worker times set-up (importing q2dpoly and building the
workload's contexts and inputs), asserts that the hq moment cache is still
empty, times each check, then verifies every result against its expected
verdict after the timed loop.  An untraced pass samples the host's speed
throughout (hostspeed.py) and reports set-up and check times both as
measured and at the nominal host speed; the sampler's own time is taken out
of both.  It prints one JSON object on stdout; a traced pass also writes its
spans to .bench_out/<workload>.spans.csv.gz.
"""

import sys
import time

import hostspeed

T_START = time.perf_counter()
SAMPLER = None if "--trace" in sys.argv else hostspeed.Sampler().start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import q2dpoly
    import workloads
    from q2dpoly import measures

    checks = workloads.BUILDERS[args.workload](args.seed)
    t_setup = time.perf_counter()
    setup_s = t_setup - T_START - (SAMPLER.spent if SAMPLER else 0.0)
    pkg = os.path.dirname(os.path.abspath(q2dpoly.__file__))
    if pkg != os.path.join(SRC, "q2dpoly"):
        raise SystemExit(f"q2dpoly imported from {pkg}, not from this checkout")
    if measures._H_MOMENT_CACHE:
        raise SystemExit("hq moment cache is not empty before the first check")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    results, latencies, spans = [], [], []
    clock = time.perf_counter
    sampler = SAMPLER or hostspeed.Sampler()
    t_first = clock()
    spent_first = sampler.spent
    for check in checks:
        t, spent = clock(), sampler.spent
        try:
            results.append((True, check.run()))
        except Exception as exc:  # a raising check is a failed check
            results.append((False, repr(exc)))
        t_end = clock()
        latencies.append(t_end - t - (sampler.spent - spent))
        spans.append((t, t_end))
    wall_s = clock() - t_first - (sampler.spent - spent_first)
    if SAMPLER:
        SAMPLER.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    verdicts = []
    for check, (ran, result) in zip(checks, results):
        try:
            verdicts.append(bool(ran and check.verify(result)))
        except Exception:
            verdicts.append(False)
    failures = [c.label for c, ok in zip(checks, verdicts) if not ok]

    import mpmath

    doc = {
        "setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb,
        "latencies": latencies, "attempted": len(checks), "failed": len(failures),
        "failures": failures[:20], "verdicts": verdicts,
        "labels": [c.label for c in checks],
        "residuals": [getattr(r, "residual", None) if ran else None for ran, r in results],
        "meta": {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
                 "mpmath_backend": mpmath.libmp.BACKEND},
    }
    if SAMPLER:
        norm = SAMPLER.normalize
        doc["norm"] = {
            "setup_s": norm(T_START, t_setup, setup_s),
            "latencies": [norm(a, b, raw) for (a, b), raw in zip(spans, latencies)],
            "slice_s": statistics.median(SAMPLER.took),
            "slices": len(SAMPLER.took),
        }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        os.makedirs(OUT_DIR, exist_ok=True)
        doc["spans"] = tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}.spans.csv.gz"))
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
