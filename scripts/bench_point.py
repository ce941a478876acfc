#!/usr/bin/env python3
"""One point of the benchmark trajectory: a parent and a change, side by side.

    python3 scripts/bench_point.py --parent ../parent --change . --out BENCH_n.json

Both arguments are checkouts with their own perfbench/.  For each of the four
workloads it runs `perfbench/run.py --seconds 25` in ten alternating
parent/change pairs (the parent first in even pairs), one seed per pair from
the fixed SEEDS (apart from the seeds used in development, and the same from
one trajectory point to the next), and keeps every run.  Per side and metric
it reports the median and quartiles over the pairs, and the pairs the change
won.  It also times the tier-1 suite once per side and tests/test_acceptance.py
three times per side, keeping each criterion's time (setup + call + teardown,
from pytest --durations=0) and its median, and records the host.  It refuses
to run when the two checkouts' BENCHMARK.json or perfbench/ files differ, and
records a SHA-256 of each side's src/ tree next to its git revision (marked
"-dirty" when tracked files differ from it), which an archive checkout does
not have.  Standard library only; perfbench/ is only run and compared, never
changed.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ("exact-sweep", "numeric-sweep", "audit", "cli-cold")
SECONDS = 25
PAIRS = 10  # the fewest pairs a claimed gain may rest on
SEEDS = range(41, 41 + PAIRS)
ACCEPTANCE_REPEATS = 3
DURATION = re.compile(r"^([\d.]+)s (?:setup|call|teardown) +(\S+)$")
BENCH_FILES = ("BENCHMARK.json", "perfbench")  # must be the same on both sides


def _env(checkout):
    return dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))


def bench_run(checkout, workload, seed):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(ln for ln in lines if ln.startswith("# meta "))[len("# meta "):])
    doc = json.loads(lines[-1])
    return {"metrics": {k: m["value"] for k, m in doc["metrics"].items()},
            "units": {k: m["unit"] for k, m in doc["metrics"].items()},
            "failed": doc["failed"], "attempted": doc["attempted"],
            "passes": meta["passes"], "measured": meta["measured"]}


def timed_pytest(checkout, args):
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
                          + args, cwd=checkout, env=_env(checkout),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t
    tests = {}
    for m in map(DURATION.match, proc.stdout.splitlines()):
        if m:
            tests[m[2]] = tests.get(m[2], 0.0) + float(m[1])
    return {"wall_s": round(wall, 2), "exit": proc.returncode, "tests": tests,
            "summary": proc.stdout.strip().splitlines()[-1]}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs):
    out = {}
    for name, unit in pairs[0]["parent"]["units"].items():
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        out[name] = {"unit": unit, "parent": spread(par), "change": spread(chg),
                     "change_wins": sum(c < p for p, c in zip(par, chg)),
                     "pairs": len(pairs)}
    return out


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    import mpmath

    return {"machine": platform.machine(), "cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def tree_files(checkout, rel):
    """{path: bytes} of the files under checkout/rel (or of rel itself), by
    path relative to the checkout; bytecode caches and egg-info, which runs
    and installs leave behind, are skipped."""
    top = os.path.join(checkout, rel)
    paths = [top] if os.path.isfile(top) else []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info")]
        paths += [os.path.join(dirpath, f) for f in filenames]
    out = {}
    for path in sorted(paths):
        with open(path, "rb") as fh:
            out[os.path.relpath(path, checkout)] = fh.read()
    return out


def tree_sha256(checkout, rel):
    """SHA-256 over the (path, length, bytes) of every file of tree_files."""
    h = hashlib.sha256()
    for path, data in tree_files(checkout, rel).items():
        h.update(f"{path}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def differing_bench_files(parent, change):
    """The BENCH_FILES paths whose bytes differ between the two checkouts
    (or that only one of them has)."""
    out = []
    for rel in BENCH_FILES:
        a, b = tree_files(parent, rel), tree_files(change, rel)
        out += sorted(p for p in set(a) | set(b) if a.get(p) != b.get(p))
    return out


def revision(checkout):
    """The checkout's commit, with "-dirty" appended when its tracked files
    differ from it; None outside a git repository (an archive checkout)."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seeds = list(SEEDS)
    differ = differing_bench_files(sides["parent"], sides["change"])
    if differ:
        raise SystemExit("the two checkouts run different benchmarks; these files differ: "
                         + ", ".join(differ))

    doc = {"host": host(), "revisions": {s: revision(d) for s, d in sides.items()},
           "src_sha256": {s: tree_sha256(d, "src") for s, d in sides.items()},
           "settings": {"seconds": SECONDS, "pairs": PAIRS, "seeds": seeds,
                        "order": "parent first in even pairs (0, 2, ...)"},
           "workloads": {}}
    for wl in WORKLOADS:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_run(sides[side], wl, seed)
            pairs.append(pair)
            print(f"{wl} seed {seed}: wall_s parent {pair['parent']['metrics']['wall_s']:.3f}"
                  f" change {pair['change']['metrics']['wall_s']:.3f}", file=sys.stderr)
        doc["workloads"][wl] = {
            "summary": summarize(pairs),
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
            "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in sides},
            "runs": [{"seed": p["seed"], "first": p["first"],
                      **{s: {k: p[s][k] for k in ("metrics", "passes", "measured")}
                         for s in sides}} for p in pairs]}

    doc["tier1"] = {s: timed_pytest(d, ["--continue-on-collection-errors"])
                    for s, d in sides.items()}
    acc = {s: [] for s in sides}
    for i in range(ACCEPTANCE_REPEATS):
        for s in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            acc[s].append(timed_pytest(sides[s], ["tests/test_acceptance.py", "--durations=0"]))
    doc["acceptance"] = {s: {"wall_s": [r["wall_s"] for r in runs], "summary": runs[-1]["summary"],
                             "tests_s": [r["tests"] for r in runs],
                             "median_s": {t: statistics.median(r["tests"].get(t, 0.0) for r in runs)
                                          for t in sorted(runs[0]["tests"])}}
                         for s, runs in acc.items()}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
