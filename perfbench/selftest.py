"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Runs the acceptance-1 grid (every EXACT-POLY entry at m, n <= 6, q = 2/5)
once without and once with tracing, each in a fresh interpreter, and checks
that
  * the traced pass sees every `coeffs` call, whichever module's name it goes
    through: 8197 calls for 630 distinct keys;
  * the verdicts and residuals with tracing on equal those with tracing off.
Exits 0 when both hold.
"""

import sys
import time

from run import run_worker

EXPECTED_COEFFS_CALLS = 8197
EXPECTED_COEFFS_DISTINCT = 630


def main():
    base = ["--workload", "acceptance-1", "--seed", "0"]
    deadline = time.perf_counter() + 600
    plain = run_worker(base, deadline)
    traced = run_worker(base + ["--trace"], deadline)
    layers = traced["layers"]
    calls = layers["polyfamilies.coeffs.calls"]
    distinct = layers["polyfamilies.coeffs.distinct"]
    problems = []
    if (calls, distinct) != (EXPECTED_COEFFS_CALLS, EXPECTED_COEFFS_DISTINCT):
        problems.append(f"coeffs calls/distinct {calls}/{distinct}, expected "
                        f"{EXPECTED_COEFFS_CALLS}/{EXPECTED_COEFFS_DISTINCT}")
    if plain["verdicts"] != traced["verdicts"] or plain["residuals"] != traced["residuals"]:
        problems.append("verdicts differ between traced and untraced passes")
    if plain["failed"] or traced["failed"]:
        problems.append(f"failed checks: {plain['failures'] or traced['failures']}")
    print(f"coeffs calls {calls}, distinct {distinct}; "
          f"{plain['attempted']} verdicts compared; "
          f"wall {plain['wall_s']:.2f} s untraced, {traced['wall_s']:.2f} s traced")
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
