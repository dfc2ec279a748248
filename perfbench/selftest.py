"""Self-tests of the benchmark harness, on cheap operations at the default config.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. ``storage`` x ``inequality`` (no inequality certificate) is counted as a
   failed operation, and a passing operation is not.
2. Two traced passes with one seed give identical counts and CSV digests,
   and the digests equal those of an untraced pass: the wrappers change no
   output.
3. The layer self times of a traced pass add up to its operation wall time,
   and every layer the operations exercise records work.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import math
import shutil
import sys
import time

import run

SEED = 7
TRACED_OPS = [("verify", "tcp_constant"), ("verify", "storage"), ("certify", "tcp_linear"),
              ("inequality", "tcp_constant"), ("simulate", "storage")]
# layers the traced operations must reach when the wrappers are installed
EXERCISED = ("core.ensemble.paths", "core.ensemble.path_rounds", "rng.marks.draws",
             "rng.streams.substreams", "estimators.nested.inner_paths",
             "embedded.chain.steps", "embedded.bootstrap.resamples", "io.bytes")


def main():
    harness = run.Harness(run.ROOT / "src", time.monotonic() + 600)
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    p = harness.run_pass([("inequality", "storage"), ("certify", "storage")], SEED,
                         out / "fail", False)
    failures = run.op_failures([p])
    check("storage_inequality_counted_failed", list(failures) == ["inequality.storage"],
          repr(failures))
    broken = run.op_failures([p], "broken")
    check("storage_inequality_outputs_broken", list(broken) == ["inequality.storage"],
          repr(broken))

    plain = harness.run_pass(TRACED_OPS, SEED, out / "plain", False)
    first = harness.run_pass(TRACED_OPS, SEED, out / "traced0", True)
    second = harness.run_pass(TRACED_OPS, SEED, out / "traced1", True)
    check("traced_passes_succeed", not run.op_failures([plain, first, second]))
    check("traced_counts_repeat", first["counts"] == second["counts"],
          f"{first['counts']} vs {second['counts']}")
    check("traced_needed_path_time_repeats",
          first["needed_path_time"] == second["needed_path_time"])
    digests = [[op["digests"] for op in p["ops"]] for p in (plain, first, second)]
    check("tracing_leaves_outputs_unchanged", digests[0] == digests[1] == digests[2])
    for name in EXERCISED:
        check(f"counted_{name}", first["counts"][name] > 0, str(first["counts"][name]))
    total_self = sum(first["self_s"].values())
    check("self_times_add_up_to_operation_wall",
          math.isclose(total_self, first["op_span_s"], rel_tol=1e-9, abs_tol=1e-9)
          and abs(first["wall_s"] - total_self) <= 1e-3 * first["wall_s"],
          f"self sum {total_self:.6f} s, op spans {first['op_span_s']:.6f} s, "
          f"op wall {first['wall_s']:.6f} s")
    shutil.rmtree(out, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
