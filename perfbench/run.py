"""pdmp-ergo benchmark: time to verdict for CLI experiments at the default config.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each pass of a workload is a fresh interpreter
that imports the package from ``src/`` and calls ``pdmp_ergo.cli.main``
once per operation (experiment x model) in a fixed order, waiting for each
to finish, with ``--workers 1``, ``--seed N`` and BLAS pinned to one
thread.  Passes repeat while another one is expected to end within
``--seconds``; at least one always runs.  Medians over passes are
reported.  With ``--trace 1`` one more pass runs with the layer wrappers
of ``tracer.py`` installed and the per-layer metrics are printed; the
timed passes never carry wrappers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(quartiles, sample counts, the environment record, per-operation
verdicts and CSV digests) is printed before it and saved under
``.perfbench_out/`` in the checkout.  See ``perfbench/README.md`` for the
workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Each workload names its operations (experiment, model) in run order.
# Sizes at the default config on a 2-vCPU shared Xeon VM (cProfile, only to
# size the work): nested_mc ~14 s, chain_pipeline ~9.5 s, twisted_chart ~14 s.
WORKLOADS = {
    # Nested Monte Carlo: ~95 % of the time is core.simulate_ensemble on
    # 2e6-wide ensembles driven by estimators.semigroup_inner_statistics,
    # ~20 % of that in rng.EventMarks hashing.  tcp_constant and storage add
    # the coupled-ensemble W1 and energy_W routes at almost no cost.  Batched
    # nested MC and alive-set compaction must show here.
    "nested_mc": [("verify", "tcp_linear"), ("verify", "tcp_increasing"),
                  ("verify", "tcp_constant"), ("verify", "storage")],
    # Embedded-chain pipeline: 1024 narrow chains x 1100 steps, reconstruction,
    # the normaliser_estimate bootstrap, EmpiricalMeasure.to_csv, inequality
    # ratios and the certificate ledger.  The engine only sees narrow
    # time-average ensembles, so a nested-MC change should leave it flat.
    # storage x inequality is left out: storage has no inequality certificate.
    "chain_pipeline": [("simulate", "tcp_constant"), ("simulate", "tcp_linear"),
                       ("simulate", "tcp_increasing"), ("simulate", "storage"),
                       ("inequality", "tcp_constant"), ("inequality", "tcp_linear"),
                       ("inequality", "tcp_increasing"),
                       ("certify", "tcp_constant"), ("certify", "tcp_linear"),
                       ("certify", "tcp_increasing"), ("certify", "storage")],
    # Chart-bound: ~75 % in models.PsiChart.psi/psi_inv, called from the
    # chain, the reconstruction and a 512-path x 64-segment time-average run.
    # Chart conjugation must show here; the other two never touch the chart.
    "twisted_chart": [("simulate", "twisted_tcp_linear"), ("certify", "twisted_tcp_linear")],
}
# Left out on purpose:
# - twisted_tcp_linear x verify runs exactly the tcp_linear base-model work
#   already in nested_mc;
# - twisted_tcp_linear x inequality repeats the chart-bound chain of
#   twisted_chart;
# - --workers > 1: only 2 shared cores are available;
# - the Tier-1 test suite (~90 s a run), whose dominant test is the
#   nested_mc code path;
# - models.UnitFlowCumRate: no CLI path builds the table.

BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "BLIS_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_SAMPLES = 3  # set-up-only interpreters per run, besides one per pass
RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed past this


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def op_metric(experiment, model):
    return f"experiments.{experiment}.{model}.s"


END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units():
    units = {}
    for ops in WORKLOADS.values():
        for experiment, model in ops:
            units[op_metric(experiment, model)] = "s"
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(tracer.COUNTS)
    units.update({"estimators.nested.resim_ratio": "1", "setup.import_s": "s",
                  "setup.scipy_import_s": "s", "trace.wall_s": "s",
                  "trace.overhead_s": "s", "trace.unattributed_s": "s",
                  "trace.spans": "count"})
    return units


def scipy_modules(src):
    """scipy submodules the package imports, so the import split can time them."""
    found = set()
    for path in sorted((src / "pdmp_ergo").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for sub in re.findall(r"^\s*from scipy\.(\w+) import", text, re.M):
            found.add(f"scipy.{sub}")
        for names in re.findall(r"^\s*from scipy import ([\w, ]+)", text, re.M):
            found.update(f"scipy.{n.strip()}" for n in names.split(",") if n.strip())
        found.update(re.findall(r"^\s*import (scipy\.\w+)", text, re.M))
    return sorted(found)


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "pdmp_ergo").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is itself a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


class Harness:
    """Starts child interpreters that import the package from ``src``.

    Every child must end before the monotonic ``deadline``; one still running
    then is killed and waited for, and the run fails.
    """

    def __init__(self, src, deadline):
        self.src = src
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PDMP_ERGO_WORKERS", "PYTHONSTARTUP")}
        self.env.update(BLAS_PIN)
        self.env["PYTHONPATH"] = str(src)
        self.env["PYTHONHASHSEED"] = "0"
        self.mods = ",".join(scipy_modules(src))

    def spawn(self, *args):
        """Run child.py to completion; returns (monotonic spawn time, stdout)."""
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - t_spawn))
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise HarnessError(f"child still running at the {RUN_LIMIT_S} s limit: {args}")
            raise
        if proc.returncode != 0:
            raise HarnessError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
        return t_spawn, out

    def setup_sample(self):
        t_spawn, out = self.spawn("--setup-only", self.mods)
        rec = json.loads(out.strip().splitlines()[-1])
        rec["setup_s"] = rec["t_imported"] - t_spawn
        return rec

    def run_pass(self, ops, seed, pass_dir, trace):
        pass_dir.mkdir(parents=True, exist_ok=True)
        spec = {"ops": [list(op) for op in ops], "seed": seed, "src": str(self.src),
                "out": str(pass_dir), "trace": trace, "result": str(pass_dir / "result.json")}
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        t_spawn, _ = self.spawn(str(spec_path), self.mods)
        rec = json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))
        rec["setup_s"] = rec["t_imported"] - t_spawn
        rec["wall_s"] = sum(op["wall_s"] for op in rec["ops"])
        rec["cpu_s"] = sum(op["cpu_s"] for op in rec["ops"])
        rec["pass_s"] = time.monotonic() - t_spawn
        return rec


def op_median_sum(passes, key):
    """Sum over operations of each operation's median across passes."""
    return sum(statistics.median(p["ops"][i][key] for p in passes)
               for i in range(len(passes[0]["ops"])))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def op_failures(passes, key="failures"):
    """Operation -> reasons under ``key`` ("failures" or "broken"), over every
    pass; an operation that fails in any pass counts once."""
    failures = {}
    for p in passes:
        for op in p["ops"]:
            if op[key]:
                failures.setdefault(f"{op['experiment']}.{op['model']}", op[key])
    return failures


def digest_check(passes, src_key, seed_key, digests_file):
    """Failures from CSV digests that differ between runs of the same code and
    seed, plus informational differences against other code versions."""
    failures, notes = [], []
    first = {f"{op['experiment']}.{op['model']}": op["digests"] for op in passes[0]["ops"]}
    for p in passes[1:]:
        for op in p["ops"]:
            name = f"{op['experiment']}.{op['model']}"
            if op["digests"] != first[name]:
                failures.append(f"{name}: CSV digests differ between passes")
    book = json.loads(digests_file.read_text()) if digests_file.exists() else {}
    same = book.get(src_key, {}).get(seed_key)
    if same is not None:
        for name, digests in first.items():
            if name in same and same[name] != digests:
                failures.append(f"{name}: CSV digests differ from an earlier run of this code")
    for other, by_seed in book.items():
        if other != src_key and seed_key in by_seed:
            for name, digests in first.items():
                if name in by_seed[seed_key] and by_seed[seed_key][name] != digests:
                    notes.append(f"{name}: digests differ from code version {other[:12]}")
    merged = dict(same or {})
    merged.update(first)
    book.setdefault(src_key, {})[seed_key] = merged
    digests_file.write_text(json.dumps(book, indent=1, sort_keys=True))
    return failures, notes


def run(workload, seed, seconds, trace):
    src = ROOT / "src"
    if not (src / "pdmp_ergo" / "cli.py").is_file():
        raise HarnessError(f"no package source at {src / 'pdmp_ergo'}")
    harness = Harness(src, time.monotonic() + RUN_LIMIT_S)
    ops = WORKLOADS[workload]
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "operations": [list(op) for op in ops], "loop": "closed, one client",
        "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "loadavg_start": read_loadavg(), "git_commit": git_commit(),
                "source_sha256": source_digest(src), "blas_pin": BLAS_PIN,
                "executable": sys.executable},
    }

    setups = [harness.setup_sample() for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(harness.run_pass(ops, seed, run_dir / f"pass{len(passes)}", False))
        typical = statistics.median(p["pass_s"] for p in passes)
        if time.monotonic() - t0 + typical > seconds:
            break
    traced = harness.run_pass(ops, seed, run_dir / "traced", True) if trace else None
    record["env"]["loadavg_end"] = read_loadavg()
    record["env"]["versions"] = passes[0]["versions"]

    every = passes + ([traced] if traced else [])
    failures = op_failures(every)
    broken = op_failures(every, "broken")
    digest_failures, digest_notes = digest_check(
        every, record["env"]["source_sha256"], str(seed), OUT / "digests.json")
    attempted = len(ops)
    failed = len(failures)
    # a statistical gate that fails at this seed is a failed operation, but
    # its outputs are still computed and reproducible
    correct = not broken and not digest_failures

    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": [s["setup_s"] for s in setups + passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    summary = {name: dict(zip(("q1", "median", "q3"), quartiles(vals)), n=len(vals))
               for name, vals in samples.items()}
    e2e = {"wall_s": op_median_sum(passes, "wall_s"), "cpu_s": op_median_sum(passes, "cpu_s"),
           "setup_s": summary["setup_s"]["median"],
           "peak_rss_mb": summary["peak_rss_mb"]["median"]}
    if trace:
        metrics = layer_metrics(ops, passes, setups, traced, e2e)
        units = per_layer_units()
    else:
        metrics = e2e
        units = END_TO_END
    record.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": failures, "broken": broken,
        "digest_failures": digest_failures, "digest_notes": digest_notes,
        "samples": samples, "summary": summary,
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ops")}
                   for p in passes],
        "metrics": metrics, "end_to_end": e2e,
    })
    if traced:
        record["traced"] = {k: traced[k] for k in ("self_s", "counts", "spans", "op_span_s",
                                                    "wall_s", "needed_path_time", "unwrapped")}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          f"fail_ratio {failed}/{attempted}  correct {correct}")
    for name, s in summary.items():
        print(f"  {name} = {e2e[name]:.9g} {END_TO_END[name]}  (samples: median {s['median']:.6g}"
              f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']})")
    env = record["env"]
    print(f"  env: nproc {env['nproc']}  loadavg {env['loadavg_start']} -> {env['loadavg_end']}"
          f"  {' '.join(f'{k} {v}' for k, v in env['versions'].items())}"
          f"  commit {env['git_commit']}  source {env['source_sha256'][:12]}"
          f"  BLAS threads {BLAS_PIN['OMP_NUM_THREADS']}")
    if traced and traced["unwrapped"]:
        print(f"  not traced (missing from the package): {', '.join(traced['unwrapped'])}")
    for name, reasons in failures.items():
        print(f"  FAILED {name}: {'; '.join(reasons)}")
    for name, reasons in broken.items():
        print(f"  BROKEN OUTPUT {name}: {'; '.join(reasons)}")
    for line in digest_failures + digest_notes:
        print(f"  digests: {line}")
    if trace:
        for name, value in metrics.items():
            print(f"  {name} = {value:.9g} {units[name]}")
    print(f"  record: {run_dir / 'record.json'}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def layer_metrics(ops, passes, setups, traced, e2e):
    # operations of the other workloads report 0
    out = {op_metric(e, m): 0.0 for ops_ in WORKLOADS.values() for e, m in ops_}
    for i, (experiment, model) in enumerate(ops):
        out[op_metric(experiment, model)] = statistics.median(
            p["ops"][i]["wall_s"] for p in passes)
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = traced["self_s"][layer]
    out.update(traced["counts"])
    needed = traced["needed_path_time"]
    out["estimators.nested.resim_ratio"] = (
        traced["counts"]["estimators.nested.path_time"] / needed if needed else 0.0)
    out["setup.import_s"] = statistics.median(s["import_s"] for s in setups + passes)
    out["setup.scipy_import_s"] = statistics.median(s["scipy_import_s"]
                                                    for s in setups + passes)
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
    out["trace.unattributed_s"] = traced["wall_s"] - sum(traced["self_s"].values())
    out["trace.spans"] = traced["spans"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
