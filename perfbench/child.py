"""One pass of a workload in a fresh interpreter.

Usage: python child.py SPEC_JSON SCIPY_MODULES
       python child.py --setup-only SCIPY_MODULES

The first statements time the import split (numpy plus the scipy
submodules the package imports, then ``pdmp_ergo`` and ``pdmp_ergo.cli``)
before anything else is loaded, so the parent can report set-up time from
interpreter start.  Then each (experiment, model) operation of the spec
runs as one ``pdmp_ergo.cli.main`` call at the default config, and the
pass result (per-operation wall and CPU time, verdict, CSV digests, peak
RSS, and in a traced pass the layer self times and counts) is written as
JSON to the spec's ``result`` path.  The exit status is nonzero only when
the harness itself could not run, never for a failed operation.
"""

import importlib
import sys
import time

_t0 = time.monotonic()
import numpy  # noqa: E402,F401

for _name in filter(None, sys.argv[2].split(",")):
    importlib.import_module(_name)
_t1 = time.monotonic()
import pdmp_ergo  # noqa: E402
import pdmp_ergo.cli  # noqa: E402

T_IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

# outputs each experiment must leave next to report.txt
EXPECTED_CSVS = {
    "simulate": ("measure.csv", "ledger.csv"),
    "certify": ("ledger.csv",),
    "verify": ("ledger.csv", "series.csv"),
    "inequality": ("measure.csv", "ledger.csv"),
}


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_outputs(experiment, exp_dir, status):
    """Judge one operation from its exit status and output directory.

    ``failures`` lists why the operation did not reach a PASS verdict: a
    nonzero exit status, a ``STATUS:`` line other than PASS, a missing
    expected CSV.  ``broken`` lists the subset that means the outputs
    themselves are unusable: the experiment raised instead of completing,
    the report or a CSV is missing, or the exit status disagrees with the
    report.  A completed run whose statistical gate fails is a failed
    operation with intact outputs.
    """
    failures, broken = [], []
    if status != 0:
        failures.append(f"exit status {status}")
    report = os.path.join(exp_dir, "report.txt")
    verdict, completed = None, True
    if os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("STATUS:"):
                    verdict = line.split(":", 1)[1].strip()
                elif line.startswith("FAIL experiment_completed"):
                    completed = False
    if verdict != "PASS":
        failures.append(f"report STATUS {verdict or 'missing'}")
    if verdict is None:
        broken.append("no report STATUS line")
    elif (status == 0) != (verdict == "PASS"):
        broken.append(f"exit status {status} disagrees with STATUS {verdict}")
    if not completed:
        broken.append("experiment raised before completing")
    digests = {}
    for name in EXPECTED_CSVS[experiment]:
        path = os.path.join(exp_dir, name)
        if os.path.exists(path):
            digests[name] = _sha256(path)
        else:
            failures.append(f"missing {name}")
            broken.append(f"missing {name}")
    return {"failures": failures, "broken": broken, "digests": digests}


def run_op(experiment, model, seed, out_dir, rec=None):
    """One CLI call; returns (exit status, wall seconds, cpu seconds, output dir).

    In a traced pass the operation's root span covers exactly the timed call.
    """
    model_dir = os.path.join(out_dir, model)
    shutil.rmtree(os.path.join(model_dir, experiment), ignore_errors=True)
    os.makedirs(model_dir, exist_ok=True)
    config = os.path.join(out_dir, f"{model}.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"model = {model}\n")
    argv = [experiment, "--config", config, "--seed", str(seed),
            "--workers", "1", "--out", model_dir]
    c0 = _cpu()
    if rec is not None:
        rec.enter(f"op.{experiment}.{model}", "experiments")
    t0 = time.perf_counter()
    try:
        status = pdmp_ergo.cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall = time.perf_counter() - t0
        if rec is not None:
            rec.leave()
    return status, wall, _cpu() - c0, os.path.join(model_dir, experiment)


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(pdmp_ergo.__file__).startswith(src + os.sep):
        print(f"pdmp_ergo imported from {pdmp_ergo.__file__}, not from {src}", file=sys.stderr)
        return 3
    import scipy

    result = {
        "t_imported": T_IMPORTED,
        "import_s": T_IMPORTED - _t0,
        "scipy_import_s": _t1 - _t0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "pdmp_ergo": pdmp_ergo.__version__},
        "ops": [],
    }
    rec = None
    if spec["trace"]:
        import tracer

        rec = tracer.Recorder()
        result["unwrapped"] = tracer.install(pdmp_ergo, rec)
    from pdmp_ergo.config import parse_config

    needed = 0.0
    for i, (experiment, model) in enumerate(spec["ops"]):
        if rec is not None:
            rec.op = i
        status, wall, cpu, exp_dir = run_op(experiment, model, spec["seed"], spec["out"], rec)
        result["ops"].append({"experiment": experiment, "model": model, "status": status,
                              "wall_s": wall, "cpu_s": cpu,
                              **check_outputs(experiment, exp_dir, status)})
        if rec is not None and rec.op_widest[i]:
            grid = parse_config(os.path.join(spec["out"], f"{model}.cfg")).time_grid
            needed += rec.op_widest[i] * max(grid)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        result["self_s"] = rec.self_s
        result["counts"] = dict(rec.counts)
        result["needed_path_time"] = needed
        result["spans"] = len(rec.spans)
        result["op_span_s"] = sum(s[3] - s[2] for s in rec.spans if s[4] == -1)
        rec.write(os.path.join(spec["out"], "spans.tsv"))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--setup-only":
        print(json.dumps({"t_imported": T_IMPORTED, "import_s": T_IMPORTED - _t0,
                          "scipy_import_s": _t1 - _t0}))
        sys.exit(0)
    sys.exit(main())
