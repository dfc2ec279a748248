import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

# scipy is used for scipy.special only; a run that loads one of these pays
# for it in every fresh process
UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.linalg")

STAGES = """
import sys
import numpy as np

def check(stage):
    loaded = [m for m in {unused!r} if m in sys.modules]
    if loaded:
        sys.exit(f"{{stage}} loaded {{loaded}}")

import pdmp_ergo.cli
check("import pdmp_ergo.cli")
from pdmp_ergo import models
models.psi_chart()
check("models.psi_chart()")
model = models.make_tcp_increasing(models.TcpIncreasingParams(
    rate_fn=lambda x: 1.0 + np.log1p(np.asarray(x, dtype=float)),
    lambda_star=1.0, kappa=1.0, delta=0.5))
model.inv_cum_rate(np.ones(4), model.cum_rate(np.ones(4), 2.0))
check("make_tcp_increasing with a table")
with open({cfg!r}, "w") as fh:
    fh.write("model = twisted_tcp_linear\\ndelta = 0.5\\nseed = 0\\n")
assert pdmp_ergo.cli.main(["certify", "--config", {cfg!r}, "--out", {out!r}]) == 0
check("certify twisted_tcp_linear")
"""


def _run_python(code, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_runs_load_no_integrate_optimize_or_linalg(tmp_path):
    _run_python(STAGES.format(unused=UNUSED, cfg=str(tmp_path / "run.cfg"),
                              out=str(tmp_path / "out")))


def test_readme_library_example_runs(tmp_path):
    # the documented API is run, not only shown; the block prints the two
    # constants its comments give
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = [float(v) for v in _run_python(code, cwd=tmp_path).split()]
    assert printed == pytest.approx([16.0 / 3.0, 0.75], rel=1e-12)


def test_readme_config_format_names_every_key_and_its_default():
    # the example block names keys; the prose after it names the others,
    # and each `key = value` default it gives parses to the RunConfig default
    from dataclasses import fields

    from pdmp_ergo.config import _KEYS, MODELS, RunConfig

    section = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
    section = section.split("\n### ", 1)[0]
    _, block, prose = section.split("```", 2)
    shown = set(re.findall(r"^(\w+) =", block, re.M))
    words = set(re.findall(r"`(\w+)[` ]", prose)) - set(MODELS)
    assert sorted(shown | words) == sorted(_KEYS)
    # every key the example leaves out has its default stated
    stated = dict(re.findall(r"`(\w+) = ([^`]*)`", prose))
    assert sorted(stated) == sorted(set(_KEYS) - shown)
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for key, text in stated.items():
        attr, parse = _KEYS[key]
        assert parse(text) == defaults[attr], key


def test_only_experiments_reads_chart_or_base():
    # library functions run the callables of the model they are given; only
    # the experiments pick a chart image's base and map through its chart
    paths = sorted((SRC / "pdmp_ergo").glob("*.py"))
    assert len(paths) > 5
    reads = []
    for path in paths:
        if path.name == "experiments.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("chart", "base"):
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert reads == []
