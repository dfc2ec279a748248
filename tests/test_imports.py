import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

# scipy is a test-only oracle: a run that loads any of it pays for the
# import in every fresh process
STAGES = """
import sys

def check(stage):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    if loaded:
        sys.exit(f"{{stage}} loaded {{loaded}}")

import pdmp_ergo.cli
check("import pdmp_ergo.cli")
from pdmp_ergo import models
models.psi_chart()
check("models.psi_chart()")
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


def test_runs_load_no_scipy(tmp_path):
    _run_python(STAGES.format(cfg=str(tmp_path / "run.cfg"), out=str(tmp_path / "out")))


# every scipy import fails, so a run that needs scipy anywhere exits nonzero
BLOCKED = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, NoScipy())
from pdmp_ergo.cli import main
from pdmp_ergo.config import MODELS

tmp = {tmp!r}

small = "seed = 0\\nchain_length = 3000\\nburn_in = 200\\nn_outer = 300\\nn_inner = 16\\n"
runs = [("certify", model, "") for model in MODELS]
runs += [(exp, "tcp_linear", small) for exp in ("simulate", "inequality", "verify")]
runs += [("simulate", "twisted_tcp_linear", small)]
for i, (exp, model, body) in enumerate(runs):
    cfg = f"{{tmp}}/run{{i}}.cfg"
    with open(cfg, "w") as fh:
        fh.write(f"model = {{model}}\\n{{body}}")
    code = main([exp, "--config", cfg, "--out", f"{{tmp}}/out{{i}}"])
    assert code == 0, (exp, model, code)
print(len(runs))
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    assert _run_python(BLOCKED.format(tmp=str(tmp_path))).split() == ["9"]


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


def test_no_blas_product_in_the_package():
    # a BLAS product's partial sums depend on its thread count, so every sum
    # goes through numpy's fixed-order reduction instead (core._dot)
    blas = {"dot", "vdot", "inner", "matmul", "tensordot"}
    calls = []
    for path in sorted((SRC / "pdmp_ergo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in blas:
                calls.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                calls.append(f"{path.name}:{node.lineno} @")
    assert calls == []
