import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdmp_ergo import core
from pdmp_ergo.cli import main
from pdmp_ergo.config import (EXPERIMENTS, ConfigError, RunConfig, parse_config,
                              parse_config_text, serialize)
from pdmp_ergo.experiments import _VERIFY_ROUTES, build_model
from pdmp_ergo.registry import REGISTRY

MINIMAL = """
# minimal run
model = tcp_constant
lambda = 1
delta = 0.5
seed = 42
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.model == "tcp_constant"
    assert cfg.rate == 1.0 and cfg.delta == 0.5 and cfg.seed == 42
    assert cfg.experiment == "simulate"
    assert cfg.n_outer == 10_000 and cfg.n_inner == 200
    assert cfg.chain_length == 100_000 and cfg.burn_in == 1000 and cfg.thinning == 1
    assert cfg.workers == 1 and cfg.out_dir == "runs"
    assert cfg.time_grid[0] == 0.0 and len(cfg.functions) == 7


def test_delta_out_of_range_names_line():
    bad = "model = tcp_constant\ndelta = 1.2\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, origin="run.cfg")
    assert "run.cfg:2" in str(err.value)
    assert "delta must lie in [0,1)" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("model = storage\ncolour = blue\n")
    assert "unknown key 'colour'" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("model = storage\nseed = 1\nseed = 2\n")


def test_time_grid_must_increase():
    with pytest.raises(ConfigError):
        parse_config_text("model = storage\ntime_grid = 0,2,1\n")


@pytest.mark.parametrize("line", [
    "lambda = inf", "lambda_star = inf", "rate_slope = inf", "u_scale = inf",
    "time_grid = nan", "time_grid = 0,nan,1", "time_grid = 0,1,inf",
])
def test_non_finite_number_rejected(line):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"model = tcp_increasing\n{line}\n", origin="run.cfg")
    key = line.split(" = ")[0]
    assert f"run.cfg:2: {key} must be finite" in str(err.value)


@pytest.mark.parametrize("line,message", [("delta = 0", "delta must be positive")])
def test_model_parameter_rule_rejected(line, message):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"model = tcp_increasing\n{line}\n", origin="run.cfg")
    assert f"run.cfg: model tcp_increasing: {message}" in str(err.value)
    assert parse_config_text(f"model = tcp_linear\n{line}\n")


@pytest.mark.parametrize("lambda_star,rate_slope", [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)])
def test_certified_kappa_is_the_affine_log_slope(lambda_star, rate_slope):
    # the largest log slope of lambda_star + rate_slope*x, reached at x = 0
    kappa = rate_slope / lambda_star
    cfg = parse_config_text(f"model = tcp_increasing\nlambda_star = {lambda_star!r}\n"
                            f"rate_slope = {rate_slope!r}\n")
    model = build_model(cfg)
    ledger = REGISTRY["tcp_increasing"].certificate(cfg, model)
    assert ledger.beta == 2.0 * kappa ** 2 / (1.0 - cfg.delta ** 2)
    # on a grid the log slope of the rate never exceeds kappa and is within
    # 10 % of it on the first step
    grid = np.linspace(0.0, 50.0, 2001)
    dlog = np.diff(np.log(model.rate(grid))) / np.diff(grid)
    assert dlog.max() <= kappa * (1 + 1e-6)
    assert dlog[0] > 0.9 * kappa


def test_missing_model():
    with pytest.raises(ConfigError):
        parse_config_text("seed = 3\n")


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.cfg")


def test_serialize_roundtrip():
    cfg = parse_config_text(MINIMAL)
    again = parse_config_text(serialize(cfg))
    assert again == cfg
    third = parse_config_text(serialize(again))
    assert third == again


def test_serialize_roundtrip_of_set_fields():
    cfg = RunConfig(model="tcp_increasing", rate_slope=1.25, time_grid=(0.0, 1.5, 3.0))
    assert parse_config_text(serialize(cfg)) == cfg


# ---------------------------------------------------------------------------
# command line runs
# ---------------------------------------------------------------------------

def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


SMALL_RUN = """
model = tcp_constant
lambda = 1
delta = 0.5
seed = 42
n_outer = 4000
n_inner = 32
chain_length = 20000
burn_in = 300
time_grid = 0,1,2,3
"""


def run_files(out_dir, experiment):
    base = os.path.join(out_dir, experiment)
    return sorted(
        os.path.join(base, f) for f in os.listdir(base) if f.endswith(".csv")
    ) + [os.path.join(base, "report.txt")]


def test_cli_seed_replay_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "run.cfg", SMALL_RUN)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["verify", "--config", cfg, "--out", out_a]) == 0
    assert main(["verify", "--config", cfg, "--out", out_b]) == 0
    for fa, fb in zip(run_files(out_a, "verify"), run_files(out_b, "verify")):
        assert filecmp.cmp(fa, fb, shallow=False), (fa, fb)


def test_cli_worker_count_invariance(tmp_path):
    cfg = write_config(tmp_path, "run.cfg", SMALL_RUN)
    out_a, out_b = str(tmp_path / "w1"), str(tmp_path / "w3")
    assert main(["verify", "--config", cfg, "--out", out_a, "--workers", "1"]) == 0
    assert main(["verify", "--config", cfg, "--out", out_b, "--workers", "3"]) == 0
    names_a = run_files(out_a, "verify")
    names_b = run_files(out_b, "verify")
    for fa, fb in zip(names_a, names_b):
        if fa.endswith("report.txt"):
            # worker count is part of the header; compare assertion lines only
            tail = lambda p: open(p).read().splitlines()[4:]
            assert tail(fa) == tail(fb)
        else:
            assert filecmp.cmp(fa, fb, shallow=False), (fa, fb)


@pytest.mark.parametrize("model", ["tcp_linear", "tcp_increasing"])
def test_cli_nested_worker_invariance_over_atom_blocks(tmp_path, monkeypatch, model):
    # 300 atoms x 16 inner paths in chunks of 100 atoms: three chunks
    monkeypatch.setattr(core, "_CHUNK", 1600)
    body = (f"model = {model}\nseed = 5\nn_outer = 300\nn_inner = 16\n"
            "chain_length = 3000\nburn_in = 200\ntime_grid = 0,0.5,1,2\n")
    cfg = write_config(tmp_path, "run.cfg", body)
    runs = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"w{workers}")
        code = main(["verify", "--config", cfg, "--out", out, "--workers", workers])
        runs.append((code, open(os.path.join(out, "verify", "series.csv"), "rb").read()))
    assert runs[0] == runs[1]
    assert len(runs[0][1].splitlines()) > 4


@pytest.mark.parametrize("model", ["tcp_linear", "tcp_increasing"])
def test_cli_nested_worker_invariance_inside_one_block(tmp_path, monkeypatch, model):
    # 300 atoms x 16 inner paths fit one chunk, or five chunks of 62 atoms
    # at 1000 paths a chunk
    body = (f"model = {model}\nseed = 5\nn_outer = 300\nn_inner = 16\n"
            "chain_length = 3000\nburn_in = 200\ntime_grid = 0,0.5,1,2\n")
    cfg = write_config(tmp_path, "run.cfg", body)

    def run(workers):
        out = str(tmp_path / f"w{workers}-{core._CHUNK}")
        code = main(["verify", "--config", cfg, "--out", out, "--workers", workers])
        return code, open(os.path.join(out, "verify", "series.csv"), "rb").read()

    whole = run("1")
    monkeypatch.setattr(core, "_CHUNK", 1000)
    runs = [run("1"), run("2")]
    assert runs[0] == runs[1] == whole
    assert len(whole[1].splitlines()) > 4


@pytest.mark.parametrize("experiment", ["simulate", "inequality"])
@pytest.mark.parametrize("model", ["tcp_linear", "twisted_tcp_linear"])
def test_cli_chain_worker_invariance(tmp_path, experiment, model):
    # simulate runs its chain and its time average as two thread tasks
    body = (f"model = {model}\nseed = 5\nn_outer = 300\nchain_length = 3000\n"
            "burn_in = 200\n")
    cfg = write_config(tmp_path, "run.cfg", body)
    runs = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"w{workers}")
        code = main([experiment, "--config", cfg, "--out", out, "--workers", workers])
        files = run_files(out, experiment)[:-1]
        runs.append((code, [(os.path.basename(f), open(f, "rb").read()) for f in files]))
    assert runs[0] == runs[1]
    assert [name for name, _ in runs[0][1]] == ["ledger.csv", "measure.csv"]


@pytest.mark.parametrize("experiment", ["inequality", "verify"])
def test_cli_outputs_independent_of_blas_threads(tmp_path, experiment):
    # a BLAS dot product splits its sum by thread count above a length the
    # default chain and atom counts pass; every sum must be numpy's own
    cfg = write_config(tmp_path, "run.cfg", "model = tcp_constant\nseed = 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = str(tmp_path / f"t{threads}")
        done = subprocess.run([sys.executable, "-m", "pdmp_ergo.cli", experiment,
                               "--config", cfg, "--out", out],
                              env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append([(os.path.basename(f), open(f, "rb").read())
                     for f in run_files(out, experiment)])
    assert runs[0] == runs[1]


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path, "run.cfg", SMALL_RUN)
    out_a, out_b = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_b, "--seed", "43"]) == 0
    fa = os.path.join(out_a, "simulate", "measure.csv")
    fb = os.path.join(out_b, "simulate", "measure.csv")
    assert not filecmp.cmp(fa, fb, shallow=False)


def test_cli_certify_ledger_contents(tmp_path):
    cfg = write_config(tmp_path, "run.cfg", SMALL_RUN)
    out = str(tmp_path / "led")
    assert main(["certify", "--config", cfg, "--out", out]) == 0
    text = open(os.path.join(out, "certify", "ledger.csv")).read()
    lines = text.splitlines()
    assert lines[0] == "quantity,value,provenance"
    ledger = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    assert abs(float(ledger["poincare_c"]) - 16.0 / 3.0) < 1e-12
    assert float(ledger["gradient_rate"]) == 0.75
    # 17 significant digits in the CSV
    assert ledger["poincare_c"].startswith("5.333333333333333")


def read_ledger(out, experiment):
    lines = open(os.path.join(out, experiment, "ledger.csv")).read().splitlines()
    return {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}


@pytest.mark.parametrize("delta", ["0.999", "0.9995", "0.999999"])
def test_cli_certify_linear_near_one(tmp_path, delta):
    # the optimal mixing parameter grows like 1/(1-delta), past any fixed bracket
    cfg = write_config(tmp_path, "run.cfg", f"model = tcp_linear\ndelta = {delta}\n")
    out = str(tmp_path / "near")
    assert main(["certify", "--config", cfg, "--out", out]) == 0
    ledger = read_ledger(out, "certify")
    upper = (1.0 - float(delta)) * float(ledger["theta"])
    assert 0.0 < float(ledger["rate_r"]) < upper


ZERO_DELTA_RUN = """
delta = 0
seed = 3
n_outer = 400
n_inner = 16
chain_length = 4000
burn_in = 100
time_grid = 0,1,2
"""


@pytest.mark.parametrize("model", ["tcp_linear", "twisted_tcp_linear"])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_cli_linear_models_run_at_zero_delta(tmp_path, model, experiment):
    # delta = 0 passes the parser's [0,1) rule; the chain law is then the
    # point mass at zero, and every experiment still certifies and passes
    cfg = write_config(tmp_path, "run.cfg", f"model = {model}\n" + ZERO_DELTA_RUN)
    out = str(tmp_path / "zero")
    assert main([experiment, "--config", cfg, "--out", out]) == 0
    assert "STATUS: PASS" in open(os.path.join(out, experiment, "report.txt")).read()
    if experiment != "simulate":
        assert float(read_ledger(out, experiment)["chain_logsob_c"]) == 0.0


def test_cli_env_worker_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "run.cfg", SMALL_RUN)
    out = str(tmp_path / "env")
    monkeypatch.setenv("PDMP_ERGO_WORKERS", "2")
    assert main(["certify", "--config", cfg, "--out", out]) == 0
    text = open(os.path.join(out, "certify", "report.txt")).read()
    assert "workers: 2" in text


def test_cli_bad_env_worker(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "run.cfg", SMALL_RUN)
    monkeypatch.setenv("PDMP_ERGO_WORKERS", "many")
    assert main(["certify", "--config", cfg]) == 2


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.cfg", "model = tcp_constant\ndelta = 1.2\n")
    assert main(["certify", "--config", cfg]) == 2
    # accepted by the delta parser, rejected by the model's parameter rule
    cfg = write_config(tmp_path, "zero.cfg", "model = tcp_increasing\ndelta = 0\n")
    out = str(tmp_path / "zero")
    assert main(["certify", "--config", cfg, "--out", out]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not os.path.exists(out)
    # kappa follows from the rate and is no key
    cfg = write_config(tmp_path, "kappa.cfg", "model = tcp_increasing\nkappa = 0.5\n")
    out = str(tmp_path / "kappa")
    assert main(["certify", "--config", cfg, "--out", out]) == 2
    assert "unknown key 'kappa'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_simulate_single_chain_state_is_a_config_error(tmp_path, capsys):
    # one chain state gives a one-column matrix with no between-chain error
    cfg = write_config(tmp_path, "run.cfg", "model = tcp_linear\nchain_length = 1\n")
    out = str(tmp_path / "one")
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "simulate needs chain_length at least 2" in err
    assert not os.path.exists(out)
    # the rule is simulate's own: inequality runs on the same file
    assert main(["inequality", "--config", cfg, "--out", out]) == 0


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be nonnegative"),
    ("--workers", "0", "workers must be positive"),
])
def test_cli_flag_obeys_the_parser_rule(tmp_path, capsys, flag, value, message):
    cfg = write_config(tmp_path, "run.cfg", "model = tcp_linear\n")
    out = str(tmp_path / "flag")
    assert main(["certify", "--config", cfg, "--out", out, flag, value]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("model", ["tcp_linear", "tcp_increasing"])
def test_cli_single_inner_replication_is_a_config_error(tmp_path, capsys, model):
    # one inner path has no inner variance, so no honest standard error
    cfg = write_config(tmp_path, "run.cfg", f"model = {model}\nn_inner = 1\n")
    out = str(tmp_path / "one")
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert "n_inner must be at least 2" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_unsupported_combination_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.cfg", "model = storage\nout_dir = X\n")
    out = str(tmp_path / "no")
    assert main(["inequality", "--config", cfg, "--out", out]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "inequality", "report.txt"))


def test_cli_non_finite_number_exits_2(tmp_path):
    cfg = write_config(tmp_path, "run.cfg", "model = tcp_constant\nlambda = inf\n")
    out = str(tmp_path / "inf")
    assert main(["certify", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def _parser_model_ids():
    with pytest.raises(ConfigError) as err:
        parse_config_text("model = ?\n")
    return str(err.value).split("model must be one of ")[1].split(", ")


@pytest.mark.parametrize("model", _parser_model_ids())
def test_registry_record_per_model(tmp_path, model):
    record = REGISTRY[model]
    assert set(_parser_model_ids()) == set(REGISTRY)
    built = build_model(RunConfig(model=model))
    assert built.name == model
    assert record.verify in _VERIFY_ROUTES
    assert built.base is None or built.base.base is None
    cfg = write_config(tmp_path, "run.cfg", f"model = {model}\n")
    for experiment in EXPERIMENTS:
        out = str(tmp_path / experiment)
        if record.supports(experiment):
            assert parse_config_text(f"model = {model}\nexperiment = {experiment}\n")
        else:
            assert main([experiment, "--config", cfg, "--out", out]) == 2
            assert not os.path.exists(out)
    out = str(tmp_path / "certify")
    assert main(["certify", "--config", cfg, "--out", out]) == 0


@pytest.mark.parametrize("model", sorted(REGISTRY))
def test_registry_bounds_are_ledger_quantities(model):
    # certify, verify and inequality read each bound from the ledger by
    # name, and a repeated name would silently read its first row
    record = REGISTRY[model]
    config = RunConfig(model=model)
    ledger = record.certificate(config, build_model(config))
    names = [name for name, _, _ in ledger]
    assert len(names) == len(set(names))
    read = set(record.bounds) | ({record.inequality.bound} if record.inequality else set())
    assert read <= set(names)
    with pytest.raises(AttributeError, match="no_such_quantity"):
        ledger.no_such_quantity


def test_cli_linear_verify_entropy_path(tmp_path):
    body = (
        "model = tcp_linear\ndelta = 0.5\nseed = 19\n"
        "n_outer = 600\nn_inner = 48\nchain_length = 5000\nburn_in = 200\n"
        "time_grid = 0,1,2\n"
    )
    cfg = write_config(tmp_path, "run.cfg", body)
    out = str(tmp_path / "lin")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    report = open(os.path.join(out, "verify", "report.txt")).read()
    assert "entropy_decay_certified_x" in report
    assert "entropy_decay_certified_sin(x)" in report
    assert "STATUS: PASS" in report
    series = open(os.path.join(out, "verify", "series.csv")).read().splitlines()
    assert series[0] == "t,value,std_error" and len(series) == 7  # 2 functions x 3 times


def test_verify_entropy_fails_non_finite_error(tmp_path, monkeypatch):
    from pdmp_ergo import experiments
    real = experiments.entropy_decay_series

    def nan_errors(*args, **kwargs):
        return [[(t, v, float("nan")) for t, v, _ in rows] for rows in real(*args, **kwargs)]

    monkeypatch.setattr(experiments, "entropy_decay_series", nan_errors)
    body = ("model = tcp_linear\nseed = 19\nn_outer = 200\nn_inner = 8\n"
            "chain_length = 2000\nburn_in = 200\ntime_grid = 0,1\n")
    cfg = write_config(tmp_path, "run.cfg", body)
    out = str(tmp_path / "nan")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    report = open(os.path.join(out, "verify", "report.txt")).read()
    assert "FAIL entropy_decay_certified_x" in report
    assert "STATUS: FAIL" in report


def test_cli_increasing_simulate_grouped_reconstruction(tmp_path):
    body = (
        "model = tcp_increasing\nlambda_star = 1\nrate_slope = 1\ndelta = 0.5\n"
        "seed = 23\nn_outer = 400\nchain_length = 8000\nburn_in = 200\n"
    )
    cfg = write_config(tmp_path, "run.cfg", body)
    out = str(tmp_path / "inc")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    report = open(os.path.join(out, "simulate", "report.txt")).read()
    assert "reconstruction_normaliser" in report
    assert "STATUS: PASS" in report


def test_storage_verify_passes(tmp_path):
    body = "model = storage\nlambda = 1\nseed = 9\nn_inner = 48\ntime_grid = 0,0.5,1,1.5,2\n"
    cfg = write_config(tmp_path, "run.cfg", body)
    out = str(tmp_path / "st")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    report = open(os.path.join(out, "verify", "report.txt")).read()
    assert "energy_rate_matches_flow_contraction" in report
    assert "STATUS: PASS" in report


def test_series_csv_has_header_and_full_precision(tmp_path):
    cfg = write_config(tmp_path, "run.cfg", SMALL_RUN)
    out = str(tmp_path / "prec")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "verify", "series.csv")).read().splitlines()
    assert lines[0] == "t,value,std_error"
    value = lines[1].split(",")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15 or float(value) == 2.0
