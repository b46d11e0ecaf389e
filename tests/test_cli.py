import collections
import hashlib
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest

from execfees import cli, hjb
from execfees.cli import main
from execfees.config import (BASELINE_CONTRACTS, TWAP_CONTRACTS, ExperimentConfig,
                             load_config)
from execfees.contracts import ContractSpec, Family, terminal_fee
from execfees.errors import NonFinite
from execfees.forked import WorkerTraceback, run_beside
from execfees.simulate import _CHUNK, SimConfig, common_noise_batch, simulate_path

from conftest import MEMORY_GRID, ONE_SURFACE, exact_premium_and_ce, traced_memory

# coarse but node-aligned grid: ds=1.5 and dq=0.05 keep (45, 0.5) on nodes
FAST_GRID = "grid:\n  I: 40\n  J: 40\n  n_steps: 400\n"


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return lines[0], header, rows


def test_fees_command_roundtrip(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_physical]\n")
    out = tmp_path / "out"
    assert main(["fees", "--config", str(cfg), "--out", str(out)]) == 0
    hash_line, header, rows = _read_csv(out / "fees.csv")
    assert header == ["family", "fee", "grid_hash", "params_hash"]
    assert len(rows) == 1
    assert rows[0]["family"] == "linear_physical"
    assert float(rows[0]["fee"]) == pytest.approx(45.0029, abs=5e-3)


def test_fees_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_cash]\n")
    out = tmp_path / "out"
    assert main(["fees", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "fees.csv").read_bytes()
    assert main(["fees", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "fees.csv").read_bytes() == first


# field named in the error message -> config texts that are invalid in it;
# every one is rejected when the config loads, before any command runs
INVALID_CONFIGS = {
    # not YAML, an integer past Python's 4300-digit int() limit, and YAML
    # that is not a mapping
    "config": ["grid: {I: [\n", f"sim: {{n_steps: {'1' * 5000}}}\n",
               "- 1\n- 2\n", "5\n"],
    "params.sigma": ["params:\n  sigma: -3\n", "params: {sigma: abc}\n"],
    "params": ["params: 5\n"],
    # counts past sys.maxsize, the longest array numpy can index
    "sim.n_paths": ["sim: {n_paths: 0}\n", f"sim: {{n_paths: {10**20}}}\n"],
    "sim.n_steps": ["sim: {n_steps: 2.5}\n", f"sim: {{n_steps: {10**400}}}\n",
                    f"sim: {{n_paths: 100, n_steps: {10**20}}}\n"],
    "sim.seed": ["sim: {seed: abc}\n", f"sim: {{seed: {2**64 - 1}}}\n",
                 f"sim: {{seed: {2**64}}}\n"],
    # the fee lookup would clamp a start outside the grid hull to its edge
    "sim.s0": ["sim: {s0: abc}\n", "sim: {s0: 100.0}\n"],
    "sim.q0": ["sim: {q0: 3.0}\n"],
    # the last count of grid.I and the last two of grid.J lie within
    # sys.maxsize, but np.linspace cannot build their node arrays (a
    # ValueError, or an IndexError for the last)
    "grid.I": ["grid: {I: 10.5}\n",
               f"grid: {{I: {10**400}}}\ncontracts: [collar_cash]\n",
               f"grid: {{I: {10**20}}}\ncontracts: [collar_cash]\n",
               "grid: {I: 4611686018427387903, J: 20, n_steps: 200}\n"
               "contracts: [collar_cash]\n"],
    "grid.J": ["grid: {J: 20.0}\n",
               "grid: {I: 20, J: 1152921504606846976, n_steps: 200}\n",
               "grid: {I: 20, J: 9223372036854775806, n_steps: 200}\n"],
    "grid.n_steps": ["grid: {n_steps: 0}\n",
                     f"grid: {{I: 20, J: 20, n_steps: {10**20}}}\n"],
    # a misspelt key is rejected in the sweep section as in every other
    "sweep": ["sweep: {param: sigma, values: [5.0], valus: [6.0]}\n"],
    "sweep.param": ["sweep: {param: tau, values: [0.3]}\n"],
    # a swept value its parameter rejects, even for a command that ignores sweeps
    "sweep.values": ["sweep: {param: sigma, values: 5}\n",
                     "sweep: {param: sigma, values: [abc]}\n",
                     "sweep: {param: l, values: [1.0e-3, 0.0]}\n"],
    "contracts": ["contracts: 5\n", "contracts: []\n",
                  # a misspelt strike is not a default one
                  "contracts: [{family: collar_cash, k1: 30.0}]\n"],
    # strikes belong to collars alone, and in the order K1 < K2
    "contracts.K1": ["contracts: [{family: collar_cash, K1: abc, K2: 50}]\n",
                     "contracts: [{family: linear_cash, K1: 40.0, K2: 30.0}]\n"],
    "contracts.K2": ["contracts: [{family: collar_cash, K1: 50.0, K2: 40.0}]\n",
                     "contracts: [{family: twap_physical, K2: 50.0}]\n"],
    # the target canonical_dict writes may be repeated, not changed
    "contracts.liquidation_target": [
        "contracts: [{family: linear_physical, liquidation_target: 0.5}]\n"],
    "regulatory": ["regulatory: 5\n"],
    "regulatory.p": ["regulatory: {p: abc, tau: 0.5}\n"],
}


@pytest.mark.parametrize("field", list(INVALID_CONFIGS))
def test_invalid_config_exits_nonzero(tmp_path, capsys, field):
    cfg = tmp_path / "exp.yaml"
    for text in INVALID_CONFIGS[field]:
        cfg.write_text(text)
        assert main(["fees", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"execfees: error: {field}:"), (text, err)
        assert "Traceback" not in err


COARSE_GRID = "grid: {I: 20, J: 20, n_steps: 200}\n"


def test_config_naming_an_output_directory_exits_nonzero(tmp_path, capsys, monkeypatch):
    # the config is the experiment alone: --out, $EXECFEES_OUT or out names the directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXECFEES_OUT", raising=False)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "contracts: [linear_cash]\noutput_dir: artifacts\n")
    assert main(["fees", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        "execfees: error: config: unknown section(s) ['output_dir']"), err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv, message", [
    (["statarb", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["statarb", "--config"], "argument --config: expected one argument"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
], ids=["seed", "no_value", "command", "no_command"])
def test_command_line_error_exits_nonzero(tmp_path, capsys, monkeypatch, argv, message):
    # reported as every other invalid input is: exit 1, the error line first
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXECFEES_OUT", raising=False)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"execfees: error: {message}"), err
    assert "usage:" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: execfees") and "--seed" not in out


# inputs whose numbers overflow: each exits cleanly, never with a traceback
OVERFLOWS = {
    "sigma": ("fees", COARSE_GRID + "params: {sigma: 1.0e+200}\n"),
    "s_max": ("fees", "grid: {s_min: 0.0, s_max: 1.0e+308, I: 20, J: 20, "
                      "n_steps: 200}\n"),
    "sigma_sweep": ("sweep", COARSE_GRID
                    + "sweep: {param: sigma, values: [5.0, 1.0e+200]}\n"),
    # every path sum is inf: no estimate, and no row of inf with stderr 0.0
    "x0": ("statarb", COARSE_GRID + "contracts: [linear_cash]\n"
                      "sim: {n_paths: 4, n_steps: 200, x0: 1.0e+308}\n"),
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_overflow_exits_with_error_not_traceback(tmp_path, capsys, case):
    command, text = OVERFLOWS[case]
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("execfees: error:") and "finite" in err, err
    assert "Traceback" not in err
    assert not out.exists()


def test_out_of_memory_exits_with_error_not_traceback(tmp_path, capsys):
    # the 728 TiB price-inventory layer exceeds the address space, so the
    # request fails at once; the node arrays before it take about 400 MB
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("grid: {I: 10000000, J: 10000000}\ncontracts: [collar_cash]\n")
    out = tmp_path / "o"
    assert main(["fees", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("execfees: error:") and "allocate" in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["statarb", "paths"])
@pytest.mark.parametrize("n_steps, first_line", [
    # numpy cannot index the layer stack (a ValueError), or cannot allocate it
    (10**17, "execfees: error: every layer of the sweep: array is too big"),
    (10**15, "execfees: error: Unable to allocate")],
    ids=["unindexable", "unallocatable"])
def test_layer_stack_past_memory_exits_with_error_not_traceback(
        tmp_path, capsys, command, n_steps, first_line):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"grid: {{I: 20, J: 20, n_steps: {n_steps}}}\n"
                   "contracts: [linear_cash]\nsim: {n_paths: 10, n_steps: 10}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(first_line), err
    assert "Traceback" not in err
    assert not out.exists()


def test_noise_block_past_memory_exits_with_error_not_traceback(tmp_path, capsys):
    # the solve runs; numpy cannot index the first 8192-path noise block
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("grid: {I: 20, J: 20, n_steps: 200}\ncontracts: [linear_cash]\n"
                   "sim: {n_steps: 1000000000000000}\n")
    out = tmp_path / "o"
    assert main(["statarb", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(
        "execfees: error: the noise block: array is too big"), err
    assert "Traceback" not in err
    assert not (out / "statarb.csv").exists()


# case -> (config, a warning of the solver's that follows the error line)
FAILING_SOLVES = {
    **{param: (COARSE_GRID + f"params: {{{param}: 1.0e+200}}\n", None)
       for param in ("sigma", "gamma")},
    # the strike warnings are raised when the collar is set up, before its sweep
    "collar": (COARSE_GRID + "contracts: [collar_cash]\nparams: {sigma: 1.0e+200}\n",
               "collar strike K1=40.0"),
    "cfl": ("grid: {I: 20, J: 20, n_steps: 20}\ncontracts: [linear_cash]\n"
            "params: {sigma: 1.0e+200}\n", r"C\*dt = .* exceeds 0\.6\*dq"),
}


@pytest.mark.parametrize("case", list(FAILING_SOLVES))
def test_error_line_is_the_first_line_of_stderr(tmp_path, case):
    # in a subprocess: pytest would capture numpy's RuntimeWarnings
    text, warning = FAILING_SOLVES[case]
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(text)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "execfees.cli", "fees", "--config",
                           str(cfg), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("execfees: error:"), done.stderr
    if warning is not None:
        assert re.search(f"^.+: RuntimeWarning: {warning}", done.stderr, re.M), done.stderr


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # the rename onto a directory fails after the temp file is written
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "contracts: [linear_physical]\n")
    out = tmp_path / "o"
    (out / "fees.csv").mkdir(parents=True)
    assert main(["fees", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("execfees: error:"), err
    assert [p.name for p in out.iterdir()] == ["fees.csv"]


def test_failed_write_names_the_target_not_the_temp_file(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "contracts: [linear_physical]\n")
    out = tmp_path / "o"
    (out / "fees.csv").mkdir(parents=True)
    assert main(["fees", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    target = os.path.join(str(out), "fees.csv")
    # one line, "[Errno 21] Is a directory: '<out>/fees.csv'" on Linux
    assert err.startswith("execfees: error: [Errno ") and err.count("\n") == 1, err
    assert err.endswith(f": {target!r}\n") and ".tmp-" not in err, err


# paths configs that write linear_physical's file, then fail at twap_cash
LATE_FAILING_PATHS = {
    "rate": "params: {r: 0.01}\n",
    "sweep": "sweep: {param: r, values: [0.0, 0.01]}\n",
}


@pytest.mark.parametrize("case", list(LATE_FAILING_PATHS))
def test_failed_paths_leaves_none_of_its_files(tmp_path, capsys, case):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "contracts: [linear_physical, twap_cash]\n"
                   "sim: {n_paths: 2, n_steps: 200}\n" + LATE_FAILING_PATHS[case])
    out = tmp_path / "o"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.split("\n")[0] == (
        "execfees: error: the TWAP state reduction is derived for r = 0"), err
    # no paths_*.csv and no temp file
    assert list(out.glob("*")) == []


def test_error_while_removing_files_keeps_the_error_line(tmp_path, capsys, monkeypatch):
    def failing_remove(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "remove", failing_remove)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "contracts: [linear_physical, twap_cash]\n"
                   "sim: {n_paths: 2, n_steps: 200}\n" + LATE_FAILING_PATHS["rate"])
    out = tmp_path / "o"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "execfees: error: the TWAP state reduction is derived for r = 0\n", err


# command -> the JSON file it writes after its table CSVs
JSON_FILES = {"reproduce-all": "manifest.json", "statarb": "statarb_summary.json"}


@pytest.mark.parametrize("command", list(JSON_FILES))
def test_failed_json_write_leaves_no_table(tmp_path, capsys, command):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "sim: {n_paths: 20, n_steps: 200}\n")
    out = tmp_path / "o"
    (out / JSON_FILES[command]).mkdir(parents=True)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    target = os.path.join(str(out), JSON_FILES[command])
    assert err.startswith("execfees: error: [Errno ") and err.endswith(f": {target!r}\n"), err
    assert [p.name for p in out.iterdir()] == [JSON_FILES[command]]


# command -> a sweep it does not accept: p belongs to regulatory alone
WRONG_SWEEPS = {
    "paths": "sim: {n_paths: 1, n_steps: 400}\nsweep: {param: p, values: [0.5]}\n",
    "regulatory": "regulatory: {p: 0.5, tau: 0.5}\n"
                  "sweep: {param: sigma, values: [1.0, 5.0]}\n",
    "sweep": "sweep: {param: p, values: [0.5]}\n",
}


@pytest.mark.parametrize("command", list(WRONG_SWEEPS))
def test_sweep_of_wrong_kind_exits_nonzero(tmp_path, capsys, command):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_cash]\n" + WRONG_SWEEPS[command])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("execfees: error:") and "sweep.param" in err
    assert "Traceback" not in err


# regulatory inputs rejected when the config loads, whatever the command: a
# swept p outside [0, 1], a tau off the time grid, and a tau that snaps to
# its first or last node
BAD_REGULATORY = {
    "regulatory.p": ["regulatory: {p: 0.5, tau: 0.5}\n"
                     "sweep: {param: p, values: [0.5, 1.5]}\n"],
    "regulatory.tau": ["regulatory: {p: 0.5, tau: 0.5004}\n",
                       "regulatory: {p: 0.5, tau: 1.0e-13}\n",
                       "regulatory: {p: 0.5, tau: 0.9999999999999}\n"],
}


@pytest.mark.parametrize("field", list(BAD_REGULATORY))
def test_bad_regulatory_input_exits_nonzero(tmp_path, capsys, field):
    cfg = tmp_path / "exp.yaml"
    for text in BAD_REGULATORY[field]:
        cfg.write_text(FAST_GRID + text)
        for command in ("regulatory", "fees"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"execfees: error: {field}:"), (text, command, err)
            assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep", "regulatory"])
def test_command_without_its_section_exits_nonzero(tmp_path, capsys, command):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_cash]\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"execfees: error: {command}:"), err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_config_file_exits_nonzero(tmp_path, capsys):
    assert main(["fees", "--config", str(tmp_path / "nope.yaml")]) == 1


def test_out_env_var_fallback(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_physical]\n")
    env_out = tmp_path / "envout"
    monkeypatch.setenv("EXECFEES_OUT", str(env_out))
    assert main(["fees", "--config", str(cfg)]) == 0
    assert (env_out / "fees.csv").exists()


def test_main_runs_the_runner_bound_at_call_time(tmp_path, monkeypatch):
    # perfbench/tracer.py wraps run_* by rebinding cli's module globals
    calls = []

    def fake_run_twap(config):
        calls.append(config)
        return [{"family": "twap_cash", "fee": 0.5}]

    monkeypatch.setattr(cli, "run_twap", fake_run_twap)
    assert main(["twap", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert _read_csv(tmp_path / "twap_fees.csv")[2] == [{"family": "twap_cash",
                                                        "fee": "0.5"}]


def test_sweep_command(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_cash]\n"
                   "sweep:\n  param: alpha\n  values: [0.02, 0.2]\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "sweep.csv")
    assert [(r["param"], r["value"]) for r in rows] == [("alpha", "0.02"),
                                                        ("alpha", "0.2")]
    assert float(rows[0]["fee"]) < float(rows[1]["fee"])


def test_twap_command(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID)
    out = tmp_path / "out"
    assert main(["twap", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "twap_fees.csv")
    assert [r["family"] for r in rows] == ["twap_physical", "twap_cash"]


def test_repeated_sweep_value_is_not_solved_again(tmp_path, monkeypatch):
    # the linear and the collar contract are one stack each per params: the
    # third value repeats the first, so it reuses the first's fees
    keys, calls = [], []
    sweep = hjb._sweep

    def counting_sweep(P_terminals, n_hi, n_lo, params, grid, *args, **kw):
        calls.append(len(P_terminals))
        keys.extend((P_T.tobytes(), params, grid, n_hi, n_lo) for P_T in P_terminals)
        return sweep(P_terminals, n_hi, n_lo, params, grid, *args, **kw)

    monkeypatch.setattr(hjb, "_sweep", counting_sweep)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_cash, collar_cash]\n"
                   "sweep: {param: sigma, values: [4.0, 5.0, 4.0]}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(calls) == 4
    assert len(set(keys)) == len(keys)
    _, _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [r["value"] for r in rows] == ["4.0"] * 2 + ["5.0"] * 2 + ["4.0"] * 2
    assert rows[4:] == rows[:2]


def test_twap_rows_equal_the_fees_rows_of_the_twap_contracts(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [twap_physical, twap_cash]\n")
    for command in ("twap", "fees"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, _, twap = _read_csv(tmp_path / "twap_fees.csv")
    _, _, fees = _read_csv(tmp_path / "fees.csv")
    assert twap == [{"family": r["family"], "fee": r["fee"]} for r in fees]


def test_sweep_over_N_matches_fees_at_each_N(tmp_path):
    # the liquidation target follows the swept N, as the TWAP schedule N*t/T
    # does: every row is, bit for bit, the fee of a standalone run at that N
    body = (FAST_GRID + "contracts: [linear_physical, collar_physical, "
            "twap_physical, twap_cash]\n")
    sweep_cfg = tmp_path / "sweep.yaml"
    sweep_cfg.write_text(body + "sweep:\n  param: N\n  values: [0.5, 1.0]\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
    swept = _read_csv(out / "sweep.csv")[2]
    for N in ("0.5", "1.0"):
        fees_cfg = tmp_path / "fees.yaml"
        fees_cfg.write_text(body + f"params:\n  N: {N}\n")
        assert main(["fees", "--config", str(fees_cfg), "--out", str(out)]) == 0
        direct = [(r["family"], r["fee"]) for r in _read_csv(out / "fees.csv")[2]]
        assert [(r["family"], r["fee"]) for r in swept if r["value"] == N] == direct


def test_twap_sweep_over_nonzero_r_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [twap_cash]\n"
                   "sweep:\n  param: r\n  values: [0.01]\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "r = 0" in err and "Traceback" not in err


def test_regulatory_command(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "regulatory:\n  p: 0.5\n  tau: 0.5\n"
                   "sweep:\n  param: p\n  values: [0.0, 0.5, 1.0]\n")
    out = tmp_path / "out"
    assert main(["regulatory", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "regulatory.csv")
    fees = [float(r["fee"]) for r in rows]
    assert len(fees) == 3
    assert fees[0] >= fees[1] >= fees[2]   # decreasing in approval probability
    # without a sweep the single configured p yields a one-row table
    cfg.write_text(FAST_GRID + "regulatory:\n  p: 0.5\n  tau: 0.5\n")
    assert main(["regulatory", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "regulatory.csv")
    assert len(rows) == 1 and float(rows[0]["p"]) == 0.5


def test_regulatory_at_certain_approval_is_the_physical_fee(tmp_path):
    # at gamma = 1000 the branches are far apart at some node; p = 1 is the
    # linear_physical fee all the same
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("grid: {I: 10, J: 10, n_steps: 50}\nparams: {gamma: 1000.0}\n"
                   "regulatory: {p: 1.0, tau: 0.5}\ncontracts: [linear_physical]\n")
    out = tmp_path / "out"
    for command in ("regulatory", "fees"):
        # 50 steps on a 10-interval inventory axis are too coarse for gamma
        with pytest.warns(RuntimeWarning, match="explicit increment"), \
                pytest.warns(RuntimeWarning, match=r"exceeds 0\.6\*dq"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    _, _, (regulatory,) = _read_csv(out / "regulatory.csv")
    _, _, (fees,) = _read_csv(out / "fees.csv")
    assert regulatory["fee"] == fees["fee"]


def test_statarb_single_path_reports_na(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_physical]\n"
                   "sim: {n_paths: 1, n_steps: 400, seed: 5}\n")
    out = tmp_path / "out"
    assert main(["statarb", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "statarb.csv")
    assert rows[0]["stderr"] == "na"
    assert rows[0]["arbitrage"] == "false"
    assert (out / "statarb_summary.json").exists()


def test_paths_zero_noise_linear_pair(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_physical, linear_cash]\n"
                   "sim: {n_paths: 1, n_steps: 400, seed: 5, zero_noise: true}\n")
    out = tmp_path / "out"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, phys = _read_csv(out / "paths_linear_physical.csv")
    _, _, cash = _read_csv(out / "paths_linear_cash.csv")
    assert float(phys[-1]["Q"]) > 0.9
    assert abs(float(cash[-1]["Q"])) < 0.15
    assert (out / "paths_comparison.csv").exists()


def test_paths_shared_noise_collar_pair_identical_prices(tmp_path):
    # with b = 0 the price path is exogenous: common noise makes the two
    # collar files carry bitwise-identical price columns
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "params: {b: 0.0}\n"
                   "contracts: [collar_physical, collar_cash]\n"
                   "sim: {n_paths: 1, n_steps: 400, seed: 11}\n")
    out = tmp_path / "out"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, a = _read_csv(out / "paths_collar_physical.csv")
    _, _, b = _read_csv(out / "paths_collar_cash.csv")
    assert [r["S"] for r in a] == [r["S"] for r in b]


def test_paths_twap_sigma_sweep_enumerates_files(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [twap_physical, twap_cash]\n"
                   "sim: {n_paths: 1, n_steps: 400, seed: 5, zero_noise: true}\n"
                   "sweep:\n  param: sigma\n  values: [1.0, 5.0]\n")
    out = tmp_path / "out"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 0
    for sig in ("1", "5"):
        for fam in ("twap_physical", "twap_cash"):
            assert (out / f"paths_{fam}_sigma={sig}.csv").exists()
        assert (out / f"paths_comparison_sigma={sig}.csv").exists()


def test_paths_sweep_over_N_ends_physical_path_at_each_N(tmp_path):
    # the zero-noise physical path heads for the swept N, and each swept file
    # holds the rows of a standalone run at that N
    body = (FAST_GRID + "contracts: [linear_physical]\n"
            "sim: {n_paths: 1, n_steps: 400, seed: 5, zero_noise: true}\n")
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(body + "sweep:\n  param: N\n  values: [0.5, 1.0]\n")
    out = tmp_path / "out"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 0
    for N in (0.5, 1.0):
        rows = _read_csv(out / f"paths_linear_physical_N={N:g}.csv")[2]
        assert float(rows[-1]["Q"]) == pytest.approx(N, abs=1e-6)
        cfg.write_text(body + f"params: {{N: {N}}}\n")
        assert main(["paths", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0
        assert _read_csv(tmp_path / "one" / "paths_linear_physical.csv")[2] == rows


def test_paths_sweep_values_naming_the_same_files_exit_nonzero(tmp_path, capsys):
    # 5.0 and 5.0000001 both format as sigma=5: the second would overwrite the first
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_cash]\n"
                   "sim: {n_paths: 1, n_steps: 400, seed: 5}\n"
                   "sweep: {param: sigma, values: [5.0, 5.0000001]}\n")
    out = tmp_path / "out"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("execfees: error: sweep.values:"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fees", "statarb", "paths"])
def test_contracts_of_one_family_exit_nonzero(tmp_path, capsys, command):
    # both collars would be a row collar_cash of one table, or write
    # paths_collar_cash.csv twice: the config is refused when it loads
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "contracts: [{family: collar_cash, K1: 40.0, K2: 50.0},"
                   " {family: collar_cash, K1: 30.0, K2: 60.0}]\n"
                   "sim: {n_paths: 1, n_steps: 200, seed: 5}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("execfees: error: contracts: 'collar_cash' is listed "
                          "twice"), err
    assert not out.exists()


def _record_solves_and_forks(monkeypatch):
    """Lists that record each solve call and each fork of the command; a
    recorded fork fails, so the command runs on in this process, where its
    solves are recorded too."""
    solves, forks = [], []
    monkeypatch.setattr(cli, "solve_fee_surfaces",
                        lambda *args, **kw: solves.append(args))

    def fork():
        forks.append(True)
        raise OSError("fork recorded")

    monkeypatch.setattr(os, "fork", fork)
    return solves, forks


@pytest.mark.parametrize("command", ["statarb", "reproduce-all"])
def test_zero_noise_table_exits_nonzero(tmp_path, capsys, monkeypatch, command):
    # an expected payoff over noiseless paths is not the table's estimate:
    # zero_noise is refused before the first solve, not ignored
    solves, forks = _record_solves_and_forks(monkeypatch)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "contracts: [linear_cash]\n"
                   "sim: {n_paths: 500, n_steps: 200, seed: 3, zero_noise: true}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"execfees: error: sim\.zero_noise:", err.splitlines()[0]), err
    assert solves == [] and forks == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["statarb", "reproduce-all"])
def test_statarb_at_nonzero_rate_exits_nonzero(tmp_path, capsys, monkeypatch, command):
    # E[Y] - x0 at r != 0 holds the interest on the fee's cash: the table
    # would flag every contract, so r != 0 is refused before the first solve
    solves, forks = _record_solves_and_forks(monkeypatch)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "contracts: [linear_cash]\nparams: {r: 0.01}\n"
                   "sim: {n_paths: 500, n_steps: 200, seed: 3}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"execfees: error: params\.r:", err.splitlines()[0]), err
    assert solves == [] and forks == []
    assert not out.exists()


@pytest.mark.parametrize("sim", [
    "sim: {n_paths: 3, n_steps: 200, seed: 8}\nsweep: {param: sigma, values: [4.0, 6.0]}\n",
    "sim: {n_paths: 3, n_steps: 200, seed: 8, zero_noise: true}\n"],
    ids=["sigma_sweep", "zero_noise"])
def test_paths_rows_equal_one_path_runs(tmp_path, sim):
    # each contract is stepped once over all paths: every row of path p is,
    # bit for bit, the path that its increment row alone gives
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_cash, collar_physical]\n" + sim)
    out = tmp_path / "out"
    assert main(["paths", "--config", str(cfg), "--out", str(out)]) == 0
    config = load_config(str(cfg))
    n_paths, n_steps = config.sim.n_paths, config.sim.n_steps
    for value, params in cli._swept(config):
        tag = "" if value is None else f"_sigma={value:g}"
        if config.sim.zero_noise:
            increments = np.zeros((n_paths, n_steps))
        else:
            increments = common_noise_batch(config.sim, params, 0, n_paths)
        _, _, compared = _read_csv(out / f"paths_comparison{tag}.csv")
        for contract in config.contracts:
            fam = contract.family.value
            surface = hjb.solve_fee_surface(contract, params, config.grid)
            fee = surface.value_at(0.0, config.sim.s0, config.sim.q0)
            control = hjb.extract_control(surface, params)
            _, _, rows = _read_csv(out / f"paths_{fam}{tag}.csv")
            assert len(rows) == n_paths * (n_steps + 1)
            for p in range(n_paths):
                one = simulate_path(control, params, config.sim, increments[p:p + 1],
                                    fee=fee)
                mine = rows[p * (n_steps + 1):(p + 1) * (n_steps + 1)]
                assert {r["path"] for r in mine} == {str(p)}
                expected = {"t": one.times.tolist(), "S": one.S[:, 0].tolist(),
                            "Q": one.Q[:, 0].tolist(), "X": one.X[:, 0].tolist(),
                            "v": one.v[:, 0].tolist() + [0.0],
                            "A": one.A[:, 0].tolist()}
                for col, values in expected.items():
                    assert [float(r[col]) for r in mine] == values, (fam, p, col)
                if p == 0:
                    for col in ("S", "Q", "v"):
                        assert [float(r[f"{col}_{fam}"]) for r in compared] \
                            == expected[col], (fam, col)


def test_paths_writes_the_control_over_its_fee_surface(tmp_path):
    # one surface at a time: each contract's is released before the next solve
    for families in ((Family.COLLAR_CASH,), (Family.COLLAR_PHYSICAL, Family.COLLAR_CASH)):
        config = ExperimentConfig(
            grid=MEMORY_GRID, sim=SimConfig(n_paths=2, n_steps=400),
            contracts=tuple(ContractSpec(family, 40.0, 50.0) for family in families))
        def write(name, header, lines):
            (tmp_path / name).write_text("\n".join([",".join(header), *lines]))

        _, _, peak = traced_memory(lambda: cli.run_paths(config, write))
        assert peak < 1.5 * ONE_SURFACE, (families, peak / ONE_SURFACE)


def test_statarb_holds_one_noise_block_and_one_row_controls(monkeypatch):
    # two noise chunks, six families: the Monte Carlo starts holding the two
    # collar controls and four one-row controls that own their rows, no 3-row
    # surface, and a chunk's block is released before the next is drawn
    config = ExperimentConfig(grid=MEMORY_GRID, contracts=BASELINE_CONTRACTS + TWAP_CONTRACTS,
                              sim=SimConfig(n_paths=2 * _CHUNK, n_steps=400))
    held = []   # bytes traced when run_statarb starts and when its Monte Carlo does
    metric = cli.expected_payoff_metric

    def recorded(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return metric(*args)

    def run():
        held.append(tracemalloc.get_traced_memory()[0])
        return cli.run_statarb(config)

    monkeypatch.setattr(cli, "expected_payoff_metric", recorded)
    _, _, peak = traced_memory(run)
    one_row = ONE_SURFACE // (MEMORY_GRID.I + 1)
    block = 8 * _CHUNK * config.sim.n_steps
    assert held[1] - held[0] < 2 * ONE_SURFACE + 6 * one_row, \
        (held[1] - held[0] - 2 * ONE_SURFACE) / one_row
    assert peak < 3 * ONE_SURFACE + block, (peak - block) / ONE_SURFACE


def _terminal_payoffs(path, spec, config):
    """Y(T) = X + Q*S - terminal_fee of every path of a trajectory CSV."""
    _, _, rows = _read_csv(path)
    n_steps = config.sim.n_steps
    last = rows[n_steps::n_steps + 1]
    assert [r["path"] for r in last] == [str(p) for p in range(config.sim.n_paths)]
    S, Q, X, A = (np.array([float(r[col]) for r in last]) for col in "SQXA")
    return X + Q * S - terminal_fee(spec, Q, S, config.params, A)


def test_statarb_estimates_are_the_means_of_the_trajectory_files(tmp_path):
    # statarb and paths fund each path alike, with the fee as cash: on one
    # config each estimate is the mean over its trajectory file of Y(T) - x0
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("grid: {I: 20, J: 20, n_steps: 200}\n"
                   "contracts: [linear_cash, collar_cash, twap_cash]\n"
                   "sim: {n_paths: 50, n_steps: 200, seed: 9}\n")
    for command in ("statarb", "paths"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    config = load_config(str(cfg))
    _, _, table = _read_csv(tmp_path / "statarb" / "statarb.csv")
    assert [row["family"] for row in table] == [c.family.value for c in config.contracts]
    for spec, row in zip(config.contracts, table):
        Y = _terminal_payoffs(tmp_path / "paths" / f"paths_{spec.family.value}.csv",
                              spec, config)
        assert abs(float(row["estimate"]) - (Y.mean() - config.sim.x0)) <= 1e-12, \
            spec.family


def test_zero_noise_paths_end_at_the_exact_premium(tmp_path):
    # the zero-noise trajectory file of an S-free contract ends at the payoff
    # whose excess over x0 is the contract's exact premium
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("grid: {I: 20, J: 20, n_steps: 200}\n"
                   "contracts: [linear_cash, twap_cash]\n"
                   "sim: {n_paths: 1, n_steps: 200, zero_noise: true}\n")
    assert main(["paths", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    config = load_config(str(cfg))
    for spec in config.contracts:
        premium, _ = exact_premium_and_ce(spec.family.value, config.params, config.grid)
        [Y] = _terminal_payoffs(tmp_path / "out" / f"paths_{spec.family.value}.csv",
                                spec, config)
        assert abs(Y - config.sim.x0 - premium) <= 1e-12, (spec.family, premium)


def test_paths_guardrail_on_huge_dumps(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_physical]\n"
                   "sim: {n_paths: 100000, n_steps: 1000, seed: 5}\n")
    assert main(["paths", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------------------
# reproduce-all: each distinct solve once, and the same rows as its parts

REPRODUCE = FAST_GRID + "sim: {n_paths: 200, n_steps: 400, seed: 3}\n"
SIX = "contracts: [linear_physical, linear_cash, collar_physical, collar_cash, " \
      "twap_physical, twap_cash]\n"

# sweep artifact -> (contracts line, swept parameter, values)
SWEEPS = {
    "sweep_r.csv": ("", "r", [0.0, 0.01]),
    "sweep_sigma.csv": ("", "sigma", [5.0, 6.0, 7.0]),
    "sweep_alpha_linear_cash.csv": ("contracts: [linear_cash]\n", "alpha",
                                    [0.002, 0.02, 0.2]),
}

# artifact -> (standalone command, its file, the config lines added to REPRODUCE)
PARTS = {
    "fees_baseline.csv": ("fees", "fees.csv", ""),
    **{name: ("sweep", "sweep.csv",
              f"{contracts}sweep: {{param: {param}, values: {values}}}\n")
       for name, (contracts, param, values) in SWEEPS.items()},
    **{f"regulatory_sigma{sig}.csv": (
        "regulatory", "regulatory.csv",
        f"params: {{sigma: {sig}.0}}\nregulatory: {{p: 0.5, tau: 0.5}}\n"
        "sweep: {param: p, values: [0.0, 0.2, 0.5, 0.8, 1.0]}\n")
       for sig in (1, 5)},
    "twap_fees.csv": ("twap", "twap_fees.csv", ""),
    "statarb.csv": ("statarb", "statarb.csv", SIX),
}


def _lines(path):
    """Every line of a CSV but the config hash: the header and the data rows."""
    return path.read_text().split("\n")[1:]


def _cpus(monkeypatch, n):
    """reproduce-all sees n CPUs, whatever CPUs this process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_reproduce_all_solves_each_distinct_sweep_once(tmp_path, monkeypatch):
    # a forked worker sweeps too, so each member sweep is one line of a file
    # that both processes append to: its call (process id, call number), then
    # its key (terminal layer digest, params, grid, n_hi, n_lo, schedule, sigma)
    log = tmp_path / "sweeps.tsv"
    sweep, numbers = hjb._sweep, itertools.count()

    def counting_sweep(P_terminals, n_hi, n_lo, params, grid, schedules=None,
                       ab=None, every_layer=False):
        call = f"{os.getpid()}-{next(numbers)}"
        with open(log, "a") as fh:   # one write per call
            fh.write("".join(
                f"{call}\t{hashlib.sha256(P_T.tobytes()).hexdigest()}\t{params!r}\t"
                f"{grid!r}\t{n_hi}\t{n_lo}\t{schedule!r}\t{params.sigma!r}\n"
                for P_T, schedule in zip(P_terminals,
                                         schedules or [0.0] * len(P_terminals))))
        return sweep(P_terminals, n_hi, n_lo, params, grid, schedules, ab, every_layer)

    monkeypatch.setattr(hjb, "_sweep", counting_sweep)
    _cpus(monkeypatch, 2)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(REPRODUCE)
    assert main(["reproduce-all", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = [line.split("\t") for line in log.read_text().splitlines()]
    calls, keys = {line[0] for line in lines}, [tuple(line[1:]) for line in lines]
    assert len({call.split("-")[0] for call in calls}) == 2   # this process and the worker
    repeated = [k[1:] for k, n in collections.Counter(keys).items() if n > 1]
    assert not repeated
    assert len(keys) == 34
    # the members that share params and grid are one stacked sweep
    assert len(calls) == 13
    # the post-decision branches end at tau (n_lo > 0): two per sigma, not 2 per p
    branches = collections.Counter(float(k[6]) for k in keys if int(k[4]) > 0)
    assert branches == {1.0: 2, 5.0: 2}


def test_reproduce_all_checks_every_table_before_the_first_solve(tmp_path, capsys,
                                                                 monkeypatch):
    # tau = 0.5 of the regulatory tables is not a time of a 201-step grid
    sweeps = []
    monkeypatch.setattr(hjb, "_sweep", lambda *args, **kw: sweeps.append(args))
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("grid: {I: 20, J: 20, n_steps: 201}\n"
                   "sim: {n_paths: 100, n_steps: 50}\n")
    out = tmp_path / "o"
    assert main(["reproduce-all", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("execfees: error: regulatory.tau: 0.5 ") and (
        "grid.n_steps = 201" in err), err
    assert sweeps == []
    assert not out.exists()


def test_failed_reproduce_all_writes_nothing(tmp_path, capsys, monkeypatch):
    def failing_run_twap(config, memo=None):
        raise NonFinite("twap: surface became non-finite")

    monkeypatch.setattr(cli, "run_twap", failing_run_twap)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "sim: {n_paths: 20, n_steps: 200}\n")
    out = tmp_path / "o"
    assert main(["reproduce-all", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("execfees: error: twap:")
    assert not out.exists()


def _failing_fork():
    raise OSError("fork failed")


# reproduce-all's three paths -> (CPUs it sees, whether fork fails): the
# other tables in a forked worker, or here after statarb
PATHS = {"forked": (2, False), "one_cpu": (1, False), "fork_fails": (2, True)}


def test_reproduce_all_paths_write_the_same_bytes_and_warnings(tmp_path, monkeypatch):
    written, warned = {}, {}
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(REPRODUCE)
    for path, (cpus, fork_fails) in PATHS.items():
        with monkeypatch.context() as mp:
            _cpus(mp, cpus)
            if fork_fails:
                mp.setattr(os, "fork", _failing_fork)
            out = tmp_path / path
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert main(["reproduce-all", "--config", str(cfg), "--out", str(out)]) == 0
        written[path] = {p.name: p.read_bytes() for p in out.iterdir()}
        warned[path] = [(w.category, str(w.message)) for w in seen]
    assert sorted(written["forked"]) == sorted([*PARTS, "manifest.json"])
    assert written["one_cpu"] == written["forked"] == written["fork_fails"]
    assert any("collar strike" in text for _, text in warned["forked"])
    assert warned["one_cpu"] == warned["forked"] == warned["fork_fails"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("path", list(PATHS))
def test_run_beside_returns_both_results_on_every_path(monkeypatch, path):
    # job runs in a forked worker, or here after here() without one
    cpus, fork_fails = PATHS[path]
    _cpus(monkeypatch, cpus)
    if fork_fails:
        monkeypatch.setattr(os, "fork", _failing_fork)
    parent, ran = os.getpid(), []

    def run(name):
        ran.append(name)
        return name, os.getpid()

    mine, theirs = run_beside(lambda: run("job"), lambda: run("here"))
    assert mine == ("here", parent)
    assert theirs[0] == "job" and (theirs[1] != parent) == (path == "forked")
    assert ran == (["here"] if path == "forked" else ["here", "job"])
    _no_child_left()


def test_unexpected_worker_error_keeps_its_traceback(tmp_path, monkeypatch):
    def broken_run_twap(config, memo=None):
        raise ValueError("twap: a fault in the table code")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_twap", broken_run_twap)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "sim: {n_paths: 20, n_steps: 200}\n")
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="a fault in the table code") as exc:
        main(["reproduce-all", "--config", str(cfg), "--out", str(out)])
    # the worker's frames arrive as the cause, as concurrent.futures sends them
    assert isinstance(exc.value.__cause__, WorkerTraceback)
    assert "broken_run_twap" in str(exc.value.__cause__)
    assert "broken_run_twap" in "".join(traceback.format_exception(exc.value))
    assert not out.exists()
    _no_child_left()


def test_failed_statarb_reaps_the_running_worker(tmp_path, capsys, monkeypatch):
    # the worker would sleep for a minute in its twap table: it is killed
    def failing_run_statarb(config, memo=None):
        raise NonFinite("statarb: surface became non-finite")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_statarb", failing_run_statarb)
    monkeypatch.setattr(cli, "run_twap", lambda config, memo=None: time.sleep(60))
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "sim: {n_paths: 20, n_steps: 200}\n")
    out = tmp_path / "o"
    started = time.monotonic()
    assert main(["reproduce-all", "--config", str(cfg), "--out", str(out)]) == 1
    assert time.monotonic() - started < 30
    assert capsys.readouterr().err.splitlines()[0] == (
        "execfees: error: statarb: surface became non-finite")
    assert not out.exists()
    _no_child_left()


def test_worker_ending_without_its_tables_exits_with_error(tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def dying_run_twap(config, memo=None):
        assert os.getpid() != parent, "the twap table ran in the parent"
        os._exit(3)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_twap", dying_run_twap)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "sim: {n_paths: 20, n_steps: 200}\n")
    out = tmp_path / "o"
    assert main(["reproduce-all", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("execfees: error:") and "status 3" in err.splitlines()[0], err
    assert "Traceback" not in err
    assert not out.exists()
    _no_child_left()


def test_reproduce_all_stderr_under_the_default_filters(tmp_path):
    # in a subprocess, under the default warning filters: stderr is that of
    # the one-CPU run, each collar strike warning shown once (by statarb's
    # solve, the worker's collar solves raising it again)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "sim: {n_paths: 20, n_steps: 200}\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    stderr = {}
    for n in (1, 2):
        run = (f"import os, sys; os.sched_getaffinity = lambda pid: set(range({n})); "
               "from execfees.cli import main; sys.exit(main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", run, "reproduce-all", "--config",
                               str(cfg), "--out", str(tmp_path / f"o{n}")],
                              capture_output=True, env=env, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        stderr[n] = done.stderr
    assert stderr[2] == stderr[1]
    warned = re.findall(rb"^.+: RuntimeWarning: (.+)$", stderr[2], re.M)
    assert warned == [b"collar strike K1=40.0 does not lie on a price node; terminal "
                      b"kink lands between nodes",
                      b"collar strike K2=50.0 does not lie on a price node; terminal "
                      b"kink lands between nodes"], stderr[2]


def test_manifest_digests_are_the_sha256_of_the_files(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COARSE_GRID + "sim: {n_paths: 20, n_steps: 200}\n")
    out = tmp_path / "o"
    assert main(["reproduce-all", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
    assert listed == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in out.glob("*.csv")}
    assert sorted(listed) == sorted(PARTS)


def test_reproduce_all_rows_equal_the_standalone_commands(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(REPRODUCE)
    whole = tmp_path / "whole"
    assert main(["reproduce-all", "--config", str(cfg), "--out", str(whole)]) == 0
    assert sorted(p.name for p in whole.iterdir()) == sorted([*PARTS, "manifest.json"])
    for artifact, (command, name, extra) in PARTS.items():
        cfg.write_text(REPRODUCE + extra)
        part = tmp_path / artifact
        assert main([command, "--config", str(cfg), "--out", str(part)]) == 0
        assert _lines(part / name) == _lines(whole / artifact), artifact
    # each sweep value alone: a fee memo key that missed the swept parameter
    # would give the sweep command the same wrong rows, but not these
    for artifact, (contracts, param, values) in SWEEPS.items():
        alone = []
        for value in values:
            cfg.write_text(REPRODUCE + contracts
                           + f"sweep: {{param: {param}, values: [{value}]}}\n")
            part = tmp_path / f"{param}={value}"
            assert main(["sweep", "--config", str(cfg), "--out", str(part)]) == 0
            alone += _lines(part / "sweep.csv")[1:-1]
        assert alone == _lines(whole / artifact)[1:-1], artifact


# ---------------------------------------------------------------------------
# pinned outputs: an artifact that moves fails here.  A change that moves one
# regenerates these files in the same commit and lists every moved cell.

PINNED = pathlib.Path(__file__).parent / "data" / "pinned"


def _cells_equal(ours: str, pinned: str) -> bool:
    """Numbers equal to a relative 1e-12, any other cell exactly."""
    try:
        return math.isclose(float(ours), float(pinned), rel_tol=1e-12, abs_tol=0.0)
    except ValueError:
        return ours == pinned


def test_outputs_equal_their_pinned_copies(tmp_path):
    # reproduce-all on the REPRODUCE config writes every table; paths on the
    # same grid, with 2 paths, writes the comparison file and, whole, the
    # trajectories of the collar_cash contract; statarb on six families and
    # 9000 paths steps two noise chunks.  files maps each written file to
    # its pinned copy
    assert (PINNED / "reproduce.yaml").read_text() == REPRODUCE
    assert load_config(str(PINNED / "statarb_two_chunk.yaml")).sim.n_paths > _CHUNK
    for command, config, files in (
            ("reproduce-all", "reproduce.yaml", {name: name for name in PARTS}),
            ("paths", "paths.yaml", {name: name for name in
                                     ("paths_comparison.csv", "paths_collar_cash.csv")}),
            ("statarb", "statarb_two_chunk.yaml", {"statarb.csv": "statarb_two_chunk.csv"})):
        out = tmp_path / command
        assert main([command, "--config", str(PINNED / config), "--out", str(out)]) == 0
        for name, pinned_name in files.items():
            ours, pinned = ((out / name).read_text().split("\n"),
                            (PINNED / pinned_name).read_text().split("\n"))
            # the config hash and the header, then the data rows
            assert ours[:2] == pinned[:2] and len(ours) == len(pinned), name
            for k, (row, pinned_row) in enumerate(zip(ours[2:], pinned[2:]), start=3):
                cells, pinned_cells = row.split(","), pinned_row.split(",")
                assert len(cells) == len(pinned_cells) and all(
                    map(_cells_equal, cells, pinned_cells)), (name, k, row, pinned_row)
