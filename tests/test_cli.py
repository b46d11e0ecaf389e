import pytest

from execfees import cli
from execfees.cli import main

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
    "params.sigma": ["params:\n  sigma: -3\n", "params: {sigma: abc}\n"],
    "params": ["params: 5\n"],
    "sim.n_paths": ["sim: {n_paths: 0}\n"],
    "sim.n_steps": ["sim: {n_steps: 2.5}\n"],
    "sim.seed": ["sim: {seed: abc}\n"],
    "sim.s0": ["sim: {s0: abc}\n"],
    "grid.I": ["grid: {I: 10.5}\n"],
    "grid.J": ["grid: {J: 20.0}\n"],
    "grid.n_steps": ["grid: {n_steps: 0}\n"],
    "sweep.param": ["sweep: {param: tau, values: [0.3]}\n"],
    "sweep.values": ["sweep: {param: sigma, values: 5}\n",
                     "sweep: {param: sigma, values: [abc]}\n"],
    "contracts": ["contracts: 5\n"],
    "contracts.K1": ["contracts: [{family: collar_cash, K1: abc, K2: 50}]\n"],
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


def test_twap_sweep_over_N_matches_fees_at_that_N(tmp_path):
    # the TWAP target must follow the swept N, as the schedule N*t/T does
    twap = FAST_GRID + "contracts: [twap_physical, twap_cash]\n"
    sweep_cfg = tmp_path / "sweep.yaml"
    sweep_cfg.write_text(twap + "sweep:\n  param: N\n  values: [0.5]\n")
    fees_cfg = tmp_path / "fees.yaml"
    fees_cfg.write_text(twap + "params:\n  N: 0.5\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
    assert main(["fees", "--config", str(fees_cfg), "--out", str(out)]) == 0
    swept = [r["fee"] for r in _read_csv(out / "sweep.csv")[2]]
    direct = [r["fee"] for r in _read_csv(out / "fees.csv")[2]]
    assert swept == direct


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


def test_paths_guardrail_on_huge_dumps(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(FAST_GRID + "contracts: [linear_physical]\n"
                   "sim: {n_paths: 100000, n_steps: 1000, seed: 5}\n")
    assert main(["paths", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
