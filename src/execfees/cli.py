"""Command-line driver reproducing the fee tables, path files and sweeps.

Subcommands: fees, paths, statarb, regulatory, twap, sweep, reproduce-all.
Outputs are plain CSV/JSON written atomically (temp file + rename); every
file embeds the hash of the fully-resolved config, so re-running an identical
config reproduces byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from .config import (ExperimentConfig, SweepSpec, baseline_contracts,
                     load_config, sha256_of, twap_contracts)
from .contracts import ContractSpec, make_contract
from .errors import ConfigError, ExecFeesError
from .hjb import (RegulatorySpec, extract_control, solve_fee_surface,
                  solve_regulatory)
from .simulate import common_noise_batch, expected_payoff_metric, simulate_path

OUT_ENV_VAR = "EXECFEES_OUT"

# table command -> (file name, CSV header); `run_<command>` computes its rows
TABLES = {
    "fees": ("fees.csv", ["family", "fee", "grid_hash", "params_hash"]),
    "sweep": ("sweep.csv", ["param", "value", "family", "fee"]),
    "regulatory": ("regulatory.csv", ["sigma", "tau", "p", "fee"]),
    "twap": ("twap_fees.csv", ["family", "fee"]),
    "statarb": ("statarb.csv", ["family", "fee", "estimate", "stderr", "arbitrage"]),
}


# ---------------------------------------------------------------------------
# pipeline operations (importable; the CLI is a thin shell around these)

def _solve_fee(spec: ContractSpec, config: ExperimentConfig, params=None):
    surface = solve_fee_surface(spec, params or config.params, config.grid)
    fee = surface.value_at(0.0, config.sim.s0, config.sim.q0)
    return fee, surface


def _swept(config: ExperimentConfig):
    """[(value, params)] over the model-parameter sweep; [(None, params)] without one."""
    if config.sweep is None:
        return [(None, config.params)]
    if config.sweep.param == "p":
        raise ConfigError("sweep.param: p is swept only by the regulatory command")
    return [(value, config.params.replace(**{config.sweep.param: value}))
            for value in config.sweep.values]


def run_fees(config: ExperimentConfig):
    """One fee per configured contract at (t=0, q0, s0)."""
    grid_hash = sha256_of(dataclasses.asdict(config.grid))[:12]
    params_hash = sha256_of(dataclasses.asdict(config.params))[:12]
    return [{"family": c.family.value, "fee": _solve_fee(c, config)[0],
             "grid_hash": grid_hash, "params_hash": params_hash}
            for c in config.contracts]


def run_sweep(config: ExperimentConfig):
    """Fees over the configured parameter sweep, one row per (value, contract)."""
    if config.sweep is None:
        raise ConfigError("sweep: section required for the sweep command")
    rows = []
    for value, params in _swept(config):
        for contract in config.contracts:
            rows.append({"param": config.sweep.param, "value": value,
                         "family": contract.family.value,
                         "fee": _solve_fee(contract, config, params=params)[0]})
    return rows


def run_regulatory(config: ExperimentConfig):
    """Pre-decision fees over the p list at the configured tau and sigma."""
    if config.regulatory is None:
        raise ConfigError("regulatory: section required for the regulatory command")
    tau = config.regulatory.tau
    if config.sweep is None:
        p_values = [config.regulatory.p]
    elif config.sweep.param == "p":
        p_values = list(config.sweep.values)
    else:
        raise ConfigError("sweep.param: the regulatory command sweeps only p, "
                          f"got {config.sweep.param!r}")
    s0, q0 = config.sim.s0, config.sim.q0
    return [{"sigma": config.params.sigma, "tau": tau, "p": p,
             "fee": solve_regulatory(RegulatorySpec(p=p, tau=tau), config.params,
                                     config.grid).pre.value_at(0.0, s0, q0)}
            for p in p_values]


def run_twap(config: ExperimentConfig):
    """Fees of the two TWAP contracts via the transformed equation."""
    return [{"family": c.family.value, "fee": _solve_fee(c, config)[0]}
            for c in twap_contracts(config.params)]


def _statarb_row(contract: ContractSpec, config: ExperimentConfig) -> dict:
    # the surface is released when this returns, before the next contract's solve
    fee, surface = _solve_fee(contract, config)
    est = expected_payoff_metric(contract, config.params, config.sim,
                                 extract_control(surface, config.params), fee)
    return {"family": contract.family.value, "fee": est.fee,
            "estimate": est.estimate,
            "stderr": "na" if est.stderr is None else est.stderr,
            "arbitrage": est.arbitrage}


def run_statarb(config: ExperimentConfig):
    """Expected-payoff estimates for every configured contract."""
    return [_statarb_row(c, config) for c in config.contracts]


def run_paths(config: ExperimentConfig, out_dir: str):
    """Per-contract trajectory CSVs plus a combined comparison file on shared noise.

    Emits one file per contract (and per sweep value when a sweep is
    configured); all files for one sweep value share the same Brownian
    increments so trajectory differences isolate the contract effect.
    """
    cfg = config.sim
    if cfg.n_paths * cfg.n_steps > 2_000_000:
        raise ConfigError("sim.n_paths: trajectory dump too large; the paths "
                          "command is meant for a handful of paths")
    written = []
    for value, params in _swept(config):
        if cfg.zero_noise:
            increments = np.zeros((cfg.n_paths, cfg.n_steps))
        else:
            increments = common_noise_batch(cfg, params, 0, cfg.n_paths)
        tag = "" if value is None else f"_{config.sweep.param}={value:g}"
        shared = {}
        for contract in config.contracts:
            fee, surface = _solve_fee(contract, config, params=params)
            control = extract_control(surface, params)
            rows = []
            for p in range(cfg.n_paths):
                path = simulate_path(control, params, cfg, increments[p])
                for k in range(len(path.times)):
                    rows.append({
                        "path": p, "t": path.times[k], "S": path.S[k],
                        "Q": path.Q[k], "X": path.X[k],
                        "v": path.v[k] if k < len(path.v) else 0.0,
                        "A": path.A[k]})
                if p == 0:
                    shared[contract.family.value] = path
            name = f"paths_{contract.family.value}{tag}.csv"
            _write_csv(os.path.join(out_dir, name),
                       ["path", "t", "S", "Q", "X", "v", "A"], rows,
                       config.config_hash())
            written.append(name)
        if shared:
            fams = sorted(shared)
            header = ["t"] + [f"{c}_{f}" for f in fams for c in ("S", "Q", "v")]
            rows = []
            times = shared[fams[0]].times
            for k in range(len(times)):
                row = {"t": times[k]}
                for f in fams:
                    pth = shared[f]
                    row[f"S_{f}"] = pth.S[k]
                    row[f"Q_{f}"] = pth.Q[k]
                    row[f"v_{f}"] = pth.v[k] if k < len(pth.v) else 0.0
                rows.append(row)
            name = f"paths_comparison{tag}.csv"
            _write_csv(os.path.join(out_dir, name), header, rows,
                       config.config_hash())
            written.append(name)
    return written


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _atomic_write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows: list[dict], cfg_hash: str) -> None:
    lines = [f"# config_hash={cfg_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj: dict, cfg_hash: str) -> None:
    payload = {"config_hash": cfg_hash, **obj}
    _atomic_write(path, json.dumps(payload, indent=1, sort_keys=True,
                                   default=_fmt) + "\n")


# ---------------------------------------------------------------------------
# reproduce-all

def _reproduce_all(config: ExperimentConfig, out_dir: str):
    """Chain every table reproduction into one manifest."""
    cfg_hash = config.config_hash()
    artifacts = []

    def emit(name, command, rows):
        _write_csv(os.path.join(out_dir, name), TABLES[command][1], rows, cfg_hash)
        artifacts.append(name)

    base = dataclasses.replace(config, contracts=baseline_contracts(config.params))

    emit("fees_baseline.csv", "fees", run_fees(base))

    for pname, values, contracts, fname in (
            ("r", (0.0, 0.01), base.contracts, "sweep_r.csv"),
            ("sigma", (5.0, 6.0, 7.0), base.contracts, "sweep_sigma.csv"),
            ("alpha", (0.002, 0.02, 0.2),
             (make_contract("linear_cash", base.params),), "sweep_alpha_linear_cash.csv")):
        sub = dataclasses.replace(base, contracts=contracts,
                                  sweep=SweepSpec(pname, values))
        emit(fname, "sweep", run_sweep(sub))

    for sig in (1.0, 5.0):
        sub = dataclasses.replace(
            base.with_params(sigma=sig),
            regulatory=RegulatorySpec(p=0.5, tau=0.5),
            sweep=SweepSpec("p", (0.0, 0.2, 0.5, 0.8, 1.0)))
        emit(f"regulatory_sigma{sig:g}.csv", "regulatory", run_regulatory(sub))

    emit("twap_fees.csv", "twap", run_twap(base))

    sub = dataclasses.replace(
        base, contracts=base.contracts + twap_contracts(base.params))
    emit("statarb.csv", "statarb", run_statarb(sub))

    digests = []
    for name in artifacts:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests.append({"name": name,
                            "sha256": hashlib.sha256(fh.read()).hexdigest()})
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"artifacts": digests, "seed": config.sim.seed}, cfg_hash)
    return artifacts + ["manifest.json"]


# ---------------------------------------------------------------------------
# argument parsing / entry point

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="execfees",
        description="Indifference fees and hedging strategies for execution contracts")
    ap.add_argument("command", choices=[*TABLES, "paths", "reproduce-all"])
    ap.add_argument("--config", help="YAML experiment config (omit for baseline)")
    ap.add_argument("--out", help=f"output directory (overrides ${OUT_ENV_VAR} "
                                  "and the config)")
    ap.add_argument("--seed", type=int, help="override the simulation seed")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(
                config, sim=dataclasses.replace(config.sim, seed=args.seed))
        out_dir = args.out or os.environ.get(OUT_ENV_VAR) or config.output_dir
        cfg_hash = config.config_hash()
        if args.command in TABLES:
            name, header = TABLES[args.command]
            # looked up per call, so a rebound module global (a tracing
            # wrapper, a test double) is the runner that runs
            rows = globals()[f"run_{args.command}"](config)
            _write_csv(os.path.join(out_dir, name), header, rows, cfg_hash)
            if args.command == "statarb":
                _write_json(os.path.join(out_dir, "statarb_summary.json"),
                            {"rows": rows, "n_paths": config.sim.n_paths,
                             "seed": config.sim.seed}, cfg_hash)
        elif args.command == "paths":
            run_paths(config, out_dir)
        else:
            _reproduce_all(config, out_dir)
    except (ExecFeesError, OSError) as exc:
        print(f"execfees: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
