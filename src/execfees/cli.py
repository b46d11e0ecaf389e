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
import warnings
from functools import partial

import numpy as np

from .config import (BASELINE_CONTRACTS, TWAP_CONTRACTS, ExperimentConfig,
                     SweepSpec, load_config, sha256_of)
from .contracts import ContractSpec, Family
from .errors import ConfigError, ExecFeesError
from .hjb import (RegulatorySpec, extract_control, solve_fee_surface,
                  solve_fee_surfaces, solve_regulatory)
from .simulate import (SimPath, common_noise_batch, expected_payoff_metric,
                       simulate_path)

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

def _fee_key(spec: ContractSpec, config: ExperimentConfig, params) -> tuple:
    """Every input of a fee: contract, params, grid and (s0, q0)."""
    return (spec, params, config.grid, config.sim.s0, config.sim.q0)


def _solve_fees(contracts, config: ExperimentConfig, params, memo: dict,
                every_layer=False):
    """Surfaces of the contracts at one params, one stacked sweep per grid.

    The fee at (t=0, s0, q0) of each is recorded in memo.
    """
    surfaces = solve_fee_surfaces(contracts, params, config.grid, every_layer)
    for spec, surface in zip(contracts, surfaces):
        memo[_fee_key(spec, config, params)] = surface.value_at(
            0.0, config.sim.s0, config.sim.q0)
    return surfaces


def _fees(contracts, config: ExperimentConfig, memo: dict, params=None) -> list:
    """The fees alone, solving in one call those whose inputs memo lacks.

    A memo belongs to one run and holds fee scalars, never surfaces.
    """
    params = params or config.params
    missing = [spec for spec in dict.fromkeys(contracts)
               if _fee_key(spec, config, params) not in memo]
    if missing:
        _solve_fees(missing, config, params, memo)
    return [memo[_fee_key(spec, config, params)] for spec in contracts]


def _swept(config: ExperimentConfig):
    """[(value, params)] over the model-parameter sweep; [(None, params)] without one."""
    if config.sweep is None:
        return [(None, config.params)]
    if config.sweep.param == "p":
        raise ConfigError("sweep.param: p is swept only by the regulatory command")
    return [(value, config.params.replace(**{config.sweep.param: value}))
            for value in config.sweep.values]


def run_fees(config: ExperimentConfig, memo=None):
    """One fee per configured contract at (t=0, q0, s0)."""
    memo = {} if memo is None else memo
    grid_hash = sha256_of(dataclasses.asdict(config.grid))[:12]
    params_hash = sha256_of(dataclasses.asdict(config.params))[:12]
    return [{"family": c.family.value, "fee": fee,
             "grid_hash": grid_hash, "params_hash": params_hash}
            for c, fee in zip(config.contracts, _fees(config.contracts, config, memo))]


def run_sweep(config: ExperimentConfig, memo=None):
    """Fees over the configured parameter sweep, one row per (value, contract)."""
    if config.sweep is None:
        raise ConfigError("sweep: section required for the sweep command")
    memo = {} if memo is None else memo
    rows = []
    for value, params in _swept(config):
        fees = _fees(config.contracts, config, memo, params)
        rows += [{"param": config.sweep.param, "value": value,
                  "family": contract.family.value, "fee": fee}
                 for contract, fee in zip(config.contracts, fees)]
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
    pre = solve_regulatory(tau, p_values, config.params, config.grid)
    return [{"sigma": config.params.sigma, "tau": tau, "p": p,
             "fee": surface.value_at(0.0, s0, q0)}
            for p, surface in zip(p_values, pre)]


def run_twap(config: ExperimentConfig, memo=None):
    """Fees of the two TWAP contracts via the transformed equation."""
    memo = {} if memo is None else memo
    return [{"family": c.family.value, "fee": fee}
            for c, fee in zip(TWAP_CONTRACTS, _fees(TWAP_CONTRACTS, config, memo))]


def run_statarb(config: ExperimentConfig, memo=None):
    """Expected-payoff estimates for every configured contract; fees go to memo.

    Every contract is solved first, one stacked sweep per grid, and its
    control written over its own fee surface, so no surface outlives its
    solve; one Monte-Carlo pass then steps all controls on each path's
    noise, drawn once.
    """
    if config.sim.zero_noise:
        raise ConfigError("sim.zero_noise: the statarb table estimates over "
                          "noisy paths; zero_noise applies to the paths "
                          "command only")
    if config.params.r != 0.0:
        # E[Y] - x0 at r != 0 counts the interest on the fee's cash as profit
        raise ConfigError(f"params.r: the statarb table compares E[Y] with x0, "
                          f"which is derived for r = 0, got {config.params.r!r}")
    memo = {} if memo is None else memo
    surfaces = _solve_fees(config.contracts, config, config.params, memo,
                           every_layer=True)
    solved = [(contract, extract_control(surface, config.params, out=surface.values),
               memo[_fee_key(contract, config, config.params)])
              for contract, surface in zip(config.contracts, surfaces)]
    estimates = expected_payoff_metric(config.params, config.sim, solved)
    return [{"family": contract.family.value, "fee": fee,
             "estimate": est.estimate,
             "stderr": "na" if est.stderr is None else est.stderr,
             "arbitrage": est.arbitrage}
            for (contract, _, fee), est in zip(solved, estimates)]


def run_paths(config: ExperimentConfig, out_dir: str):
    """Per-contract trajectory CSVs plus a combined comparison file on shared noise.

    Emits one file per contract (and per sweep value when a sweep is
    configured); all files for one sweep value share the same Brownian
    increments so trajectory differences isolate the contract effect.  Each
    contract's control is written over its own fee surface and stepped once
    over all paths; the comparison file reads path 0.
    """
    cfg = config.sim
    if cfg.n_paths * cfg.n_steps > 2_000_000:
        raise ConfigError("sim.n_paths: trajectory dump too large; the paths "
                          "command is meant for a handful of paths")
    cfg_hash = config.config_hash()
    swept = _swept(config)
    tags = ["" if value is None else f"_{config.sweep.param}={value:g}"
            for value, _ in swept]
    for k, tag in enumerate(tags):
        if tag in tags[:k]:
            raise ConfigError(f"sweep.values: {swept[tags.index(tag)][0]!r} and "
                              f"{swept[k][0]!r} both name the files tagged {tag!r}")
    for (_, params), tag in zip(swept, tags):
        if cfg.zero_noise:
            increments = np.zeros((cfg.n_paths, cfg.n_steps))
        else:
            increments = common_noise_batch(cfg, params, 0, cfg.n_paths)
        shared = {}   # family -> text columns S, Q, v of path 0
        for contract in config.contracts:
            surface = solve_fee_surface(contract, params, config.grid)
            control = extract_control(surface, params, out=surface.values)
            path = simulate_path(control, params, cfg, increments)
            times = _text(path.times)
            shared[contract.family.value] = [_text(path.S[:, 0]), _text(path.Q[:, 0]),
                                             _text(path.v[:, 0], 0.0)]
            name = f"paths_{contract.family.value}{tag}.csv"
            _write_lines(os.path.join(out_dir, name),
                         ["path", "t", "S", "Q", "X", "v", "A"],
                         _path_lines(path, times), cfg_hash)
            # the next contract's solve runs without this one's surface
            del surface, control, path
        fams = sorted(shared)
        header = ["t"] + [f"{c}_{f}" for f in fams for c in ("S", "Q", "v")]
        columns = [times] + [col for f in fams for col in shared[f]]
        _write_lines(os.path.join(out_dir, f"paths_comparison{tag}.csv"), header,
                     (",".join(cells) for cells in zip(*columns)), cfg_hash)


def _text(values: np.ndarray, *tail: float) -> list[str]:
    """Each value written as `_fmt` writes a float, then the tail values."""
    return [repr(x) for x in values.tolist() + list(tail)]


def _path_lines(path: SimPath, times: list[str]):
    """Data lines of a trajectory CSV, path by path; v is 0 at T."""
    for p in range(path.S.shape[1]):
        columns = (_text(path.S[:, p]), _text(path.Q[:, p]), _text(path.X[:, p]),
                   _text(path.v[:, p], 0.0), _text(path.A[:, p]))
        for t, S, Q, X, v, A in zip(times, *columns):
            yield f"{p},{t},{S},{Q},{X},{v},{A}"


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _atomic_write(path: str, text: str) -> None:
    """text written to path through a temp file beside it, then renamed.

    A failed write or rename raises an OSError that names path, not the
    temp file, which is removed.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):   # the write or the rename failed
            os.remove(tmp)


def _write_csv(path: str, header: list[str], rows: list[dict], cfg_hash: str) -> None:
    """Table rows, dicts keyed by the header's names, one line each."""
    _write_lines(path, header, (",".join(_fmt(row[h]) for h in header) for row in rows),
                 cfg_hash)


def _write_lines(path: str, header: list[str], lines, cfg_hash: str) -> None:
    """A CSV file: the config hash, the header, then the data lines given."""
    text = "\n".join([f"# config_hash={cfg_hash}", ",".join(header), *lines])
    _atomic_write(path, text + "\n")


def _write_json(path: str, obj: dict, cfg_hash: str) -> None:
    payload = {"config_hash": cfg_hash, **obj}
    _atomic_write(path, json.dumps(payload, indent=1, sort_keys=True,
                                   default=_fmt) + "\n")


# ---------------------------------------------------------------------------
# reproduce-all

def _reproduce_all(config: ExperimentConfig, out_dir: str) -> None:
    """Every table as one plan, written with one manifest once all are computed.

    Building the plan builds, and so checks, every table's sub-config before
    the first solve.  One fee memo serves the whole run, so each distinct
    (contract, params, grid) is solved once; the statarb solves run first.
    """
    memo = {}
    base = dataclasses.replace(config, contracts=BASELINE_CONTRACTS)

    def sweep(param, values, contracts=BASELINE_CONTRACTS):
        return "sweep", partial(run_sweep, dataclasses.replace(
            base, contracts=contracts, sweep=SweepSpec(param, values)), memo)

    def regulatory(sigma):
        return "regulatory", partial(run_regulatory, dataclasses.replace(
            base, params=base.params.replace(sigma=sigma),
            regulatory=RegulatorySpec(p=0.5, tau=0.5),
            sweep=SweepSpec("p", (0.0, 0.2, 0.5, 0.8, 1.0))))

    # artifact -> (table command, runner) in manifest order; runners are looked up now
    plan = {
        "fees_baseline.csv": ("fees", partial(run_fees, base, memo)),
        "sweep_r.csv": sweep("r", (0.0, 0.01)),
        "sweep_sigma.csv": sweep("sigma", (5.0, 6.0, 7.0)),
        "sweep_alpha_linear_cash.csv": sweep("alpha", (0.002, 0.02, 0.2),
                                             (ContractSpec(Family.LINEAR_CASH),)),
        **{f"regulatory_sigma{sig:g}.csv": regulatory(sig) for sig in (1.0, 5.0)},
        "twap_fees.csv": ("twap", partial(run_twap, base, memo)),
        "statarb.csv": ("statarb", partial(run_statarb, dataclasses.replace(
            base, contracts=BASELINE_CONTRACTS + TWAP_CONTRACTS), memo)),
    }
    statarb = plan["statarb.csv"][1]()   # its solves fill the memo
    rows = {name: statarb if command == "statarb" else run()
            for name, (command, run) in plan.items()}

    cfg_hash = config.config_hash()
    digests = []
    for name, (command, _) in plan.items():
        path = os.path.join(out_dir, name)
        _write_csv(path, TABLES[command][1], rows[name], cfg_hash)
        with open(path, "rb") as fh:
            digests.append({"name": name,
                            "sha256": hashlib.sha256(fh.read()).hexdigest()})
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"artifacts": digests, "seed": config.sim.seed}, cfg_hash)


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
    code = 1
    # numpy's floating-point warnings stay off, as the NonFinite checks report
    # such a fault; every other warning is shown when the command ends, after
    # its error line or its artifacts, so that an error is the first stderr line
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            warnings.catch_warnings(record=True) as caught:
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
            code = 0
        except (ExecFeesError, OSError, MemoryError) as exc:
            print(f"execfees: error: {exc}", file=sys.stderr)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


if __name__ == "__main__":
    sys.exit(main())
