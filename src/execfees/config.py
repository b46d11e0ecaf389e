"""Experiment configuration: YAML loading, validation, canonical hashing.

An empty config reproduces the baseline experiment set exactly; every field
has the baseline default.  Collar strikes default to K1 = 40, K2 = 50.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import yaml

from .contracts import (ContractSpec, Family, GridSpec, MarketParams, check_real,
                        make_contract)
from .errors import ConfigError
from .hjb import RegulatorySpec
from .simulate import SimConfig

DEFAULT_K1 = 40.0
DEFAULT_K2 = 50.0

# families whose strikes default to DEFAULT_K1 and DEFAULT_K2
_COLLAR_FAMILIES = tuple(f.value for f in Family if f.is_collar)

# model parameters, plus the approval probability swept by `regulatory`
_SWEEPABLE = tuple(f.name for f in dataclasses.fields(MarketParams)) + ("p",)


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple

    def __post_init__(self):
        if self.param not in _SWEEPABLE:
            raise ConfigError(
                f"sweep.param: {self.param!r} is not a model parameter or p "
                f"(one of {', '.join(_SWEEPABLE)})")
        if len(self.values) == 0:
            raise ConfigError("sweep.values: must be non-empty")
        for v in self.values:
            check_real("sweep.values", v)


@dataclass(frozen=True)
class ExperimentConfig:
    params: MarketParams = MarketParams()
    grid: GridSpec = GridSpec()
    contracts: tuple[ContractSpec, ...] = ()
    regulatory: RegulatorySpec | None = None
    sim: SimConfig = SimConfig()
    sweep: SweepSpec | None = None
    output_dir: str = "out"

    def canonical_dict(self) -> dict:
        return {
            "params": dataclasses.asdict(self.params),
            "grid": dataclasses.asdict(self.grid),
            "contracts": [_contract_dict(c, self.params) for c in self.contracts],
            "regulatory": dataclasses.asdict(self.regulatory) if self.regulatory else None,
            "sim": dataclasses.asdict(self.sim),
            "sweep": {"param": self.sweep.param, "values": list(self.sweep.values)}
            if self.sweep else None,
        }

    def config_hash(self) -> str:
        return sha256_of(self.canonical_dict())


def _contract_dict(c: ContractSpec, params: MarketParams) -> dict:
    # the target stays in the hash input, so every config hash is unchanged
    return {"family": c.family.value, "K1": c.K1, "K2": c.K2,
            "liquidation_target": c.target(params.N)}


def sha256_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _build_contract(entry, N: float | None = None) -> ContractSpec:
    """A contract from a family name or a {family, K1, K2, liquidation_target} mapping."""
    if isinstance(entry, str):
        entry = {"family": entry}
    if not isinstance(entry, dict) or "family" not in entry:
        raise ConfigError(f"contracts: expected family name or mapping, got {entry!r}")
    bad = set(entry) - {"family", "K1", "K2", "liquidation_target"}
    if bad:
        raise ConfigError(f"contracts: unknown field(s) {sorted(map(str, bad))}")
    collar = entry["family"] in _COLLAR_FAMILIES
    spec = make_contract(entry["family"],
                         K1=entry.get("K1", DEFAULT_K1 if collar else None),
                         K2=entry.get("K2", DEFAULT_K2 if collar else None))
    target = spec.target(N)
    if entry.get("liquidation_target", target) != target:
        raise ConfigError("contracts.liquidation_target: follows from the family "
                          f"and N, {target!r} here")
    return spec


# the four contracts of the baseline tables (collars at K1 = 40, K2 = 50)
BASELINE_CONTRACTS = tuple(map(_build_contract, ("linear_physical", "linear_cash",
                                                 "collar_physical", "collar_cash")))
TWAP_CONTRACTS = (ContractSpec(Family.TWAP_PHYSICAL), ContractSpec(Family.TWAP_CASH))


def _section(cls, section, where: str) -> dict:
    """Keyword arguments of `cls` from one config section; None means all defaults."""
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping, got {section!r}")
    fields = dataclasses.fields(cls)
    bad = set(section) - {f.name for f in fields}
    if bad:
        raise ConfigError(f"{where}: unknown field(s) {sorted(map(str, bad))}")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in section]
    if missing:
        raise ConfigError(f"{where}: missing field(s) {missing}")
    return section


def _listed(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def config_from_dict(raw: dict | None) -> ExperimentConfig:
    """Build a validated config; omitted sections fall back to baseline defaults."""
    raw = dict(raw or {})
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    bad = set(raw) - known
    if bad:
        raise ConfigError(f"config: unknown section(s) {sorted(map(str, bad))}")
    params = MarketParams(**_section(MarketParams, raw.get("params"), "params"))
    grid = GridSpec(**_section(GridSpec, raw.get("grid"), "grid"))
    sim = SimConfig(**_section(SimConfig, raw.get("sim"), "sim"))
    # the surface lookup clamps to the grid hull, so a start outside it is wrong
    for name, lo, hi in (("s0", grid.s_min, grid.s_max), ("q0", grid.q_min, grid.q_max)):
        if not lo <= getattr(sim, name) <= hi:
            raise ConfigError(f"sim.{name}: must lie in the grid hull [{lo}, {hi}], "
                              f"got {getattr(sim, name)!r}")
    contracts = (BASELINE_CONTRACTS if raw.get("contracts") is None
                 else tuple(_build_contract(c, params.N)
                            for c in _listed(raw["contracts"], "contracts")))
    if not contracts:
        raise ConfigError("contracts: must be non-empty")
    reg = None
    if raw.get("regulatory") is not None:
        reg = RegulatorySpec(**_section(RegulatorySpec, raw["regulatory"], "regulatory"))
    sweep = None
    if raw.get("sweep") is not None:
        s = raw["sweep"]
        if not isinstance(s, dict) or "param" not in s or "values" not in s:
            raise ConfigError("sweep: expected mapping with param and values")
        sweep = SweepSpec(param=s["param"],
                          values=tuple(_listed(s["values"], "sweep.values")))
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a path, got {output_dir!r}")
    return ExperimentConfig(params=params, grid=grid, contracts=contracts,
                            regulatory=reg, sim=sim, sweep=sweep, output_dir=output_dir)


def load_config(path: str | None) -> ExperimentConfig:
    """Load a YAML config file; None or an empty file yields the baseline config."""
    if path is None:
        return config_from_dict(None)
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:
            # ValueError: an integer past Python's digit limit for int()
            raise ConfigError(f"config: not a valid YAML document: {exc}") from None
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping at top level")
    return config_from_dict(raw)
