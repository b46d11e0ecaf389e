import dataclasses
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import execfees as ef
from execfees.config import ExperimentConfig, SweepSpec, config_from_dict, sha256_of
from execfees.errors import ConfigError


def test_empty_config_is_baseline():
    cfg = config_from_dict(None)
    p, g = cfg.params, cfg.grid
    assert (p.r, p.mu, p.b, p.l) == (0.0, 0.0, 1e-3, 1e-3)
    assert (p.gamma, p.sigma, p.N, p.C, p.alpha, p.T) == (1e-2, 5.0, 1.0, 10.0, 0.2, 1.0)
    assert (g.s_min, g.s_max, g.I) == (15.0, 75.0, 100)
    assert (g.q_min, g.q_max, g.J, g.n_steps) == (-1.0, 1.0, 100, 1000)
    fams = [c.family.value for c in cfg.contracts]
    assert fams == ["linear_physical", "linear_cash", "collar_physical", "collar_cash"]
    collar = cfg.contracts[2]
    assert (collar.K1, collar.K2) == (40.0, 50.0)
    assert (cfg.sim.q0, cfg.sim.s0, cfg.sim.x0) == (0.5, 45.0, 22.5)


def test_collar_strikes_default_in_contract_spec():
    # one default, whether the contract is built in code, by name or from YAML
    assert (ef.ContractSpec(ef.Family.COLLAR_CASH)
            == ef.ContractSpec(ef.Family.COLLAR_CASH, 40.0, 50.0))
    collar = ef.make_contract("collar_physical")
    assert (collar.K1, collar.K2) == (40.0, 50.0)
    cfg = config_from_dict({"contracts": [{"family": "collar_cash", "K1": None}]})
    assert (cfg.contracts[0].K1, cfg.contracts[0].K2) == (40.0, 50.0)


def test_baseline_config_hash_is_pinned():
    # the canonical dict still carries each contract's liquidation target,
    # now derived from params.N, so existing artifact hashes stay valid
    assert config_from_dict(None).config_hash() == (
        "85d53e5247e3eb975be3f74752d1f139279385c2c8417e19a3e530092d0067e7")


def test_default_config_is_the_loaded_baseline():
    cfg = ExperimentConfig()
    assert cfg == config_from_dict(None)
    assert cfg.config_hash() == (
        "85d53e5247e3eb975be3f74752d1f139279385c2c8417e19a3e530092d0067e7")


@pytest.mark.parametrize("build, field", [
    (lambda: dataclasses.replace(ExperimentConfig(), sim=ef.SimConfig(s0=100.0)),
     "sim.s0:"),
    (lambda: dataclasses.replace(ExperimentConfig(), sim=ef.SimConfig(q0=3.0)),
     "sim.q0:"),
    (lambda: ExperimentConfig(contracts=()), "contracts:"),
    (lambda: ExperimentConfig(output_dir=5), "output_dir:"),
    (lambda: SweepSpec("sigma", 5.0), "sweep.values:"),
    # two collars of one family would be two rows collar_cash of every table
    (lambda: ExperimentConfig(contracts=(ef.make_contract("collar_cash"),
                                         ef.make_contract("collar_cash", K1=30.0,
                                                          K2=60.0))),
     "contracts: 'collar_cash' is listed twice"),
], ids=["s0", "q0", "contracts", "output_dir", "sweep_values", "one_family"])
def test_configs_built_in_code_obey_the_loader_rules(build, field):
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value).startswith(field)


@pytest.mark.parametrize("param, value", [("l", 0.0), ("sigma", -1.0), ("T", 0.0)])
def test_swept_model_parameter_values_are_checked(param, value):
    # each swept value builds its MarketParams when the config is made
    raw = {"sweep": {"param": param, "values": [1.0, value]}}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(f"sweep.values: params.{param}:")


def test_readme_config_example_loads():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(yaml.safe_load(example))
    assert cfg.sweep == SweepSpec("alpha", (0.002, 0.02, 0.2))
    assert [c.family.value for c in cfg.contracts] == ["linear_physical", "collar_cash"]


def test_config_overrides_and_hash():
    a = config_from_dict({"params": {"sigma": 6.0}})
    b = config_from_dict({"params": {"sigma": 6.0}})
    c = config_from_dict({"params": {"sigma": 7.0}})
    assert a.params.sigma == 6.0
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_field_level_errors():
    with pytest.raises(ConfigError, match="params.sigma"):
        config_from_dict({"params": {"sigma": -1.0}})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"params": {"sigmaa": 1.0}})
    with pytest.raises(ConfigError, match="family"):
        config_from_dict({"contracts": ["linear_fysical"]})
    with pytest.raises(ConfigError, match="sweep"):
        config_from_dict({"sweep": {"param": "not_a_field", "values": [1]}})
    with pytest.raises(ConfigError, match="K1"):
        config_from_dict({"contracts": [{"family": "collar_cash", "K1": 60.0,
                                         "K2": 50.0}]})
    with pytest.raises(ConfigError, match="unknown section"):
        config_from_dict({"paramz": {}})


def test_sweep_accepts_regulatory_fields():
    cfg = config_from_dict({"sweep": {"param": "p", "values": [0.0, 1.0]},
                            "regulatory": {"p": 0.5, "tau": 0.5}})
    assert cfg.sweep.param == "p"
    assert cfg.regulatory.tau == 0.5


def test_load_yaml_roundtrip(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("params:\n  sigma: 6.5\ncontracts: [linear_cash]\n"
                    "output_dir: artifacts\n")
    cfg = ef.load_config(str(path))
    assert cfg.params.sigma == 6.5
    assert [c.family.value for c in cfg.contracts] == ["linear_cash"]
    assert cfg.output_dir == "artifacts"
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert ef.load_config(str(empty)).params.sigma == 5.0


def test_hash_is_stable_under_key_order():
    assert sha256_of({"a": 1, "b": 2.5}) == sha256_of({"b": 2.5, "a": 1})


@pytest.mark.parametrize("raw, field", [
    ({"regulatory": {"p": 0.5}}, "regulatory: missing field(s) ['tau']"),
    ({"output_dir": 5}, "output_dir:"),
    ({"grid": {"s_min": "abc"}}, "grid.s_min:"),
    ({"sim": {"seed": -1}}, "sim.seed:"),
    ({"sim": {"zero_noise": "abc"}}, "sim.zero_noise:"),
    ({"params": {"b": "1e-3"}}, "params.b:"),   # YAML 1.1 reads 1e-3 as a string
    ({"contracts": [{"family": "collar_cash", "K2": float("inf")}]}, "contracts.K2:"),
    ({"params": {"sigma": 10**400}}, "params.sigma:"),   # beyond the float range
    ({"paramz": {}, 1: {}}, "config: unknown section(s) ['1', 'paramz']"),
    # the solver divides by ds**2 and dq
    ({"grid": {"s_min": 0.0, "s_max": 1.0e+308, "I": 20}}, "grid.ds:"),
    ({"grid": {"s_min": 0.0, "s_max": 1.0e-200}}, "grid.ds:"),
    ({"grid": {"q_min": -1.0e+308, "q_max": 1.0e+308}}, "grid.dq:"),
    ({"regulatory": {"p": 0.5, "tau": 0.5004}}, "regulatory.tau:"),
    ({"regulatory": {"p": 0.5, "tau": 0.5}, "sweep": {"param": "p", "values": [1.5]}},
     "regulatory.p:"),
])
def test_config_rejects_malformed_values(raw, field):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(field)


# ---------------------------------------------------------------------------
# round trip: accepted configs survive canonical_dict, rejected ones say so

# YAML can produce any of these; integers beyond the float range included
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                  st.integers(2**1023, 2**1100), st.text(max_size=4),
                  st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_REAL = st.floats(-5.0, 100.0) | st.integers(-5, 100)
_FAMILY = st.sampled_from([f.value for f in ef.Family])
_COUNT = st.integers(-1, 300)
_SECTIONS = {
    "params": st.fixed_dictionaries(
        {}, optional={f.name: _REAL for f in dataclasses.fields(ef.MarketParams)}),
    "grid": st.fixed_dictionaries(
        {}, optional={"s_min": _REAL, "s_max": _REAL, "q_min": _REAL, "q_max": _REAL,
                      "I": _COUNT, "J": _COUNT, "n_steps": _COUNT}),
    "sim": st.fixed_dictionaries(
        {}, optional={"n_paths": _COUNT, "n_steps": _COUNT,
                      "seed": st.integers(-1, 2**65), "x0": _REAL, "q0": _REAL,
                      "s0": _REAL, "zero_noise": st.booleans()}),
    "contracts": st.none() | st.lists(
        _FAMILY | st.fixed_dictionaries({"family": _FAMILY},
                                        optional={"K1": _REAL, "K2": _REAL}),
        max_size=3),
    "regulatory": st.none() | st.fixed_dictionaries({"p": st.floats(-0.5, 1.5),
                                                     "tau": _REAL}),
    "sweep": st.none() | st.fixed_dictionaries(
        {"param": st.sampled_from(["sigma", "r", "N", "p", "tau"]),
         "values": st.lists(_REAL, max_size=3)}),
    "output_dir": st.text(max_size=8),
}


@st.composite
def _raw_configs(draw):
    """A config dict of mostly plausible values with up to two junk entries."""
    raw = {name: draw(section) for name, section in _SECTIONS.items()
           if draw(st.booleans())}
    for _ in range(draw(st.integers(0, 2))):
        holder = draw(st.sampled_from(
            [raw] + [v for v in raw.values() if isinstance(v, dict)]))
        known = st.sampled_from(sorted(holder, key=str)) if holder else st.nothing()
        key = draw(known | st.text(max_size=3) | st.integers())
        holder[key] = draw(_JUNK)
    return raw


@settings(max_examples=300)
@given(raw=_raw_configs())
def test_config_round_trips_or_raises_config_error(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    again = config_from_dict(cfg.canonical_dict())
    # output_dir is where artifacts go, not part of the experiment
    assert again == dataclasses.replace(cfg, output_dir=again.output_dir)
    assert again.config_hash() == cfg.config_hash()
