"""Utility-indifference fees and optimal hedging for execution contracts
under a linear temporary/permanent market-impact model."""

from .contracts import (ContractSpec, Family, GridSpec, MarketParams,
                        collar_per_share, liquidation_cost, make_contract,
                        payoff_pi, terminal_fee)
from .closed_form import (RiccatiConstants, control_closed, fee_physical_closed,
                          fee_trs_closed, h_quadratic, riccati_theta, trs_h0,
                          trs_h1)
from .hjb import (ControlSurface, FeeSurface, RegulatorySpec, explicit_nonlinear,
                  extract_control, solve_fee_surface, solve_regulatory,
                  step_backward)
from .simulate import (PayoffEstimate, SimConfig, SimPath, common_noise_batch,
                       expected_payoff_metric, realized_payoff, simulate_path)
from .config import ExperimentConfig, SweepSpec, config_from_dict, load_config
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ContractSpec", "Family", "GridSpec", "MarketParams", "collar_per_share",
    "liquidation_cost", "make_contract", "payoff_pi", "terminal_fee",
    "RiccatiConstants", "control_closed", "fee_physical_closed",
    "fee_trs_closed", "h_quadratic", "riccati_theta", "trs_h0", "trs_h1",
    "ControlSurface", "FeeSurface", "RegulatorySpec",
    "explicit_nonlinear", "extract_control", "solve_fee_surface",
    "solve_regulatory", "step_backward",
    "PayoffEstimate", "SimConfig", "SimPath", "common_noise_batch",
    "expected_payoff_metric", "realized_payoff", "simulate_path",
    "ExperimentConfig", "SweepSpec", "config_from_dict", "load_config",
    "errors",
]
