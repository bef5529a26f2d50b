"""Axisymmetric Navier-Stokes with vertical-only viscosity: solver and
a priori estimate verification harness."""

from .grid import (GridSpec, ScalarField, VelocityField, cylindrical_integral,
                   ddr, ddz, divergence, load_field, make_grid, save_field,
                   ur_over_r)
from .norms import (LorentzIndex, RearrangementProfile, lebesgue_norm,
                    lorentz_norm, mixed_norm, rearrange)
from .biot_savart import KernelTable, velocity_from_vorticity
from .evolution import (RunFailed, SimConfig, SimState, advance_omega_direct,
                        advance_q, cfl_dt, initial_state, run, step)
from .experiment import (ExperimentConfig, InitialData, build_initial,
                         format_config, parse_config, run_experiment)

__all__ = [
    "GridSpec", "ScalarField", "VelocityField", "make_grid", "ddr", "ddz",
    "divergence", "cylindrical_integral", "save_field", "load_field",
    "LorentzIndex", "RearrangementProfile", "rearrange", "lebesgue_norm",
    "lorentz_norm", "mixed_norm",
    "KernelTable", "velocity_from_vorticity", "ur_over_r",
    "SimConfig", "SimState", "cfl_dt", "advance_q", "advance_omega_direct",
    "step", "run", "initial_state", "RunFailed",
    "ExperimentConfig", "InitialData", "build_initial", "parse_config",
    "format_config", "run_experiment",
]

__version__ = "0.1.0"
