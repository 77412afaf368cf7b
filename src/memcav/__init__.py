"""memcav: membrane-in-the-middle cavity optomechanics toolkit.

Dispersive band structure and thin-film cavity optics, membrane oscillator
characterization, laser-cooling temperature estimators, the analytic
quantum-jump signal-to-noise budget, and a seeded Monte Carlo jump-readout
simulator that cross-validates the budget.
"""

__version__ = "0.1.0"

from .params import (  # noqa: F401
    CONST,
    ExperimentParams,
    MembraneSpec,
    PhysicalConstants,
    load_config,
    save_config,
    validate,
)

# name -> module of the names resolved on first use (PEP 562): `import memcav` loads params alone
_LAZY = {"QndBudget": "qnd", "jump_budget": "qnd", "JumpTrajectory": "jumpsim",
         "ReadoutTrace": "jumpsim", "binned_readout": "jumpsim", "simulate_trajectory": "jumpsim"}
__all__ = ["CONST", "ExperimentParams", "MembraneSpec", "PhysicalConstants", "load_config",
           "save_config", "validate", *_LAZY]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
