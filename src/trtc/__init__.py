"""Tensor-ring tensor completion toolkit.

The top level exports the solve-and-check surface; the kernels (unfoldings,
subchains, ridge solves) are imported from their own modules.
"""

from .tensors import frobenius_norm
from .ring import TRCores, reconstruct, eq2_residual, rank_inequality_check
from .prox import svt, core_update_olrf, core_update_llrf
from .solvers import SolverConfig, SolveReport, DivergenceError, solve_olrf, solve_llrf, rse
from .io import read_tensor, write_tensor, TensorFileError

__all__ = [
    "frobenius_norm",
    "TRCores",
    "reconstruct",
    "eq2_residual",
    "rank_inequality_check",
    "svt",
    "core_update_olrf",
    "core_update_llrf",
    "SolverConfig",
    "SolveReport",
    "DivergenceError",
    "solve_olrf",
    "solve_llrf",
    "rse",
    "read_tensor",
    "write_tensor",
    "TensorFileError",
]
