"""Tensor-ring tensor completion toolkit."""

from .tensors import (
    gamma_unfold,
    gamma_fold,
    delta_unfold,
    delta_fold,
    frobenius_norm,
)
from .ring import (
    TRCores,
    TRRank,
    element,
    reconstruct,
    subchain,
    subchain_gram,
    eq2_residual,
    numerical_rank,
    rank_inequality_check,
)
from .prox import SVTResult, svt, ridge_solve, core_update_olrf, core_update_llrf
from .solvers import SolverConfig, SolveReport, DivergenceError, solve_olrf, solve_llrf, rse
from .io import read_tensor, write_tensor, TensorFileError

__all__ = [
    "gamma_unfold",
    "gamma_fold",
    "delta_unfold",
    "delta_fold",
    "frobenius_norm",
    "TRCores",
    "TRRank",
    "element",
    "reconstruct",
    "subchain",
    "subchain_gram",
    "eq2_residual",
    "numerical_rank",
    "rank_inequality_check",
    "SVTResult",
    "svt",
    "ridge_solve",
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
