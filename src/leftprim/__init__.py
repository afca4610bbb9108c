"""Primitive integrals of distributions with left-regulated primitives.

Exact step-function calculus, symbolic left-regulated function families,
primitive integrals (endpoint differences of primitives), a left-gauge
Stieltjes integral, and monotone fixed-point solvers for distributional
Cauchy systems.
"""

from .intervals import Interval, DomainError
from .stepfn import StepFn, PiecewisePoly, random_stepfn
from .funcspace import (RegulatedFn, limits, step_approximation, lattice,
                        abs_fn, pos_fn, neg_fn, norm, local_metric, classify,
                        integrate_regulated, fd_derivative_check)
from .integral import (Distribution, Multiplier, TestFn, primitive_integral,
                       cumulative, pairing, hake, parts, product, dirac)
from .gauge import (LeftGauge, LeftPartition, fine_partition, mu_interval,
                    stieltjes, stieltjes_sum)
from .solver import (CauchySystem, GridFn, SubSuperPair, IterationTrace,
                     MajorantOp, L1Config, apply_operator, iterate_chain,
                     smallest_greatest, bounds_to_subsuper, minmax_l1,
                     uniqueness_chain, reduce_higher_order, make_grid)

# The public API; submodules stay importable (``leftprim.solver``) but are not
# part of it.
__all__ = [
    "Interval", "DomainError", "StepFn", "PiecewisePoly", "random_stepfn",
    "RegulatedFn", "limits", "step_approximation", "lattice", "abs_fn",
    "pos_fn", "neg_fn", "norm", "local_metric", "classify",
    "integrate_regulated", "fd_derivative_check",
    "Distribution", "Multiplier", "TestFn", "primitive_integral", "cumulative",
    "pairing", "hake", "parts", "product", "dirac",
    "LeftGauge", "LeftPartition", "fine_partition", "mu_interval", "stieltjes",
    "stieltjes_sum",
    "CauchySystem", "GridFn", "SubSuperPair", "IterationTrace", "MajorantOp",
    "L1Config", "apply_operator", "iterate_chain", "smallest_greatest",
    "bounds_to_subsuper", "minmax_l1", "uniqueness_chain",
    "reduce_higher_order", "make_grid",
]
__version__ = "0.1.0"
