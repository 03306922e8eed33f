"""Exact-arithmetic toolkit for equitable partitions of hypercubes.

Submodules:
  exact_linalg  rational tensor vectors and structured Kronecker lifts
  quotient      candidate quotient matrices and arithmetic screens
  recursion     triangle / interweight distribution tables
  krawtchouk    trivariate generalized Krawtchouk polynomials
  oracle        brute-force ground truth on explicit vertex sets
  screen        nonexistence certificates and the two-cell sweep
  cli           command-line front end
"""

from .exact_linalg import (LiftedMatrix, TensorVector, apply_lift, commutes,
                           diag_lift, kron_lift, materialize)
from .krawtchouk import (TriPoly, classical_krawtchouk, eval_at_lifts,
                         genfun_coeff, poly_direct, poly_recursive)
from .oracle import (PartitionInstance, PerfectStructure, brute_interweight,
                     brute_triangle, search_partitions,
                     strong_invariance_check, verify_equitable)
from .quotient import (QuotientMatrix, cell_sizes, feasibility_conditions,
                       spectrum_check, validate_quotient)
from .recursion import (DistributionTable, build_table, cross_check,
                        scan_violations, weight_distribution)
from .screen import Certificate, certify, sweep_ci

__version__ = "0.1.0"

__all__ = [
    "LiftedMatrix", "TensorVector", "apply_lift", "commutes",
    "diag_lift", "kron_lift", "materialize",
    "TriPoly", "classical_krawtchouk", "eval_at_lifts", "genfun_coeff",
    "poly_direct", "poly_recursive",
    "PartitionInstance", "PerfectStructure", "brute_interweight",
    "brute_triangle", "search_partitions", "strong_invariance_check",
    "verify_equitable",
    "QuotientMatrix", "cell_sizes", "feasibility_conditions",
    "spectrum_check", "validate_quotient",
    "DistributionTable", "build_table", "cross_check", "scan_violations",
    "weight_distribution",
    "Certificate", "certify", "sweep_ci",
    "__version__",
]
