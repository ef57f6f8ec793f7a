"""homsos: moment-SOS solver for polynomial optimization over possibly
unbounded semialgebraic sets, with homogenization, extraction of minimizers
(including minimizers at infinity) and numerical optimality-condition checks.
"""

from .poly import Polynomial, PopProblem, monomial_basis
from .relax import (DENOMINATOR, HOMOGENIZED, HOMOGENIZED_EVEN, STANDARD,
                    HierarchyKind, MomentRelaxation, assemble,
                    build_homogenized, full_solution, localizing_pencil,
                    power_x0, sos_certificate_from_dual, to_sdp_instance)
from .sdp import SdpInstance, SdpSolution, SdpStatus, SolveOptions, solve, \
    solve_with_restarts
from .extract import Atom, AtomSet, classify, extract_atoms, flat_truncation, \
    numerical_rank
from .optcond import (OptCondReport, check_at_infinity, check_at_infinity_even,
                      check_regular)
from .driver import DriverOptions, HierarchyReport, minimizers_at_infinity, solve_pop
from .cli import parse_problem, run

__version__ = "0.1.0"
