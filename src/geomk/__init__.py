"""Geometric distribution of order k.

The waiting time for the first run of k consecutive successes in Bernoulli
trials, with four cross-validating pmf engines, closed-form factorial
moments, certified characteristic roots, and a seeded Monte Carlo harness.
Exact (rational) and float arithmetic are both first-class.
"""

from .numerics import (ConsistencyError, DomainError, GeomkError, Mode,
                       ModeError, ParseError, Scalar, SolverError,
                       gen_binomial, parse_scalar)
from .params import DegeneracyFlag, Params, make_params, qpk
from .roots import RootCertification, RootSet, aux_poly_eval, certify_roots, find_roots
from .pmf import (Engine, PmfTable, build_table, pgf_eval, pmf,
                  pmf_closedform, pmf_muselli, pmf_recurrence, pmf_rootsum)
from .moments import (MomentReport, factorial_moment, factorial_moment_closed,
                      factorial_moment_muselli, factorial_moment_series, mean,
                      moment_report, variance)
from .simulate import (GofReport, SimConfig, SimSummary, SplitMix64,
                       gof_report, run_simulation, sample_waiting_time)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError", "DegeneracyFlag", "DomainError", "Engine",
    "GeomkError", "GofReport", "Mode", "ModeError", "MomentReport",
    "Params", "ParseError", "PmfTable", "RootCertification", "RootSet",
    "Scalar", "SimConfig", "SimSummary", "SolverError", "SplitMix64",
    "aux_poly_eval", "build_table", "certify_roots", "factorial_moment",
    "factorial_moment_closed", "factorial_moment_muselli",
    "factorial_moment_series", "find_roots", "gen_binomial", "gof_report",
    "make_params", "mean", "moment_report", "parse_scalar", "pgf_eval",
    "pmf", "pmf_closedform", "pmf_muselli", "pmf_recurrence", "pmf_rootsum",
    "qpk", "run_simulation", "run_verify", "sample_waiting_time", "variance",
]
