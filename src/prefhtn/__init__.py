"""Preference-optimal HTN planning over plan traces.

Plans are found by ordered task decomposition; a qualitative temporal
preference formula ranks them, and best-first search over progressed
formula bounds returns a plan of provably minimum weight.
"""

from .errors import (CapExceeded, ParseError, PrefHtnError, ResourceLimit)
from .formulas import APF, GPF, Weight
from .model import (Domain, Operator, Method, Problem, State, Task, Trace)
from .oracle import EnumerationCaps, OracleResult, cross_check, enumerate_all
from .parser import (empty_preference, parse_domain, parse_preference,
                     parse_problem, print_domain, print_preference,
                     print_problem)
from .search import Result, SearchStats, SolveConfig, solve
from .semantics import compare_plans, weight_gpf

__version__ = "0.1.0"

__all__ = [
    "APF", "CapExceeded", "Domain", "EnumerationCaps", "GPF", "Method",
    "Operator", "OracleResult", "ParseError", "PrefHtnError", "Problem",
    "ResourceLimit", "Result", "SearchStats", "SolveConfig", "State",
    "Task", "Trace", "Weight", "compare_plans", "cross_check",
    "empty_preference", "enumerate_all", "parse_domain", "parse_preference",
    "parse_problem", "print_domain", "print_preference", "print_problem",
    "solve", "weight_gpf",
]
