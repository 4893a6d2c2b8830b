"""The paper's contribution: height-based recurrence analysis (CHORA).

Public entry points:

* :func:`analyze_program` — compute procedure summaries for a whole program;
* :func:`check_assertions` / :func:`check_assertion` — prove assertions;
* :func:`cost_bound` / :func:`return_bound` / :func:`classify_asymptotics` —
  complexity bounds (Table 1);
* the building blocks: Alg. 2 (:mod:`repro.core.height_analysis`), Alg. 3
  (:mod:`repro.core.stratify`), Alg. 4 / §4.2 (:mod:`repro.core.depth_bound`),
  §4.3 (:mod:`repro.core.two_region`), §4.4 (mutual recursion, interleaved
  by :mod:`repro.core.height_analysis`), §4.5 (:mod:`repro.core.missing_base`).
"""

from .summaries import (
    BoundedTerm,
    DepthBound,
    ExponentialRegistry,
    ExponentialTerm,
    ProcedureSummary,
)
from .height_analysis import BoundSymbols, HeightAnalysis, run_height_analysis
from .stratify import CandidateRecurrence, build_stratified_system, normalize_candidate
from .depth_bound import (
    DescentKind,
    DescentWitness,
    alg4_depth_formula,
    compute_depth_bound,
    descent_depth_bound,
)
from .two_region import recursive_only_cfg, run_two_region_analysis
from .missing_base import procedures_without_base_case, transform_missing_base_cases
from .chora import AnalysisResult, ChoraOptions, analyze_component, analyze_program
from .incremental import IncrementalAnalyzer, IncrementalReport
from .assertion import AssertionOutcome, check_assertion, check_assertions
from .complexity import (
    NO_BOUND,
    ComplexityBound,
    classify_asymptotics,
    cost_bound,
    return_bound,
)

__all__ = [
    "BoundedTerm",
    "DepthBound",
    "ExponentialRegistry",
    "ExponentialTerm",
    "ProcedureSummary",
    "BoundSymbols",
    "HeightAnalysis",
    "run_height_analysis",
    "CandidateRecurrence",
    "build_stratified_system",
    "normalize_candidate",
    "DescentKind",
    "DescentWitness",
    "alg4_depth_formula",
    "compute_depth_bound",
    "descent_depth_bound",
    "recursive_only_cfg",
    "run_two_region_analysis",
    "procedures_without_base_case",
    "transform_missing_base_cases",
    "AnalysisResult",
    "ChoraOptions",
    "analyze_component",
    "analyze_program",
    "IncrementalAnalyzer",
    "IncrementalReport",
    "AssertionOutcome",
    "check_assertion",
    "check_assertions",
    "NO_BOUND",
    "ComplexityBound",
    "classify_asymptotics",
    "cost_bound",
    "return_bound",
]
