"""Groebner degenerations of homogeneous ideals, analyzed exactly.

The layers, bottom to top: coefficient fields (``fields``), exact linear
algebra (``linalg``), the polynomial ring core (``ring``), Buchberger and
reduced bases (``groebner``), simplicial complexes with cohomology and
property reports (``complexes``), singularity obstructions (``singularity``),
and the experiment pipelines plus job-file and report plumbing (``pipeline``,
``jobs``, ``reporting``, ``cli``). Everything computes over QQ or GF(p); no
floating point anywhere.
"""

from .complexes import (
    CohomologyProfile,
    ComplexPropertyReport,
    Link,
    SimplicialComplex,
    complex_from_squarefree_ideal,
    is_strongly_connected,
    link,
    property_report,
    reduced_cohomology,
    to_ideal,
)
from .errors import (
    ContextMismatchError,
    DegreeCapExceeded,
    FieldMismatchError,
    ParseError,
    ResourceLimitError,
    ScanBoundExceeded,
)
from .fields import Field, GFElement, PrimeField, QQ, RationalField, field_from_string, is_prime
from .groebner import (
    GroebnerBasis,
    MonomialIdeal,
    buchberger,
    initial_ideal,
    normal_form,
    s_polynomial,
)
from .jobs import JobSpec, parse_job, render_job
from .pipeline import (
    ComplexReport,
    DegenerationReport,
    LiftSearchResult,
    PointCountResult,
    ValidLift,
    analyze,
    analyze_complex,
    count_points,
    ideal_digest,
    lift_search,
    scan_orders,
)
from .reporting import render_report, to_jsonable
from .ring import (
    Monomial,
    MonomialOrder,
    Polynomial,
    RingContext,
    parse_polynomial,
    standard_context,
)
from .singularity import (
    JacobianAnalysis,
    ObstructionVerdict,
    ProjPoint,
    SupportViolation,
    ci_obstruction,
    jacobian_rank_at,
    leafless_obstruction,
    lex_obstruction,
    support_exclusions,
)

__version__ = "0.1.0"

__all__ = [
    "CohomologyProfile",
    "ComplexPropertyReport",
    "ComplexReport",
    "ContextMismatchError",
    "DegenerationReport",
    "DegreeCapExceeded",
    "Field",
    "FieldMismatchError",
    "GFElement",
    "GroebnerBasis",
    "JacobianAnalysis",
    "JobSpec",
    "LiftSearchResult",
    "Link",
    "Monomial",
    "MonomialIdeal",
    "MonomialOrder",
    "ObstructionVerdict",
    "ParseError",
    "PointCountResult",
    "Polynomial",
    "PrimeField",
    "ProjPoint",
    "QQ",
    "RationalField",
    "ResourceLimitError",
    "RingContext",
    "ScanBoundExceeded",
    "SimplicialComplex",
    "SupportViolation",
    "ValidLift",
    "analyze",
    "analyze_complex",
    "buchberger",
    "complex_from_squarefree_ideal",
    "ci_obstruction",
    "count_points",
    "field_from_string",
    "ideal_digest",
    "initial_ideal",
    "is_prime",
    "is_strongly_connected",
    "jacobian_rank_at",
    "leafless_obstruction",
    "lex_obstruction",
    "lift_search",
    "link",
    "normal_form",
    "parse_job",
    "parse_polynomial",
    "property_report",
    "reduced_cohomology",
    "render_job",
    "render_report",
    "s_polynomial",
    "scan_orders",
    "standard_context",
    "support_exclusions",
    "to_ideal",
    "to_jsonable",
]
