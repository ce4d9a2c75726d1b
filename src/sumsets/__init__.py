"""Exact computation and verification toolkit for h-fold restricted signed
sumsets of finite integer sets.

The central object is h^+-A, the set of all sums of exactly h distinct
elements of A each taken with a sign.  The package computes all four h-fold
sumset notions with two independent engines, evaluates the known and
conjectured lower bounds on |h^+-A|, materializes the certificate families
behind those bounds, classifies bound-equality sets against the proven
extremal families, and exhaustively scans small normalized search spaces
for counterexamples to the open conjectures.
"""

from .core import (
    FiniteIntSet,
    SetFamily,
    SumsetKind,
    SumsetResult,
    dilate,
    family_of,
    make_set,
    parse_set_literal,
)
from .errors import (
    DegenerateSet,
    DomainViolation,
    EmptySpace,
    EngineMismatch,
    InvalidDilation,
    InvalidFamily,
    InvalidFold,
    InvalidSet,
    InvalidSetLiteral,
    KernelOverflow,
    NotApplicable,
    SumsetError,
    TheoremViolation,
)
from .kernel import (
    coefficient_space_size,
    enumerate_coefficients,
    sumset_layered,
    sumset_naive,
)
from .witness import (
    FamilyCheck,
    FamilyName,
    WitnessElement,
    WitnessFamily,
    combined_census,
    gen_family,
    gen_superincreasing,
    is_superincreasing,
    s_family,
    superincreasing_census,
    t_family,
    u_family,
    verify_family,
)
from .bounds import (
    FORMULAS,
    BoundEntry,
    BoundFormula,
    BoundReport,
    BoundStatus,
    audit,
    bound_value,
)
from .inverse import (
    ExtremalClassification,
    classify_extremal,
    inverse_coverage,
    regenerate,
)
from .explorer import (
    ScanConfig,
    ScanMode,
    ScanReport,
    count_normalized_sets,
    enumerate_normalized_sets,
    parse_mode,
    scan,
)

__version__ = "0.1.0"
