"""Exact Schur multipliers, capability and gamma invariants of
finite-dimensional nilpotent Lie superalgebras."""

from .algebra import (
    GradedSubspace,
    SuperDim,
    Superalgebra,
    ValidationReport,
    bracket,
    center,
    complete_table,
    component_series,
    derived_subspace,
    direct_sum,
    is_nilpotent,
    lower_central_series,
    nilpotent_by_components,
    product_subspace,
    quotient,
    validate,
)
from .capability import (
    EpicenterReport,
    GammaVerdict,
    epicenter,
    gamma,
    mono_criterion,
    verify_no_low_gamma,
)
from .catalog import abelian, family_4_2, get, heisenberg3, names
from .errors import SuperschurError
from .fields import Field, Mod, RATIONALS
from .homology import (
    MultiplierReport,
    PairSpace,
    TailExtension,
    boundary2,
    multiplier_dimension,
    relations3,
    tail_extension,
)
from .presentation import emit_report, load, lower, parse, serialize
from .verifier import (
    Finding,
    ScanConfig,
    check_bounds,
    generate_nilpotent,
    replay,
    reproduce_table1,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "EpicenterReport", "Field", "Finding", "GammaVerdict", "GradedSubspace",
    "Mod", "MultiplierReport", "PairSpace", "RATIONALS", "ScanConfig",
    "SuperDim", "Superalgebra", "SuperschurError", "TailExtension",
    "ValidationReport", "abelian", "boundary2",
    "bracket", "center", "check_bounds", "complete_table", "component_series",
    "derived_subspace", "direct_sum", "emit_report", "epicenter", "family_4_2",
    "gamma", "generate_nilpotent", "get", "heisenberg3", "is_nilpotent", "load",
    "lower", "lower_central_series", "mono_criterion", "multiplier_dimension",
    "names", "nilpotent_by_components", "parse", "product_subspace", "quotient",
    "relations3", "replay", "reproduce_table1", "scan", "serialize",
    "tail_extension", "validate", "verify_no_low_gamma",
]
