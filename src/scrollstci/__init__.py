"""Exact certification toolkit for scroll determinantal ideals,
linearly joined decompositions, and codimension-two lattice ideals."""

from .poly import (
    DEGREVLEX,
    LEX,
    FieldSpec,
    Fp,
    LinearSpan,
    ParseError,
    Polynomial,
    QQ,
    Ring,
    RingMismatchError,
    ScrollstciError,
    TermOrder,
    block_order,
    parse,
    substitute,
)
from .oracle import (
    IdealHandle,
    OracleTimeout,
    RadicalCertificate,
    eliminate,
    groebner_basis,
    ideal_member,
    intersect,
    intersect_many,
    normal_form,
    radical_equal,
    radical_member,
    saturate,
    time_limit,
)
from .scroll import (
    GenericScrollFacts,
    ScrollBlock,
    ScrollClassification,
    ScrollMatrix,
    ara_bound_generic,
    classify_modulo,
    minors_2x2,
    verdi_generators,
)
from .linjoin import (
    ComponentSpec,
    SpecValidationError,
    TwoLinearSpec,
    ValidationReport,
    ara_upper_bound,
    cohom_dim,
    component_ideal,
    full_ideal,
    intersection_ideal,
    projdim,
    validate,
)
from .synth import (
    SynthesisCertificate,
    SynthesisError,
    TildeData,
    synthesize,
    tableau_generators,
    tilde_decompose,
    verify_generator_list,
)
from .lattice import (
    LatticeBasis,
    LatticeError,
    binomial,
    fiber_spec_check,
    lattice_ideal,
    nonnegative_vector,
)

__version__ = "0.1.0"
