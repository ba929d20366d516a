"""Computational engine for finite-dimensional concrete C*-categories.

Objects are finite-dimensional Hilbert spaces presented by dimensions;
hom-spaces are *-closed matrix subspaces given by Frobenius-orthonormal
bases.  On top of that substrate the package builds additive hulls, matrix
algebras, idempotent completions, multiplier morphisms, Hilbert modules in
finitely-generated-projective presentation, bimodules with tensor products,
imprimitivity and Morita-equivalence witnesses, and the reconstruction map
identifying module-category functors with bimodule tensoring.  Every
construction carries numerically verifiable invariants.
"""

from .errors import (
    EngineError,
    InvalidInput,
    CompositionMismatch,
    ClosureViolation,
    NotInvertible,
    ParseError,
)
from .linalg import (
    Tolerance,
    default_tolerance,
    op_norm,
    frac_power,
    psd_check,
    orthonormal_span,
    in_span,
)
from .report import Check, Report
from .category import (
    CStarCategory,
    Morphism,
    CStarFunctor,
    compose,
    involute,
    verify_category,
    verify_functor,
    identity_functor,
    factorize,
    cofactorize,
    polar_unitary,
    AdditiveHull,
    additive_hull,
    column_sup_norm,
    MatrixAlgebra,
    matrix_algebra,
    IdempotentCompletion,
    idempotent_completion,
)
from .multipliers import (
    MultiplierMorphism,
    MultiplierArrays,
    kappa,
    multiplier_space,
    MultiplierCategory,
    multiplier_category,
    involute_multiplier,
    compose_multipliers,
    multiplier_to_arrays,
    multiplier_from_arrays,
    multiplier_norm,
)
from .modules import (
    HilbertModule,
    ModuleElement,
    ModuleOperator,
    representable,
    inner_product,
    act,
    direct_sum,
    single_rank,
    yoneda_element,
    yoneda_operator,
    gram_matrix,
    free_cover,
    split_projection,
    bounded_operator_basis,
    compact_operator_basis,
    unitary_operator_report,
)
from .bimodules import (
    Bimodule,
    BimoduleMap,
    verify_bimodule,
    yoneda_bimodule,
    check_nondegenerate,
    TensorModule,
    tensor_module_bimodule,
    QuotientTensor,
    tensor_quotient_oracle,
    tensor_cross_check,
    tensor_bimodule_bimodule,
    associator,
    left_unitor,
    right_unitor,
)
from .morita import (
    BiHilbertData,
    check_full,
    check_imprimitivity,
    ConjugateBimodule,
    conjugate_bimodule,
    morita_target_map,
    morita_source_map,
    mat_equivalence,
    eilenberg_watts_map,
    WhiskeredTransform,
    whisker_transform,
)
from .generators import (
    FiniteGroupoid,
    groupoid_category,
    BlockStructure,
    random_block_category,
    random_module,
    random_subprojection,
    bimodule_from_functor,
    unitary_twist_functor,
)

__version__ = "0.1.0"
