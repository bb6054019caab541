"""Exact character theory for finite permutation groups."""

from .errors import (
    CharprodError,
    ClosureCapExceeded,
    EigensplitStall,
    EmptyGeneratorSet,
    GroupMismatch,
    HypothesisNotMet,
    IntegralityViolation,
    LiftInconsistent,
    NoCorrespondent,
    NotACharacter,
    NotAPGroup,
    NotASubgroup,
    NotNormal,
    NotUnique,
    ParseError,
    SearchExhausted,
    UnknownId,
)
from .perm import (
    Group,
    Permutation,
    Subgroup,
    direct_product,
    group_closure,
    parse_generators,
    parse_permutation,
)
from .cyclotomic import Cyclotomic
from .charops import (
    ClassFunction,
    Decomposition,
    InducedContext,
    center_of,
    clifford_correspondent,
    conjugate_character,
    decompose,
    induce,
    inner_product,
    irr_lying_over,
    kernel_of,
    linear_characters,
    principal_character,
    product,
    restrict,
    stabilizer_and_orbit,
    vanishing_off,
)
from .chartab import CharacterTable, class_constants, dixon_table, verify_orthogonality
from .structure import (
    NormalLattice,
    QuotientMap,
    chief_factor_above,
    normal_lattice,
    normals_of_index,
    quotient,
)
from .catalog import GroupSpec, builtin, builtin_ids, load_manifest, parse_group
from .verify import (
    GroupReport,
    MonomialWitness,
    SuiteReport,
    check_eta_bound,
    check_lemma_counting,
    check_theorem_A,
    check_theorem_B,
    check_theorem_C,
    monomial_witness_search,
    run_suite,
)

__version__ = "0.1.0"
