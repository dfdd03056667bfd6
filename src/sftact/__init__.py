"""Exact computations with finite group actions on shifts of finite type.

Reduced-shift invariants, strong shift equivalence certificates and their
transport along action-compatible recodings, Burnside orbit counts of
periodic points, expansivity classification of quotients, and
representation shifts of HNN data with their conjugation reductions.
All arithmetic is exact.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    InputError,
    LimitExceededError,
    PreconditionError,
    SftactError,
)
from .matrices import (
    AbelianGroupInvariants,
    IntMatrix,
    IntPolynomial,
    bowen_franks,
    char_poly_reciprocal,
    mat_mul,
    poly_divides,
    poly_lcm,
    smith_normal_form,
    trace_of_power,
    trace_sequence,
)
from .sft import (
    CycleWord,
    Path,
    SftPresentation,
    enumerate_cycles,
    higher_block,
    is_irreducible,
    shortest_path,
    trim_essential,
)
from .action import (
    OrbitStructure,
    PermGroup,
    PermutationAction,
    fixed_submatrix,
    group_from_generators,
    orbit_structure,
    validate_action,
    word_stabilizer,
)
from .reduce import (
    OneBlockCode,
    ReducedShift,
    build_eta,
    left_reduce,
    right_reduce,
)
from .sse import (
    ActionFactorSquare,
    ElementarySse,
    SplitData,
    SseChain,
    TwoBlockConjugacy,
    factor_square,
    higher_block_action,
    identity_sse,
    in_split,
    induced_conjugacy,
    out_split,
    transport_certificate,
    verify_chain,
    verify_elementary_sse,
)
from .quotient import (
    NonexpansiveWitness,
    OrbitCountReport,
    QuotientClassification,
    burnside_counts,
    classify_quotient,
    nonexpansive_witness,
    quotient_period_counts,
    recurrence_holds,
)
from .repshift import (
    FiniteGroupTable,
    HnnData,
    RepShift,
    TqftMatrix,
    build_repshift,
    cyclic_group,
    dihedral_group,
    enumerate_homs,
    evaluate_word,
    fibered_preset,
    flat_bundle_counts,
    preset_alexander_polynomial,
    quaternion_group,
    symmetric_group,
    tqft_matrix,
    trivial_group,
)

__all__ = [name for name in dir() if not name.startswith("_")]
