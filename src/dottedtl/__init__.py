"""Exact symbolic computation in the dotted Temperley-Lieb category with a
parameterized sl2-action, plus truncated sl2-decomposition of the associated
polynomial-type invariant modules.

Everything is computed over exact rationals; randomized checks are seeded
and every truncated statement carries its depth.
"""

from .ring import (
    E_RING,
    LASAGNA_RING,
    GradedPoly,
    PolyRing,
    QLaurent,
    delta,
    qbinom,
    qfact,
    qint,
)
from .sl2 import (
    BASE_SPEC,
    GENERATORS,
    DtlParams,
    LASAGNA_SPEC,
    Sl2ActionSpec,
    TwistData,
    check_bracket,
    check_flat_twist,
    iterate_f,
)
from .statespace import PolyMatrix, commutator_star
from .words import (
    Combo,
    Word,
    WordError,
    act,
    dotted_spanning_set,
    evaluate_word,
    identity_word,
    matching_matrix,
    matching_to_word,
    noncrossing_matchings,
    random_word,
    verify_relations,
)
from .expr import (
    ExprError,
    normalize_combo,
    normalized_string,
    parse_expr,
    print_combo,
    print_word,
    roundtrip_equal,
)
from .projectors import (
    ProjectorError,
    TrackedMor,
    dn,
    jw,
    jw_bruteforce,
    jw_tracked,
    quiver_check,
    un,
    zn,
    zn_matrix,
)
from .kirby import (
    KirbyError,
    KirbySystem,
    TwistedObject,
    build_kirby,
    composite_check,
    leibniz_closure_check,
    level_twist,
    star_act_twisted,
)
from .rep import (
    ClaimPart,
    DecompositionClaim,
    ModuleTwist,
    RepError,
    TruncatedModule,
    verify_claim,
    zuckerman,
)
from . import lasagna, selftest

__version__ = "0.1.0"

__all__ = [
    "E_RING", "LASAGNA_RING", "GradedPoly", "PolyRing", "QLaurent",
    "delta", "qbinom", "qfact", "qint",
    "BASE_SPEC", "GENERATORS", "LASAGNA_SPEC", "Sl2ActionSpec", "TwistData",
    "check_bracket", "check_flat_twist", "iterate_f",
    "PolyMatrix", "commutator_star",
    "Combo", "DtlParams", "Word", "WordError", "act", "dotted_spanning_set",
    "evaluate_word", "identity_word", "matching_matrix", "matching_to_word",
    "noncrossing_matchings", "random_word", "verify_relations",
    "ExprError", "normalize_combo", "normalized_string",
    "parse_expr", "print_combo", "print_word", "roundtrip_equal",
    "ProjectorError", "TrackedMor", "dn", "jw", "jw_bruteforce",
    "jw_tracked", "quiver_check", "un", "zn", "zn_matrix",
    "KirbyError", "KirbySystem", "TwistedObject", "build_kirby",
    "composite_check", "leibniz_closure_check", "level_twist",
    "star_act_twisted",
    "ClaimPart", "DecompositionClaim", "ModuleTwist", "RepError",
    "TruncatedModule", "verify_claim", "zuckerman",
    "lasagna", "selftest",
]
