"""Logics of first-order constraints over finite sets and multigraphs.

The engine is organized bottom-up:

* `lfoc.category`: finite sets/graphs, morphisms, hom sets, pushouts.
* `lfoc.footprint`: feature symbols, structures, registries, and the
  `Verdict` every check returns.
* `lfoc.expr`: feature expressions and solution-set semantics.
* `lfoc.sketch`: constraints, sketches, interpretations, entailment.
* `lfoc.rules`: sketch rules, saturation, soundness, closedness.
* `lfoc.dsl` / `lfoc.cli`: the textual surface (.lfoc files).
"""

from .category import (
    CatObject,
    CategoryError,
    EnumerationLimitError,
    FinGraph,
    FinSet,
    Morphism,
    PushoutResult,
    compose,
    hom_set,
    identity,
    inclusion,
    initial_morphism,
    initial_object,
    inverse,
    is_extension,
    isomorphisms,
    morphism,
    objects_isomorphic,
    pushout,
)
from .expr import (
    And,
    Atomic,
    Bot,
    CondExists,
    CondForall,
    Expr,
    Not,
    Or,
    Top,
    atom,
    bot,
    canonicalize,
    cond_exists,
    cond_forall,
    conj,
    disj,
    exists_along,
    exprs_equivalent,
    forall_along,
    holds,
    implies,
    is_constructive,
    neg,
    solutions,
    substitute,
    top,
    wf_check,
)
from .dsl import (
    Document,
    ParseError,
    format_morphism_literal,
    parse_document,
    parse_morphism_literal,
    parse_path,
    print_document,
)
from .footprint import (
    CarrierBounds,
    Footprint,
    Structure,
    StructureRegistry,
    Verdict,
    enumerate_structures,
    is_structure_hom,
    structures_isomorphic,
    validate_structure,
)
from .rules import (
    AppliedRule,
    EquivalenceResult,
    MatchError,
    SaturationLimits,
    SaturationResult,
    SketchRule,
    apply_rule,
    axiom_filtered_registry,
    check_equivalence,
    find_matches,
    fold_conjunction_rule,
    intro_rule,
    is_closed,
    is_conservative,
    is_match,
    is_sound,
    modus_ponens_rule,
    saturate,
    unfold_conjunction_rule,
)
from .sketch import (
    Constraint,
    Interpretation,
    Sketch,
    check_initial_model,
    check_satisfaction_condition,
    check_sketch_morphism,
    entails,
    models,
    reduct,
    satisfies,
    sketch_pushout,
    sketches_isomorphic,
    structure_to_sketch_max,
    structure_to_sketch_min,
    translate_constraint,
)

__version__ = "0.1.0"
