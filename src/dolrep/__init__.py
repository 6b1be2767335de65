"""Repetition analysis of D0L-systems.

Decides whether a D0L-system (alphabet, endomorphism, axiom) is repetitive
and enumerates the conjugacy classes of all words v such that every power
v^k occurs as a factor of the language.
"""

from .engine import (
    AnalysisReport,
    EngineInvariantError,
    FactorSource,
    PeriodicFactorClass,
    PeriodicFactorGraph,
    analyze,
    is_repetitive,
    periodic_factor_graph,
)
from .morphism import (
    Alphabet,
    D0LSystem,
    LetterClassification,
    Morphism,
    classify_letters,
    compose,
    injectivity_witness,
    is_injective,
    make_system,
)
from .oracle import OracleParams, OracleResourceError, factors_up_to, max_power, observed_classes
from .pushy import Side, bounded_periodic_classes, build_side_graph, cycles, is_pushy, periodic_words
from .simplify import (
    SimplificationChain,
    SimplificationError,
    SimplificationStep,
    code_reduce,
    eliminate_erasing,
    injective_simplification,
    merge_duplicate_images,
)
from .unbounded import first_letter_candidates, lando_periodic_check
from .words import (
    Word,
    canonical_rotation,
    conjugates,
    is_primitive,
    primitive_root,
)

__version__ = "0.1.0"
