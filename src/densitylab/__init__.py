"""densitylab: exact asymptotic densities of symbolic integer sets,
dominance hierarchies on infinite utility streams, representable welfare
functions, and truncation-verified stream constructions."""

__version__ = "0.1.0"

from .densities import DensityResult, UndecidedError, density, sym_diff_finite
from .dominance import (
    CHAIN_ORDER,
    DOMINANCE_PREDICATES,
    anonymity_equivalent,
    implication_chain_report,
    lex_compare,
    suppes_sen_compare,
)
from .dsl import parse_permutation, parse_set, parse_stream, format_permutation, format_set, format_stream
from .indexsets import (
    INFINITE,
    NAT,
    ArithProg,
    BlockPattern,
    Compl,
    Diff,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    IndexSet,
    Inter,
    Interval,
    Union,
    count,
    finiteness,
    member,
    nth_element,
)
from .streams import (
    FinitePermutation,
    Permuted,
    Piecewise,
    RankFill,
    Stream,
    apply_permutation,
    constant,
    eval_at,
    prefix,
    strict_set,
    weakly_dominates,
)
from .verdicts import RelationVerdict, Status
from .welfare import SwfValue, cesaro_liminf, discounted_sum, induced_compare, liminf_swf, min_swf
