"""Exact arithmetic on a tower of number systems built from ordinal normal
forms: ordinals with recursive and natural operations, the hyperoperation
sequence, signed normal forms (surintegers), their fraction field
(surrationals), decidable cut predicates, and the Gaussian extension.
"""

import sys as _sys

# Coefficients are arbitrary precision and legitimately reach tens of
# thousands of digits; lift CPython's int<->str conversion guard so they
# can be printed and parsed.
if hasattr(_sys, "set_int_max_str_digits"):
    if _sys.get_int_max_str_digits() < 2_000_000:
        _sys.set_int_max_str_digits(2_000_000)

from .errors import (
    NO_WITNESS,
    NOT_CYCLIC,
    NOT_DIVISIBLE,
    DivisionByZero,
    FragmentExceeded,
    InvalidLambda,
    NotRepresentable,
    OutOfField,
    ResourceExceeded,
    TransfinitaError,
    Undefined,
    Unsupported,
)
from .ordinal import (
    EQ,
    GT,
    LT,
    OMEGA,
    ONE,
    ZERO,
    BaseExpansion,
    Ordinal,
    OrdinalClass,
    base_expand,
    classify,
    compare,
    ordinal_divmod,
    rec_add,
    rec_mul,
    rec_pow,
    rec_sub_left,
    rec_sum,
    successor,
)
from .natural import (
    ClosureKind,
    is_closure_number,
    nat_add,
    nat_mul,
    nat_sum,
    next_closure,
)
from .hyper import (
    DEFAULT_CONTEXT,
    EvalContext,
    hyperop,
    is_hyper_number,
    next_hyper_number,
    tetration,
)
from .surinteger import (
    CoordinateForm,
    SurInteger,
    cyclic_decompose,
    from_coordinates,
    in_lambda_ring,
    neg,
    si_add,
    si_compare,
    si_gcd,
    si_mul,
    si_sub,
    to_coordinates,
)
from .surrational import (
    SurRational,
    archimedean_witness,
    exact_divide,
    in_lambda_field,
    midpoint,
    q_add,
    q_compare,
    q_div,
    q_eq,
    q_inv,
    q_mul,
    q_neg,
    q_sub,
)
from .cuts import (
    CX_I,
    CX_ONE,
    CX_ZERO,
    GaussianSurRational,
    RationalCut,
    RootClassification,
    RootCut,
    classify_root_cut,
    cut_member,
    cx_add,
    cx_div,
    cx_eq,
    cx_inv,
    cx_mul,
    cx_neg,
)
from .expr import EvalError, evaluate, value_equal
from .parser import Diagnostic, ParseError, parse, try_parse
from .printer import print_canonical, value_tree

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
