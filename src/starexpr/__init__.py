"""Star expressions over pluggable branching theories.

The package decides behavioural equivalence of loop expressions whose
branching is drawn from a configurable theory (nondeterministic, guarded,
convex, guarded-convex, or semiring-weighted), and extracts expressions back
out of finite well-layered systems.
"""

from .errors import (
    DocumentError, LayeringError, LimitExceededError, ParseError,
    StarexprError, TheoryMismatchError, UnboundVariableError,
)
from .theory import (
    MVal, STerm, SOp, SVar, TheoryConfig, eta, eval_term, mval_map,
    parse_selector, reify, split, supp,
)
from .syntax import Act, Expr, Seq, Star, TOp, compute_U, parse, print_expr, star_height
from .semantics import (
    State, System, TICK, export_dot, export_system, load_system, reachable, step,
)
from .bisim import brute_bisim, decide_equiv, minimize, refine
from .layering import (
    Labelling, check_well_layered, loops_around, measures, search_labelling,
    syntactic_labelling,
)
from .solve import (
    canonical_solution, check_solution, factorize, roundtrip, tau,
)

__version__ = "0.1.0"
