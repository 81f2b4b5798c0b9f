"""Turning well-layered labelled systems back into expressions.

Each state's transition value is split along its labelling into a loop part
(self-loops and entry transitions) and an exit part (body transitions and
acceptance).  The loop part becomes the body of a star, threaded through the
split's two-variable term; entry targets contribute detour expressions that
run until the loop closes.  The result is a solution: every state's
expression is provably equivalent to its one-step unfolding.
"""

from __future__ import annotations

from .bisim import decide_equiv, minimize
from .errors import LayeringError, LimitExceededError, StarexprError
from .layering import (
    Labelling, _loops_and_measures, check_well_layered, search_labelling,
    syntactic_labelling,
)
from .semantics import System, TICK, reachable
from .syntax import Act, Expr, Seq, Star, TOp
from .theory import STerm, SVar, TheoryConfig, reify, split, term_variables

SolutionMap = dict[str, Expr]


def sterm_to_expr(t: STerm, env: dict) -> Expr:
    """Instantiate a term's variables with expressions."""
    if isinstance(t, SVar):
        return env[t.name]
    return TOp(t.sym, tuple(sterm_to_expr(a, env) for a in t.args))


def factorize(sys: System, lab: Labelling, x: str) -> tuple[STerm, STerm, STerm]:
    """Split beta(x) into loop and exit parts.

    The left part collects support pairs whose target is x itself or an
    entry target of x; body targets and acceptance go right.  Classification
    follows the labelling per action, not just the target state.
    """
    entry_here = {(a, dst) for (src, a, dst) in lab.entry if src == x}

    def in_left(pair):
        action, tgt = pair
        return tgt is not TICK and (tgt.sid == x or (action, tgt.sid) in entry_here)

    return split(sys.beta[x], in_left)


class _Solver:
    def __init__(self, sys: System, lab: Labelling):
        self.sys = sys
        self.lab = lab
        self.loops, self.meas = _loops_and_measures(sys, lab)  # raises on ill-layered input
        self.tau_memo: dict[tuple[str, str], Expr] = {}
        self.tau_running: set[tuple[str, str]] = set()

    def tau(self, y: str, x: str) -> Expr:
        """The detour from y back around to x."""
        if (x, y) not in self.loops:
            raise LayeringError(f"tau({y!r}, {x!r}) needs {x!r} to loop around to {y!r}")
        key = (y, x)
        if key in self.tau_memo:
            return self.tau_memo[key]
        if key in self.tau_running:
            raise LayeringError(
                f"cyclic recursion at tau({y!r}, {x!r}); labelling is not well-layered")
        self.tau_running.add(key)
        s, t1, t2 = factorize(self.sys, self.lab, y)
        env = {}
        for pair in term_variables(t1):
            action, tgt = pair
            env[pair] = Act(action) if tgt.sid == y \
                else Seq(Act(action), self.tau(tgt.sid, y))
        for pair in term_variables(t2):
            action, tgt = pair
            if tgt is TICK:
                raise LayeringError(
                    f"{y!r} accepts although {x!r} loops around to it")
            env[pair] = Act(action) if tgt.sid == x \
                else Seq(Act(action), self.tau(tgt.sid, x))
        out = Star(sterm_to_expr(t1, env), s, sterm_to_expr(t2, env))
        self.tau_running.discard(key)
        self.tau_memo[key] = out
        return out

    def solve(self) -> SolutionMap:
        phi: SolutionMap = {}
        for x in sorted(self.sys.states, key=lambda s: (self.meas[s][1], self.sys.states.index(s))):
            s, t1, t2 = factorize(self.sys, self.lab, x)
            env = {}
            for pair in term_variables(t1):
                action, tgt = pair
                env[pair] = Act(action) if tgt.sid == x \
                    else Seq(Act(action), self.tau(tgt.sid, x))
            for pair in term_variables(t2):
                action, tgt = pair
                env[pair] = Act(action) if tgt is TICK \
                    else Seq(Act(action), phi[tgt.sid])
            phi[x] = Star(sterm_to_expr(t1, env), s, sterm_to_expr(t2, env))
        return phi


def tau(sys: System, lab: Labelling, y: str, x: str) -> Expr:
    """Detour expression for a loops-around pair; x must loop around to y."""
    return _Solver(sys, lab).tau(y, x)


def canonical_solution(sys: System, lab: Labelling) -> SolutionMap:
    """The canonical solution of a well-layered labelled system.

    States are processed by ascending body-path depth, so exit parts only
    refer to already-solved states; detours recurse along the lexicographic
    (loop depth, body depth) descent and are memoized.
    """
    return _Solver(sys, lab).solve()


def check_solution(sys: System, phi: SolutionMap) -> bool:
    """Whether phi satisfies every state's unfolding equation, decided
    semantically."""
    for x in sys.states:
        t = reify(sys.beta[x])
        env = {}
        for pair in term_variables(t):
            action, tgt = pair
            env[pair] = Act(action) if tgt is TICK \
                else Seq(Act(action), phi[tgt.sid])
        unfolding = sterm_to_expr(t, env)
        if not decide_equiv(sys.cfg, phi[x], unfolding):
            return False
    return True


def image_labelling(lab: Labelling, h: dict[str, str], target: System) -> Labelling:
    """Push a labelling through a homomorphism onto its image."""
    present = set(target.state_transitions())
    entry = frozenset(
        (h[x], a, h[y]) for (x, a, y) in lab.entry if (h[x], a, h[y]) in present)
    return Labelling(entry)


def roundtrip(cfg: TheoryConfig, e: Expr) -> Expr:
    """Reduce e to its minimized system, re-label, solve, and return the
    expression for the root; always provably equivalent to e.

    When the minimized system is too large for labelling search, the image
    of the syntactic labelling is used if it verifies; otherwise the bound
    error propagates rather than guessing.
    """
    sys, root = reachable(cfg, e)
    msys, h = minimize(sys)
    try:
        lab = search_labelling(msys)
    except LimitExceededError:
        candidate = image_labelling(syntactic_labelling(cfg, e, sys), h, msys)
        if not check_well_layered(msys, candidate):
            raise
        lab = candidate
    if lab is None:
        raise StarexprError(
            "no well-layered labelling exists for a minimized reachable system; "
            "this contradicts closure under homomorphic images")
    phi = canonical_solution(msys, lab)
    return phi[h[root]]


def simplify(e: Expr) -> Expr:
    """Cosmetic post-pass: a star whose loop term never takes the loop
    variable unrolls to its exit side.  Justified by the unrolling axiom."""
    if isinstance(e, TOp):
        return TOp(e.sym, tuple(simplify(a) for a in e.args))
    if isinstance(e, Seq):
        return Seq(simplify(e.left), simplify(e.right))
    if isinstance(e, Star):
        body = simplify(e.body)
        exit_ = simplify(e.exit)
        if "u" not in term_variables(e.loop):
            return sterm_to_expr(e.loop, {"v": exit_})
        return Star(body, e.loop, exit_)
    return e
