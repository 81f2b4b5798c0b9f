"""Turning well-layered labelled systems back into expressions.

Each state's transition value is split along its labelling into a loop part
(self-loops and entry transitions) and an exit part (body transitions and
acceptance).  The loop part becomes the body of a star, threaded through the
split's two-variable term; entry targets contribute detour expressions that
run until the loop closes.  A state without entry transitions is no loop
entry and gets no star: its expression is its one-step unfolding.  The
result is a solution: every state's expression is provably equivalent to
its one-step unfolding.

The solver reads each state's row and entry steps by index (the theory's
``split_row``), so it builds no values and reads the labelling once; its
cost is linear in the system plus the loops-around relation, without
recursion.
"""

from __future__ import annotations

from .bisim import decide_equiv, minimize
from .errors import LayeringError
from .layering import Labelling, _longest, _well_layered, search_labelling, syntactic_labelling
from .semantics import State, System, TICK, reachable
from .syntax import Act, Expr, Seq, Star, TOp
from .theory import (
    STerm, SVar, TheoryConfig, reify, row_support, split, term_variables,
)

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
    follows the labelling per action, not just the target state.  This
    splits the value, not the row as the solver does, so it checks the
    solver's split with none of its code.
    """
    left = {(a, State(dst)) for src, a, dst in lab.entry if src == x}
    targets = [State(y) for y in sys.states] + [TICK]
    return split(sys.cfg.theory.row_value(sys.rows[sys.index[x]], targets),
                 lambda e: e in left or e[1] == State(x))


def _order(ranks: list[int]) -> list[int]:
    """The order of row targets that `element_sort_key` gives the elements
    they stand for: states by id string (their ranks), then tick (-1)."""
    return ranks + [len(ranks)]


class _Solver:
    """The canonical solution on state indices.  Each state's row is split
    directly, along its entry steps, with (action, target index) pairs as
    term variables; no value is built and the labelling is read once."""

    def __init__(self, sys: System, lab: Labelling):
        self.sys = sys
        # raises unless well layered; without a body cycle, every self-loop
        # is an entry step
        layers = _well_layered(sys, lab)
        self.steps, self.loops = layers.steps, layers.loops
        self.depth = _longest(layers.body, layers.post)
        self.order = _order(layers.rank)
        self.tau_memo: dict[tuple[int, int], Expr] = {}
        # one `Act` per action, as `parse` keeps: each is stepped once
        self.acts = {a: Act(a) for row in sys.rows for a in row[0]}

    def _star(self, i: int, left, right) -> Expr:
        """State i's split as a star, each loop-side support pair (a, t)
        bound to ``left(a, t)`` and each exit-side one to ``right(a, t)``.

        Without loop-side pairs the star would be ``0 *{s} t2``; its one
        step, the term `reify` gives state i's value with every pair bound
        to ``right``, has the same step value and is returned instead."""
        cfg, row = self.sys.cfg, self.sys.rows[i]
        here = self.steps.get(i)
        if not here:
            env = {pair: right(*pair) for pair in row_support(row)}
            return sterm_to_expr(cfg.theory.reify_row(row, self.order), env)
        s, t1, t2 = cfg.theory.split_row(row, self.order, here)
        env = {pair: left(*pair) if pair in here else right(*pair)
               for pair in row_support(row)}
        return Star(sterm_to_expr(t1, env), s, sterm_to_expr(t2, env))

    def tau(self, y: int, x: int) -> Expr:
        """The detour from y back around to x; x loops around to y.

        A detour needs the detours of y's loop-side steps back to y and of
        its exit-side steps back to x first.  They are built bottom up from
        an explicit stack, so nested detours set no recursion depth.

        No detour waits on itself: (loops-around depth of x, body depth of
        y), both finite as the labelling is well layered, falls from each
        detour to those it needs, since x loops around to y for a loop-side
        need (t, y) and y has a body step to t for an exit-side need (t, x)."""
        memo, act = self.tau_memo, self.acts
        root = (y, x)
        stack = [root]
        while stack:
            y, x = key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            here = self.steps.get(y, ())
            needs = []
            for a, t in row_support(self.sys.rows[y]):
                back = y if (a, t) in here else x
                if t != back and t >= 0 and (t, back) not in memo:
                    needs.append((t, back))
            if needs:
                stack += needs
                continue
            # y is no accepting state: x loops around to it
            memo[key] = self._star(
                y, lambda a, t: act[a] if t == y else Seq(act[a], memo[t, y]),
                lambda a, t: act[a] if t == x else Seq(act[a], memo[t, x]))
            stack.pop()
        return memo[root]

    def solve(self) -> SolutionMap:
        phi: list = [None] * len(self.sys.states)
        act = self.acts
        order = sorted(range(len(phi)), key=self.depth.__getitem__)
        for x in order:
            phi[x] = self._star(
                x, lambda a, t: act[a] if t == x else Seq(act[a], self.tau(t, x)),
                lambda a, t: act[a] if t < 0 else Seq(act[a], phi[t]))
        names = self.sys.states
        return {names[x]: phi[x] for x in order}


def tau(sys: System, lab: Labelling, y: str, x: str) -> Expr:
    """Detour expression for a loops-around pair; x must loop around to y."""
    solver = _Solver(sys, lab)
    i, j = sys.index[x], sys.index[y]
    if j not in solver.loops[i]:
        raise LayeringError(f"tau({y!r}, {x!r}) needs {x!r} to loop around to {y!r}")
    return solver.tau(j, i)


def canonical_solution(sys: System, lab: Labelling) -> SolutionMap:
    """The canonical solution of a well-layered labelled system; any other
    labelling raises LayeringError naming the condition it violates.

    Solutions are reduced: only a state or detour with entry steps is a
    star, and the terms of `split` and `reify` carry no unit weights and no
    full-mass choices against 0.

    States are processed by ascending body-path depth, so exit parts only
    refer to already-solved states; detours follow the lexicographic (loop
    depth, body depth) descent, built bottom up and memoized.  Every state's
    row is split once, and each detour's once: with the integer core of
    `layering`, the cost is linear in the system plus the loops-around
    relation, and no recursion grows with the system.
    """
    return _Solver(sys, lab).solve()


def check_solution(sys: System, phi: SolutionMap) -> bool:
    """Whether phi satisfies every state's unfolding equation, decided
    semantically."""
    targets = [State(x) for x in sys.states] + [TICK]
    for x, row in zip(sys.states, sys.rows):
        t = reify(sys.cfg.theory.row_value(row, targets))
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
    """Reduce e to its minimized system, label it with the image of e's
    syntactic labelling, solve, and return the expression for the root;
    always provably equivalent to e.

    Where the image is ill layered, as the solver's own check finds, the
    minimized system is labelled by loop elimination instead.  It always
    has a labelling, so finding none is a defect.
    """
    sys, root = reachable(cfg, e)
    msys, h = minimize(sys)
    lab = image_labelling(syntactic_labelling(cfg, e, sys), h, msys)
    try:
        return canonical_solution(msys, lab)[h[root]]
    except LayeringError:  # the image is ill layered
        lab = search_labelling(msys)
    if lab is None:
        raise RuntimeError("loop elimination found no labelling of a minimized system")
    return canonical_solution(msys, lab)[h[root]]
