"""Seeded random generation of terms, expressions and systems.

Everything is driven by a caller-supplied random.Random, so corpora are
reproducible from a seed; the theory object draws operators and values.
Expression sampling is size-bounded: the budget counts expression
constructors (actions, operators, sequencing, stars); loop terms ride along
free but are kept small.
"""

from __future__ import annotations

import random

from .semantics import State, System, TICK
from .syntax import Act, Expr, Seq, Star, TOp
from .theory import SOp, STerm, SVar, SZERO, ScaleSym, TheoryConfig, ZERO

DEFAULT_ACTIONS = ("a", "b", "c")


def rand_term(rng: random.Random, cfg: TheoryConfig, names, size: int) -> STerm:
    """A term over the given variable names with about `size` operators."""
    if size <= 0 or (size > 0 and rng.random() < 0.15):
        if names and rng.random() < 0.85:
            return SVar(rng.choice(names))
        return SZERO
    if ScaleSym in cfg.theory.ops and rng.random() < 0.3:
        return SOp(ScaleSym(cfg.semiring.sample(rng)), (rand_term(rng, cfg, names, size - 1),))
    lsize = rng.randint(0, size - 1)
    return SOp(cfg.theory.rand_binary_sym(rng),
               (rand_term(rng, cfg, names, lsize),
                rand_term(rng, cfg, names, size - 1 - lsize)))


def rand_loop_term(rng: random.Random, cfg: TheoryConfig) -> STerm:
    """A loop term over u, v.  Mostly the plain two-sided branch; sometimes
    degenerate or nested shapes."""
    roll = rng.random()
    if roll < 0.6:
        return SOp(cfg.theory.rand_binary_sym(rng), (SVar("u"), SVar("v")))
    if roll < 0.7:
        return SOp(cfg.theory.rand_binary_sym(rng), (SVar("v"), SVar("u")))
    if roll < 0.8:
        return rand_term(rng, cfg, ("u", "v"), 2)
    if roll < 0.9:
        return SOp(cfg.theory.rand_binary_sym(rng), (SVar("u"), SZERO))
    return SOp(cfg.theory.rand_binary_sym(rng), (SVar("v"), SZERO))


def rand_expr(rng: random.Random, cfg: TheoryConfig, size: int,
              actions=DEFAULT_ACTIONS) -> Expr:
    """A random expression with at most `size` constructors."""
    if size <= 1:
        if rng.random() < 0.1:
            return TOp(ZERO)
        return Act(rng.choice(actions))
    roll = rng.random()
    if roll < 0.1 and ScaleSym in cfg.theory.ops:
        return TOp(ScaleSym(cfg.semiring.sample(rng)),
                   (rand_expr(rng, cfg, size - 1, actions),))
    if roll < 0.35:
        lsize = rng.randint(1, size - 1)
        return TOp(cfg.theory.rand_binary_sym(rng),
                   (rand_expr(rng, cfg, lsize, actions),
                    rand_expr(rng, cfg, size - 1 - lsize, actions)))
    if roll < 0.7:
        lsize = rng.randint(1, size - 1)
        return Seq(rand_expr(rng, cfg, lsize, actions),
                   rand_expr(rng, cfg, size - 1 - lsize, actions))
    lsize = rng.randint(1, size - 1)
    return Star(rand_expr(rng, cfg, lsize, actions),
                rand_loop_term(rng, cfg),
                rand_expr(rng, cfg, size - 1 - lsize, actions))


def corpus(cfg: TheoryConfig, count: int, size: int, seed: int = 0) -> list[Expr]:
    """A reproducible expression corpus with sizes sweeping 1..size."""
    rng = random.Random(f"{seed}:{cfg.selector()}:corpus")
    out = []
    for i in range(count):
        budget = 1 + (i * size) // max(count, 1)
        out.append(rand_expr(rng, cfg, min(budget, size)))
    return out


# ---------------------------------------------------------------------------
# systems


def rand_system(rng: random.Random, cfg: TheoryConfig, n_states: int,
                actions=DEFAULT_ACTIONS) -> System:
    """A random closed system with states s0..s(n-1), root s0."""
    states = tuple(f"s{i}" for i in range(n_states))
    universe = [(a, TICK) for a in actions]
    universe += [(a, State(x)) for a in actions for x in states]
    values = []
    for x in states:
        pool = rng.sample(universe, min(len(universe), rng.randint(2, 5)))
        values.append(cfg.theory.rand_value(rng, pool))
    index = {x: i for i, x in enumerate(states)}
    rows = cfg.theory.flat_rows(values, lambda t: -1 if t is TICK else index[t.sid])
    return System(cfg, states, rows, root="s0")


STANDARD_CONFIGS = (
    "sl",
    "ga:tests=p",
    "ga:tests=p,q",
    "ca",
    "gc:tests=p",
    "smod:nat",
    "smod:bool",
)
