"""Small-step semantics and finite transition systems.

A system's transition function sends each state to a branching value over
pairs (action, target), where a target is either another state or the
acceptance marker tick.  Expressions carry a syntactic system structure via
`step`; `reachable` carves out the finite subsystem generated by one
expression, interning expressions as states.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .errors import DocumentError
from .syntax import Act, Expr, Seq, Star, TOp, print_expr, same_syntax
from .theory import (
    MVal, Record, TheoryConfig, _doc_key, _set, eta, eval_term, mval_map, parse_selector,
    row_support, supp,
)


class Tick:
    """The acceptance target."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "✓"

    def sort_key(self):
        return ()


TICK = Tick()


class State(Record):
    """A state reference inside a transition value."""

    __slots__ = ("sid",)

    def __init__(self, sid: str):
        _set(self, "sid", sid)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.sid == other.sid
        return NotImplemented

    def __hash__(self):
        return hash((self.sid,))

    def sort_key(self):
        return (self.sid,)

    def __repr__(self):
        return f"State({self.sid})"


# ---------------------------------------------------------------------------
# the step function


def step(cfg: TheoryConfig, e: Expr) -> MVal:
    """One transition step: a branching value over (action, tick-or-Expr).

    Branching operators evaluate into the free algebra; sequencing pushes
    the continuation into every target; the loop former ties its body's
    accepting branches back to itself through the loop term.

    Steps are cached by expression equality, under which guards written
    differently are equal; but a step's targets are built from the
    expression stepped and print as it was written, so a cached step is
    served only for the same syntax, and computed anew otherwise.
    """
    source, m = _step(cfg, e)
    if source is e or same_syntax(source, e):
        return m
    return _step_of(cfg, e)


@lru_cache(maxsize=1 << 17)
def _step(cfg: TheoryConfig, e: Expr) -> tuple[Expr, MVal]:
    return e, _step_of(cfg, e)


def _step_of(cfg: TheoryConfig, e: Expr) -> MVal:
    if isinstance(e, Act):
        return eta(cfg, (e.name, TICK))
    if isinstance(e, TOp):
        return cfg.theory.apply(e.sym, [step(cfg, child) for child in e.args])
    if isinstance(e, Seq):
        return mval_map(_push(e.right), step(cfg, e.left))
    if isinstance(e, Star):
        env = {
            "u": mval_map(_push(e), step(cfg, e.body)),
            "v": step(cfg, e.exit),
        }
        return eval_term(cfg, e.loop, env)
    raise TypeError(f"not an expression: {e!r}")


def _push(cont: Expr):
    """Relabel (a, tick) to (a, cont) and (a, f) to (a, f;cont)."""

    def f(pair):
        action, tgt = pair
        if tgt is TICK:
            return (action, cont)
        return (action, Seq(tgt, cont))

    return f


# ---------------------------------------------------------------------------
# finite systems


class System:
    """A finite system: ordered states and a total transition map.

    States are dense indices into ``states``.  The transition map is stored
    once, as one flat row per state in the layout of the theory's rows,
    with state targets as indices and the tick target as -1; refinement,
    minimization and the exports read the rows directly, and the theory's
    ``row_value`` reads a row back as a value over (action, State | TICK)
    pairs.

    ``exprs`` carries expression provenance when the system was built by
    `reachable`; imported or minimized systems have none.  Treat instances
    as immutable after construction.
    """

    def __init__(self, cfg: TheoryConfig, states, rows: list, root: str | None = None,
                 exprs: dict[str, Expr] | None = None):
        """A system from rows laid out as by the theory's ``flat_rows``."""
        self.cfg, self.states, self.rows, self.root, self.exprs = \
            cfg, tuple(states), rows, root, exprs
        self._index = None

    # Computed on first read and kept, without the lock that
    # `functools.cached_property` takes; computing it twice gives equal
    # results, so sharing a system between threads stays safe.
    @property
    def index(self) -> dict[str, int]:
        """Each state's position in ``states``."""
        index = self._index
        if index is None:
            index = self._index = {x: i for i, x in enumerate(self.states)}
        return index

    def state_transitions(self) -> list[tuple[str, str, str]]:
        """All state-to-state transitions (src, action, dst), canonically
        ordered; tick transitions are not included."""
        triples = [(i, a, t) for i, row in enumerate(self.rows)
                   for a, t in row_support(row) if t >= 0]
        triples.sort()
        states = self.states
        return [(states[i], a, states[t]) for i, a, t in triples]


def _pair_key(pair):
    """The order `element_sort_key` gives (action, target) pairs, computed
    flat: actions are strings and targets are `Tick`, `State` or `Expr`."""
    action, tgt = pair
    return (action, type(tgt).__name__, tgt.sort_key())


def reachable(cfg: TheoryConfig, e: Expr) -> tuple[System, str]:
    """The smallest subsystem of the syntactic system containing e.

    States are interned expressions (structural equality); ids are assigned
    in breadth-first discovery order, so they are stable within a run.
    """
    sys, roots = reachable_from(cfg, (e,))
    return sys, roots[0]


def reachable_from(cfg: TheoryConfig, roots) -> tuple[System, list[str]]:
    """The smallest subsystem of the syntactic system containing every root.

    Roots are explored breadth-first in the given order, so the first root
    is ``s0`` and is the system's root.  Returns the system and the state
    id of each root (equal roots share one).  Successors are interned as
    state indices straight into the rows.
    """
    intern: dict[Expr, int] = {}
    order: list[Expr] = []
    steps: list[MVal] = []
    for r in roots:
        if r in intern:
            continue
        intern[r] = len(order)
        order.append(r)
        queue = deque([r])
        while queue:
            m = step(cfg, queue.popleft())
            steps.append(m)
            succ = supp(m)
            if len(succ) > 1:  # one successor needs no sort key
                succ = sorted(succ, key=_pair_key)
            for _, tgt in succ:
                if tgt is not TICK and tgt not in intern:
                    intern[tgt] = len(order)
                    order.append(tgt)
                    queue.append(tgt)

    def key(tgt):
        return -1 if tgt is TICK else intern[tgt]

    states = tuple(f"s{i}" for i in range(len(order)))
    sys = System(cfg, states, cfg.theory.flat_rows(steps, key), root="s0",
                 exprs=dict(zip(states, order)))
    return sys, [states[intern[r]] for r in roots]


# ---------------------------------------------------------------------------
# documents


def _target_names(sys: System) -> list[str]:
    """Target ids by index; the tick target, -1, is "✓"."""
    return [*sys.states, "✓"]


def export_system(sys: System) -> dict:
    """The JSON-compatible system document."""
    doc = {
        "theory": sys.cfg.selector(),
        "states": list(sys.states),
    }
    if sys.root is not None:
        doc["root"] = sys.root
    names, row_doc = _target_names(sys), sys.cfg.theory.row_doc
    doc["beta"] = {x: row_doc(row, names) for x, row in zip(sys.states, sys.rows)}
    return doc


def load_system(doc) -> System:
    """Parse and validate a system document."""
    if not isinstance(doc, dict):
        raise DocumentError("system document must be an object")
    missing = {"theory", "states", "beta"} - set(doc)
    if missing:
        raise DocumentError(f"missing keys: {sorted(missing)}")
    if not isinstance(doc["theory"], str):
        raise DocumentError(f"theory must be a selector string, got {doc['theory']!r}")
    try:
        cfg = parse_selector(doc["theory"])
    except ValueError as exc:
        raise DocumentError(f"bad theory selector: {exc}") from None
    raw_states = doc["states"]
    if (not isinstance(raw_states, list)
            or not all(isinstance(s, str) and s and s != "✓" for s in raw_states)
            or len(set(raw_states)) != len(raw_states)):
        raise DocumentError("states must be a list of distinct nonempty ids")
    states = tuple(raw_states)
    state_set = set(states)
    raw_beta = doc["beta"]
    if not isinstance(raw_beta, dict) or raw_beta.keys() != state_set:
        raise DocumentError("beta must be total on the declared states")
    targets = {x: i for i, x in enumerate(states)}
    targets["✓"] = -1
    parse_row, numbers = cfg.theory.parse_row, ({}, {})  # see `theory._parse_weighted`
    rows = [parse_row(raw_beta[x], targets, numbers) for x in states]
    root = doc.get("root")
    if root is not None and (not isinstance(root, str) or root not in state_set):
        raise DocumentError(f"root {root!r} is not a state")
    return System(cfg, states, rows, root=root)


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(sys: System) -> str:
    """GraphViz text: one labelled edge per support element; tick drawn as a
    distinguished terminal node."""
    lines = ["digraph system {", "  rankdir=LR;"]
    if sys.root is not None:
        lines.append("  __start [shape=point];")
    if any(-1 in row[1] for row in sys.rows):
        lines.append('  "✓" [shape=doublecircle];')
    for x in sys.states:
        lines.append(f"  {_dot_quote(x)} [shape=circle];")
    if sys.root is not None:
        lines.append(f"  __start -> {_dot_quote(sys.root)};")
    names, edge_labels = _target_names(sys), sys.cfg.theory.edge_labels
    for x, row in zip(sys.states, sys.rows):
        labels = edge_labels(row, names)
        for pair in sorted(labels, key=_doc_key):
            lines.append(f"  {_dot_quote(x)} -> {_dot_quote(pair[1])} "
                         f"[label={_dot_quote(labels[pair])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def step_doc(cfg: TheoryConfig, m: MVal) -> object:
    """Render a step value with expression targets as printed text."""
    names: list[str] = []

    def key(tgt):
        if tgt is TICK:
            return -1
        names.append(print_expr(tgt))
        return len(names) - 1

    (row,) = cfg.theory.flat_rows([m], key)
    return cfg.theory.row_doc(row, names + ["✓"])
