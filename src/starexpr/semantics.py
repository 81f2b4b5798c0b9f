"""Small-step semantics and finite transition systems.

A system's transition function sends each state to a branching value over
pairs (action, target), where a target is either another state or the
acceptance marker tick.  Expressions carry a syntactic system structure via
`step`; `reachable` carves out the finite subsystem generated by one
expression, interning its states as heads under stacks of continuations.
"""

from __future__ import annotations

from functools import cmp_to_key, reduce

from .errors import DocumentError
from .syntax import Act, Expr, Seq, Star, TOp, print_expr
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
#
# A state is a head, a subterm that is not a `Seq`, under a stack of
# continuations c1 (the top), ..., ck: ``((head ; c1) ; ...) ; ck``.  It
# moves by its head.  Each target of the head's step is tick, which pops the
# stack, or a local target (head', c1', ..., cj'), read along its left
# spine, which is pushed onto it.  An expression keeps its step
# (``_local``) and, once explored from, its row (``_head``), as it keeps its
# sort key: one of each, for the theory that last asked.  Computing either
# twice gives an equal result, so expressions stay safe to share between
# threads.  A loop names itself in them by `_LOOP`: a reference to itself
# would be a cycle, which only the garbage collector frees.

_LOOP = object()


def _spine(e) -> tuple:
    """e as a local target."""
    conts = []
    while type(e) is Seq:
        conts.append(e.right)
        e = e.left
    return (e, *reversed(conts))


def _under(cont):
    """Relabel (a, tick) to (a, cont) and (a, local) to (a, local + (cont,))."""
    alone = _spine(cont)
    return lambda pair: (pair[0], alone if pair[1] is TICK else pair[1] + (cont,))


def _closed(local, loop):
    """A local target of ``loop``'s step, with the loop for `_LOOP`."""
    return local if local is TICK or local[-1] is not _LOOP else local[:-1] + (loop,)


def _local_step(cfg: TheoryConfig, e: Expr) -> MVal:
    """e's step over (action, local target) pairs, once per expression and
    theory."""
    m = e._local
    if m is not None and (m.cfg is cfg or m.cfg == cfg):
        return m
    if isinstance(e, Act):
        m = eta(cfg, (e.name, TICK))
    elif isinstance(e, TOp):
        m = cfg.theory.apply(e.sym, [_value(cfg, child) for child in e.args])
    elif isinstance(e, Seq):
        if type(e.left) is Act:  # the common ``a ; rest`` steps to rest alone
            m = eta(cfg, (e.left.name, _spine(e.right)))
        else:
            m = mval_map(_under(e.right), _value(cfg, e.left))
    elif isinstance(e, Star):
        m = eval_term(cfg, e.loop, {"u": mval_map(_under(_LOOP), _value(cfg, e.body)),
                                    "v": _value(cfg, e.exit)})
    else:
        raise TypeError(f"not an expression: {e!r}")
    e._local = m
    return m


def _value(cfg: TheoryConfig, e: Expr) -> MVal:
    """e's step as the expressions around e read it: a loop for `_LOOP`."""
    m = _local_step(cfg, e)
    return mval_map(lambda pair: (pair[0], _closed(pair[1], e)), m) if type(e) is Star else m


def step(cfg: TheoryConfig, e: Expr) -> MVal:
    """One transition step: a branching value over (action, tick-or-Expr).

    Branching operators evaluate into the free algebra; sequencing pushes
    the continuation into every target; the loop former ties its body's
    accepting branches back to itself through the loop term.  The targets
    are built from the step e keeps, out of e's own parts, so they print as
    e was written.
    """
    return mval_map(lambda pair: pair if pair[1] is TICK
                    else (pair[0], reduce(Seq, pair[1][1:], pair[1][0])), _value(cfg, e))


def _as_head(cfg: TheoryConfig, e: Expr) -> tuple:
    """(e's step, its distinct local targets, its row with their indices as
    targets, their order), kept on e.  The targets are ordered by action,
    and those that share an action by `_target_key`, so a state's
    successors are ordered by its head alone, whatever its stack."""
    m = _local_step(cfg, e)
    hd = e._head
    if hd is None or hd[0] is not m:
        index: dict = {}  # local targets numbered as met
        row = cfg.theory.flat_rows([m], lambda t: index.setdefault(t, len(index)))[0]
        targets, by_action = list(index), {}
        for a, k in row_support(row):
            by_action.setdefault(a, []).append(k)
        order = []
        for a in sorted(by_action):
            ks = by_action[a]
            if len(ks) > 1:
                ks.sort(key=lambda k: _by_key(_target_key(targets[k])))
            order += ks
        hd = e._head = (m, targets, row, list(dict.fromkeys(order)))
    return hd


def _target_key(local) -> tuple:
    """Tick first, then a local target by its parts' sort keys; `_LOOP`'s
    key, (4,), is no expression's."""
    return () if local is TICK else tuple((4,) if x is _LOOP else x.sort_key() for x in local)


def _compare(x: tuple, y: tuple) -> int:
    """-1, 0 or 1 as sort key x orders before, with or after y, as tuples
    compare, but from an explicit stack: keys nest as deeply as their
    expressions, and CPython compares tuples recursively.  Each level is
    walked from where it was left, and identical parts are equal without a
    walk; a level whose parts are all equal orders the shorter first."""
    walks = [(zip(x, y), len(x) - len(y))]
    while walks:
        for a, b in walks[-1][0]:
            if a is b:
                continue
            if type(a) is tuple and type(b) is tuple:
                walks.append((zip(a, b), len(a) - len(b)))
                break
            if a != b:
                return -1 if a < b else 1
        else:
            d = walks.pop()[1]
            if d:
                return -1 if d < 0 else 1
    return 0


_by_key = cmp_to_key(_compare)


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

    ``provenance``, for a system built by `reachable`, holds each state's
    head, stack id and head's `_as_head` record, and the stack cells
    (continuation, stack id below; id 0 is the empty stack).  Treat
    instances as immutable after construction.
    """

    def __init__(self, cfg: TheoryConfig, states, rows: list, root: str | None = None,
                 provenance: tuple | None = None):
        """A system from rows laid out as by the theory's ``flat_rows``."""
        self.cfg, self.states, self.rows, self.root, self.provenance = \
            cfg, tuple(states), rows, root, provenance
        self._index = self._exprs = None

    # Computed on first read and kept, without the lock that
    # `functools.cached_property` takes; computing them twice gives equal
    # results, so sharing a system between threads stays safe.
    @property
    def index(self) -> dict[str, int]:
        """Each state's position in ``states``."""
        index = self._index
        if index is None:
            index = self._index = {x: i for i, x in enumerate(self.states)}
        return index

    @property
    def exprs(self) -> dict[str, Expr] | None:
        """Each state's expression, its head under its stack, when the
        system was built by `reachable`."""
        if self._exprs is None and self.provenance is not None:
            heads, stacks, cells, _ = self.provenance
            conts = {0: ()}  # each stack's continuations, top first
            for s in range(1, len(cells)):  # a cell comes after the stack below it
                conts[s] = (cells[s][0], *conts[cells[s][1]])
            self._exprs = {x: reduce(Seq, conts[s], e)
                           for x, e, s in zip(self.states, heads, stacks)}
        return self._exprs

    def state_transitions(self) -> list[tuple[str, str, str]]:
        """All state-to-state transitions (src, action, dst), canonically
        ordered; tick transitions are not included."""
        triples = [(i, a, t) for i, row in enumerate(self.rows)
                   for a, t in row_support(row) if t >= 0]
        triples.sort()
        states = self.states
        return [(states[i], a, states[t]) for i, a, t in triples]


def _loop_steps(sys: System):
    """(state, action, target) index triples of a system built by
    `reachable`: the steps that a state whose head is a loop takes through
    its body, those whose local target runs the loop after it."""
    heads, _, _, steps = sys.provenance
    for i, (head, hd) in enumerate(zip(heads, steps)):
        if type(head) is Star:
            targets, row = hd[1], hd[2]
            for a, k, j in zip(row[0], row[1], sys.rows[i][1]):
                if targets[k] is not TICK and targets[k][-1] is _LOOP:
                    yield i, a, j


def reachable(cfg: TheoryConfig, e: Expr) -> tuple[System, str]:
    """The smallest subsystem of the syntactic system containing e.

    States are expressions up to equality; ids are assigned in
    breadth-first discovery order, so they are stable within a run.
    """
    sys, roots = reachable_from(cfg, (e,))
    return sys, roots[0]


def reachable_from(cfg: TheoryConfig, roots) -> tuple[System, list[str]]:
    """The smallest subsystem of the syntactic system containing every root.

    Roots are explored breadth-first in the given order, each state's
    successors in its head's order, so the first root is ``s0`` and is
    the system's root.  Returns the system and the state
    id of each root (equal roots share one).  A state is a (head, stack id)
    pair, and its row is its head's row with the local targets mapped to
    states.  Stacks are cells interned for this exploration.
    """
    heads, stacks, steps, rows, cells = [], [], [], [], [None]
    cell_ids: dict = {}  # (continuation, stack id below) -> stack id
    intern: dict = {}  # (head, stack id) -> state index

    def enter(local, s):
        for cont in local[:0:-1]:
            cell = (cont, s)
            s = cell_ids.get(cell)
            if s is None:
                s = cell_ids[cell] = len(cells)
                cells.append(cell)
        i = intern.setdefault((local[0], s), len(heads))
        if i == len(heads):
            heads.append(local[0])
            stacks.append(s)
        return i

    ids, i = [], 0
    for r in roots:
        ids.append(enter(_spine(r), 0))
        while i < len(heads):
            h, s = heads[i], stacks[i]
            hd = h._head  # kept from an earlier exploration, or made now
            if hd is None or hd[0] is not h._local or hd[0].cfg is not cfg:
                hd = _as_head(cfg, h)
            steps.append(hd)
            i += 1
            _, targets, row, order = hd
            top, tail = cells[s] if s else (None, 0)
            tmap = [-1] * len(targets)
            for k in order:
                local = targets[k]
                if local is not TICK:
                    tmap[k] = enter(_closed(local, h), s)
                elif s:
                    tmap[k] = enter(_spine(top), tail)
            rows.append((row[0], tuple(map(tmap.__getitem__, row[1])), *row[2:]))

    states = tuple(f"s{i}" for i in range(len(heads)))
    sys = System(cfg, states, rows, root="s0", provenance=(heads, stacks, cells, steps))
    return sys, [states[i] for i in ids]


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
