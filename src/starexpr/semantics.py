"""Small-step semantics and finite transition systems.

A system's transition function sends each state to a branching value over
pairs (action, target), where a target is either another state or the
acceptance marker tick.  Expressions carry a syntactic system structure via
`step`; `reachable` carves out the finite subsystem generated by one
expression, interning expressions as states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .errors import DocumentError
from .syntax import Act, Expr, Seq, Star, TOp, print_expr
from .theory import (
    MVal, SOp, SVar, TheoryConfig, eta,
    eval_term, mval_map, mval_ga, mval_sl, parse_selector, supp,
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


@dataclass(frozen=True)
class State:
    """A state reference inside a transition value."""

    sid: str

    def sort_key(self):
        return (self.sid,)

    def __repr__(self):
        return f"State({self.sid})"


Target = Tick | State


# ---------------------------------------------------------------------------
# the step function


def step(cfg: TheoryConfig, e: Expr) -> MVal:
    """One transition step: a branching value over (action, tick-or-Expr).

    Branching operators evaluate into the free algebra; sequencing pushes
    the continuation into every target; the loop former ties its body's
    accepting branches back to itself through the loop term.
    """
    return _step(cfg, e)


@lru_cache(maxsize=1 << 17)
def _step(cfg: TheoryConfig, e: Expr) -> MVal:
    if isinstance(e, Act):
        return eta(cfg, (e.name, TICK))
    if isinstance(e, TOp):
        term = SOp(e.sym, tuple(SVar(i) for i in range(len(e.args))))
        env = {i: _step(cfg, child) for i, child in enumerate(e.args)}
        return eval_term(cfg, term, env)
    if isinstance(e, Seq):
        return mval_map(_push(e.right), _step(cfg, e.left))
    if isinstance(e, Star):
        env = {
            "u": mval_map(_push(e), _step(cfg, e.body)),
            "v": _step(cfg, e.exit),
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


@dataclass
class System:
    """A finite system: ordered states and a total transition map.

    ``exprs`` carries expression provenance when the system was built by
    `reachable`; imported or minimized systems have none.  Treat instances
    as immutable after construction.
    """

    cfg: TheoryConfig
    states: tuple[str, ...]
    beta: dict[str, MVal]
    root: str | None = None
    exprs: dict[str, Expr] | None = None

    def actions(self) -> tuple[str, ...]:
        seen = set()
        for m in self.beta.values():
            seen.update(a for a, _ in supp(m))
        return tuple(sorted(seen))

    def accepts(self, x: str) -> bool:
        return any(tgt is TICK for _, tgt in supp(self.beta[x]))

    def state_transitions(self) -> list[tuple[str, str, str]]:
        """All state-to-state transitions (src, action, dst), canonically
        ordered; tick transitions are not included."""
        index = {x: i for i, x in enumerate(self.states)}
        triples = []
        for x in self.states:
            for a, tgt in supp(self.beta[x]):
                if tgt is not TICK:
                    triples.append((x, a, tgt.sid))
        triples.sort(key=lambda t: (index[t[0]], t[1], index[t[2]]))
        return triples


def _pair_key(pair):
    """The order `element_sort_key` gives (action, target) pairs, computed
    flat: actions are strings and targets are `Tick`, `State` or `Expr`."""
    action, tgt = pair
    return (action, type(tgt).__name__, tgt.sort_key())


def _entry_key(entry):
    return _pair_key(entry[0])


def _sorted_support(m: MVal):
    return sorted(supp(m), key=_pair_key)


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
    id of each root (equal roots share one).
    """
    intern: dict[Expr, str] = {}
    order: list[Expr] = []
    steps: dict[Expr, MVal] = {}
    for r in roots:
        if r in intern:
            continue
        intern[r] = f"s{len(intern)}"
        order.append(r)
        queue = deque([r])
        while queue:
            x = queue.popleft()
            m = _step(cfg, x)
            steps[x] = m
            for _, tgt in _sorted_support(m):
                if tgt is not TICK and tgt not in intern:
                    intern[tgt] = f"s{len(intern)}"
                    order.append(tgt)
                    queue.append(tgt)

    def relabel(pair):
        action, tgt = pair
        if tgt is TICK:
            return (action, TICK)
        return (action, State(intern[tgt]))

    states = tuple(intern[x] for x in order)
    beta = {intern[x]: mval_map(relabel, steps[x]) for x in order}
    exprs = {intern[x]: x for x in order}
    return System(cfg, states, beta, root="s0", exprs=exprs), [intern[r] for r in roots]


# ---------------------------------------------------------------------------
# documents


def _target_doc(tgt: Target) -> str:
    return "✓" if tgt is TICK else tgt.sid


def _mvalue_doc(cfg: TheoryConfig, m: MVal):
    kind = cfg.kind
    if kind == "sl":
        pairs = _sorted_support(m)
        return [[a, _target_doc(t)] for a, t in pairs]
    if kind == "ga":
        return {
            atom: (None if entry is None else [entry[0], _target_doc(entry[1])])
            for atom, entry in zip(cfg.atoms, m.data)
        }
    if kind == "ca":
        return _dist_doc(m.data)
    if kind == "gc":
        return {atom: _dist_doc(dist) for atom, dist in zip(cfg.atoms, m.data)}
    sr = cfg.semiring
    return [{"w": sr.format(w), "a": e[0], "t": _target_doc(e[1])}
            for e, w in sorted(m.data, key=_entry_key)]


def _dist_doc(dist):
    return [{"p": str(mass), "a": e[0], "t": _target_doc(e[1])}
            for e, mass in sorted(dist, key=_entry_key)]


def export_system(sys: System) -> dict:
    """The JSON-compatible system document."""
    doc = {
        "theory": sys.cfg.selector(),
        "states": list(sys.states),
    }
    if sys.root is not None:
        doc["root"] = sys.root
    doc["beta"] = {x: _mvalue_doc(sys.cfg, sys.beta[x]) for x in sys.states}
    return doc


def _parse_target(raw, targets: dict[str, Target]) -> Target:
    try:
        return targets[raw]
    except (KeyError, TypeError):
        raise DocumentError(f"dangling state reference: {raw!r}") from None


def _parse_pair(raw, targets) -> tuple:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not isinstance(raw[0], str)):
        raise DocumentError(f"expected [action, target], got {raw!r}")
    return (raw[0], _parse_target(raw[1], targets))


def _parse_number(raw, parse, what: str):
    """Parse a mass or weight; every way it can be malformed ends here."""
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DocumentError(f"bad {what} {raw!r}: {exc}") from None


def _parse_mass(raw) -> Fraction:
    mass = Fraction(raw)
    if mass <= 0:
        raise ValueError("masses must be positive")
    return mass


def _parse_weight(sr, raw):
    w = sr.parse(raw)
    if not sr.contains(w):
        raise ValueError(f"{w!r} is not a {sr.name} weight")
    if w == sr.zero:
        raise ValueError("zero weights must be left out")
    return w


def _parse_weighted(raw, targets, field: str, parse, what: str) -> dict:
    """The {(action, target): weight} map of a list of weighted entries."""
    if not isinstance(raw, list):
        raise DocumentError(f"expected a list of weighted entries, got {raw!r}")
    keys = {field, "a", "t"}
    acc: dict = {}
    for item in raw:
        if not isinstance(item, dict) or item.keys() != keys:
            raise DocumentError(f"expected {{'{field}','a','t'}} entry, got {item!r}")
        w = _parse_number(item[field], parse, what)
        action = item["a"]
        if not isinstance(action, str):
            raise DocumentError(f"action must be a string, got {item!r}")
        pair = (action, _parse_target(item["t"], targets))
        if pair in acc:
            raise DocumentError(f"duplicate weighted pair: {item!r}")
        acc[pair] = w
    return acc


def _parse_dist(raw, targets) -> frozenset:
    acc = _parse_weighted(raw, targets, "p", _parse_mass, "probability")
    total = sum(acc.values())
    if total > 1:
        raise DocumentError(f"total mass {total} exceeds 1")
    return frozenset(acc.items())


def _parse_mvalue(cfg: TheoryConfig, raw, targets: dict) -> MVal:
    """Parse and validate one transition value.  The value is built
    directly: the checks here are all its constructor would make."""
    kind = cfg.kind
    if kind == "sl":
        if not isinstance(raw, list):
            raise DocumentError(f"sl value must be a list, got {raw!r}")
        pairs = [_parse_pair(item, targets) for item in raw]
        if len(set(pairs)) != len(pairs):
            raise DocumentError("duplicate transition pair")
        return mval_sl(cfg, pairs)
    if kind in ("ga", "gc") and (not isinstance(raw, dict) or raw.keys() != set(cfg.atoms)):
        raise DocumentError(f"{kind} value must map every atom of {list(cfg.atoms)}")
    if kind == "ga":
        return mval_ga(cfg, tuple(
            None if raw[atom] is None else _parse_pair(raw[atom], targets)
            for atom in cfg.atoms))
    if kind == "ca":
        return MVal(cfg, _parse_dist(raw, targets))
    if kind == "gc":
        return MVal(cfg, tuple(_parse_dist(raw[atom], targets) for atom in cfg.atoms))
    parse = partial(_parse_weight, cfg.semiring)
    return MVal(cfg, frozenset(_parse_weighted(raw, targets, "w", parse, "weight").items()))


def load_system(doc) -> System:
    """Parse and validate a system document."""
    if not isinstance(doc, dict):
        raise DocumentError("system document must be an object")
    missing = {"theory", "states", "beta"} - set(doc)
    if missing:
        raise DocumentError(f"missing keys: {sorted(missing)}")
    try:
        cfg = parse_selector(doc["theory"])
    except (ValueError, TypeError, AttributeError) as exc:
        raise DocumentError(f"bad theory selector: {exc}") from None
    raw_states = doc["states"]
    if (not isinstance(raw_states, list)
            or not all(isinstance(s, str) and s and s != "✓" for s in raw_states)
            or len(set(raw_states)) != len(raw_states)):
        raise DocumentError("states must be a list of distinct nonempty ids")
    states = tuple(raw_states)
    state_set = set(states)
    raw_beta = doc["beta"]
    if not isinstance(raw_beta, dict) or set(raw_beta) != state_set:
        raise DocumentError("beta must be total on the declared states")
    targets: dict[str, Target] = {x: State(x) for x in states}
    targets["✓"] = TICK
    beta = {x: _parse_mvalue(cfg, raw_beta[x], targets) for x in states}
    root = doc.get("root")
    if root is not None and root not in state_set:
        raise DocumentError(f"root {root!r} is not a state")
    return System(cfg, states, beta, root=root)


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_label(cfg: TheoryConfig, m: MVal, pair) -> str:
    action, tgt = pair
    kind = cfg.kind
    if kind == "sl":
        return action
    if kind == "ga":
        atoms = [a for a, e in zip(cfg.atoms, m.data) if e == pair]
        return f"{action} [{','.join(atoms)}]"
    if kind == "ca":
        mass = dict(m.data)[pair]
        return f"{action} {mass}"
    if kind == "gc":
        parts = []
        for atom, dist in zip(cfg.atoms, m.data):
            for e, mass in dist:
                if e == pair:
                    parts.append(f"{atom}:{mass}")
        return f"{action} [{','.join(parts)}]"
    return f"{action} w={cfg.semiring.format(dict(m.data)[pair])}"


def export_dot(sys: System) -> str:
    """GraphViz text: one labelled edge per support element; tick drawn as a
    distinguished terminal node."""
    lines = ["digraph system {", "  rankdir=LR;"]
    if sys.root is not None:
        lines.append("  __start [shape=point];")
    has_tick = any(sys.accepts(x) for x in sys.states)
    if has_tick:
        lines.append('  "✓" [shape=doublecircle];')
    for x in sys.states:
        shape = "circle"
        lines.append(f"  {_dot_quote(x)} [shape={shape}];")
    if sys.root is not None:
        lines.append(f"  __start -> {_dot_quote(sys.root)};")
    for x in sys.states:
        m = sys.beta[x]
        for pair in _sorted_support(m):
            label = _edge_label(sys.cfg, m, pair)
            tgt = "✓" if pair[1] is TICK else pair[1].sid
            lines.append(
                f"  {_dot_quote(x)} -> {_dot_quote(tgt)} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def step_doc(cfg: TheoryConfig, m: MVal) -> object:
    """Render a step value with expression targets as printed text."""

    def relabel(pair):
        action, tgt = pair
        if tgt is TICK:
            return (action, TICK)
        return (action, State(print_expr(tgt)))

    return _mvalue_doc(cfg, mval_map(relabel, m))
