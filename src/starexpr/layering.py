"""Entry/body labellings of finite systems.

A labelling partitions the state-to-state transitions into loop-entry and
body transitions (tick transitions stay unclassified).  A labelling is
well layered when: (1) body transitions are acyclic, (2) every entry
transition to a different state can return to its source through body
transitions, (3) the loops-around relation is acyclic, and (4) no state that
something loops around to can accept.  Well-layered systems are exactly the
ones the solver can turn back into expressions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import DocumentError, LayeringError, LimitExceededError
from .semantics import System, TICK, step
from .syntax import Expr, Seq, Star
from .theory import TheoryConfig, supp

SEARCH_TRANSITION_BOUND = 20


@dataclass(frozen=True)
class Labelling:
    """The loop-entry transitions; everything else state-to-state is body."""

    entry: frozenset[tuple[str, str, str]]

    def entry_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((x, y) for x, _, y in self.entry)


@dataclass(frozen=True)
class LayerVerdict:
    """Outcome of the well-layeredness check; condition 1-4 plus a witness
    when violated."""

    ok: bool
    condition: int | None = None
    witness: object = None

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return f"violated condition {self.condition}: {self.witness}"


# ---------------------------------------------------------------------------
# the syntactic labelling


def syntactic_labelling(cfg: TheoryConfig, e: Expr, sys: System) -> Labelling:
    """The labelling of a reachable system derived from its expressions.

    Entry transitions are exactly: a loop stepping to itself because its body
    accepts; a loop stepping into a body remainder that can terminate; and
    those two lifted through left factors of sequencing.
    """
    if sys.exprs is None:
        raise LayeringError("states lack expression provenance")
    intern = {expr: sid for sid, expr in sys.exprs.items()}
    present = set(sys.state_transitions())
    term_cache: dict[Expr, bool] = {}
    entry = set()
    for sid, expr in sys.exprs.items():
        for action, target in _entry_pairs(cfg, expr, term_cache):
            tid = intern.get(target)
            if tid is not None and (sid, action, tid) in present:
                entry.add((sid, action, tid))
    return Labelling(frozenset(entry))


def _entry_pairs(cfg, e, term_cache):
    if isinstance(e, Star):
        out = set()
        for action, tgt in supp(step(cfg, e.body)):
            if tgt is TICK:
                out.add((action, e))
            elif _terminates(cfg, tgt, term_cache):
                out.add((action, Seq(tgt, e)))
        return out
    if isinstance(e, Seq):
        return {(action, Seq(f, e.right))
                for action, f in _entry_pairs(cfg, e.left, term_cache)}
    return set()


def _terminates(cfg, e, cache) -> bool:
    """Whether e can reach acceptance in one or more steps."""
    if e in cache:
        return cache[e]
    seen = {e}
    queue = deque([e])
    found = False
    while queue and not found:
        x = queue.popleft()
        if cache.get(x) is False:
            continue  # nothing reachable from x ticks
        for _, tgt in supp(step(cfg, x)):
            if tgt is TICK:
                found = True
                break
            if tgt not in seen:
                seen.add(tgt)
                queue.append(tgt)
    if found:
        cache[e] = True
    else:
        # the whole explored region is tick-free, so every node in it is too
        for x in seen:
            cache[x] = False
    return found


# ---------------------------------------------------------------------------
# checking


def _pair_graph(pairs) -> dict:
    adj: dict = {}
    for x, y in pairs:
        adj.setdefault(x, []).append(y)
    for x in adj:
        adj[x].sort()
    return adj


def _find_cycle(nodes, adj):
    """A cycle as a node list, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {x: WHITE for x in nodes}
    parent: dict = {}
    for start in nodes:
        if colour[start] != WHITE:
            continue
        stack = [(start, iter(adj.get(start, ())))]
        colour[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if colour.get(nxt, BLACK) == WHITE:
                    colour[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
                if colour.get(nxt) == GREY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def _body_returns(src, dst, body_adj) -> bool:
    """Whether dst reaches src through one or more body transitions."""
    seen = set()
    queue = deque(body_adj.get(dst, ()))
    while queue:
        x = queue.popleft()
        if x == src:
            return True
        if x in seen:
            continue
        seen.add(x)
        queue.extend(body_adj.get(x, ()))
    return False


def _body_graph(sys: System, lab: Labelling) -> dict:
    """Adjacency lists of the body transitions, each sorted."""
    return _pair_graph({(x, y) for x, _, y in set(sys.state_transitions()) - lab.entry})


def loops_around(sys: System, lab: Labelling) -> frozenset[tuple[str, str]]:
    """x loops around to y: an entry step from x followed by body steps,
    never revisiting x, ends at y."""
    return _loops_around(sys, lab, _body_graph(sys, lab))


def _loops_around(sys: System, lab: Labelling, body_adj: dict) -> frozenset[tuple[str, str]]:
    out = set()
    for x in sys.states:
        targets = {y for (src, _, y) in lab.entry if src == x and y != x}
        seen = set()
        queue = deque(targets)
        while queue:
            y = queue.popleft()
            if y in seen or y == x:
                continue
            seen.add(y)
            queue.extend(body_adj.get(y, ()))
        out.update((x, y) for y in seen)
    return frozenset(out)


def check_well_layered(sys: System, lab: Labelling) -> LayerVerdict:
    """Check the four well-layeredness conditions, reporting the first
    violated one with a witness."""
    triples = set(sys.state_transitions())
    extra = lab.entry - triples
    if extra:
        raise ValueError(f"entry labels transitions absent from the system: {sorted(extra)}")
    body_pairs = sorted({(x, y) for x, _, y in triples - lab.entry})
    body_adj = _pair_graph(body_pairs)

    cycle = _find_cycle(sys.states, body_adj)
    if cycle is not None:
        return LayerVerdict(False, 1, tuple(cycle))

    for x, y in sorted(lab.entry_pairs()):
        if x != y and not _body_returns(x, y, body_adj):
            return LayerVerdict(False, 2, (x, y))

    loops = _loops_around(sys, lab, body_adj)
    loop_adj = _pair_graph(loops)
    cycle = _find_cycle(sys.states, loop_adj)
    if cycle is not None:
        return LayerVerdict(False, 3, tuple(cycle))

    for x, y in sorted(loops):
        if sys.accepts(y):
            return LayerVerdict(False, 4, (x, y))

    return LayerVerdict(True)


# ---------------------------------------------------------------------------
# measures


def _longest_paths(nodes, adj, what: str) -> dict:
    out: dict = {}
    on_path: set = set()

    def depth(x) -> int:
        if x in out:
            return out[x]
        if x in on_path:
            raise LayeringError(f"cycle through {x!r} in {what}; labelling is not well-layered")
        on_path.add(x)
        best = 0
        for y in adj.get(x, ()):
            best = max(best, 1 + depth(y))
        on_path.discard(x)
        out[x] = best
        return best

    for x in nodes:
        depth(x)
    return out


def measures(sys: System, lab: Labelling) -> dict[str, tuple[int, int]]:
    """Per state: (longest loops-around chain, longest body path).

    Both are finite exactly when the labelling is well layered; a cycle in
    either graph raises LayeringError.
    """
    return _loops_and_measures(sys, lab)[1]


def _loops_and_measures(sys: System, lab: Labelling):
    """`loops_around` and `measures` from one body graph."""
    body_adj = _body_graph(sys, lab)
    loops = _loops_around(sys, lab, body_adj)
    bo = _longest_paths(sys.states, body_adj, "body transitions")
    en = _longest_paths(sys.states, _pair_graph(loops), "the loops-around relation")
    return loops, {x: (en[x], bo[x]) for x in sys.states}


# ---------------------------------------------------------------------------
# search


def _pair_level_ok(states, accepts, all_pairs, entry_pairs) -> bool:
    body = all_pairs - entry_pairs
    body_adj = _pair_graph(body)
    if _find_cycle(states, body_adj) is not None:
        return False
    for x, y in entry_pairs:
        if x != y and not _body_returns(x, y, body_adj):
            return False
    loops = set()
    for x in states:
        targets = {y for (src, y) in entry_pairs if src == x and y != x}
        seen = set()
        queue = deque(targets)
        while queue:
            y = queue.popleft()
            if y in seen or y == x:
                continue
            seen.add(y)
            queue.extend(body_adj.get(y, ()))
        loops.update((x, y) for y in seen)
    if _find_cycle(states, _pair_graph(loops)) is not None:
        return False
    return all(not accepts[y] for _, y in loops)


def _subsets_by_weight(weights: list[int]):
    """All index subsets, ordered by total weight (ties: deterministic DFS)."""
    n = len(weights)
    suffix = [0] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] + weights[i]

    def rec(i: int, left: int, chosen: tuple):
        if left == 0 and i == n:
            yield chosen
            return
        if i == n or suffix[i] < left:
            return
        yield from rec(i + 1, left, chosen)
        if weights[i] <= left:
            yield from rec(i + 1, left - weights[i], chosen + (i,))

    for target in range(suffix[0] + 1):
        yield from rec(0, target, ())


def _entry_candidates(pairs) -> list[tuple[str, str]]:
    """The pairs that entry sets choose from, in order: no self-loops (they
    are forced entry), and no pair whose target cannot reach its source,
    since such an entry pair fails condition 2 in every entry set.  Dropping
    them keeps the order of the remaining entry sets."""
    adj = _pair_graph(pairs)
    return [(x, y) for x, y in pairs if x != y and _body_returns(x, y, adj)]


def search_labelling(sys: System) -> Labelling | None:
    """Find some well-layered labelling by exhaustive search, or None.

    Entry sets are tried in order of ascending entry-transition count.  The
    search works at source/target-pair granularity: making a partially-entry
    pair all-body never invalidates a labelling, so pair-pure labellings are
    enough for both existence and minimality.  Self-loops are forced entry
    (a body self-loop always breaks condition 1).
    """
    triples = sys.state_transitions()
    if len(triples) > SEARCH_TRANSITION_BOUND:
        raise LimitExceededError(
            f"labelling search is limited to {SEARCH_TRANSITION_BOUND} transitions, "
            f"got {len(triples)}")
    pair_triples: dict[tuple[str, str], list] = {}
    for x, a, y in triples:
        pair_triples.setdefault((x, y), []).append((x, a, y))
    pairs = sorted(pair_triples)
    forced = frozenset(p for p in pairs if p[0] == p[1])
    optional = _entry_candidates(pairs)
    weights = [len(pair_triples[p]) for p in optional]
    all_pairs = frozenset(pairs)
    accepts = {x: sys.accepts(x) for x in sys.states}
    for subset in _subsets_by_weight(weights):
        entry_pairs = forced | {optional[i] for i in subset}
        if _pair_level_ok(sys.states, accepts, all_pairs, entry_pairs):
            entry = frozenset(
                t for p in entry_pairs for t in pair_triples[p])
            return Labelling(entry)
    return None


# ---------------------------------------------------------------------------
# documents


def labelling_doc(lab: Labelling) -> dict:
    return {"entry": [list(t) for t in sorted(lab.entry)]}


def labelling_from_doc(doc, sys: System) -> Labelling:
    if not isinstance(doc, dict) or "entry" not in doc:
        raise DocumentError("labelling document must have an 'entry' list")
    raw = doc["entry"]
    if not isinstance(raw, list):
        raise DocumentError("'entry' must be a list of [src, action, dst] triples")
    present = set(sys.state_transitions())
    entry = set()
    for item in raw:
        if (not isinstance(item, list) or len(item) != 3
                or not all(isinstance(v, str) for v in item)):
            raise DocumentError(f"bad entry triple: {item!r}")
        triple = tuple(item)
        if triple not in present:
            raise DocumentError(f"entry triple is not a transition of the system: {item!r}")
        entry.add(triple)
    return Labelling(frozenset(entry))
