"""Entry/body labellings of finite systems.

A labelling partitions the state-to-state transitions into loop-entry and
body transitions (tick transitions stay unclassified).  A labelling is
well layered when: (1) body transitions are acyclic, (2) every entry
transition to a different state can return to its source through body
transitions, (3) the loops-around relation is acyclic, and (4) no state that
something loops around to can accept.  Well-layered systems are exactly the
ones the solver can turn back into expressions.

Checking, loops-around, the measures, every candidate of the search and
the solver share one integer core (`_layers`): per state index, its entry
and body targets in id order, read once from `System.rows`.  Its passes are
iterative and linear in the system, except the loops-around relation, which
costs its own size.  The search stays exhaustive, up to 2ⁿ entry sets for
n candidate transitions, and is bounded at `SEARCH_TRANSITION_BOUND`.
"""

from __future__ import annotations

from collections import deque

from .errors import DocumentError, LayeringError, LimitExceededError
from .semantics import System, TICK, step
from .syntax import Expr, Seq, Star
from .theory import Record, TheoryConfig, _set, row_support, supp

SEARCH_TRANSITION_BOUND = 20


class Labelling(Record):
    """The loop-entry transitions; everything else state-to-state is body."""

    __slots__ = ("entry",)
    _fields = __slots__

    def __init__(self, entry: frozenset[tuple[str, str, str]]):
        _set(self, "entry", entry)


class LayerVerdict(Record):
    """Outcome of the well-layeredness check; condition 1-4 plus a witness
    when violated."""

    __slots__ = ("ok", "condition", "witness")
    _fields = __slots__

    def __init__(self, ok: bool, condition: int | None = None, witness: object = None):
        _set(self, "ok", ok)
        _set(self, "condition", condition)
        _set(self, "witness", witness)

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
# the integer core
#
# Checking, loops-around, the measures, the labelling search and the solver
# all run on one integer form of a labelled system: per state index, its
# distinct entry targets and body targets, each list in id-string order so
# that traversals and witnesses follow the ids.  It is read once from
# `System.rows`.  Every pass below is iterative and touches each state and
# each transition a bounded number of times, except the loops-around
# relation, whose cost is its own size.  `_violation` alone decides
# well-layeredness; the measures and the solver take its verdict and graphs
# through `_well_layered`.


def _ranks(states) -> list[int]:
    """Each state's position in id-string order."""
    ranks = [0] * len(states)
    for r, i in enumerate(sorted(range(len(states)), key=states.__getitem__)):
        ranks[i] = r
    return ranks


class _Layers(Record):
    """A labelled system by state index: entry and body targets (distinct,
    ordered by ``rank``), acceptance, and the entry steps (action, target)
    leaving each state that has any.  `_violation` fills in the body
    post-order, the loops-around lists and their post-order as it goes, so
    unlike other records it can be assigned to, and it has no hash."""

    __slots__ = ("entry", "body", "accepts", "rank", "steps", "post", "loops", "loop_post")
    _fields = __slots__
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, entry: list, body: list, accepts: list, rank: list, steps: dict):
        self.entry = entry
        self.body = body
        self.accepts = accepts
        self.rank = rank
        self.steps = steps
        self.post = None
        self.loops = None
        self.loop_post = None


def _layers(sys: System, lab: Labelling) -> _Layers:
    """The integer form of a labelled system; ValueError when the labelling
    marks a transition the system does not have."""
    index, rows = sys.index, sys.rows
    steps: dict[int, set] = {}
    extra = []
    for x, a, y in lab.entry:
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            extra.append((x, a, y))
        else:
            steps.setdefault(i, set()).add((a, j))
    for i, here in steps.items():
        support = row_support(rows[i])
        extra += [(sys.states[i], a, sys.states[j]) for a, j in here if (a, j) not in support]
    if extra:
        raise ValueError(f"entry labels transitions absent from the system: {sorted(extra)}")
    rank = _ranks(sys.states)
    key = rank.__getitem__
    entry, body = [], []
    for i, row in enumerate(rows):
        here = steps.get(i)
        if here is None:
            entry.append(())
            body.append(sorted({t for t in row[1] if t >= 0}, key=key))
        else:
            entry.append(sorted({t for _, t in here}, key=key))
            body.append(sorted({t for a, t in row_support(row)
                                if t >= 0 and (a, t) not in here}, key=key))
    return _Layers(entry, body, [-1 in row[1] for row in rows], rank, steps)


def _dfs(succ):
    """Depth-first search from every node in index order, successors in
    list order: (post-order, None) when the graph is acyclic, else (None,
    the first cycle met as a closed path ``[y, ..., y]``)."""
    colour = [0] * len(succ)  # 0 unseen, 1 on the path, 2 done
    post = []
    for start in range(len(succ)):
        if colour[start]:
            continue
        if not succ[start]:
            colour[start] = 2
            post.append(start)
            continue
        colour[start] = 1
        path, its = [start], [iter(succ[start])]
        while its:
            for nxt in its[-1]:
                c = colour[nxt]
                if not c:
                    colour[nxt] = 1
                    path.append(nxt)
                    its.append(iter(succ[nxt]))
                    break
                if c == 1:
                    return None, path[path.index(nxt):] + [nxt]
            else:
                node = path.pop()
                its.pop()
                colour[node] = 2
                post.append(node)
    return post, None


def _loops(layers: _Layers) -> list:
    """Per state x, the states x loops around to, ordered by rank: those an
    entry step from x followed by body steps reaches without revisiting x."""
    entry, body = layers.entry, layers.body
    key = layers.rank.__getitem__
    mark = [-1] * len(entry)
    out: list = [()] * len(entry)
    for x, targets in enumerate(entry):
        if not targets:
            continue
        mark[x] = x
        members = []
        stack = list(targets)
        while stack:
            y = stack.pop()
            if mark[y] != x:
                mark[y] = x
                members.append(y)
                stack += body[y]
        if members:
            members.sort(key=key)
            out[x] = members
    return out


def _violation(layers: _Layers):
    """The first violated condition with its witness in state indices, or
    None when the labelling is well layered."""
    post, cycle = _dfs(layers.body)
    if cycle is not None:
        return 1, cycle
    layers.post = post
    rank, body = layers.rank, layers.body
    loops = layers.loops = _loops(layers)
    if not any(loops):
        layers.loop_post = []
        return None
    # condition 2: a loop member returns to x when a body step leads to x or
    # to a member that returns; successors come first in post-order
    pos = [0] * len(post)
    for p, v in enumerate(post):
        pos[v] = p
    returns = [False] * len(post)
    failed = []
    for x, members in enumerate(loops):
        if not members:
            continue
        for v in sorted(members, key=pos.__getitem__):
            back = False
            for w in body[v]:
                if w == x or returns[w]:
                    back = True
                    break
            returns[v] = back
        failed += [(rank[x], rank[y], x, y) for y in layers.entry[x]
                   if y != x and not returns[y]]
    if failed:
        return 2, min(failed)[2:]
    layers.loop_post, cycle = _dfs(loops)
    if cycle is not None:
        return 3, cycle
    # condition 4: the first pair in id order where x loops around to an
    # accepting y
    accepts = layers.accepts
    failed = [(rank[x], rank[y], x, y) for x, members in enumerate(loops)
              for y in members if accepts[y]]
    return (4, min(failed)[2:]) if failed else None


def _verdict(sys: System, found) -> LayerVerdict:
    """`_violation`'s finding with the witness in state ids."""
    if found is None:
        return LayerVerdict(True)
    condition, witness = found
    return LayerVerdict(False, condition, tuple(sys.states[i] for i in witness))


def _well_layered(sys: System, lab: Labelling) -> _Layers:
    """The integer form of a labelled system, with the graphs the check
    built; LayeringError with the check's verdict when it is not well
    layered."""
    layers = _layers(sys, lab)
    verdict = _verdict(sys, _violation(layers))
    if not verdict:
        raise LayeringError(f"labelling is not well-layered: {verdict.describe()}")
    return layers


def _longest(succ, post) -> list[int]:
    """Longest path lengths from every node of an acyclic graph, given a
    post-order of it."""
    depth = [0] * len(succ)
    for v in post:
        d = 0
        for w in succ[v]:
            if depth[w] >= d:
                d = depth[w] + 1
        depth[v] = d
    return depth


# ---------------------------------------------------------------------------
# checking and measures


def loops_around(sys: System, lab: Labelling) -> frozenset[tuple[str, str]]:
    """x loops around to y: an entry step from x followed by body steps,
    never revisiting x, ends at y."""
    names = sys.states
    return frozenset((names[x], names[y])
                     for x, members in enumerate(_loops(_layers(sys, lab))) for y in members)


def check_well_layered(sys: System, lab: Labelling) -> LayerVerdict:
    """Check the four well-layeredness conditions, reporting the first
    violated one with a witness."""
    return _verdict(sys, _violation(_layers(sys, lab)))


def measures(sys: System, lab: Labelling) -> dict[str, tuple[int, int]]:
    """Per state: (longest loops-around chain, longest body path).  Defined
    exactly when the labelling is well layered; any other labelling raises
    LayeringError with `check_well_layered`'s verdict, as the solver does."""
    layers = _well_layered(sys, lab)
    body = _longest(layers.body, layers.post)
    loop = _longest(layers.loops, layers.loop_post)
    return {x: (loop[i], body[i]) for i, x in enumerate(sys.states)}


# ---------------------------------------------------------------------------
# search


def _subsets_by_weight(weights: list[int]):
    """All index subsets as bitmasks, ordered by total weight; within a
    weight, in the order of a depth-first search that leaves an index out
    before taking it.  Weights are positive."""
    n = len(weights)
    suffix = [0] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] + weights[i]
    for target in range(suffix[0] + 1):
        stack = [(0, target, 0)]
        while stack:
            i, left, chosen = stack.pop()
            if left == 0:
                yield chosen
            elif suffix[i] >= left:
                if weights[i] <= left:
                    stack.append((i + 1, left - weights[i], chosen | 1 << i))
                stack.append((i + 1, left, chosen))


def _entry_candidates(pairs) -> list[tuple[int, int]]:
    """The pairs that entry sets choose from, in order: no self-loops (they
    are forced entry), and no pair whose target cannot reach its source,
    since such an entry pair fails condition 2 in every entry set.  Dropping
    them keeps the order of the remaining entry sets."""
    succ: dict = {}
    for x, y in pairs:
        succ.setdefault(x, []).append(y)

    def returns(x, y):
        seen, stack = {y}, [y]
        while stack:
            for z in succ.get(stack.pop(), ()):
                if z == x:
                    return True
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        return False

    return [(x, y) for x, y in pairs if x != y and returns(x, y)]


def search_labelling(sys: System) -> Labelling | None:
    """Find some well-layered labelling by exhaustive search, or None.

    Entry sets are tried in order of ascending entry-transition count.  The
    search works at source/target-pair granularity: making a partially-entry
    pair all-body never invalidates a labelling, so pair-pure labellings are
    enough for both existence and minimality.  Self-loops are forced entry
    (a body self-loop always breaks condition 1).  The number of entry sets
    is exponential in the transitions, hence the bound; each is checked by
    the integer core in time linear in the system, except those that keep
    all pairs of a body cycle found earlier, which fail unchecked.
    """
    actions: dict[tuple[int, int], list] = {}
    for i, row in enumerate(sys.rows):
        for a, t in row_support(row):
            if t >= 0:
                actions.setdefault((i, t), []).append(a)
    count = sum(map(len, actions.values()))
    if count > SEARCH_TRANSITION_BOUND:
        raise LimitExceededError(
            f"labelling search is limited to {SEARCH_TRANSITION_BOUND} transitions, "
            f"got {count}")
    rank = _ranks(sys.states)
    pairs = sorted(actions, key=lambda p: (rank[p[0]], rank[p[1]]))
    optional = _entry_candidates(pairs)
    weights = [len(actions[p]) for p in optional]
    # An entry set differs from the next only at the states it chooses
    # optional pairs from, so each state's (entry, body) lists are built once
    # per choice there; a state's optional pairs are neighbours in the list.
    n = len(sys.states)
    succ: list = [[] for _ in range(n)]
    entry: list = [[] for _ in range(n)]
    body: list = [[] for _ in range(n)]
    for x, y in pairs:
        succ[x].append(y)
        (entry if x == y else body)[x].append(y)
    choosing: dict[int, list] = {}
    for i, (x, _) in enumerate(optional):
        choosing.setdefault(x, []).append(i)
    choices = [(x, idx[0], (1 << len(idx)) - 1, {}) for x, idx in choosing.items()]
    accepts = [-1 in row[1] for row in sys.rows]
    # A body cycle is made of optional pairs (a self-loop is entry, a pair
    # off every cycle is no candidate), and every later entry set that
    # takes none of them as entry keeps that cycle: it is skipped unchecked.
    position = {p: i for i, p in enumerate(optional)}
    cycles: list[int] = []
    for chosen in _subsets_by_weight(weights):
        if any(not chosen & cycle for cycle in cycles):
            continue
        for x, low, width, built in choices:
            mask = chosen >> low & width
            lists = built.get(mask)
            if lists is None:
                picked = {optional[low + k][1] for k in range(width.bit_length())
                          if mask >> k & 1}
                lists = built[mask] = (
                    [y for y in succ[x] if y == x or y in picked],
                    [y for y in succ[x] if y != x and y not in picked])
            entry[x], body[x] = lists
        found = _violation(_Layers(entry, body, accepts, rank, {}))
        if found is None:
            names = sys.states
            return Labelling(frozenset(
                (names[x], a, names[y]) for x, y in pairs
                if y in entry[x] for a in actions[x, y]))
        condition, witness = found
        if condition == 1:
            cycles.append(sum(1 << position[p] for p in zip(witness, witness[1:])))
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
