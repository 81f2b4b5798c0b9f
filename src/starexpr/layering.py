"""Entry/body labellings of finite systems.

A labelling partitions the state-to-state transitions into loop-entry and
body transitions (tick transitions stay unclassified).  A labelling is
well layered when: (1) body transitions are acyclic, (2) every entry
transition to a different state can return to its source through body
transitions, (3) the loops-around relation is acyclic, and (4) no state that
something loops around to can accept.  Well-layered systems are exactly the
ones the solver can turn back into expressions.

Checking, loops-around, the measures, the search's result and the solver
share one integer core (`_layers`): per state index, its entry and body
targets in id order, read once from `System.rows`.  Its passes are
iterative and linear in the system, except the loops-around relation, which
costs its own size.  One strongly connected component pass (`_components`)
is the only graph traversal: the check, loop elimination and the syntactic
labelling take what they need from it.  The search labels a system of any
size by loop elimination, one entry pair at a time, and checks its result
on that core.
"""

from __future__ import annotations

from collections import deque

from .errors import DocumentError, LayeringError
from .semantics import System, _loop_steps
from .syntax import Expr
from .theory import Record, TheoryConfig, _set, row_support


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
    those two lifted through left factors of sequencing.  A remainder's
    state stays under its loop until the remainder ticks, which lands back
    on the loop's state, so the remainder can terminate exactly when its
    state lies in the loop state's strongly connected component.
    """
    if sys.provenance is None:
        raise LayeringError("states lack expression provenance")
    names, rows = sys.states, sys.rows
    comp = None  # the components, found when a remainder first needs them
    entry = set()
    for i, action, j in _loop_steps(sys):
        if j != i:  # a remainder's state, never the loop's own
            if comp is None:
                comp = _components([[t for t in row[1] if t >= 0] for row in rows])[0]
            if comp[j] != comp[i]:
                continue
        entry.add((names[i], action, names[j]))
    return Labelling(frozenset(entry))


# ---------------------------------------------------------------------------
# the integer core
#
# Target lists are in id-string order, so that traversals and witnesses
# follow the ids.  `_violation` alone decides well-layeredness; the measures
# and the solver take its verdict and graphs through `_well_layered`.


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
    support = {i: row_support(rows[i]) for i in steps}
    for i, here in steps.items():
        extra += [(sys.states[i], a, sys.states[j]) for a, j in here - support[i]]
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
            body.append(sorted({t for _, t in support[i] - here if t >= 0}, key=key))
    return _Layers(entry, body, [-1 in row[1] for row in rows], rank, steps)


def _components(succ):
    """Strongly connected components by one iterative Tarjan pass from every
    node in index order, successors in list order.  Returns each node's
    component and discovery time, the nodes in the order their components
    complete, and the first cycle met as a closed path ``[y, ..., y]`` (or
    None).  A component is numbered by where it starts in that order, so in
    an acyclic graph the order is a post-order and each node's component is
    its place in it.  Until the first edge into the stack, the stack is the
    current path, so the cycle is the one a plain depth-first search meets
    first."""
    n = len(succ)
    comp, order, low, stack, done = [-1] * n, [-1] * n, [0] * n, [], []
    tick, cycle = 0, None  # the next discovery time
    for root in range(n):
        if order[root] >= 0:
            continue
        path, its = [root], []
        while path:
            v = path[-1]
            if order[v] < 0:
                order[v] = low[v] = tick
                tick += 1
                stack.append(v)
                its.append(iter(succ[v]))
            for w in its[-1]:
                if order[w] < 0:
                    path.append(w)
                    break
                if comp[w] < 0:  # an edge into the stack
                    if cycle is None:
                        cycle = path[path.index(w):] + [w]
                    if order[w] < low[v]:
                        low[v] = order[w]
            else:
                path.pop()
                its.pop()
                if low[v] < order[v]:  # v's component starts below it on the path
                    if low[v] < low[path[-1]]:
                        low[path[-1]] = low[v]
                else:  # v's component is the stack down to v
                    c = len(done)
                    while comp[v] < 0:
                        w = stack.pop()
                        comp[w] = c
                        done.append(w)
    return comp, order, done, cycle


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
    comp, _, post, cycle = _components(layers.body)
    if cycle is not None:
        return 1, cycle
    layers.post = post
    rank, body = layers.rank, layers.body
    loops = layers.loops = _loops(layers)
    if not any(loops):
        layers.loop_post = []
        return None
    # condition 2: a loop member returns to x when a body step leads to x or
    # to a member that returns; successors come first in post-order (comp)
    returns = [False] * len(post)
    failed = []
    for x, members in enumerate(loops):
        if not members:
            continue
        for v in sorted(members, key=comp.__getitem__):
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
    layers.loop_post, cycle = _components(loops)[2:]
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
# labelling by loop elimination


def search_labelling(sys: System) -> Labelling | None:
    """Some well-layered labelling (not necessarily with the fewest entry
    steps) by loop elimination, or None when there is none.  Self-loops are
    entry steps; a body pair (v, y) within one strongly connected component
    becomes entry when the region that y reaches by body steps without
    passing v is acyclic, accepts nowhere, leads back to v, and holds no
    state that already loops around to v.  A failed pair is tested again
    only when a state its failure read loses a body step.  See the README
    for the argument and the cost; the result is checked."""
    rows, names = sys.rows, sys.states
    key = _ranks(names).__getitem__
    body = [sorted({t for t in row[1] if t >= 0 and t != v}, key=key)
            for v, row in enumerate(rows)]
    entry = [[v] if v in row[1] else [] for v, row in enumerate(rows)]
    accepts = [-1 in row[1] for row in rows]
    comp, order, done, _ = _components(body)
    live = [False] * len(rows)  # by component: whether it reaches acceptance
    for w in done:  # a component completes after those it leads to
        if not live[comp[w]] and (accepts[w] or any(live[comp[t]] for t in body[w])):
            live[comp[w]] = True

    def blockers(v, y):
        """None when (v, y) can become entry now; otherwise the states that
        must lose a body step before it can, none when it never can."""
        c, back, cycle = comp[v], False, None
        seen, path, its = {y: 1}, [y], [iter(body[y])]  # 1 on the path, 2 done
        while path:
            for z in its[-1]:
                if z == v:
                    back = True
                elif comp[z] != c:  # in any labelling with (v, y) entry, z sits in a loop
                    if live[comp[z]]:
                        return []
                elif z in seen:
                    if seen[z] == 1 and cycle is None:
                        cycle = path[path.index(z):]
                elif accepts[z]:
                    return []
                else:
                    seen[z] = 1
                    path.append(z)
                    its.append(iter(body[z]))
                    break
            else:
                seen[path.pop()] = 2
                its.pop()
        if cycle or not back:  # no way back fails for good, a cycle until it breaks
            return cycle if back else []
        for w in seen:
            mark, todo = {w}, list(entry[w])
            while todo:
                t = todo.pop()
                if t == v:
                    return [*seen, *mark]
                if t not in mark and comp[t] == c:
                    mark.add(t)
                    todo += body[t]
        return None

    # inner loops tend to go first: pairs from states discovered last
    queue = deque(sorted(((v, y) for v in range(len(rows)) for y in body[v]
                          if comp[y] == comp[v] and not accepts[y]), key=lambda p: -order[p[0]]))
    queued, waiting = set(queue), [[] for _ in rows]
    while queue:
        v, y = pair = queue.popleft()
        queued.discard(pair)
        found = blockers(v, y) if y in body[v] else []
        if found is not None:
            for s in found:
                waiting[s].append(pair)
            continue
        body[v].remove(y)
        entry[v].append(y)
        again = dict.fromkeys(p for p in waiting[v] if p not in queued)
        queue += again
        queued.update(again)
        waiting[v] = []
    lab = Labelling(frozenset((names[v], a, names[t]) for v, row in enumerate(rows)
                              for a, t in row_support(row) if t in entry[v]))
    return lab if check_well_layered(sys, lab) else None


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
