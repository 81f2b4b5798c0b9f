"""Bisimilarity: partition refinement, a brute-force oracle, minimization,
and the equivalence decision for expressions.

Behavioural equivalence is computed as the largest kernel bisimulation: the
coarsest partition under which every state's transition value, with targets
replaced by their blocks, is the same across each block.  For the branching
functors used here this coincides with bisimilarity via spans of system
homomorphisms, and by soundness/completeness of the loop axioms it also
decides provable equivalence of expressions.
"""

from __future__ import annotations

from .errors import LimitExceededError
from .semantics import State, System, TICK, reachable_from
from .syntax import Expr
from .theory import MVal, TheoryConfig, mval_map

Partition = dict[str, int]

BRUTE_STATE_BOUND = 8


def _mapped_value(value: MVal, block: Partition) -> MVal:
    """A value over (action, State | TICK) pairs with state targets
    collapsed to their block ids."""

    def relabel(pair):
        action, tgt = pair
        if tgt is TICK:
            return (action, TICK)
        return (action, block[tgt.sid])

    return mval_map(relabel, value)


def _dense(sys: System, block: list[int]) -> Partition:
    """Renumber blocks to 0..k-1 by first occurrence in state order."""
    ids: dict[int, int] = {}
    return {x: ids.setdefault(b, len(ids)) for x, b in zip(sys.states, block)}


def _predecessors(sys: System) -> list[list[int]]:
    """For every state, the states with a transition into it."""
    preds: list[list[int]] = [[] for _ in sys.states]
    for x, row in enumerate(sys.rows):
        for t in row[1]:
            if t >= 0:
                preds[t].append(x)
    return preds


def _children_first(rows: list) -> list[int] | None:
    """Every state, each after its successors other than itself; None as
    soon as a depth-first search meets a longer cycle."""
    n = len(rows)
    mark = [0] * n  # 0 unseen, 1 on the search path, 2 placed
    order: list[int] = []
    for root in range(n):
        if mark[root]:
            continue
        mark[root] = 1
        path = [(root, iter(rows[root][1]))]
        while path:
            x, targets = path[-1]
            for t in targets:
                if t < 0 or t == x or mark[t] == 2:
                    continue
                if mark[t]:
                    return None
                mark[t] = 1
                path.append((t, iter(rows[t][1])))
                break
            else:
                path.pop()
                mark[x] = 2
                order.append(x)
    return order


_OWN = -2  # a self-loop state's own label while it has no block yet


def _refine_children_first(sys: System, order: list[int]) -> Partition | None:
    """`refine` on a system whose only cycles are self-loops, in
    `_children_first`'s order (Dovier, Piazza & Policriti 2004).  A state's
    other successors have their final blocks when it is reached, so its
    block is decided once.  A state without a self-loop joins the block
    with its signature.  A state with one joins block c if, signed as a
    member of c, it gives c's signature.  Where none of its other
    successors is in c, both name c only through self-loops, so c was
    opened by a self-loop state, and they still agree with each state's own
    label read as ``_OWN``: one lookup among the keys of such blocks.
    Otherwise c is the block of one of its other successors, and each of
    those is tried.  Signatures are compared as in the round loop, so
    weights that cancel are handled alike.

    Each try signs the state's whole row, so a state with a self-loop and
    k successor blocks could cost k times its k transitions.  For n states
    and m transitions the tries may read at most (n + m) log2 n row entries
    in all, the round loop's bound; past that the pass gives up (None) and
    the round loop runs."""
    rows, sign = sys.rows, sys.cfg.theory.sign
    block = [0] * len(rows) + [-1]
    budget = (len(rows) + sum(len(row[1]) for row in rows)) * len(rows).bit_length()
    sigs: list = []  # block id -> the signature its states share
    by_sig: dict = {}
    by_own: dict = {}  # signature with the own label _OWN -> block it opened
    for x in order:
        row = rows[x]
        if x not in row[1]:
            s = sign(row, block)
            b = by_sig.get(s)
            if b is None:
                b = by_sig[s] = len(sigs)
                sigs.append(s)
            block[x] = b
            continue
        block[x] = _OWN
        own = sign(row, block)
        b = by_own.get(own)
        if b is None:
            for b in {block[t] for t in row[1] if t >= 0 and t != x}:
                budget -= len(row[1])
                if budget < 0:
                    return None
                block[x] = b
                if sign(row, block) == sigs[b]:
                    break
            else:
                b = block[x] = len(sigs)
                s = sign(row, block)
                by_sig[s] = by_own[own] = b
                sigs.append(s)
        block[x] = b
    return _dense(sys, block)


def refine(sys: System) -> Partition:
    """The coarsest partition closed under one-step behaviour.

    When every cycle of the system is a self-loop, which a depth-first
    search that stops at the first longer cycle finds out, each state is
    classified once, after its successors (`_refine_children_first`).  A
    state is signed once, or if it has a self-loop twice plus once per
    block among its other successors that it tries: O(n + m) signing for
    n states and m transitions while those tries stay few, and no rounds.
    The tries are capped at the round loop's bound.  Deep sequences of
    actions and loops have this property: on the benchmark (seed 1), every
    equiv-deep system, 3,258 of the 4,200 roundtrip-corpus refinements and
    none of the minimize-wide documents.

    Otherwise blocks are split from the single-block partition.  Splitting
    is incremental, processing the smaller half (Paige & Tarjan
    1987; Valmari & Franceschinis 2010).  Only "dirty" states, whose
    successors changed block since they were last signed, are re-signed;
    the clean states of a block still share the block's last signature.
    The largest part of a split block keeps its id, so a state moves at
    most log2(n) times.  After a round that moved over half the states,
    all states are re-signed, which is cheaper than walking predecessors.
    The work is O((n + m) log n).

    States are signed from the system's rows by the theory's ``sign``:
    targets are looked up in the list ``block``, whose last entry, at the
    tick target's index -1, is the tick's own block -1."""
    order = _children_first(sys.rows)
    part = None if order is None else _refine_children_first(sys, order)
    if part is not None:
        return part
    n = len(sys.states)
    rows, sign = sys.rows, sys.cfg.theory.sign
    block = [0] * n + [-1]
    members: dict[int, set[int]] = {0: set(range(n))}
    sig: dict[int, object] = {}  # the signature the clean states of a block share
    preds = None
    dirty = dict.fromkeys(range(n))
    while dirty:
        # sign every dirty state against the same partition before moving any
        touched: dict[int, dict] = {}
        for x in dirty:
            groups = touched.setdefault(block[x], {})
            groups.setdefault(sign(rows[x], block), []).append(x)
        moved: list[int] = []
        for b, groups in touched.items():
            old = members[b]
            clean = len(old) - sum(map(len, groups.values()))
            # compared by equality: a dirty state may still match the clean
            # ones, since weights of a semiring may cancel
            clean_xs = groups.setdefault(sig[b], []) if clean else None
            if len(groups) == 1:
                sig[b] = next(iter(groups))
                continue
            sig[b], keep = max(groups.items(),
                               key=lambda vx: len(vx[1]) + clean * (vx[1] is clean_xs))
            for v, xs in groups.items():
                if xs is keep:
                    continue
                if xs is clean_xs:
                    xs = xs + [x for x in old if x not in dirty]
                new = len(members)
                members[new], sig[new] = set(xs), v
                old.difference_update(xs)
                for x in xs:
                    block[x] = new
                moved += xs
        if not moved or len(members) == n:  # stable, or all singletons
            break
        if 2 * len(moved) > n:
            # each state moves at most log2(n) times, so such rounds are few
            dirty = dict.fromkeys(range(n))
            continue
        if preds is None:
            preds = _predecessors(sys)
        dirty = dict.fromkeys(p for x in moved for p in preds[x])
    return _dense(sys, block)


def _partitions(items: list[str]):
    """All set partitions, each as a block-id map in first-occurrence order."""
    n = len(items)
    assign = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield {items[j]: assign[j] for j in range(n)}
            return
        for b in range(used + 1):
            assign[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


def _consistent(sys: System, values: list[MVal], block: Partition) -> bool:
    seen: dict[int, object] = {}
    for x, value in zip(sys.states, values):
        val = _mapped_value(value, block)
        b = block[x]
        if b in seen:
            if seen[b] != val:
                return False
        else:
            seen[b] = val
    return True


def _coarser_eq(p: Partition, q: Partition, states) -> bool:
    """p identifies at least everything q identifies."""
    rep: dict[int, int] = {}
    for x in states:
        b = q[x]
        if b in rep:
            if p[x] != rep[b]:
                return False
        else:
            rep[b] = p[x]
    return True


def brute_bisim(sys: System) -> Partition:
    """Oracle: enumerate every equivalence relation on the states and return
    the coarsest one closed under one-step behaviour.  Guarded to small
    systems; must agree with `refine`."""
    if len(sys.states) > BRUTE_STATE_BOUND:
        raise LimitExceededError(
            f"brute-force oracle is limited to {BRUTE_STATE_BOUND} states")
    states = list(sys.states)
    targets = [State(x) for x in states] + [TICK]
    values = [sys.cfg.theory.row_value(row, targets) for row in sys.rows]
    good = [p for p in _partitions(states) if _consistent(sys, values, p)]
    good.sort(key=lambda p: len(set(p.values())))
    for cand in good:
        if all(_coarser_eq(cand, other, states) for other in good):
            return _dense(sys, [cand[x] for x in sys.states])
    raise AssertionError("no coarsest behavioural partition; functor misbehaves")


def minimize(sys: System) -> tuple[System, dict[str, str]]:
    """Quotient by behavioural equivalence.

    Returns the quotient system and the quotient map h, which is a system
    homomorphism; in the result, equivalence of states is equality.  Each
    block's row is the row of its first state with targets relabelled to
    blocks, merging the weights of pairs that meet.
    """
    part = refine(sys)
    h = {x: f"b{part[x]}" for x in sys.states}
    labels = [part[x] for x in sys.states] + [-1]
    first: dict[int, int] = {}  # block id -> its first state; ids are dense
    for x, b in enumerate(labels[:-1]):
        first.setdefault(b, x)
    relabel_row = sys.cfg.theory.relabel_row
    rows = [relabel_row(sys.rows[x], labels) for x in first.values()]
    states = tuple(f"b{b}" for b in first)
    root = h[sys.root] if sys.root is not None else None
    return System(sys.cfg, states, rows, root=root), h


def decide_equiv(cfg: TheoryConfig, e1: Expr, e2: Expr) -> bool:
    """Decide provable equivalence of two expressions (equivalently, their
    bisimilarity as states of the syntactic system).  Both are explored in
    one subsystem: it is closed under successors, so bisimilarity within it
    is bisimilarity in the whole syntactic system."""
    sys, (x1, x2) = reachable_from(cfg, (e1, e2))
    part = refine(sys)
    return part[x1] == part[x2]
