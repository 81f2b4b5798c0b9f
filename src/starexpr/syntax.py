"""Concrete syntax for star expressions.

Grammar (one expression per line or CLI argument, UTF-8):

    expr    := branch
    branch  := scaled [BRANCHOP scaled]          branching; non-associative
    scaled  := WEIGHT '.' scaled | seq           weighting, smod only
    seq     := star [';' seq]                    sequencing, right-nested
    star    := atom ('*{' sterm '}' atom)*       loop, left-nested
    atom    := ACTION | '0' | '(' expr ')'

    BRANCHOP:= '+'                               sl
             | '+[' bool ']'                     ga, gc
             | '(+' FRACTION ')'                 ca, gc
             | '(+)'                             smod
    bool    := conj ('|' conj)* ; conj := lit ('&' lit)*
    lit     := '!' lit | 'true' | 'false' | TEST | '(' bool ')'

Actions and tests are identifiers [a-z][a-z0-9_]*.  The loop term between braces
uses the same branching operators over the reserved variables ``u`` and
``v`` (plus ``0`` and parentheses).  ``*{..}`` binds tighter than ``;``,
which binds tighter than branching; two branching operators always need
parentheses between them.  Weights and probabilities are ``m`` or ``m/n``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .theory import (
    BAnd, BFalse, BNot, BOr, BTest, BTrue,
    ChoiceSym, GuardSym, OPLUS, OplusSym, PLUS, PlusSym, ScaleSym, SOp, STerm,
    SVar, SZERO, TheoryConfig, ZeroSym, term_sort_key, term_variables, _sym_sort_key,
)


# ---------------------------------------------------------------------------
# abstract syntax


class Expr:
    # _local and _head: the expression's step, and what exploring from it
    # reads, kept by `semantics` as the sort key is
    __slots__ = ("_hash", "_key", "_local", "_head")

    def __eq__(self, other):
        raise NotImplementedError

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # by constructor arguments (each class's slots): the hash is computed anew
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def sort_key(self):
        # each part without a key first, from an explicit stack, so that a
        # long chain or deep nesting sets no recursion depth
        stack = [self]
        while self._key is None:
            x = stack[-1]
            kind = type(x)
            todo = [p for p in ((x.left, x.right) if kind is Seq else (x.body, x.exit)
                                if kind is Star else x.args if kind is TOp else ())
                    if p._key is None]
            if todo:
                stack += todo
            else:
                x._key = x._make_key()
                stack.pop()
        return self._key

    def __repr__(self):
        # one walk from an explicit stack of parts and texts still to write
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            kind = type(x)
            if kind is str:
                out.append(x)
            elif kind is Seq:
                stack += (")", x.right, ", ", x.left, "Seq(")
            elif kind is Star:
                stack += (")", x.exit, f", {term_text(x.loop)}, ", x.body, "Star(")
            elif kind is TOp and x.args:
                parts = [f"TOp({_sym_repr(x.sym)}, ["]
                for a in x.args:
                    parts += (a, ", ")
                parts[-1] = "])"
                stack += reversed(parts)
            else:
                out.append("TOp(0)" if kind is TOp else f"Act({x.name})")
        return "".join(out)


class Act(Expr):
    """A single action; emits its name and accepts."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("act", name))
        self._key = self._local = self._head = None

    def __eq__(self, other):
        return type(other) is Act and other.name == self.name

    __hash__ = Expr.__hash__

    def _make_key(self):
        return (0, self.name)


class TOp(Expr):
    """A branching operator from the theory signature applied to children."""

    __slots__ = ("sym", "args")

    def __init__(self, sym, args=()):
        args = tuple(args)
        if len(args) != sym.arity:
            raise ValueError(f"operator {sym!r} expects {sym.arity} children, got {len(args)}")
        self.sym = sym
        self.args = args
        self._hash = hash(("top", sym, args))
        self._key = self._local = self._head = None

    def __eq__(self, other):
        return other is self or type(other) is TOp and other._hash == self._hash \
            and _equal(self, other)

    __hash__ = Expr.__hash__

    def _make_key(self):
        return (1, _sym_sort_key(self.sym), tuple(a.sort_key() for a in self.args))


class Seq(Expr):
    """Sequential composition: run left, then right."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash(("seq", left._hash, right._hash))
        self._key = self._local = self._head = None

    def __eq__(self, other):
        return other is self or type(other) is Seq and other._hash == self._hash \
            and _equal(self, other)

    __hash__ = Expr.__hash__

    def _make_key(self):
        return (2, self.left.sort_key(), self.right.sort_key())


class Star(Expr):
    """The loop former: repeat the body along the u-slots of the loop term,
    exit along the v-slots."""

    __slots__ = ("body", "loop", "exit")

    def __init__(self, body: Expr, loop: STerm, exit: Expr):
        if not term_variables(loop) <= {"u", "v"}:
            raise ValueError("loop term may mention only u and v")
        self.body = body
        self.loop = loop
        self.exit = exit
        self._hash = hash(("star", body._hash, loop, exit._hash))
        self._key = self._local = self._head = None

    def __eq__(self, other):
        return other is self or type(other) is Star and other._hash == self._hash \
            and _equal(self, other)

    __hash__ = Expr.__hash__

    def _make_key(self):
        return (3, self.body.sort_key(), term_sort_key(self.loop), self.exit.sort_key())


def _equal(a: Expr, b: Expr) -> bool:
    """Whether two expressions are equal, compared pair by pair from an
    explicit stack, so that a long chain or deep nesting sets no recursion
    depth.  Operator symbols and loop terms compare by their own ``==``."""
    stack = [(a, b)]
    pop, push = stack.pop, stack.append
    while stack:
        x, y = pop()
        if x is y:
            continue
        kind = type(x)
        if type(y) is not kind or x._hash != y._hash:
            return False
        if kind is Seq:
            push((x.right, y.right))
            push((x.left, y.left))
        elif kind is Star:
            if x.loop != y.loop:
                return False
            push((x.exit, y.exit))
            push((x.body, y.body))
        elif kind is TOp:
            if x.sym != y.sym:
                return False
            stack.extend(zip(x.args, y.args))
        elif x.name != y.name:  # two actions
            return False
    return True


def _sym_repr(sym):
    if isinstance(sym, ScaleSym):
        return f"{_weight_text(sym.weight)} ."
    return sym.text()


# ---------------------------------------------------------------------------
# tokenizer

# Tokens are found by one regular expression; they are kept as their texts,
# and character positions are found again only to report an error.  A loop
# term is one token, '*{' through its '}' as written, when each character
# between them belongs to a token, so that the parser keys loop terms by
# their written text and parses each text once.  An identifier in a term
# ends where the tokenizer ends it (the lookahead), so one text has one
# match and a '*{' with no '}' fails in time linear in what follows.
_TOKEN = re.compile(
    r"\*\{(?:[a-z][a-z0-9_]*(?![a-z0-9_])|\+\[?|[\s\d()\]&|!./;])*\}"
    r"|[a-z][a-z0-9_]*|\d+|\*\{|\+\[?|\(\+\)?|[;()\]}&|!./]")


def _tokenize(text: str) -> list[str]:
    """The texts of the tokens of ``text``, then '' for its end.  A digit is
    what int() reads (str.isdecimal); a digit such as '²' is not."""
    toks = _TOKEN.findall(text)
    # the tokens cover every character but whitespace: compared first by
    # their count of characters other than ' ', then of non-whitespace
    joined = "".join(toks)
    if len(joined) - joined.count(" ") != len(text) - text.count(" ") \
            and len("".join(joined.split())) != len("".join(text.split())):
        _reject_character(text)
    toks.append("")
    return toks


def _reject_character(text: str):
    """Raise the ParseError for the first character outside every token."""
    end = 0
    for start, stop in [m.span() for m in _TOKEN.finditer(text)] + [(len(text), 0)]:
        for i in range(end, start):
            c = text[i]
            if c.isspace():
                continue
            if c == "*":
                raise ParseError("expected '{' after '*'", i)
            if "A" <= c <= "Z":
                raise ParseError(f"identifiers are lowercase, got {c!r}", i)
            raise ParseError(f"unexpected character {c!r}", i)
        end = stop


def _shown(value: str) -> str:
    # a loop term taken whole is reported as the token that opens it
    return repr(value[:2] if value[:2] == "*{" else value)


# each branching token: the symbol type the signature must hold, and its name
_BRANCH_OPS = {"+": (PlusSym, "operator +"), "+[": (GuardSym, "guarded choice"),
               "(+": (ChoiceSym, "convex choice"), "(+)": (OplusSym, "weighted sum")}


class _Parser:
    def __init__(self, text: str, cfg: TheoryConfig):
        self.cfg = cfg
        self.ops = cfg.theory.ops  # the signature
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.term = None  # while a loop term's tokens are parsed: its token's index
        # one guard symbol per distinct guard expression, so that each
        # written guard's text is rendered once
        self.guards: dict = {}
        # one node per repeated leaf, loop term text and loop, so that
        # equal copies are one object and compare by identity; these live
        # for one parse, like the guards
        self.acts: dict[str, Act] = {}
        self.zero = None  # the one 0, made when first met
        self.terms: dict[str, STerm] = {}  # by the loop term's token
        self.stars: dict[tuple, Star] = {}  # by the ids of its three parts

    def error(self, message, index) -> ParseError:
        """The error at token ``index``, with its character position."""
        spans = [m.span() for m in _TOKEN.finditer(self.text)]
        if self.term is not None:  # a loop term's tokens, then its '}'
            start, stop = spans[self.term]
            spans = [m.span() for m in _TOKEN.finditer(self.text, start + 2, stop - 1)]
            spans.append((stop - 1, stop))
        return ParseError(message, spans[index][0] if index < len(spans) else len(self.text))

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text):
        value = self.next()
        if value != text:
            raise self.error(f"expected {text!r}, got {_shown(value)}", self.pos - 1)

    # -- expressions --------------------------------------------------------

    def parse_branch(self, operand, node):
        """One branching level over scaled operands, built with ``node``:
        expressions over `parse_seq` with `TOp`, loop terms over
        `parse_sterm_atom` with `SOp`."""
        left = self.parse_scaled(operand, node)
        sym = self.try_branch_op()
        if sym is None:
            return left
        out = node(sym, (left, self.parse_scaled(operand, node)))
        if self.toks[self.pos] in _BRANCH_OPS:
            raise self.error("branching operators are non-associative; add parentheses",
                             self.pos)
        return out

    def parse_scaled(self, operand, node):
        if ScaleSym in self.ops:
            weight = self.try_weight_dot()
            if weight is not None:
                return node(ScaleSym(weight), (self.parse_scaled(operand, node),))
        return operand()

    def parse_seq(self) -> Expr:
        """Units separated by ';', each an atom and the loops that follow
        it (left-nested), read in a loop; the units nest to the right."""
        toks = self.toks
        units = []
        while True:
            e = self.parse_atom()
            while toks[self.pos][:1] == "*":  # '*{', with its term or alone
                loop = self.parse_loop_term()
                exit = self.parse_atom()
                key = (id(e), id(loop), id(exit))  # the star keeps its parts alive
                star = self.stars.get(key)
                if star is None:
                    star = self.stars[key] = Star(e, loop, exit)
                e = star
            if toks[self.pos] != ";":
                break
            self.pos += 1
            units.append(e)
        for unit in reversed(units):
            e = Seq(unit, e)
        return e

    def parse_loop_term(self) -> STerm:
        """The term of a loop, from its '*{' through its '}'.  A term token
        met before is not parsed again; a new one is parsed from its own
        tokens, then its '}'.  A '*{' alone has no '}' after it, and is
        parsed where it stands, to fail there."""
        i = self.pos
        tok = self.toks[i]
        self.pos = i + 1
        if tok == "*{":
            loop = self.parse_branch(self.parse_sterm_atom, SOp)
            self.expect("}")
            return loop
        loop = self.terms.get(tok)
        if loop is None:
            toks = self.toks
            self.toks = _TOKEN.findall(tok, 2, len(tok) - 1)
            self.toks.append("}")
            self.pos, self.term = 0, i
            loop = self.terms[tok] = self.parse_branch(self.parse_sterm_atom, SOp)
            self.expect("}")
            self.toks, self.pos, self.term = toks, i + 1, None
        return loop

    def parse_atom(self) -> Expr:
        i = self.pos
        value = self.toks[i]
        self.pos = i + 1
        if "a" <= value < "{":  # only identifiers start with 'a' to 'z'
            act = self.acts.get(value)
            if act is None:
                act = self.acts[value] = Act(value)
            return act
        if value == "0":
            if self.zero is None:
                self.zero = TOp(ZeroSym())
            return self.zero
        if value == "(":  # four frames per level; the parse depth limit follows
            e = self.parse_branch(self.parse_seq, TOp)
            self.expect(")")
            return e
        raise self.error(f"expected an expression, got {_shown(value)}", i)

    # -- loop terms ---------------------------------------------------------

    def parse_sterm_atom(self) -> STerm:
        value = self.next()
        if "a" <= value < "{":
            if value in ("u", "v"):
                return SVar(value)
            raise self.error(f"loop terms may mention only u and v, got {value!r}",
                             self.pos - 1)
        if value == "0":
            return SZERO
        if value == "(":
            t = self.parse_branch(self.parse_sterm_atom, SOp)
            self.expect(")")
            return t
        raise self.error(f"expected a loop term, got {_shown(value)}", self.pos - 1)

    # -- operators ----------------------------------------------------------

    def try_branch_op(self):
        """Consume a branching operator and return its symbol, or None."""
        i = self.pos
        value = self.toks[i]
        op = _BRANCH_OPS.get(value)
        if op is None:
            return None
        self.pos = i + 1
        if op[0] not in self.ops:
            raise self.error(f"{op[1]} is not in the {self.cfg.kind} signature", i)
        if value == "+":
            return PLUS
        if value == "(+)":
            return OPLUS
        if value == "+[":
            b = self.parse_bool()
            self.expect("]")
            sym = self.guards.get(b)
            if sym is None:
                sym = self.guards[b] = self.cfg.theory.guard_sym(b)
            return sym
        p = self.parse_fraction()
        if not (0 <= p <= 1):
            raise self.error(f"probability outside [0,1]: {p}", i)
        self.expect(")")
        return ChoiceSym(p)

    def parse_fraction(self) -> Fraction:
        value = self.next()
        if not value.isdecimal():
            raise self.error(f"expected a number, got {_shown(value)}", self.pos - 1)
        num = int(value)
        if self.toks[self.pos] == "/":
            self.pos += 1
            value = self.next()
            if not value.isdecimal() or int(value) == 0:
                raise self.error(f"expected a nonzero denominator, got {_shown(value)}",
                                 self.pos - 1)
            return Fraction(num, int(value))
        return Fraction(num)

    def try_weight_dot(self):
        """Weight followed by '.', or None (with no tokens consumed)."""
        start = self.pos
        if not self.toks[start].isdecimal():
            return None
        frac = self.parse_fraction()
        if self.toks[self.pos] != ".":
            self.pos = start
            return None
        self.pos += 1
        try:
            return self.cfg.semiring.parse(str(frac))
        except ValueError as exc:
            raise self.error(str(exc), start) from None

    # -- guards -------------------------------------------------------------

    def parse_bool(self):
        left = self.parse_bool_conj()
        while self.toks[self.pos] == "|":
            self.pos += 1
            left = BOr(left, self.parse_bool_conj())
        return left

    def parse_bool_conj(self):
        left = self.parse_bool_lit()
        while self.toks[self.pos] == "&":
            self.pos += 1
            left = BAnd(left, self.parse_bool_lit())
        return left

    def parse_bool_lit(self):
        value = self.next()
        if value == "!":
            return BNot(self.parse_bool_lit())
        if value == "(":
            b = self.parse_bool()
            self.expect(")")
            return b
        if "a" <= value < "{":
            if value == "true":
                return BTrue()
            if value == "false":
                return BFalse()
            if value not in self.cfg.tests:
                raise self.error(f"unknown test {value!r} (declared: "
                                 f"{', '.join(self.cfg.tests) or 'none'})", self.pos - 1)
            return BTest(value)
        raise self.error(f"expected a test expression, got {_shown(value)}", self.pos - 1)


def parse(text: str, cfg: TheoryConfig) -> Expr:
    """Parse one expression; raises ParseError with a character position."""
    parser = _Parser(text, cfg)
    e = parser.parse_branch(parser.parse_seq, TOp)
    value = parser.toks[parser.pos]
    if value:
        raise parser.error(f"unexpected trailing input {_shown(value)}", parser.pos)
    return e


# ---------------------------------------------------------------------------
# printing

# precedence levels, loosest first
_BRANCH, _SCALE, _SEQ, _STAR, _ATOM = range(5)


def print_expr(e: Expr) -> str:
    """Minimal-parenthesization text; parsing it back yields an equal tree.

    Each node object met more than once is rendered once per call, so the
    cost follows the expression's DAG plus the length of its text."""
    return _print(e, _BRANCH, _shared_nodes(e))


def _shared_nodes(root: Expr) -> dict:
    """{id(node): None} for each node reached along more than one parent
    edge.  Only their texts are worth keeping: keeping every node's text
    would cost a text's length once per level of nesting above it."""
    seen: set[int] = set()
    shared: dict[int, None] = {}
    stack = [root]
    while stack:
        e = stack.pop()
        if isinstance(e, TOp):
            kids = e.args
        elif isinstance(e, Seq):
            kids = (e.left, e.right)
        elif isinstance(e, Star):
            kids = (e.body, e.exit)
        else:
            continue
        for k in kids:
            if id(k) in seen:
                shared[id(k)] = None
            else:
                seen.add(id(k))
                stack.append(k)
    return shared


def _print(e: Expr, minlevel: int, memo: dict) -> str:
    # memo: id(shared node) -> None until rendered, then (unparenthesized
    # text, precedence level); each parent adds the parentheses its own
    # position needs.  The check stays in this one function, after the leaf
    # cases: a wrapper would double the frames per level, and a builtin call
    # at a leaf costs one more.
    if isinstance(e, Act):
        return e.name
    if isinstance(e, TOp) and isinstance(e.sym, ZeroSym):
        return "0"
    key = id(e)
    done = memo.get(key)
    if done is not None:
        text, level = done
    elif isinstance(e, TOp):
        sym = e.sym
        if isinstance(sym, ScaleSym):
            text = f"{_weight_text(sym.weight)} . {_print(e.args[0], _SCALE, memo)}"
            level = _SCALE
        else:
            text = (f"{_print(e.args[0], _SCALE, memo)} {sym.text()} "
                    f"{_print(e.args[1], _SCALE, memo)}")
            level = _BRANCH
    elif isinstance(e, Seq):
        text = f"{_print(e.left, _STAR, memo)} ; {_print(e.right, _SEQ, memo)}"
        level = _SEQ
    elif isinstance(e, Star):
        text = (f"{_print(e.body, _STAR, memo)} *{{{term_text(e.loop)}}} "
                f"{_print(e.exit, _ATOM, memo)}")
        level = _STAR
    else:
        raise TypeError(f"not an expression: {e!r}")
    if done is None and key in memo:
        memo[key] = (text, level)
    return f"({text})" if level < minlevel else text


def term_text(t: STerm) -> str:
    """Loop-term text in the theory's operator syntax."""
    return _print_term(t, _BRANCH)


def _print_term(t: STerm, minlevel: int) -> str:
    if isinstance(t, SVar):
        return str(t.name)
    sym = t.sym
    if isinstance(sym, ZeroSym):
        return "0"
    if isinstance(sym, ScaleSym):
        text = f"{_weight_text(sym.weight)} . {_print_term(t.args[0], _SCALE)}"
        level = _SCALE
    else:
        text = f"{_print_term(t.args[0], _SCALE)} {sym.text()} {_print_term(t.args[1], _SCALE)}"
        level = _BRANCH
    return f"({text})" if level < minlevel else text


def _weight_text(w) -> str:
    if isinstance(w, bool):
        return "1" if w else "0"
    return str(w)


# ---------------------------------------------------------------------------
# structural measures


def star_height(e: Expr) -> int:
    """Loop-nesting depth: the body of a star sits one level deeper."""
    if isinstance(e, Act):
        return 0
    if isinstance(e, TOp):
        return max((star_height(a) for a in e.args), default=0)
    if isinstance(e, Seq):
        return max(star_height(e.left), star_height(e.right))
    return max(star_height(e.body) + 1, star_height(e.exit))


def compute_U(e: Expr) -> frozenset[Expr]:
    """A finite superset of everything reachable from e, used as an upper
    bound on reachable-state counts."""
    if isinstance(e, Act):
        return frozenset((e,))
    if isinstance(e, TOp):
        out = {e}
        for a in e.args:
            out |= compute_U(a)
        return frozenset(out)
    if isinstance(e, Seq):
        return frozenset(
            {Seq(f, e.right) for f in compute_U(e.left)} | compute_U(e.right))
    out = {e}
    out |= {Seq(f, e) for f in compute_U(e.body)}
    out |= compute_U(e.exit)
    return frozenset(out)
