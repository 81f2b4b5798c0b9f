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

Actions and tests are lowercase identifiers.  The loop term between braces
uses the same branching operators over the reserved variables ``u`` and
``v`` (plus ``0`` and parentheses).  ``*{..}`` binds tighter than ``;``,
which binds tighter than branching; two branching operators always need
parentheses between them.  Weights and probabilities are ``m`` or ``m/n``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .theory import (
    BAnd, BFalse, BNot, BOr, BTest, BTrue,
    ChoiceSym, OPLUS, PLUS, ScaleSym, SOp, STerm,
    SVar, SZERO, TheoryConfig, ZeroSym, guard_sym, term_sort_key,
    term_variables, _sym_sort_key,
)


# ---------------------------------------------------------------------------
# abstract syntax


class Expr:
    __slots__ = ("_hash", "_key")

    def __eq__(self, other):
        raise NotImplementedError

    def __hash__(self):
        return self._hash

    def sort_key(self):
        if self._key is None:
            self._key = self._make_key()
        return self._key


class Act(Expr):
    """A single action; emits its name and accepts."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("act", name))
        self._key = None

    def __eq__(self, other):
        return type(other) is Act and other.name == self.name

    __hash__ = Expr.__hash__

    def __repr__(self):
        return f"Act({self.name})"

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
        self._key = None

    def __eq__(self, other):
        return other is self or type(other) is TOp and other._hash == self._hash \
            and other.sym == self.sym and other.args == self.args

    __hash__ = Expr.__hash__

    def __repr__(self):
        if not self.args:
            return "TOp(0)"
        inner = ", ".join(map(repr, self.args))
        return f"TOp({_sym_repr(self.sym)}, [{inner}])"

    def _make_key(self):
        return (1, _sym_sort_key(self.sym), tuple(a.sort_key() for a in self.args))


class Seq(Expr):
    """Sequential composition: run left, then right."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash(("seq", left._hash, right._hash))
        self._key = None

    def __eq__(self, other):
        return other is self or type(other) is Seq and other._hash == self._hash \
            and other.left == self.left and other.right == self.right

    __hash__ = Expr.__hash__

    def __repr__(self):
        return f"Seq({self.left!r}, {self.right!r})"

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
        self._key = None

    def __eq__(self, other):
        return other is self or type(other) is Star and other._hash == self._hash \
            and other.body == self.body and other.loop == self.loop \
            and other.exit == self.exit

    __hash__ = Expr.__hash__

    def __repr__(self):
        return f"Star({self.body!r}, {term_text(self.loop)}, {self.exit!r})"

    def _make_key(self):
        return (3, self.body.sort_key(), term_sort_key(self.loop), self.exit.sort_key())


def _sym_repr(sym):
    if isinstance(sym, ScaleSym):
        return f"{_weight_text(sym.weight)} ."
    return sym.text()


# ---------------------------------------------------------------------------
# tokenizer


_PUNCT_SINGLE = set(";()]}&|!./")


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            if not c.islower():
                raise ParseError(f"identifiers are lowercase, got {c!r}", i)
            j = i
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if c == "*":
            if i + 1 < n and text[i + 1] == "{":
                toks.append(("punct", "*{", i))
                i += 2
                continue
            raise ParseError("expected '{' after '*'", i)
        if c == "+":
            if i + 1 < n and text[i + 1] == "[":
                toks.append(("punct", "+[", i))
                i += 2
            else:
                toks.append(("punct", "+", i))
                i += 1
            continue
        if c == "(":
            if i + 1 < n and text[i + 1] == "+":
                if i + 2 < n and text[i + 2] == ")":
                    toks.append(("punct", "(+)", i))
                    i += 3
                else:
                    toks.append(("punct", "(+", i))
                    i += 2
            else:
                toks.append(("punct", "(", i))
                i += 1
            continue
        if c in _PUNCT_SINGLE:
            toks.append(("punct", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, cfg: TheoryConfig):
        self.cfg = cfg
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text):
        kind, value, pos = self.next()
        if value != text:
            raise ParseError(f"expected {text!r}, got {value!r}", pos)

    def at(self, text):
        return self.toks[self.pos][1] == text

    def fail(self, message):
        raise ParseError(message, self.peek()[2])

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        left = self.parse_scaled()
        sym = self.try_branch_op()
        if sym is None:
            return left
        right = self.parse_scaled()
        out = TOp(sym, (left, right))
        if self.try_branch_op(probe=True):
            self.fail("branching operators are non-associative; add parentheses")
        return out

    def parse_scaled(self) -> Expr:
        if self.cfg.kind == "smod":
            weight = self.try_weight_dot()
            if weight is not None:
                return TOp(ScaleSym(weight), (self.parse_scaled(),))
        return self.parse_seq()

    def parse_seq(self) -> Expr:
        left = self.parse_star()
        if self.at(";"):
            self.next()
            return Seq(left, self.parse_seq())
        return left

    def parse_star(self) -> Expr:
        e = self.parse_atom()
        while self.at("*{"):
            self.next()
            loop = self.parse_sterm()
            self.expect("}")
            e = Star(e, loop, self.parse_atom())
        return e

    def parse_atom(self) -> Expr:
        kind, value, pos = self.next()
        if kind == "ident":
            return Act(value)
        if kind == "int" and value == "0":
            return TOp(ZeroSym())
        if value == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ParseError(f"expected an expression, got {value!r}", pos)

    # -- loop terms ---------------------------------------------------------

    def parse_sterm(self) -> STerm:
        left = self.parse_sterm_scaled()
        sym = self.try_branch_op()
        if sym is None:
            return left
        right = self.parse_sterm_scaled()
        out = SOp(sym, (left, right))
        if self.try_branch_op(probe=True):
            self.fail("branching operators are non-associative; add parentheses")
        return out

    def parse_sterm_scaled(self) -> STerm:
        if self.cfg.kind == "smod":
            weight = self.try_weight_dot()
            if weight is not None:
                return SOp(ScaleSym(weight), (self.parse_sterm_scaled(),))
        return self.parse_sterm_atom()

    def parse_sterm_atom(self) -> STerm:
        kind, value, pos = self.next()
        if kind == "ident":
            if value in ("u", "v"):
                return SVar(value)
            raise ParseError(f"loop terms may mention only u and v, got {value!r}", pos)
        if kind == "int" and value == "0":
            return SZERO
        if value == "(":
            t = self.parse_sterm()
            self.expect(")")
            return t
        raise ParseError(f"expected a loop term, got {value!r}", pos)

    # -- operators ----------------------------------------------------------

    def try_branch_op(self, probe=False):
        """Consume (or with probe=True just detect) a branching operator."""
        kind, value, pos = self.peek()
        cfgkind = self.cfg.kind
        if value not in ("+", "+[", "(+", "(+)"):
            return None
        if probe:
            return True
        self.next()
        if value == "+":
            if cfgkind != "sl":
                raise ParseError(f"operator + is not in the {cfgkind} signature", pos)
            return PLUS
        if value == "+[":
            if cfgkind not in ("ga", "gc"):
                raise ParseError(f"guarded choice is not in the {cfgkind} signature", pos)
            b = self.parse_bool()
            self.expect("]")
            return guard_sym(self.cfg, b)
        if value == "(+":
            if cfgkind not in ("ca", "gc"):
                raise ParseError(f"convex choice is not in the {cfgkind} signature", pos)
            p = self.parse_fraction()
            if not (0 <= p <= 1):
                raise ParseError(f"probability outside [0,1]: {p}", pos)
            self.expect(")")
            return ChoiceSym(p)
        if cfgkind != "smod":
            raise ParseError(f"weighted sum is not in the {cfgkind} signature", pos)
        return OPLUS

    def parse_fraction(self) -> Fraction:
        kind, value, pos = self.next()
        if kind != "int":
            raise ParseError(f"expected a number, got {value!r}", pos)
        num = int(value)
        if self.at("/"):
            self.next()
            kind, value, pos = self.next()
            if kind != "int" or int(value) == 0:
                raise ParseError(f"expected a nonzero denominator, got {value!r}", pos)
            return Fraction(num, int(value))
        return Fraction(num)

    def try_weight_dot(self):
        """Weight followed by '.', or None (with no tokens consumed)."""
        start = self.pos
        kind, value, pos = self.peek()
        if kind != "int":
            return None
        frac = self.parse_fraction()
        if not self.at("."):
            self.pos = start
            return None
        self.next()
        try:
            return self.cfg.semiring.parse(str(frac))
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    # -- guards -------------------------------------------------------------

    def parse_bool(self):
        left = self.parse_bool_conj()
        while self.at("|"):
            self.next()
            left = BOr(left, self.parse_bool_conj())
        return left

    def parse_bool_conj(self):
        left = self.parse_bool_lit()
        while self.at("&"):
            self.next()
            left = BAnd(left, self.parse_bool_lit())
        return left

    def parse_bool_lit(self):
        kind, value, pos = self.next()
        if value == "!":
            return BNot(self.parse_bool_lit())
        if value == "(":
            b = self.parse_bool()
            self.expect(")")
            return b
        if kind == "ident":
            if value == "true":
                return BTrue()
            if value == "false":
                return BFalse()
            if value not in self.cfg.tests:
                raise ParseError(
                    f"unknown test {value!r} (declared: {', '.join(self.cfg.tests) or 'none'})", pos)
            return BTest(value)
        raise ParseError(f"expected a test expression, got {value!r}", pos)


def parse(text: str, cfg: TheoryConfig) -> Expr:
    """Parse one expression; raises ParseError with a character position."""
    parser = _Parser(text, cfg)
    e = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
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
