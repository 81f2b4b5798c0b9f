"""Command line front end.

Exit codes: 0 success / equivalent; 1 inequivalent verdicts or fuzz
failures; 2 usage and parse errors, and output that cannot be written; 3
exceeded guard bounds; 4 internal errors (a defect in starexpr, reported
in one line and never as 1).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys as _sys

from .bisim import decide_equiv, minimize
from .errors import DocumentError, LimitExceededError, StarexprError
from .layering import (
    check_well_layered, labelling_doc, labelling_from_doc,
    search_labelling, syntactic_labelling,
)
from .semantics import export_dot, export_system, load_system, reachable, step, step_doc
from .solve import canonical_solution, roundtrip
from .syntax import parse, print_expr
from .theory import TheoryConfig, parse_selector

USAGE_EXIT, VERDICT_EXIT, BOUND_EXIT, INTERNAL_EXIT = 2, 1, 3, 4


def _cfg(args) -> TheoryConfig:
    if not args.theory:
        raise _Usage("--theory is required for this command")
    try:
        return parse_selector(args.theory)
    except ValueError as exc:
        raise _Usage(str(exc)) from None


class _Usage(Exception):
    pass


def _read_doc(path: str):
    try:
        if path == "-":
            text = _sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None


def _emit(doc):
    print(json.dumps(doc, indent=2, ensure_ascii=False))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args):
    cfg = _cfg(args)
    print(repr(parse(args.expr, cfg)))
    return 0


def _cmd_sem(args):
    cfg = _cfg(args)
    e = parse(args.expr, cfg)
    _emit(step_doc(cfg, step(cfg, e)))
    return 0


def _cmd_reach(args):
    cfg = _cfg(args)
    e = parse(args.expr, cfg)
    sys_, _root = reachable(cfg, e)
    if args.dot:
        _sys.stdout.write(export_dot(sys_))
    else:
        _emit(export_system(sys_))
    return 0


def _cmd_equiv(args):
    cfg = _cfg(args)
    e1 = parse(args.expr1, cfg)
    e2 = parse(args.expr2, cfg)
    if decide_equiv(cfg, e1, e2):
        print("equivalent")
        return 0
    print("inequivalent")
    return VERDICT_EXIT


def _cmd_minimize(args):
    sys_ = load_system(_read_doc(args.document))
    msys, h = minimize(sys_)
    _emit({"system": export_system(msys), "h": {x: h[x] for x in sys_.states}})
    return 0


def _cmd_label(args):
    modes = [m for m in ("from_expr", "check", "search") if getattr(args, m)]
    if len(modes) != 1:
        raise _Usage("label needs exactly one of --from-expr, --check, --search")
    mode = modes[0]
    if mode == "from_expr":
        cfg = _cfg(args)
        e = parse(args.from_expr, cfg)
        sys_, _root = reachable(cfg, e)
        lab = syntactic_labelling(cfg, e, sys_)
        doc = export_system(sys_)
        doc["labelling"] = labelling_doc(lab)
        _emit(doc)
        return 0
    doc = _read_doc(args.check if mode == "check" else args.search)
    sys_ = load_system(doc)
    if mode == "check":
        if "labelling" not in doc:
            raise DocumentError("document has no 'labelling' to check")
        lab = labelling_from_doc(doc["labelling"], sys_)
        verdict = check_well_layered(sys_, lab)
        print(verdict.describe())
        return 0 if verdict.ok else VERDICT_EXIT
    lab = search_labelling(sys_)
    if lab is None:
        print("none")
        return VERDICT_EXIT
    out = export_system(sys_)
    out["labelling"] = labelling_doc(lab)
    _emit(out)
    return 0


_ACTION = re.compile(r"[a-z][a-z0-9_]*")  # what the expression parser reads as an action


def _cmd_solve(args):
    doc = _read_doc(args.document)
    sys_ = load_system(doc)
    # the solution prints each action as itself, so it must read back as one
    for a in dict.fromkeys(a for row in sys_.rows for a in row[0]):
        if not _ACTION.fullmatch(a):
            raise DocumentError(f"action {a!r} is not an identifier [a-z][a-z0-9_]*, "
                                f"so solve cannot print it")
    if "labelling" not in doc:
        raise DocumentError("solve needs a system document with a 'labelling'")
    lab = labelling_from_doc(doc["labelling"], sys_)
    phi = canonical_solution(sys_, lab)
    out = export_system(sys_)
    out["labelling"] = labelling_doc(lab)
    out["solution"] = {x: print_expr(phi[x]) for x in sys_.states}
    _emit(out)
    return 0


def _cmd_roundtrip(args):
    cfg = _cfg(args)
    e = parse(args.expr, cfg)
    out = roundtrip(cfg, e)
    print(print_expr(out))
    if decide_equiv(cfg, out, e):
        print("verified: bisimilar")
        return 0
    print("verified: NOT bisimilar")
    return VERDICT_EXIT


# ---------------------------------------------------------------------------
# fuzzing


def _cmd_fuzz(args):
    # the suites and their generators load only here: no other command
    # pays for importing them
    import random

    from . import props

    cfg = _cfg(args)
    failures = 0
    for suite in props.SUITES:
        count = max(1, args.count // suite.divisor)
        rng = random.Random(f"{args.seed}:{cfg.selector()}:{suite.name}")
        for i in range(count):  # ascending budgets: the first failure is a small case
            case = suite.draw(rng, cfg, 1 + (i * args.size) // count)
            try:
                failure = suite.check(cfg, case)
            except StarexprError as exc:
                failure = props.Failure(type(exc).__name__, str(exc))
            if failure:
                print(f"FAIL {suite.name}: {failure.prop}")
                print(f"  case: {suite.text(case)}")
                print(f"  detail: {failure.detail}")
                failures += 1
                break
        else:
            print(f"ok {suite.name} ({count} cases)")
    return VERDICT_EXIT if failures else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="starexpr",
        description="Star expressions over branching theories: semantics, "
                    "equivalence, labellings, and system solving.")
    sub = top.add_subparsers(dest="command", required=True)

    def with_theory(p):
        p.add_argument("--theory", help="theory selector: sl, ga:tests=p,q, ca, "
                                        "gc:tests=p, smod:nat|bool|rat")
        return p

    p = with_theory(sub.add_parser("parse", help="echo the parsed tree"))
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_parse)

    p = with_theory(sub.add_parser("sem", help="print the one-step behaviour"))
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_sem)

    p = with_theory(sub.add_parser("reach", help="emit the reachable system document"))
    p.add_argument("expr")
    p.add_argument("--dot", action="store_true", help="GraphViz output")
    p.set_defaults(fn=_cmd_reach)

    for alias in ("equiv", "bisim"):
        p = with_theory(sub.add_parser(alias, help="decide equivalence of two expressions"))
        p.add_argument("expr1")
        p.add_argument("expr2")
        p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("minimize", help="quotient a system document by bisimilarity")
    p.add_argument("document", help="system document path, or - for stdin")
    p.set_defaults(fn=_cmd_minimize)

    p = with_theory(sub.add_parser("label", help="derive, check, or search labellings"))
    p.add_argument("--from-expr", dest="from_expr", metavar="EXPR",
                   help="syntactic labelling of the expression's reachable system")
    p.add_argument("--check", metavar="DOC", help="verify a labelled system document")
    p.add_argument("--search", metavar="DOC", help="search a labelling for a system document")
    p.set_defaults(fn=_cmd_label)

    p = sub.add_parser("solve", help="canonical solution of a labelled system document")
    p.add_argument("document", help="system+labelling document path, or - for stdin")
    p.set_defaults(fn=_cmd_solve)

    p = with_theory(sub.add_parser("roundtrip", help="minimize, solve, and verify an expression"))
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_roundtrip)

    p = with_theory(sub.add_parser("fuzz", help="run the property suites"))
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_fuzz)

    return top


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        _sys.stdout.flush()  # so a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError as exc:
        # the reader went away; the buffered rest goes nowhere at shutdown
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc}", file=_sys.stderr)
        return USAGE_EXIT
    except LimitExceededError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return BOUND_EXIT
    except RecursionError:
        print("error: input nests too deeply (recursion limit reached)",
              file=_sys.stderr)
        return BOUND_EXIT
    except (_Usage, StarexprError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # a defect: exit 1 would read as a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return INTERNAL_EXIT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
