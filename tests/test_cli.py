"""Command line behaviour: outputs, document flows, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    BAD_ENTRIES, ILL_IMAGE, ILL_LAYERED, NOT_RATIONAL_EDGES, bad_entry_doc, ill_layered,
    loop_chain_doc, nested_loops, sl_chain_doc, weighted_doc,
)
from starexpr import gen, props
from starexpr.cli import run
from starexpr.errors import LimitExceededError
from starexpr.layering import check_well_layered, labelling_doc
from starexpr.semantics import export_system, load_system
from starexpr.syntax import parse, print_expr
from starexpr.theory import parse_selector


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_echoes_tree(capsys):
    code, out, _ = invoke(capsys, "parse", "--theory", "sl", "(a + b) ; c")
    assert code == 0
    assert out.strip() == "Seq(TOp(+, [Act(a), Act(b)]), Act(c))"


def test_sem_prints_step(capsys):
    code, out, _ = invoke(capsys, "sem", "--theory", "sl", "a + b")
    assert code == 0
    assert json.loads(out) == [["a", "✓"], ["b", "✓"]]


def test_reach_emits_loadable_document(capsys):
    code, out, _ = invoke(capsys, "reach", "--theory", "ca", "a *{u (+1/2) v} b")
    assert code == 0
    sys_ = load_system(json.loads(out))
    assert sys_.root == "s0" and len(sys_.states) == 1


def test_reach_dot(capsys):
    code, out, _ = invoke(capsys, "reach", "--theory", "sl", "--dot", "a *{u+v} b")
    assert code == 0
    assert out.startswith("digraph") and '"✓"' in out


def test_equiv_exit_codes(capsys):
    code, out, _ = invoke(capsys, "equiv", "--theory", "sl", "(a+b);c", "a;c + b;c")
    assert (code, out.strip()) == (0, "equivalent")
    code, out, _ = invoke(capsys, "equiv", "--theory", "sl", "a", "b")
    assert (code, out.strip()) == (1, "inequivalent")
    code, out, _ = invoke(capsys, "bisim", "--theory", "sl", "a + a", "a")
    assert (code, out.strip()) == (0, "equivalent")


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "parse", "--theory", "sl", "a +")
    assert code == 2 and "position" in err
    code, _, err = invoke(capsys, "equiv", "--theory", "nope", "a", "a")
    assert code == 2
    code, _, err = invoke(capsys, "fuzz", "--theory", "ga:tests=true", "--count", "50",
                          "--size", "6", "--seed", "1")
    assert code == 2 and "reserved" in err


def test_digits_that_are_not_decimal_are_parse_errors(capsys):
    code, out, err = invoke(capsys, "equiv", "--theory", "ca", "a (+1/²) b", "a")
    assert (code, out, err) == (2, "", "error: unexpected character '²' (at position 6)\n")


def test_non_ascii_identifiers_are_parse_errors(capsys):
    code, out, err = invoke(capsys, "equiv", "--theory", "sl", "é", "é")
    assert (code, out, err) == (2, "", "error: unexpected character 'é' (at position 0)\n")
    code, out, err = invoke(capsys, "parse", "--theory", "sl", "é ; a²")
    assert (code, out) == (2, "") and "(at position 0)" in err


@pytest.mark.parametrize("tests", ["p,,q", "p,", ",p"])
def test_empty_test_names_are_refused(tmp_path, capsys, tests):
    code, out, err = invoke(capsys, "equiv", "--theory", f"ga:tests={tests}", "a", "a")
    assert (code, out, err) == (2, "", "error: bad test name: ''\n")
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"theory": f"gc:tests={tests}", "states": ["s0"],
                                "beta": {"s0": {}}}))
    code, out, err = invoke(capsys, "minimize", str(path))
    assert (code, out, err) == (2, "", "error: bad theory selector: bad test name: ''\n")
    # no tests at all is the one-atom guarded theory
    code, out, _ = invoke(capsys, "equiv", "--theory", "ga:tests=", "a", "a")
    assert (code, out) == (0, "equivalent\n")


@pytest.mark.parametrize("theory", [5, None, ["sl"]])
def test_theory_that_is_no_string_is_refused(tmp_path, capsys, theory):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"theory": theory, "states": ["s0"], "beta": {"s0": []}}))
    code, out, err = invoke(capsys, "minimize", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: theory must be a selector string, got {theory!r}\n"


def test_minimize_flow(tmp_path, capsys):
    code, out, _ = invoke(capsys, "reach", "--theory", "sl", "(a+a) *{u+v} b")
    doc = tmp_path / "sys.json"
    doc.write_text(out)
    code, out, _ = invoke(capsys, "minimize", str(doc))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"system", "h"}
    assert load_system(payload["system"]).states


def test_label_check_and_search(tmp_path, capsys):
    code, out, _ = invoke(capsys, "label", "--theory", "sl",
                          "--from-expr", "(a;b) *{u+v} c")
    assert code == 0
    doc = json.loads(out)
    assert doc["labelling"]["entry"] == [["s0", "a", "s1"]]
    path = tmp_path / "labelled.json"
    path.write_text(out)

    code, out, _ = invoke(capsys, "label", "--check", str(path))
    assert code == 0 and out.strip() == "ok"

    # flip the labelling to something ill-layered
    doc["labelling"]["entry"] = [["s1", "b", "s0"]]
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "label", "--check", str(path))
    assert code == 1 and "violated condition" in out

    del doc["labelling"]
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "label", "--search", str(path))
    assert code == 0
    assert json.loads(out)["labelling"]["entry"] == [["s0", "a", "s1"]]


def test_label_search_reports_none(tmp_path, capsys):
    doc = {"theory": "sl", "states": ["x", "y"],
           "beta": {"x": [["a", "y"], ["t", "✓"]],
                    "y": [["b", "x"], ["t", "✓"]]}}
    path = tmp_path / "none.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "label", "--search", str(path))
    assert code == 1 and out.strip() == "none"


def test_solve_flow(tmp_path, capsys):
    code, out, _ = invoke(capsys, "label", "--theory", "sl",
                          "--from-expr", "(a;b) *{u+v} c")
    path = tmp_path / "labelled.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "solve", str(path))
    assert code == 0
    phi = json.loads(out)["solution"]
    sl = parse_selector("sl")
    for text in phi.values():
        parse(text, sl)  # well-formed output in the expression grammar


@pytest.mark.parametrize("condition", sorted(ILL_LAYERED))
def test_solve_refuses_an_ill_layered_labelling(tmp_path, capsys, condition):
    sys_, lab = ill_layered(condition)
    doc = export_system(sys_)
    doc["labelling"] = labelling_doc(lab)
    path = tmp_path / "ill.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "solve", str(path))
    verdict = check_well_layered(sys_, lab).describe()
    assert (code, out, err) == (2, "", f"error: labelling is not well-layered: {verdict}\n")


def _one_state_doc(*actions):
    """A labelled, well-layered document: state x accepts on each action."""
    return {"theory": "sl", "states": ["x"], "beta": {"x": [[a, "✓"] for a in actions]},
            "labelling": {"entry": []}}


@pytest.mark.parametrize("action", ["a ; b", "", "A", "a b", "b2 + c", "\u00e9"])
def test_solve_refuses_actions_that_do_not_print_as_one(tmp_path, capsys, action):
    # "a ; b" would print as a two-step process, "" as empty text and "A"
    # as text the parser rejects; the first bad action is named
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_one_state_doc("a_1", action, "B")))
    code, out, err = invoke(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: action {action!r} is not an identifier [a-z][a-z0-9_]*, "
                   f"so solve cannot print it\n")
    # commands that print no expressions take any action
    for argv in (["minimize"], ["label", "--check"], ["label", "--search"]):
        code, out, err = invoke(capsys, *argv, str(path))
        assert (code, err) == (0, ""), argv


def test_solve_prints_identifier_actions(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_one_state_doc("a_1", "z9")))
    code, out, _ = invoke(capsys, "solve", str(path))
    assert code == 0 and json.loads(out)["solution"] == {"x": "a_1 + z9"}


def test_roundtrip_verdict(capsys):
    code, out, _ = invoke(capsys, "roundtrip", "--theory", "sl", "a *{u+v} b")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verified: bisimilar"
    sl = parse_selector("sl")
    parse(lines[0], sl)


def test_roundtrip_verifies_where_the_image_is_ill_layered(capsys):
    code, out, err = invoke(capsys, "roundtrip", "--theory", "smod:nat", ILL_IMAGE)
    assert (code, err) == (0, "") and out.endswith("\nverified: bisimilar\n")


@pytest.mark.parametrize("selector, text", [("smod:nat", "2 . a ; b (+) c"),
                                            ("ca", "a ; b (+1/2) c")])
def test_loop_free_roundtrips_print_their_input(capsys, selector, text):
    code, out, _ = invoke(capsys, "roundtrip", "--theory", selector, text)
    assert (code, out) == (0, f"{text}\nverified: bisimilar\n")


def test_label_search_answers_past_twenty_transitions(tmp_path, capsys):
    beta = {f"s{i}": [[a, f"s{(i + 1) % 5}"] for a in "abcde"] for i in range(5)}
    doc = {"theory": "sl", "states": [f"s{i}" for i in range(5)], "beta": beta}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "label", "--search", str(path))
    assert (code, err) == (0, "")
    path.write_text(out)
    code, out, _ = invoke(capsys, "label", "--check", str(path))
    assert (code, out) == (0, "ok\n")


def test_roundtrip_without_a_labelling_of_the_collapse_exits_4(capsys, monkeypatch):
    # the collapse of an expression always has a labelling: a search that
    # finds none is a defect, never a reason to solve another system
    from starexpr import solve
    monkeypatch.setattr(solve, "search_labelling", lambda sys_: None)
    code, out, err = invoke(capsys, "roundtrip", "--theory", "smod:nat", ILL_IMAGE)
    assert (code, out) == (4, "") and err.startswith("error: internal error: RuntimeError")


def test_deep_nesting_exits_bound_not_inequivalent(capsys):
    deep = "(" * 600 + "a" + ")" * 600
    code, out, err = invoke(capsys, "equiv", "--theory", "sl", deep, "a")
    assert code == 3 and out == ""
    assert err.startswith("error: input nests too deeply")
    assert "Traceback" not in err


def test_long_chains_check_and_solve_up_to_printing(tmp_path, capsys):
    # checking and solving are iterative; printing the solution's deep
    # expressions is what still hits the recursion limit (exit 3)
    for name, doc in (("sl", sl_chain_doc(5000)), ("loop", loop_chain_doc(1600))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "label", "--check", str(path))
        assert (code, out) == (0, "ok\n")
        code, out, err = invoke(capsys, "solve", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: input nests too deeply")


def test_loop_free_chains_solve_until_printing_nests_too_deeply(tmp_path):
    # a loop-free state solves to its one step, not to a star around it, so
    # printing nests once per state; a fresh process, as the command runs,
    # has the whole default recursion limit
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for n, expected in ((990, 0), (1100, 3)):
        path = tmp_path / f"sl-{n}.json"
        path.write_text(json.dumps(sl_chain_doc(n)))
        done = subprocess.run([sys.executable, "-m", "starexpr.cli", "solve", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == expected, done.stderr
        if expected == 0:
            assert json.loads(done.stdout)["solution"]["s0"] == " ; ".join(["a"] * n)
        else:
            assert done.stderr.startswith("error: input nests too deeply")


def _fresh_cli(*argv, **kwargs):
    """Run the command line in a fresh process, with the whole default
    recursion limit."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "starexpr.cli", *argv], env=env, text=True,
                          timeout=120, **kwargs)


def test_parsing_nests_up_to_about_200_parentheses():
    # on CPython 3.11 with its default recursion limit: four parser frames
    # per level
    for depth, expected in ((246, 0), (247, 3)):
        e = "(" * depth + "a" + ")" * depth
        done = _fresh_cli("equiv", "--theory", "sl", e, "a", capture_output=True)
        assert done.returncode == expected, (depth, done.stderr)
        if expected == 3:
            assert done.stderr.startswith("error: input nests too deeply")


def test_nested_loops_run_to_the_parsers_depth_limit():
    # exploring, deciding, comparing, solving and writing a tree's repr
    # recurse less than parsing nested loops: every command answers at the
    # deepest nesting that parses, and one level deeper the parser exits 3
    def code(command, d):
        argv = [command, "--theory", "sl", nested_loops(d, text=True)]
        if command == "equiv":
            argv.append(argv[-1])
        done = _fresh_cli(*argv, capture_output=True)
        assert done.returncode in (0, 3), done.stderr
        if done.returncode == 3:
            assert done.stderr.startswith("error: input nests too deeply")
        return done.returncode

    # on CPython 3.11 with its default recursion limit
    deepest = {"parse": 246, "reach": 246, "equiv": 246, "roundtrip": 246}
    assert min(deepest.values()) >= 163  # where every command stopped before
    for command, d in deepest.items():
        assert (code(command, d), code(command, d + 1)) == (0, 3), command


def test_long_chains_decide_and_roundtrip_in_a_fresh_process():
    # neither parsing a ';' spine nor comparing two chains recurses per
    # unit; printing does, and a 900-unit chain prints
    chain = " ; ".join(["a"] * 900)
    regrouped = f"({' ; '.join(['a'] * 450)}) ; {' ; '.join(['a'] * 450)}"
    done = _fresh_cli("equiv", "--theory", "sl", chain, regrouped, capture_output=True)
    assert (done.returncode, done.stdout) == (0, "equivalent\n"), done.stderr
    done = _fresh_cli("roundtrip", "--theory", "sl", chain, capture_output=True)
    assert (done.returncode, done.stdout) == (0, f"{chain}\nverified: bisimilar\n"), done.stderr


def test_successors_under_one_action_order_by_keys_at_any_depth(monkeypatch):
    # a head's targets under one action are ordered by their sort keys,
    # which are built and compared without recursion: two 3,000-unit
    # chains that differ in their first unit, or in the unit after a
    # 3,000-unit equal prefix, explore alike under two hash seeds and decide
    x, y = " ; ".join(["a"] * 3000), " ; ".join(["b"] * 3000)
    for e, states in ((f"(a ; {x}) + (a ; {y})", 6001),
                      (f"(a ; {x} ; c) + (a ; {x} ; d)", 6003)):
        outs = []
        for seed in ("0", "1"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            done = _fresh_cli("reach", "--theory", "sl", e, capture_output=True)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1] and len(json.loads(outs[0])["states"]) == states
        done = _fresh_cli("equiv", "--theory", "sl", e, e, capture_output=True)
        assert (done.returncode, done.stdout) == (0, "equivalent\n"), done.stderr


def test_a_long_run_of_negations_parses_explores_and_roundtrips():
    # a run of '!' is read in a loop; its text keeps every '!'
    e = f"a +[{'!' * 5000}p] b"
    done = _fresh_cli("parse", "--theory", "ga:tests=p", e, capture_output=True)
    assert done.stdout == f"TOp(+[{'!' * 5000}p], [Act(a), Act(b)])\n", done.stderr
    odd = f"a +[{'!' * 5001}p] b"
    for argv in (("reach", e), ("roundtrip", e), ("equiv", e, "a +[p] b"),
                 ("equiv", odd, "b +[p] a")):
        done = _fresh_cli(argv[0], "--theory", "ga:tests=p", *argv[1:], capture_output=True)
        assert done.returncode == 0, (argv, done.stderr)
        if argv[0] == "equiv":
            assert done.stdout == "equivalent\n", argv


def test_guards_nest_up_to_the_parsers_depth_limit():
    # on CPython 3.11 with its default recursion limit: two parser frames
    # per level of parentheses in a guard
    for depth, expected in ((493, 0), (494, 3)):
        g = "(" * depth + "p" + ")" * depth
        for command in ("reach", "roundtrip"):
            done = _fresh_cli(command, "--theory", "ga:tests=p", f"a +[{g}] b",
                              capture_output=True)
            assert done.returncode == expected, (depth, command, done.stderr)
            if expected == 3:
                assert done.stderr.startswith("error: input nests too deeply")


def test_parse_writes_the_tree_of_a_long_chain():
    # the parse command's repr walks the tree from an explicit stack
    chain = " ; ".join(["a"] * 20_000)
    done = _fresh_cli("parse", "--theory", "sl", chain, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Seq(Act(a), " * 19_999 + "Act(a)" + ")" * 19_999 + "\n"


def test_a_closed_stdout_exits_2_without_a_traceback():
    # the reader is gone before the output of 60 loops in sequence is written
    read, write = os.pipe()
    os.close(read)
    try:
        done = _fresh_cli("reach", "--theory", "sl", " ; ".join(["(a ; c) *{u + v} b"] * 60),
                          stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_fuzz_reports_first_failing_case(capsys, monkeypatch):
    def broken(cfg, e):
        return props.Failure("always-broken", "forced failure")

    print_parse = props.SUITES[0]
    monkeypatch.setattr(props, "SUITES", [print_parse._replace(name="broken", check=broken),
                                          print_parse])
    code, out, _ = invoke(capsys, "fuzz", "--theory", "sl", "--count", "5")
    assert code == 1
    assert "FAIL broken: always-broken" in out
    assert "detail: forced failure" in out
    assert out.count("ok ") == 1  # remaining suites still run


def test_fuzz_reports_a_case_whose_check_raises(capsys, monkeypatch):
    # a documented error raised while checking a case fails that suite,
    # names the case and lets the later suites run
    def bounded(cfg, e):
        raise LimitExceededError("13 tests exceed the limit of 12 (4096 atoms)")

    monkeypatch.setattr(props, "roundtrip", bounded)
    suites = {suite.name: suite for suite in props.SUITES}
    monkeypatch.setattr(props, "SUITES", [suites["roundtrip"], suites["print-parse"]])
    code, out, _ = invoke(capsys, "fuzz", "--theory", "sl", "--count", "4")
    first = gen.rand_expr(random.Random("0:sl:roundtrip"), parse_selector("sl"), 1)
    assert code == 1
    assert out.splitlines() == [
        "FAIL roundtrip: LimitExceededError",
        f"  case: {print_expr(first)}",
        "  detail: 13 tests exceed the limit of 12 (4096 atoms)",
        "ok print-parse (4 cases)",
    ]

    def too_deep(cfg, e):
        raise RecursionError

    monkeypatch.setattr(props, "roundtrip", too_deep)
    code, out, err = invoke(capsys, "fuzz", "--theory", "sl", "--count", "4")
    assert code == 3 and err.startswith("error: input nests too deeply")


def test_value_cases_print_the_same_under_every_hash_seed():
    # a failing case is reported by its text, which must not follow the
    # hash order of the frozensets inside it
    script = (
        "import random\n"
        "from starexpr import props\n"
        "from starexpr.theory import parse_selector\n"
        "suite = next(s for s in props.SUITES if s.name == 'values')\n"
        "for selector in ('sl', 'ga:tests=p,q', 'ca', 'gc:tests=p', 'smod:nat'):\n"
        "    rng = random.Random(f'1:{selector}:values')\n"
        "    for budget in range(1, 5):\n"
        "        print(suite.text(suite.draw(rng, parse_selector(selector), budget)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    texts = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        texts.add(done.stdout)
    assert len(texts) == 1


def test_fuzz_deterministic(capsys):
    args = ["fuzz", "--theory", "sl", "--count", "12", "--size", "5", "--seed", "9"]
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("ok ") == 7


def test_bad_document_values_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for selector, entry in BAD_ENTRIES:
        path.write_text(json.dumps(bad_entry_doc(selector, entry)))
        code, out, err = invoke(capsys, "minimize", str(path))
        assert (code, out) == (2, ""), (selector, entry)
        assert err.startswith("error: ")


def test_masses_that_are_not_rationals_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for selector in ("ca", "smod:rat"):
        for raw in NOT_RATIONAL_EDGES:
            path.write_text(json.dumps(weighted_doc(selector, raw)))
            code, out, err = invoke(capsys, "minimize", str(path))
            assert (code, out) == (2, ""), (selector, raw)
            assert err.startswith("error: bad ")


def test_unexpected_exceptions_exit_4_in_one_line(capsys, monkeypatch):
    import starexpr.cli as cli

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "_cmd_parse", broken)
    code, out, err = invoke(capsys, "parse", "--theory", "sl", "a")
    assert (code, out) == (4, "")
    assert err == "error: internal error: KeyError: 'boom'\n"


def test_unreadable_and_malformed_documents_exit_2(tmp_path, capsys):
    code, out, err = invoke(capsys, "minimize", str(tmp_path / "missing.json"))
    assert (code, out) == (2, "") and err.startswith("error: cannot read ")
    doc = {"theory": "sl", "states": ["s0"], "beta": {"s0": [["a", "s0"]]}}
    path = tmp_path / "doc.json"
    # an unhashable root, and an unhashable labelling entry
    for extra, argv in (({"root": ["s0"]}, ["minimize"]),
                        ({"labelling": {"entry": [[["s0"], "a", "s0"]]}}, ["solve"]),
                        ({"labelling": {"entry": [[["s0"], "a", "s0"]]}}, ["label", "--check"])):
        path.write_text(json.dumps({**doc, **extra}))
        code, out, err = invoke(capsys, *argv, str(path))
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "internal" not in err


GA_PROBE = "(a +[p0] b) *{u +[p1] v} c"


def test_guarded_roundtrip_output_does_not_grow_with_the_tests(capsys):
    outputs = set()
    for n in (4, 10, 12):
        tests = ",".join(f"p{i}" for i in range(n))
        code, out, err = invoke(capsys, "roundtrip", "--theory", f"ga:tests={tests}", GA_PROBE)
        assert code == 0, err
        assert len(out.encode("utf-8")) < 1000
        outputs.add(out)
    assert outputs == {"((a +[p1] 0) +[p0] (b +[p1] 0)) *{u +[p1] v} (0 +[p1] c)\n"
                       "verified: bisimilar\n"}


def test_too_many_tests_exit_3(tmp_path, capsys):
    tests = ",".join(f"p{i}" for i in range(13))
    code, out, err = invoke(capsys, "roundtrip", "--theory", f"ga:tests={tests}", GA_PROBE)
    assert (code, out) == (3, "") and "limit of 12" in err
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"theory": f"gc:tests={tests}", "states": ["s0"],
                                "beta": {"s0": {}}}))
    code, out, err = invoke(capsys, "minimize", str(path))
    assert (code, out) == (3, "") and "limit of 12" in err
