"""Domain/problem text format and the bundled domains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import format_domain, format_problem
from poclab.domains import (
    ParseError,
    Problem,
    bundled,
    bundled_names,
    parse_domain,
    parse_problem,
)

BLOCKS_TEXT = """
; a tiny stacking world
(define (domain mini)
  (:predicates (on ?x ?y) (clear ?x))
  (:operator stack
    :parameters (?x ?y)
    :precondition (and (clear ?x) (clear ?y))
    :effect (and (on ?x ?y) (not (clear ?y)))))
"""


def test_parse_domain_basics():
    d = parse_domain(BLOCKS_TEXT)
    assert d.name == "mini"
    assert d.predicates == {"on": 2, "clear": 1}
    [op] = d.operators
    assert op.name == "stack"
    assert op.params == ("?x", "?y")
    assert [str(l) for l in op.preconds] == ["(clear ?x)", "(clear ?y)"]
    assert [str(l) for l in op.effects] == ["(on ?x ?y)", "(not (clear ?y))"]


def test_round_trip_through_printer():
    d = parse_domain(BLOCKS_TEXT)
    assert parse_domain(format_domain(d)) == d
    dom, probs = bundled("blocks")
    assert parse_domain(format_domain(dom)) == dom
    for p in probs:
        assert parse_problem(format_problem(p), dom) == p


def test_precondition_order_preserved():
    d = parse_domain(BLOCKS_TEXT)
    assert [l.pred for l in d.operators[0].preconds] == ["clear", "clear"]
    flipped = BLOCKS_TEXT.replace("(clear ?x) (clear ?y)", "(clear ?y) (clear ?x)")
    d2 = parse_domain(flipped)
    assert [l.args for l in d2.operators[0].preconds] == [("?y",), ("?x",)]


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda t: t.replace("(and (on ?x ?y) (not", "(and (on ?x) (not"), "expects 2 arguments"),
        (lambda t: t.replace("(on ?x ?y) (not", "(onn ?x ?y) (not"), "undeclared predicate"),
        (lambda t: t.replace(":parameters (?x ?y)", ":parameters (?x)"), "not in :parameters"),
        (lambda t: t.replace("(:predicates", "(:predicats"), "unknown domain section"),
        (lambda t: t.replace("(:operator", "(:operator stack :parameters (?x) :precondition (and)"
                             " :effect (and (clear ?x)))\n(:operator"), "operator 'stack' defined twice"),
        (lambda t: t + ")", "unmatched ')'"),
        (lambda t: t.replace("(define", "((define"), None),
    ],
)
def test_domain_errors_are_positioned(mangle, fragment):
    with pytest.raises(ParseError) as err:
        parse_domain(mangle(BLOCKS_TEXT))
    assert "line" in str(err.value) and "column" in str(err.value)
    if fragment:
        assert fragment in str(err.value)


def test_problem_errors():
    d = parse_domain(BLOCKS_TEXT)
    base = (
        "(define (problem p) (:domain mini) (:objects A B)"
        " (:init (clear A) (clear B)) (:goal (and (on A B))))"
    )
    assert isinstance(parse_problem(base, d), Problem)
    with pytest.raises(ParseError, match="positive"):
        parse_problem(base.replace("(clear A)", "(not (clear A))"), d)
    with pytest.raises(ParseError, match="undeclared object"):
        parse_problem(base.replace("(clear B)", "(clear Z)"), d)
    with pytest.raises(ParseError, match="expects 2 arguments"):
        parse_problem(base.replace("(on A B)", "(on A)"), d)
    with pytest.raises(ParseError, match="must be ground"):
        parse_problem(base.replace("(on A B)", "(on A ?x)"), d)
    with pytest.raises(ParseError, match="declares domain"):
        parse_problem(base.replace("(:domain mini)", "(:domain other)"), d)
    # a goal form after the (and ...) is reported, not dropped
    with pytest.raises(ParseError, match="exactly one") as err:
        parse_problem(base.replace("(:goal (and (on A B)))", "(:goal (and (clear A))\n (on A B))"), d)
    assert (err.value.line, err.value.col) == (2, 2)


@pytest.mark.parametrize(
    "section",
    ["(:domain other)", "(:objects C)", "(:init (clear B))", "(:goal (and (clear A)))"],
)
def test_a_repeated_problem_section_is_rejected(section):
    # a second section would otherwise replace (:domain) or extend
    # (:objects, :init, :goal) the first one
    d = parse_domain(BLOCKS_TEXT)
    base = (
        "(define (problem p) (:domain mini) (:objects A B)"
        " (:init (clear A)) (:goal (and (on A B)))"
    )
    with pytest.raises(ParseError, match=f"duplicate {section[1:].split()[0]}") as err:
        parse_problem(f"{base}\n {section})", d)
    assert (err.value.line, err.value.col) == (2, 3)


OPERATOR_FIRST_TEXT = """
(define (domain mini)
  (:operator stack
    :parameters (?x ?y)
    :precondition (and (clear ?x) (clear ?y))
    :effect (and (on ?x ?y) (not (clear ?y))))
  (:predicates (on ?x ?y) (clear ?x)))
"""


def test_a_section_may_declare_names_after_their_use():
    # the format fixes no section order, so a name that a later section
    # declares is declared
    problem = "(define (problem p) (:domain blocks) {} (:goal (and (on B A))))"
    objects_first = parse_problem(problem.format("(:objects A B) (:init (on A B))"))
    assert parse_problem(problem.format("(:init (on A B)) (:objects A B)")) == objects_first
    assert parse_domain(OPERATOR_FIRST_TEXT) == parse_domain(BLOCKS_TEXT)
    # a name that no section declares is still reported where it is used
    with pytest.raises(ParseError, match="undeclared object 'C'") as err:
        parse_problem(problem.format("(:init (on A C)) (:objects A B)"))
    assert (err.value.line, err.value.col) == (1, 45)
    with pytest.raises(ParseError, match="undeclared predicate 'top'") as err:
        parse_domain(OPERATOR_FIRST_TEXT.replace("(on ?x ?y) (not", "(top ?x ?y) (not"))
    assert (err.value.line, err.value.col) == (6, 18)


@pytest.mark.parametrize(
    "read,text,message,line,col",
    [
        (parse_domain, "; c\n\n  (define (problem p) (:domain d))", "expected a domain, got a problem", 3, 11),
        (parse_problem, BLOCKS_TEXT, "expected a problem, got a domain", 3, 9),
        # a body that also holds an error: the head's kind is checked first
        (parse_domain, "(define (problem p) (:domain d) (:foo))", "expected a domain, got a problem", 1, 9),
        (parse_problem, "(define (domain d) (:foo))", "expected a problem, got a domain", 1, 9),
    ],
)
def test_a_wrong_kind_is_reported_at_its_head(read, text, message, line, col):
    with pytest.raises(ParseError, match=message) as err:
        read(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_line_ends_tabs_and_comments_read_as_whitespace():
    # '\r' and '\t' are whitespace, and an atom ends at a ';'
    base = parse_domain(BLOCKS_TEXT)
    assert parse_domain(BLOCKS_TEXT.replace("\n", "\r\n")) == base
    assert parse_domain(BLOCKS_TEXT.replace("  ", "\t")) == base
    assert parse_domain(BLOCKS_TEXT.replace("(clear ?x))", "(clear ?x;the one left\n))", 1)) == base


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        # '\r' ends no line: the next line starts at column 1
        ("(define (domain d)\r\n  (:predicates (p ?x))\r\n  (:foo))\r\n", "unknown domain section ':foo'", 3, 3),
        # a tab is one column wide
        ("(define (domain d)\n\t(:predicates (p ?x))\n\t\t(:foo))", "unknown domain section ':foo'", 3, 3),
        (BLOCKS_TEXT.replace("(clear ?x))", "(clear ?x;the one left\n))", 1).replace("(not (clear ?y))", "(not\t(clr ?y))"),
         "undeclared predicate 'clr'", 9, 29),
        # the comment after '?x' swallows the ')' that would close the form
        ("(define (domain d)\n  (:predicates (p ?x;)\n  (:foo))", "form never closed", 2, 3),
        # a form left open at the end of the text is reported at its '(',
        # the innermost one first
        ("(define (domain d)\n  (:predicates (p ?x)", "form never closed", 2, 3),
        ("(define (domain d)\n  (:predicates (p ?x)) ; one ')' short", "form never closed", 1, 1),
        (BLOCKS_TEXT.replace("\n", "\r\n").replace("(clear ?y)))", "(clear ?y))"), "form never closed", 3, 1),
    ],
)
def test_reader_positions_past_line_ends_tabs_and_comments(text, message, line, col):
    with pytest.raises(ParseError, match=message) as err:
        parse_domain(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_arity_mismatch_names_predicate_and_position():
    d = parse_domain(BLOCKS_TEXT)
    text = "(define (problem p) (:domain mini) (:objects A)\n (:init (on A)) (:goal (and (clear A))))"
    with pytest.raises(ParseError) as err:
        parse_problem(text, d)
    assert "'on'" in str(err.value) and "line 2" in str(err.value)


def test_bundled_names_and_shapes():
    assert set(bundled_names()) == {"blocks", "briefcase", "tileworld"}
    dom, probs = bundled("blocks")
    assert [p.name for p in probs] == ["sussman", "tower4", "invert4"]
    dom, probs = bundled("briefcase")
    gp = probs[0]
    assert len(gp.goal) == 3
    # the paycheck starts inside the briefcase
    assert any(l.pred == "in" and l.args[0].name == "paycheck" for l in gp.init)
    dom, probs = bundled("tileworld")
    assert [p.name for p in probs] == [f"tileworld-{k}" for k in (1, 2, 3, 4)]
    assert [l.pred for l in probs[0].goal] == ["filled"]
    for k, p in enumerate(probs, start=1):
        assert len(p.goal) == k
    with pytest.raises(KeyError):
        bundled("trains")


def test_bundled_problems_pass_their_domains():
    for name in bundled_names():
        dom, probs = bundled(name)
        for p in probs:
            assert p.domain_name == dom.name


SYMBOL = st.text(alphabet="abcdefgxyz-", min_size=1, max_size=6).filter(
    lambda s: not s.startswith("-")
)


@settings(max_examples=200, deadline=None)
@given(
    preds=st.lists(st.tuples(SYMBOL, st.integers(0, 3)), min_size=1, max_size=4, unique_by=lambda t: t[0])
)
def test_generated_domains_round_trip(preds):
    decls = " ".join(f"({p}" + "".join(f" ?a{i}" for i in range(n)) + ")" for p, n in preds)
    pred, arity = preds[0]
    params = " ".join(f"?a{i}" for i in range(arity))
    litxt = f"({pred}" + ("" if arity == 0 else " " + params) + ")"
    text = (
        f"(define (domain g) (:predicates {decls})"
        f" (:operator o :parameters ({params}) :precondition (and {litxt})"
        f" :effect (and (not {litxt}))))"
    )
    d = parse_domain(text)
    assert parse_domain(format_domain(d)) == d


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="(); abc?\n-:", max_size=60))
def test_malformed_inputs_never_crash(text):
    for parse in (parse_domain, parse_problem):
        try:
            parse(text)
        except ParseError as e:
            assert e.line >= 1 and e.col >= 1
        except RecursionError:
            pytest.fail("parser recursed unboundedly")


def test_every_bundled_problem_is_solvable():
    """Scripted ground solutions, checked by the independent executor
    (breadth-first search is infeasible for the larger tileworld maps)."""
    scripts = {
        "sussman": [("move-to-table", ("C", "A")), ("move-from-table", ("B", "C")),
                    ("move-from-table", ("A", "B"))],
        "tower4": [("move-from-table", ("C", "D")), ("move-from-table", ("B", "C")),
                   ("move-from-table", ("A", "B"))],
        "invert4": [("move-to-table", ("A", "B")), ("move", ("B", "C", "A")),
                    ("move", ("C", "D", "B")), ("move-from-table", ("D", "C"))],
        "get-paid": [("put-in", ("dictionary", "home")), ("move", ("home", "bank")),
                     ("take-out", ("paycheck", "bank")), ("move", ("bank", "office")),
                     ("take-out", ("dictionary", "office")), ("move", ("office", "home"))],
        "get-paid-bc-at-work": [("move", ("office", "home")), ("put-in", ("dictionary", "home")),
                                ("move", ("home", "bank")), ("take-out", ("paycheck", "bank")),
                                ("move", ("bank", "office")), ("take-out", ("dictionary", "office")),
                                ("move", ("office", "home"))],
    }
    for name in bundled_names():
        dom, probs = bundled(name)
        for p in probs:
            if p.name in scripts:
                assert oracle.execute(dom, p, scripts[p.name]), p.name
            else:
                assert p.name.startswith("tileworld-")
                k = int(p.name.split("-")[1])
                script = [("go", ("start", "depot"))]
                for i in range(1, k + 1):
                    script.append(("pickup", (f"t{i}", "depot", f"s{i}")))
                script.append(("go", ("depot", "field")))
                for i in range(1, k + 1):
                    script.append(("fill", (f"h{i}", f"t{i}", "field", f"s{i}")))
                assert oracle.execute(dom, p, script), p.name


def test_sussman_optimum_is_three_actions():
    dom, probs = bundled("blocks")
    assert oracle.optimal_length(dom, probs[0], max_depth=4) == 3
