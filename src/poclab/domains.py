"""Planning domain / problem text format and the bundled test domains.

The format is a small s-expression dialect::

    (define (domain blocks)
      (:predicates (on ?x ?y) (clear ?x))
      (:operator move
        :parameters (?b ?x ?y)
        :precondition (and (on ?b ?x) (clear ?b) (clear ?y))
        :effect (and (on ?b ?y) (clear ?x) (not (on ?b ?x)) (not (clear ?y)))))

    (define (problem sussman)
      (:domain blocks)
      (:objects A B C)
      (:init (on C A) (on-table A) ...)
      (:goal (and (on A B) (on B C))))

Comments run from `;` to end of line.  Precondition order is preserved
exactly as written; it is semantically significant because flaw agendas
inherit it.  Initial states are ground and positive (closed world).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import Literal, const

DOMAIN_EXTENSION = ".dom"
PROBLEM_EXTENSION = ".prob"


class ParseError(ValueError):
    """Syntax or validation error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SchemaLiteral:
    """Literal over operator parameters: args starting with '?' are
    parameters, everything else is a constant name."""

    positive: bool
    pred: str
    args: tuple[str, ...]

    def negated(self) -> SchemaLiteral:
        return SchemaLiteral(not self.positive, self.pred, self.args)

    def __str__(self) -> str:
        inner = self.pred if not self.args else f"{self.pred} " + " ".join(self.args)
        return f"({inner})" if self.positive else f"(not ({inner}))"


@dataclass(frozen=True)
class Operator:
    name: str
    params: tuple[str, ...]
    preconds: tuple[SchemaLiteral, ...]
    effects: tuple[SchemaLiteral, ...]


@dataclass(frozen=True)
class Domain:
    name: str
    predicates: dict[str, int] = field(default_factory=dict)  # name -> arity
    operators: tuple[Operator, ...] = ()

    def operator(self, name: str) -> Operator:
        for op in self.operators:
            if op.name == name:
                return op
        raise KeyError(name)

    @property
    def constants(self) -> tuple[str, ...]:
        """Constants mentioned inside operator schemas, sorted."""
        seen = set()
        for op in self.operators:
            for l in op.preconds + op.effects:
                seen.update(a for a in l.args if not a.startswith("?"))
        return tuple(sorted(seen))


@dataclass(frozen=True)
class Problem:
    name: str
    domain_name: str
    objects: tuple[str, ...]
    init: tuple[Literal, ...]
    goal: tuple[Literal, ...]


# ---------------------------------------------------------------------------
# reader


@dataclass
class _Node:
    value: object  # str for an atom, list[_Node] for a form
    line: int
    col: int

    @property
    def is_atom(self) -> bool:
        return isinstance(self.value, str)


def _tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, line, col
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            yield text[i:j], line, col
            col += j - i
            i = j
    yield None, line, col  # end marker


def _read_all(text: str) -> list[_Node]:
    stack: list[_Node] = []
    top: list[_Node] = []
    for tok, line, col in _tokenize(text):
        if tok is None:
            if stack:
                raise ParseError("unbalanced '(': form never closed", stack[-1].line, stack[-1].col)
            return top
        if tok == "(":
            node = _Node([], line, col)
            (stack[-1].value if stack else top).append(node)
            stack.append(node)
        elif tok == ")":
            if not stack:
                raise ParseError("unmatched ')'", line, col)
            stack.pop()
        else:
            (stack[-1].value if stack else top).append(_Node(tok, line, col))
    raise AssertionError("tokenizer did not emit end marker")


def _expect_atom(node: _Node, what: str) -> str:
    if not node.is_atom:
        raise ParseError(f"expected {what}, got a form", node.line, node.col)
    return node.value


def _expect_form(node: _Node, what: str) -> list[_Node]:
    if node.is_atom:
        raise ParseError(f"expected {what}, got '{node.value}'", node.line, node.col)
    return node.value


def _read_schema_literal(node: _Node) -> SchemaLiteral:
    items = _expect_form(node, "a literal")
    if not items:
        raise ParseError("empty literal", node.line, node.col)
    head = _expect_atom(items[0], "a predicate name")
    if head == "not":
        if len(items) != 2:
            raise ParseError("(not ...) takes exactly one literal", node.line, node.col)
        inner = _read_schema_literal(items[1])
        if not inner.positive:
            raise ParseError("doubly negated literal", node.line, node.col)
        return inner.negated()
    args = tuple(_expect_atom(a, "a term") for a in items[1:])
    return SchemaLiteral(True, head, args)


def _read_literal_list(node: _Node, ctx: str) -> list[tuple[SchemaLiteral, _Node]]:
    items = _expect_form(node, f"(and ...) in {ctx}")
    if not items or items[0].is_atom is False or items[0].value != "and":
        raise ParseError(f"{ctx} must be (and ...)", node.line, node.col)
    return [(_read_schema_literal(n), n) for n in items[1:]]


# ---------------------------------------------------------------------------
# domain / problem assembly


def _check_literal(l: SchemaLiteral, node: _Node, predicates: dict[str, int], params: set[str] | None):
    if l.pred not in predicates:
        raise ParseError(f"undeclared predicate '{l.pred}'", node.line, node.col)
    if len(l.args) != predicates[l.pred]:
        raise ParseError(
            f"predicate '{l.pred}' expects {predicates[l.pred]} arguments, got {len(l.args)}",
            node.line,
            node.col,
        )
    if params is not None:
        for a in l.args:
            if a.startswith("?") and a not in params:
                raise ParseError(f"variable '{a}' not in :parameters", node.line, node.col)


def _parse_operator(body: list[_Node], sec: _Node, predicates: dict[str, int]) -> Operator:
    if len(body) < 2:
        raise ParseError(":operator needs a name", sec.line, sec.col)
    name = _expect_atom(body[1], "an operator name")
    slots: dict[str, _Node] = {}
    i = 2
    while i < len(body):
        key = _expect_atom(body[i], "an operator keyword")
        if key not in (":parameters", ":precondition", ":effect"):
            raise ParseError(f"unknown operator keyword '{key}'", body[i].line, body[i].col)
        if i + 1 >= len(body):
            raise ParseError(f"{key} is missing its value", body[i].line, body[i].col)
        if key in slots:
            raise ParseError(f"duplicate {key}", body[i].line, body[i].col)
        slots[key] = body[i + 1]
        i += 2
    for key in (":parameters", ":precondition", ":effect"):
        if key not in slots:
            raise ParseError(f"operator '{name}' is missing {key}", sec.line, sec.col)
    params: list[str] = []
    for p in _expect_form(slots[":parameters"], "a parameter list"):
        v = _expect_atom(p, "a parameter")
        if not v.startswith("?"):
            raise ParseError(f"parameter '{v}' must start with '?'", p.line, p.col)
        if v in params:
            raise ParseError(f"duplicate parameter '{v}'", p.line, p.col)
        params.append(v)
    pset = set(params)
    pre = _read_literal_list(slots[":precondition"], ":precondition")
    eff = _read_literal_list(slots[":effect"], ":effect")
    for l, n in pre + eff:
        _check_literal(l, n, predicates, pset)
    if not eff:
        raise ParseError(f"operator '{name}' has no effects", sec.line, sec.col)
    return Operator(name, tuple(params), tuple(l for l, _ in pre), tuple(l for l, _ in eff))


def _ground_literal(l: SchemaLiteral, node: _Node, objects: set[str] | None) -> Literal:
    args = []
    for a in l.args:
        if a.startswith("?"):
            raise ParseError(f"variable '{a}' not allowed here (must be ground)", node.line, node.col)
        if objects is not None and a not in objects:
            raise ParseError(f"undeclared object '{a}'", node.line, node.col)
        args.append(const(a))
    return Literal(l.positive, l.pred, tuple(args))


def _parse_problem(items: list[_Node], node: _Node, name: str, domain: Domain | None) -> Problem:
    domain_name: str | None = None
    objects: list[str] = []
    init: list[Literal] = []
    goal: list[Literal] = []
    preds = domain.predicates if domain is not None else None
    for sec in items:
        body = _expect_form(sec, "a problem section")
        if not body:
            raise ParseError("empty section", sec.line, sec.col)
        head = _expect_atom(body[0], "a section keyword")
        if head == ":domain":
            domain_name = _expect_atom(body[1], "a domain name") if len(body) == 2 else None
            if domain_name is None:
                raise ParseError(":domain takes exactly one name", sec.line, sec.col)
        elif head == ":objects":
            for o in body[1:]:
                v = _expect_atom(o, "an object name")
                if v in objects:
                    raise ParseError(f"duplicate object '{v}'", o.line, o.col)
                objects.append(v)
        elif head == ":init":
            for n in body[1:]:
                l = _read_schema_literal(n)
                if not l.positive:
                    raise ParseError("initial state literals must be positive (closed world)", n.line, n.col)
                if preds is not None:
                    _check_literal(l, n, preds, None)
                init.append(_ground_literal(l, n, set(objects)))
        elif head == ":goal":
            for l, n in _read_literal_list(body[1] if len(body) > 1 else sec, ":goal"):
                if preds is not None:
                    _check_literal(l, n, preds, None)
                goal.append(_ground_literal(l, n, set(objects)))
        else:
            raise ParseError(f"unknown problem section '{head}'", sec.line, sec.col)
    if domain_name is None:
        raise ParseError("problem is missing (:domain ...)", node.line, node.col)
    if domain is not None and domain_name != domain.name:
        raise ParseError(f"problem declares domain '{domain_name}', expected '{domain.name}'", node.line, node.col)
    return Problem(name, domain_name, tuple(objects), tuple(init), tuple(goal))


def parse(text: str, domain: Domain | None = None) -> Domain | Problem:
    """Parse one (define ...) form into a Domain or a Problem.

    When `domain` is supplied, problems are validated against it
    (predicate declarations and arities); domains ignore the argument.
    """
    forms = _read_all(text)
    if len(forms) != 1:
        raise ParseError(
            f"expected exactly one (define ...) form, found {len(forms)}",
            forms[1].line if len(forms) > 1 else 1,
            forms[1].col if len(forms) > 1 else 1,
        )
    node = forms[0]
    items = _expect_form(node, "(define ...)")
    if not items or items[0].is_atom is False or items[0].value != "define":
        raise ParseError("top-level form must be (define ...)", node.line, node.col)
    if len(items) < 2:
        raise ParseError("(define ...) needs a (domain N) or (problem N) head", node.line, node.col)
    head = _expect_form(items[1], "(domain N) or (problem N)")
    if len(head) != 2 or not head[0].is_atom or not head[1].is_atom:
        raise ParseError("expected (domain N) or (problem N)", items[1].line, items[1].col)
    kind, name = head[0].value, head[1].value
    if kind == "domain":
        predicates: dict[str, int] = {}
        operators: list[Operator] = []
        for sec in items[2:]:
            body = _expect_form(sec, "a domain section")
            if not body:
                raise ParseError("empty section", sec.line, sec.col)
            kw = _expect_atom(body[0], "a section keyword")
            if kw == ":predicates":
                for p in body[1:]:
                    decl = _expect_form(p, "a predicate declaration")
                    if not decl:
                        raise ParseError("empty predicate declaration", p.line, p.col)
                    pname = _expect_atom(decl[0], "a predicate name")
                    if pname in predicates:
                        raise ParseError(f"predicate '{pname}' declared twice", p.line, p.col)
                    predicates[pname] = len(decl) - 1
            elif kw == ":operator":
                operators.append(_parse_operator(body, sec, predicates))
            else:
                raise ParseError(f"unknown domain section '{kw}'", sec.line, sec.col)
        return Domain(name, predicates, tuple(operators))
    if kind == "problem":
        return _parse_problem(items[2:], node, name, domain)
    raise ParseError(f"expected 'domain' or 'problem', got '{kind}'", items[1].line, items[1].col)


def parse_domain(text: str) -> Domain:
    out = parse(text)
    if not isinstance(out, Domain):
        raise ParseError("expected a domain, got a problem", 1, 1)
    return out


def parse_problem(text: str, domain: Domain | None = None) -> Problem:
    out = parse(text, domain)
    if not isinstance(out, Problem):
        raise ParseError("expected a problem, got a domain", 1, 1)
    return out


# ---------------------------------------------------------------------------
# printing (round-trips through parse)


def format_domain(d: Domain) -> str:
    lines = [f"(define (domain {d.name})"]
    decls = " ".join(
        f"({p}" + "".join(f" ?x{i}" for i in range(a)) + ")" for p, a in d.predicates.items()
    )
    lines.append(f"  (:predicates {decls})")
    for op in d.operators:
        lines.append(f"  (:operator {op.name}")
        lines.append(f"    :parameters ({' '.join(op.params)})")
        lines.append(f"    :precondition (and {' '.join(map(str, op.preconds))})".replace("(and )", "(and)"))
        lines.append(f"    :effect (and {' '.join(map(str, op.effects))}))".replace("(and )", "(and)"))
    return "\n".join(lines) + ")\n"


def format_problem(p: Problem) -> str:
    lines = [
        f"(define (problem {p.name})",
        f"  (:domain {p.domain_name})",
        f"  (:objects {' '.join(p.objects)})",
        f"  (:init {' '.join(str(l) for l in p.init)})",
        f"  (:goal (and {' '.join(str(l) for l in p.goal)})))".replace("(and )", "(and)"),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bundled domains

_BLOCKS_DOMAIN = """
(define (domain blocks)
  (:predicates (on ?x ?y) (on-table ?x) (clear ?x))
  (:operator move
    :parameters (?b ?x ?y)
    :precondition (and (on ?b ?x) (clear ?b) (clear ?y))
    :effect (and (on ?b ?y) (clear ?x) (not (on ?b ?x)) (not (clear ?y))))
  (:operator move-to-table
    :parameters (?b ?x)
    :precondition (and (on ?b ?x) (clear ?b))
    :effect (and (on-table ?b) (clear ?x) (not (on ?b ?x))))
  (:operator move-from-table
    :parameters (?b ?y)
    :precondition (and (on-table ?b) (clear ?b) (clear ?y))
    :effect (and (on ?b ?y) (not (on-table ?b)) (not (clear ?y)))))
"""

_BLOCKS_PROBLEMS = [
    """
(define (problem sussman)
  (:domain blocks)
  (:objects A B C)
  (:init (on-table A) (on-table B) (on C A) (clear C) (clear B))
  (:goal (and (on A B) (on B C))))
""",
    """
(define (problem tower4)
  (:domain blocks)
  (:objects A B C D)
  (:init (on-table A) (on-table B) (on-table C) (on-table D)
         (clear A) (clear B) (clear C) (clear D))
  (:goal (and (on A B) (on B C) (on C D))))
""",
    """
(define (problem invert4)
  (:domain blocks)
  (:objects A B C D)
  (:init (on A B) (on B C) (on C D) (on-table D) (clear A))
  (:goal (and (on B A) (on C B) (on D C))))
""",
]

_BRIEFCASE_DOMAIN = """
(define (domain briefcase)
  (:predicates (bc-at ?l) (at ?o ?l) (in ?o))
  (:operator move
    :parameters (?l ?m)
    :precondition (and (bc-at ?l))
    :effect (and (bc-at ?m) (not (bc-at ?l))))
  (:operator put-in
    :parameters (?o ?l)
    :precondition (and (at ?o ?l) (bc-at ?l))
    :effect (and (in ?o) (not (at ?o ?l))))
  (:operator take-out
    :parameters (?o ?l)
    :precondition (and (in ?o) (bc-at ?l))
    :effect (and (at ?o ?l) (not (in ?o)))))
"""

_BRIEFCASE_PROBLEMS = [
    """
(define (problem get-paid)
  (:domain briefcase)
  (:objects home office bank paycheck dictionary)
  (:init (bc-at home) (at dictionary home) (in paycheck))
  (:goal (and (at paycheck bank) (at dictionary office) (bc-at home))))
""",
    """
(define (problem get-paid-bc-at-work)
  (:domain briefcase)
  (:objects home office bank paycheck dictionary)
  (:init (bc-at office) (at dictionary home) (in paycheck))
  (:goal (and (at paycheck bank) (at dictionary office) (bc-at home))))
""",
]

_TILEWORLD_DOMAIN = """
(define (domain tileworld)
  (:predicates (at ?l) (tile-at ?t ?l) (hole-at ?h ?l)
               (holding ?s ?t) (empty ?s) (filled ?h))
  (:operator go
    :parameters (?from ?to)
    :precondition (and (at ?from))
    :effect (and (at ?to) (not (at ?from))))
  (:operator pickup
    :parameters (?t ?l ?s)
    :precondition (and (tile-at ?t ?l) (empty ?s) (at ?l))
    :effect (and (holding ?s ?t) (not (empty ?s)) (not (tile-at ?t ?l))))
  (:operator fill
    :parameters (?h ?t ?l ?s)
    :precondition (and (hole-at ?h ?l) (holding ?s ?t) (at ?l))
    :effect (and (filled ?h) (empty ?s) (not (holding ?s ?t)))))
"""


def _tileworld_problem(holes: int) -> str:
    # Tiles share a pile location and holes share a field, so any plan
    # needs one trip: go to the pile, pick up, go to the field, fill.
    # The two go steps mutually threaten each other's at-links, which is
    # the ordering interaction the strategy comparisons exercise.
    objs = ["start", "depot", "field"]
    init = ["(at start)", "(empty s1)", "(empty s2)", "(empty s3)", "(empty s4)"]
    goal = []
    for i in range(1, holes + 1):
        objs += [f"t{i}", f"h{i}"]
        init += [f"(tile-at t{i} depot)", f"(hole-at h{i} field)"]
        goal.append(f"(filled h{i})")
    objs += ["s1", "s2", "s3", "s4"]
    return (
        f"(define (problem tileworld-{holes})\n"
        f"  (:domain tileworld)\n"
        f"  (:objects {' '.join(objs)})\n"
        f"  (:init {' '.join(init)})\n"
        f"  (:goal (and {' '.join(goal)})))\n"
    )


_BUNDLES = {
    "blocks": (_BLOCKS_DOMAIN, _BLOCKS_PROBLEMS),
    "briefcase": (_BRIEFCASE_DOMAIN, _BRIEFCASE_PROBLEMS),
    "tileworld": (_TILEWORLD_DOMAIN, [_tileworld_problem(k) for k in range(1, 5)]),
}


def bundled_names() -> tuple[str, ...]:
    return tuple(_BUNDLES)


def bundled(name: str) -> tuple[Domain, tuple[Problem, ...]]:
    """The built-in domains: blocks, briefcase, tileworld."""
    try:
        dom_text, prob_texts = _BUNDLES[name]
    except KeyError:
        raise KeyError(f"unknown bundled domain '{name}' (have: {', '.join(_BUNDLES)})") from None
    dom = parse_domain(dom_text)
    return dom, tuple(parse_problem(t, dom) for t in prob_texts)
