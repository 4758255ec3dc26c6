"""Hand-built plan nodes, reference implementations, random-domain
generators, a search observer, a plan key and a domain printer shared
across test modules."""

from hypothesis import strategies as st

from poclab.domains import parse_domain, parse_problem
from poclab.flaws import DEMOTE, PROMOTE, SEPARATE, Delta, Repair, _threat_kind
from poclab.plan import (
    GOAL_ID,
    SEPARABLE,
    START_ID,
    CausalLink,
    Flaw,
    OrderingStore,
    PartialPlan,
    Step,
)
from poclab.terms import EMPTY_STORE, Literal, const, lit, var

t, u, v = var("?t", 103), var("?u", 104), var("?v", 105)
x, y, z = var("?x", 100), var("?y", 101), var("?z", 102)


# One-component ablations of ZLIFO ({n}LIFO / {o}0 LIFO / {o}1 New /
# {o}2-inf LIFO / {s}LIFO) that no builtin spells; the fourth, Z-noZero
# (zero-cost-first removed), is DSep.
ZLIFO_ABLATIONS = {
    "Z-LC": "{n}LIFO / {o}0 LIFO / {o}1 New / {o}2-inf LC / {s}LIFO",
    "Z-noNew": "{n}LIFO / {o}0 LIFO / {o}1 LIFO / {o}2-inf LIFO / {s}LIFO",
    "Z-noDelay": "{n,s}LIFO / {o}0 LIFO / {o}1 New / {o}2-inf LIFO",
}


class EveryNode:
    """Search observer that passes each node the search generates to
    `self.visit`: the root, the first node expanded, and then the
    children of each expansion."""

    root_seen = False

    def on_expand(self, node, flaw, children):
        if not self.root_seen:
            self.root_seen = True
            self.visit(node)
        for child in children:
            self.visit(child)


def plan_key(plan):
    """A node's content as a hashable value, equal for two nodes that
    differ only in their flaws' insertion stamps and cached costs or in
    the order of their links: the steps, the links, the reachability
    bits, the binding classes (each term mapped to its representative,
    which a class's members decide) and disequalities, and the agenda's
    flaws in order."""
    return (
        plan.steps,
        tuple(sorted(plan.links, key=lambda l: (l.producer, l.consumer, str(l.condition)))),
        plan.orderings.succ,
        frozenset(plan.bindings._rep.items()),
        plan.bindings._neq,
        tuple((f.kind, f.step, f.literal, f.link) for f in plan.agenda),
    )


def format_domain(d):
    """A domain as text that parse_domain reads back to an equal one."""
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


def format_problem(p):
    """A problem as text that parse_problem reads back to an equal one."""
    lines = [
        f"(define (problem {p.name})",
        f"  (:domain {p.domain_name})",
        f"  (:objects {' '.join(p.objects)})",
        f"  (:init {' '.join(str(l) for l in p.init)})",
        f"  (:goal (and {' '.join(str(l) for l in p.goal)})))".replace("(and )", "(and)"),
    ]
    return "\n".join(lines) + "\n"


def forced_complementary(e, f, store):
    """Reference for the nonseparable-threat test: e and the negation of
    f carry the same predicate and every argument pair is already forced
    equal."""
    if e.pred != f.pred or e.positive == f.positive or len(e.args) != len(f.args):
        return False
    return all(store.find(x) == store.find(y) for x, y in zip(e.args, f.args))


def instantiate_literal(schema, mapping):
    """Reference for plan.instantiate_step's literals: each schema
    argument looked up by name, a parameter in `mapping`, any other name
    a constant."""
    args = tuple(mapping[a] if a.startswith("?") else const(a) for a in schema.args)
    return Literal(schema.positive, schema.pred, args)


def unfiltered_threats(plan, new_step, new_link, systematic):
    """Reference for flaws.detect_new_threats: the same delta scanned in
    the same order, with every effect of every (step, link) pair in a
    link's span tested by flaws._threat_kind and no predicate filter."""

    def pair(step, link):
        own = step.id == link.producer
        if step.id == link.consumer or (own and link.condition.positive):
            return []
        if plan.orderings.precedes(step.id, link.producer) or plan.orderings.precedes(link.consumer, step.id):
            return []
        out = []
        for eff in step.effects:
            if own and not eff.positive:
                continue  # deletes apply before adds: a producer threatens its link only by adding
            kind = _threat_kind(eff, link.condition, plan.bindings, systematic)
            if kind is not None:
                out.append((kind, step.id, eff, link))
        return out

    found = []
    if new_step is not None:
        for link in plan.links:
            found += pair(new_step, link)
    if new_link is not None:
        for step in plan.steps:
            if new_step is None or step.id != new_step.id:
                found += pair(step, new_link)
    return found


def reference_threat_repairs(plan, flaw):
    """Reference for flaws.enumerate_threat_repairs: promotion and
    demotion asked of orderings.precedes, and separations deduplicated
    over frozensets of the class representatives found by store.find."""
    link = flaw.link
    out = []
    if not plan.orderings.precedes(flaw.step, link.consumer):
        out.append(Repair(PROMOTE))
    if flaw.step != link.producer and not plan.orderings.precedes(link.producer, flaw.step):
        out.append(Repair(DEMOTE))
    if flaw.kind == SEPARABLE:
        store = plan.bindings
        seen_pairs = set()
        for a, b in zip(flaw.literal.args, link.condition.args):
            ra, rb = store.find(a), store.find(b)
            if ra == rb:
                continue
            key = frozenset((ra, rb))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            out.append(Repair(SEPARATE, pair=(a, b)))
    return out


def store_diff_delta(parent, child):
    """Reference for the Delta that search.refinements makes: the delta
    read off the two plans, with `rebound` the child's representative of
    every term whose class changed, found by a diff of the two binding
    stores, and both ends of every disequality the child has and the
    parent has not."""
    reordered = child.orderings is not parent.orderings
    step_added = len(child.steps) > len(parent.steps)
    old, new = parent.bindings, child.bindings
    rebound = set()
    if new is not old:
        get = old._rep.get
        rebound.update(r for t, r in new._rep.items() if get(t, t) != r)
        rebound.update(t for pair in new._neq - old._neq for t in pair)
    return Delta(reordered, step_added, frozenset(rebound))


@st.composite
def small_domains(draw):
    """A random domain over 0-, 1- and 2-ary predicates, with negative
    preconditions and effects, and a problem over two objects."""
    arity = {"z": 0, "w": 0, "u": 1, "b": 2}
    preds = sorted(arity)

    def literal(args_from, positive):
        pred = draw(st.sampled_from(preds))
        args = "".join(f" {draw(st.sampled_from(args_from))}" for _ in range(arity[pred]))
        return f"({pred}{args})" if positive(pred) else f"(not ({pred}{args}))"

    ops = []
    for i in range(draw(st.integers(1, 3))):
        pre = " ".join(literal(("?x", "?y"), lambda p: draw(st.booleans())) for _ in range(draw(st.integers(1, 3))))
        eff = " ".join(literal(("?x", "?y"), lambda p: draw(st.booleans())) for _ in range(draw(st.integers(1, 3))))
        ops.append(f"(:operator o{i} :parameters (?x ?y) :precondition (and {pre}) :effect (and {eff}))")
    decls = " ".join(f"({p}" + "".join(f" ?a{k}" for k in range(n)) + ")" for p, n in arity.items())
    dom = parse_domain(f"(define (domain r) (:predicates {decls}) {' '.join(ops)})")
    atoms = ["(z)", "(w)", "(u A)", "(u B)", "(b A B)", "(b B A)", "(b A A)"]
    init = draw(st.lists(st.sampled_from(atoms), unique=True, max_size=5))
    goal = " ".join(literal(("A", "B"), lambda p: draw(st.booleans())) for _ in range(draw(st.integers(1, 3))))
    prob = parse_problem(
        f"(define (problem r) (:domain r) (:objects A B) (:init {' '.join(init)}) (:goal (and {goal})))", dom
    )
    return dom, prob


@st.composite
def threat_domains(draw):
    """A random domain whose operators each need one or two atoms, add
    one atom and delete another of one predicate, over the two
    predicates they all share, and a positive goal over three objects:
    most links a step makes are threatened by some other step, so later
    refinements often order an inherited threat away, separate it, or
    force it.  small_domains rarely does, as its searches mostly end
    within a few nodes."""
    arity = {"u": 1, "b": 2}

    def atom(pred, args_from):
        return f"({pred}" + "".join(f" {draw(st.sampled_from(args_from))}" for _ in range(arity[pred])) + ")"

    ops = []
    for i in range(draw(st.integers(2, 3))):
        pre = " ".join(atom(draw(st.sampled_from(sorted(arity))), ("?x", "?y")) for _ in range(draw(st.integers(1, 2))))
        pred = draw(st.sampled_from(sorted(arity)))
        add, delete = atom(pred, ("?x", "?y")), atom(pred, ("?x", "?y"))
        ops.append(f"(:operator o{i} :parameters (?x ?y) :precondition (and {pre}) :effect (and {add} (not {delete})))")
    dom = parse_domain(f"(define (domain t) (:predicates (u ?a) (b ?a ?c)) {' '.join(ops)})")
    objects = ("A", "B", "C")
    atoms = [f"(u {o})" for o in objects] + [f"(b {o} {p})" for o in objects for p in objects]
    init = draw(st.lists(st.sampled_from(atoms), unique=True, min_size=1, max_size=4))
    goal = draw(st.lists(st.sampled_from(atoms), unique=True, min_size=2, max_size=3))
    prob = parse_problem(
        f"(define (problem t) (:domain t) (:objects {' '.join(objects)}) (:init {' '.join(init)})"
        f" (:goal (and {' '.join(goal)})))",
        dom,
    )
    return dom, prob


def plan_with(steps=(), links=(), order_pairs=(), bindings=EMPTY_STORE, agenda=()):
    """Node with explicit parts; `steps` excludes the two dummies."""
    start = Step(START_ID, "start", (), (), ())
    goal = Step(GOAL_ID, "goal", (), (), ())
    all_steps = (start, goal) + tuple(steps)
    o = OrderingStore.initial()
    for st in steps:
        o = o.with_step(st.id)
    for a, b in order_pairs:
        o = o.with_ordering(a, b)
        assert o is not None
    return PartialPlan(all_steps, tuple(links), o, bindings, tuple(agenda))


def separable_threat_fixture():
    """The canonical three-variable pattern: an effect P(x,y,z) against
    a link carrying (not (P t u v)), nothing bound, nothing ordered."""
    producer = Step(2, "producer", (), (), (lit("P", t, u, v, positive=False),))
    consumer = Step(3, "consumer", (), (lit("P", t, u, v, positive=False),), ())
    threatener = Step(4, "threatener", (), (), (lit("P", x, y, z),))
    link = CausalLink(2, lit("P", t, u, v, positive=False), 3)
    plan = plan_with(
        steps=(producer, consumer, threatener),
        links=(link,),
        order_pairs=((2, 3),),
    )
    flaw = Flaw(SEPARABLE, 4, lit("P", x, y, z), link, inserted_at=9)
    return plan, flaw
