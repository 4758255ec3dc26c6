"""The package's own code: what src/poclab defines, src/poclab uses, and
no field of a record it builds is assigned to."""

import ast
from dataclasses import fields
from pathlib import Path

import poclab
from poclab.flaws import Delta, Repair
from poclab.plan import CausalLink, Flaw, PartialPlan, Step

# The definitions that no code in src/poclab names and poclab.__all__
# does not export: constructors kept for tests that build values by hand.
TEST_FACING = {
    "terms.var",  # a variable term by name and id; the search numbers its own with Term
    "terms.lit",  # a literal from its arguments; the parser and the search build Literal
    "terms.BindingStore.merge",  # one pair codesignated; the search unifies whole literals
}


def _unnamed_definitions():
    """Each module-level function and class and each method of
    src/poclab, as module.Class.name, whose name appears nowhere in
    src/poclab but at its own definition, leaving out dunder methods
    and the names poclab.__all__ exports.  A name counts wherever it
    appears, so Literal.negated, which shares its name with the
    SchemaLiteral.negated that the parser calls, counts as named."""
    defined = []
    named = set()
    for path in sorted(Path(poclab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)

        def collect(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((prefix + node.name, node.name))
                    if isinstance(node, ast.ClassDef):
                        collect(node.body, f"{prefix}{node.name}.")

        collect(tree.body, f"{path.stem}.")
    return {
        qualified
        for qualified, name in defined
        if name not in named and name not in poclab.__all__ and not (name.startswith("__") and name.endswith("__"))
    }


def test_src_defines_nothing_that_only_tests_call():
    # A helper that only tests call belongs in tests/helpers.py; a
    # constructor that stays for the tests is listed in TEST_FACING.
    assert _unnamed_definitions() == TEST_FACING


# The records src/poclab builds on the search path.  They are slotted
# dataclasses that nothing assigns to once built, immutable by contract
# as terms.Literal is, so a record can be shared between nodes.
RECORDS = (Step, CausalLink, Flaw, PartialPlan, Repair, Delta)
RECORD_FIELDS = frozenset(f.name for record in RECORDS for f in fields(record))


def _field_stores(source: str, names: frozenset[str]) -> list[tuple[int, str]]:
    """(line, attribute) for each statement of `source` that assigns to
    or deletes an attribute in `names`: an attribute target, or a
    setattr or __setattr__ call (object.__setattr__ among them).  A call
    whose attribute is not a string literal is listed as "?", since it
    could name any field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            attr = node.attr
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and (
            (isinstance(node.func, ast.Name) and node.func.id == "setattr")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__")
        ):
            name = node.args[1]
            attr = name.value if isinstance(name, ast.Constant) and isinstance(name.value, str) else "?"
        else:
            continue
        if attr in names or attr == "?":
            found.append((node.lineno, attr))
    return sorted(found)


def test_src_assigns_no_field_of_a_built_record():
    stores = {
        path.name: found
        for path in sorted(Path(poclab.__file__).parent.glob("*.py"))
        if (found := _field_stores(path.read_text(), RECORD_FIELDS))
    }
    assert stores == {}


def test_the_field_store_guard_sees_each_form_of_store():
    source = """
plan.agenda = ()
flaw.cached_cost += 1
del step.effects
setattr(flaw, "kind", "o")
object.__setattr__(delta, "rebound", frozenset())
setattr(record, name, value)
self.plan = plan
setattr(table, "domain", None)
"""
    assert _field_stores(source, RECORD_FIELDS) == [
        (2, "agenda"), (3, "cached_cost"), (4, "effects"), (5, "kind"), (6, "rebound"), (7, "?"),
    ]
