"""The package's own code: what src/poclab defines, src/poclab uses."""

import ast
from pathlib import Path

import poclab

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
