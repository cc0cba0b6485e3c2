"""Every top-level function and class of the package is used by the
package, its scripts or its benchmark; the tests do not count."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# la.mat_vec is named only in a string of bench/tracer.py, which lists what
# the tracer does not wrap; it leaves together with that mention
ALLOWED = {"la.mat_vec"}


def _names(tree):
    """How often tree names each name, as a variable, an attribute or an
    import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def test_no_top_level_definition_is_unused():
    """A definition counts as used if its name occurs anywhere in src,
    scripts or bench outside its own body (so a recursive call does not
    count); an attribute of the same name elsewhere counts too, which can
    only hide a dead name, never flag a live one."""
    total = Counter()
    for d in ("src", "scripts", "bench"):
        for path in (ROOT / d).rglob("*.py"):
            total += _names(ast.parse(path.read_text()))
    dead = []
    for path in sorted((ROOT / "src" / "ratskew").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = "%s.%s" % (path.stem, node.name)
                if name not in ALLOWED and total[node.name] == _names(node)[node.name]:
                    dead.append(name)
    assert not dead, "named by no code in src, scripts or bench: %s" % ", ".join(dead)
