"""Every definition in src/ has a reader outside tests/.

A top-level function or class, or a method that is not a dunder, of
`src/sl3rep` must be named in code (a Name, an Attribute or an import)
somewhere in `src/` outside its own body, or in `bench/*.py` (the frozen
copy under `bench/baseline/` aside; the tracer's string targets count), or
in README in backticks, which is how README lists the public API.  A
definition that only the tests read belongs in `tests/`.

Likewise a name imported with `from .x import name` is read by the module
that imports it, so each name has one home and the tests read it there.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from test_bench_spans import load_spans

ROOT = Path(__file__).resolve().parents[1]


def named(tree: ast.AST) -> Counter:
    """How often each identifier is named in code under tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
    return out


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of a top-level class whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def test_every_src_definition_has_a_reader():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "sl3rep").glob("*.py"))}
    in_src = sum((named(t) for t in trees.values()), Counter())
    in_bench = set().union(*(named(ast.parse(p.read_text()))
                             for p in (ROOT / "bench").glob("*.py")))
    spans = load_spans()
    in_bench |= {attr.split(".")[-1] for _, attr, *_ in spans["SPANS"]}
    in_bench |= {attr for _, attr in spans["CACHE_COUNTS"]}
    in_readme = {span.split(".")[-1] for span in
                 re.findall(r"`([A-Za-z_][\w.]*)`", (ROOT / "README.md").read_text())}
    unread = [f"{mod}.{qual}" for mod, tree in trees.items()
              for qual, node in definitions(tree)
              if (name := qual.split(".")[-1]) not in in_bench | in_readme
              and in_src[name] == named(node)[name]]
    assert not unread, f"read only by tests: {', '.join(unread)}"


def test_every_src_import_is_read_by_its_module():
    # read: named in the module's code (not its import) or listed in its
    # __all__; exempt: a name that bench/spans.py wraps on that module, or
    # that README names as `module.name`
    spans = load_spans()
    exempt = {(mod, attr.split(".")[0]) for mod, attr, *_ in spans["SPANS"]}
    exempt |= set(spans["CACHE_COUNTS"])
    exempt |= set(re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`",
                             (ROOT / "README.md").read_text()))
    unread = []
    for path in sorted((ROOT / "src" / "sl3rep").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        unread += [f"{path.stem}: {alias.asname or alias.name}"
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                   for alias in node.names
                   if (alias.asname or alias.name) not in read
                   and (path.stem, alias.asname or alias.name) not in exempt]
    assert not unread, f"imported but not read: {', '.join(unread)}"
