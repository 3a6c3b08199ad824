import ast
import sys
from pathlib import Path

import hamclosure

PACKAGE = Path(hamclosure.__file__).parent


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _loaded_names(tree) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _unread_names(checked, outside=()) -> list[str]:
    """"module: name" for each module-level name of the package that
    ``checked(name, stmt)`` selects and that nothing loads apart from its own
    statement: no other statement of the package, no file in ``outside``."""
    defined, reads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            defined += [(path.name, name, stmt) for name in _defined_names(stmt)
                        if checked(name, stmt)]
            reads.append((stmt, _loaded_names(stmt)))
    reads += [(path, _loaded_names(ast.parse(path.read_text(), str(path)))) for path in outside]
    return [
        f"{module}: {name}" for module, name, stmt in defined
        if not any(name in read for other, read in reads if other is not stmt)
    ]


def test_every_private_helper_is_read_outside_its_definition():
    # a module-level _name that nothing in the package loads, apart from its
    # own body, is a helper left behind
    assert _unread_names(lambda name, _: name.startswith("_") and not name.startswith("__")) == []


def test_every_public_name_is_read_outside_its_definition():
    # a module-level public name that neither the package nor the tests nor
    # the benchmark loads, apart from its own body, restates another name or
    # names nothing. Re-exports are imports, not loads, so the package's
    # __init__ reads nothing; a decorated definition registers itself.
    root = Path(__file__).resolve().parent.parent
    outside = sorted((root / "tests").rglob("*.py")) + sorted((root / "benchmark").rglob("*.py"))
    unread = _unread_names(
        lambda name, stmt: not name.startswith("_") and not getattr(stmt, "decorator_list", None),
        outside,
    )
    assert unread == []


def test_no_module_reads_the_environment():
    # operations are functions of their inputs: no setting comes from os.environ
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.id if isinstance(node, ast.Name) else None
            )
            if name in ("environ", "getenv", "environb", "getenvb"):
                readers.append(f"{path.name}:{node.lineno}: {name}")
    assert readers == []


def test_readme_library_tour_runs():
    # the "Library quick tour" block runs as written and its comments hold
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    tour: dict = {}
    exec(block.split("```", 1)[0], tour)
    assert tour["closed"] == hamclosure.complete_graph(4) and len(tour["trace"].steps) == 2
    assert hamclosure.net_profile(tour["g8"]).n_pq_heavy
    families = hamclosure.recognize(tour["g8"]).families
    assert sorted(k.value for k in families) == ["C1NPQ", "C2NP", "C3NQ"]
