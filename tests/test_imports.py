"""Every name a module under `src/` or `tests/` imports is used there.

No linter is a test dependency, so this walks each module's syntax tree
with the standard library's `ast`. A name counts as used when the module
reads it, names it in a quoted annotation, or lists it in `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for annotation in quoted:
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    planted = "import os\nimport numpy as np\nfrom x import a, b\n__all__ = ['a']\ndef f(s: 'b') -> 'os.PathLike': ...\n"
    assert unused_imports(planted) == ["line 2: np"]
    found = {}
    for path in sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")):
        if unused := unused_imports(path.read_text()):
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
