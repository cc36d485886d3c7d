import ast
import contextlib
import io
import re
from pathlib import Path

import sparechain

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    return re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


def test_readme_library_example_imports_exactly_the_package_root():
    # The root exports the names of the README's Library example and
    # nothing else; every other name is imported from its module.
    source = _library_example()
    (root_import,) = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "sparechain"
    ]
    names = [alias.name for alias in root_import.names]
    assert names == sparechain.__all__
    assert [name for name in names if not hasattr(sparechain, name)] == []

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert float(out.getvalue().split()[0]) > 0.0
