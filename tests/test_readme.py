import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import sparechain
import sparechain.config

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


def test_lazy_root_names_are_their_modules_names():
    # The root's names from the lazily loaded modules resolve on first use
    # to the same objects, and the settings records moved to `config` keep
    # their old import paths.
    assert sparechain.OptimizationProblem is sparechain.optimizer.OptimizationProblem
    assert sparechain.optimize is sparechain.optimizer.optimize
    assert sparechain.SimConfig is sparechain.simulator.SimConfig
    assert sparechain.run_batch is sparechain.simulator.run_batch
    assert sparechain.optimizer.GAParams is sparechain.config.GAParams
    assert sparechain.optimizer.VariableBounds is sparechain.config.VariableBounds
    assert sparechain.validation.TradeSpace is sparechain.config.TradeSpace

    namespace: dict = {}
    exec("from sparechain import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sparechain.__all__)

    with pytest.raises(AttributeError, match="no_such_name"):
        sparechain.no_such_name
