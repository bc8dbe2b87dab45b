"""The suite's independent references live in tests/_reference.py alone.

A reference that imports what it checks checks nothing, and one written
twice can drift from its copy.  So the module imports no donorsim module but
params, no other test module (nor benchmarks/bench_kernels.py) defines a
reference of its own, and the oracle's reading of a detuning, the transition
2 dw off the carrier, is written once in the tests.
"""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).resolve().parent
REFERENCE = TESTS / "_reference.py"


def test_reference_module_imports_only_params_from_donorsim():
    imported = set()
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"donorsim.{alias.name}" if node.module == "donorsim"
                            else node.module for alias in node.names)
    assert {name for name in imported if name.split(".")[0] == "donorsim"} == {"donorsim.params"}


def test_no_reference_is_defined_outside_the_reference_module():
    """Helpers named *_reference, *_reference_loop or *_loop; the tests that
    compare against them may say so in their names."""
    paths = [path for path in sorted(TESTS.glob("*.py")) if path != REFERENCE]
    paths.append(TESTS.parent / "benchmarks" / "bench_kernels.py")
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in paths for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("test_")
             and node.name.endswith(("_reference", "_reference_loop", "_loop"))]
    assert found == []


def test_the_oracle_detuning_reading_is_written_once():
    reading = re.compile(r"hyperfine_for_detuning\(2\.0 \*")
    found = [f"{path.name}:{number}" for path in sorted(TESTS.rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if reading.search(line)]
    assert len(found) == 1 and found[0].startswith("_reference.py:")
