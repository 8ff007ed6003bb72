"""The top-level package exports exactly what its callers import."""

import ast
import contextlib
import io
import re
import warnings
from pathlib import Path

import carbonrag
import fixtures

ROOT = Path(__file__).resolve().parent.parent


def _library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _names_imported_from_carbonrag(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "carbonrag" and node.level == 0
        for alias in node.names
    }


def test_all_is_what_perfbench_and_the_readme_import():
    callers = _names_imported_from_carbonrag(
        (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    ) | _names_imported_from_carbonrag(_library_use_block())
    assert set(carbonrag.__all__) == callers | {"CarbonRagError"}
    assert len(carbonrag.__all__) == len(set(carbonrag.__all__))
    for name in carbonrag.__all__:
        assert getattr(carbonrag, name).__module__.startswith("carbonrag.")


def test_readme_library_example_runs(tmp_path, monkeypatch):
    tree = fixtures.write_benchmark_tree(tmp_path)
    tree.benchmark.rename(tmp_path / "bench.json")
    tree.mock_perfect.rename(tmp_path / "answers.json")  # factors.csv is already in place
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(_library_use_block(), "README.md", "exec"), {})
    assert "IRR: 100.00%" in stdout.getvalue()


def test_every_module_compiles_without_warnings():
    """An invalid escape such as ``"\\W"`` warns at compile time and is a
    SyntaxWarning from Python 3.12; compiling the source here catches it
    even when a cached bytecode file would skip the compile on import."""
    for path in sorted((ROOT / "src" / "carbonrag").glob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
