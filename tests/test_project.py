"""Checks on the project files around the package: the README, the source syntax
and the names the benchmark harness imports."""

import ast
import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import noisim

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted(Path(noisim.__file__).parent.glob("*.py"))


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_prints_what_it_says():
    code = _quickstart()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    converged, residue, channel = out.getvalue().splitlines()
    assert converged == "True 1"
    assert abs(float(residue)) < 1e-15
    assert channel == "PauliChannel(0.95*II, 0.02*IY, 0.03*XZ)"
    # the comments beside the exact lines state what they print
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert [comments[0], comments[2]] == [converged, channel]


def test_sources_parse_as_python_3_10():
    # requires-python is >= 3.10, so syntax newer than 3.10 fails here, not on a user's 3.10
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _resolve(module: str, name: str):
    """The object `from module import name` binds: an attribute, or a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        raise AssertionError(f"{module} has no name {name!r}") from None


def test_perfbench_imports_resolve():
    # tier-1 collects only tests/, so without this a name the benchmark harness
    # imports from noisim could be deleted with every test still passing
    imported = 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "noisim":
                for alias in node.names:
                    obj = _resolve(node.module, alias.name)
                    imported += 1
                    if inspect.ismodule(obj):
                        modules[alias.asname or alias.name] = obj
        # attributes read off an imported noisim module, such as cli.main
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), (path.name, ast.unparse(node))
    assert imported  # a parse that finds no import checks nothing


def test_every_exported_name_resolves():
    # __main__ runs the CLI when imported and exports nothing
    for path in SOURCES:
        if path.stem == "__main__":
            continue
        name = "noisim" if path.stem == "__init__" else f"noisim.{path.stem}"
        mod = importlib.import_module(name)
        assert mod.__all__, name
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not missing, (name, missing)
