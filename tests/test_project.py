"""Checks on the project files around the package: the README and the source syntax."""

import ast
import contextlib
import io
import re
from pathlib import Path

import noisim

README = Path(__file__).resolve().parents[1] / "README.md"
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
