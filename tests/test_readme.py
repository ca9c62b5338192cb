"""README's *Library* snippet runs as written and prints what its comment says."""

import contextlib
import io
import re
from pathlib import Path

import handsoff

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_prints_its_comment():
    code = library_snippet()
    assert "# 1.0, 1, cost_stall" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "1.0 1 cost_stall\n"


def test_package_exports_what_the_snippet_imports():
    names = re.search(r"from handsoff import \((.*?)\)", library_snippet(), re.S).group(1)
    assert sorted(name.strip() for name in names.split(",")) == sorted(handsoff.__all__)
