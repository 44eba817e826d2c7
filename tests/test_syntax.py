"""Every Python file parses as Python 3.10, the oldest version CI tests.

A host with a newer interpreter runs the suite without noticing syntax that
3.10 lacks, such as ``except*``; ``ast.parse`` with ``feature_version``
rejects it here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)
SOURCES = sorted(
    path for folder in ("src", "tests", "tools") for path in (ROOT / folder).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_syntax_rejected():
    assert len(SOURCES) >= 20
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
