"""Every source, test and bench file parses as Python 3.10, the oldest version
pyproject.toml admits, whichever interpreter runs the suite."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/homlie/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")])


def test_the_files_are_found():
    assert ROOT / "src" / "homlie" / "cli.py" in FILES
    assert ROOT / "bench" / "record.py" in FILES
    assert Path(__file__).resolve() in FILES


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_file_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_refused():
    # except* is Python 3.11 syntax
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
