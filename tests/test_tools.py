"""``tools/count_src_lines.py``, the line counter behind every reported
source size, on a fixture package whose counts are known line by line."""

import subprocess
import sys
from pathlib import Path

COUNTER = Path(__file__).resolve().parent.parent / "tools" / "count_src_lines.py"

# Code-only lines: 6 (import), 8-9 (one statement), 10-11 (a string that is
# not a docstring), 14 (def) and 18 (return); the docstrings (1-2, 15),
# comments (4) and blank lines are left out.
MODULE = '''"""A module docstring
over two lines."""

# a comment on a line of its own

import os  # a trailing comment

TOTAL = (1 +
         2)
MESSAGE = """a string
that is code"""


def f():
    """A function docstring."""
    # another comment

    return os.sep
'''


def test_counts_of_a_fixture_package(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text('"""Only a docstring."""\n')
    (package / "sub" / "mod.py").write_text(MODULE)
    done = subprocess.run([sys.executable, str(COUNTER), str(package)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "__init__.py: 1 lines, 0 code-only",
        "sub/mod.py: 18 lines, 7 code-only",
        f"{package}: 19 lines, 7 code-only",
    ]
