import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import fbmlab  # noqa: E402


def check_pythonpath(environ, imported: Path) -> None:
    """Stop the session when a ``PYTHONPATH`` entry of ``environ`` holds an
    fbmlab package other than ``imported``, the one the tests import.
    pyproject.toml's ``pythonpath = ["src"]`` puts this checkout's sources
    first, so the tests would silently run them instead of that tree's."""
    for entry in filter(None, environ.get("PYTHONPATH", "").split(os.pathsep)):
        package = Path(entry, "fbmlab").resolve()
        if (package / "__init__.py").is_file() and \
                package != imported.resolve():
            pytest.exit(f"PYTHONPATH names the fbmlab package in {package}, "
                        f"but the tests import the one in {imported}; run "
                        f"pytest from that package's checkout", returncode=4)


def pytest_configure(config):
    check_pythonpath(os.environ, Path(fbmlab.__file__).parent)
