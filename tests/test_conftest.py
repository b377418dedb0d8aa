"""The session guard of ``conftest``, called with a fake environment."""
import os
from pathlib import Path

import pytest

import conftest
import fbmlab

IMPORTED = Path(fbmlab.__file__).parent


def test_other_fbmlab_on_pythonpath_stops_the_session(tmp_path):
    other = tmp_path / "src" / "fbmlab"
    other.mkdir(parents=True)
    (other / "__init__.py").write_text("")
    env = {"PYTHONPATH": os.pathsep.join([str(tmp_path), str(other.parent)])}
    with pytest.raises(pytest.exit.Exception) as stop:
        conftest.check_pythonpath(env, IMPORTED)
    assert str(other) in str(stop.value) and str(IMPORTED) in str(stop.value)


@pytest.mark.parametrize("pythonpath", [
    None, "", str(IMPORTED.parent),
    os.pathsep.join(["", "no-such-dir", str(IMPORTED.parent)])])
def test_this_tree_or_no_package_passes(pythonpath):
    env = {} if pythonpath is None else {"PYTHONPATH": pythonpath}
    conftest.check_pythonpath(env, IMPORTED)
