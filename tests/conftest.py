"""Session set-up shared by the test suite."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_subprocess_path():
    """Let ``python -m toricsum`` subprocesses import the checkout's ``src``.

    ``pythonpath`` in pyproject.toml covers only the pytest process itself.
    """
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC if saved is None else os.pathsep.join([SRC, saved])
    yield
    if saved is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = saved
