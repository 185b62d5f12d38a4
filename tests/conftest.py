"""Put the checkout's ``src`` on PYTHONPATH for child processes.

pytest's ``pythonpath`` setting reaches only the test process; the tests
that run ``python -m evblab.cli`` in a subprocess inherit this environment,
so they import the same checkout without an install.  One hypothesis
profile turns off the per-example deadline for every property test.  The
``threads`` fixture runs a test at each of several worker counts.
"""

import os

import pytest
from hypothesis import settings

# property tests build states and solve small fits whose wall time follows the
# machine's load, not the example; each test keeps its own max_examples
settings.register_profile("evblab", deadline=None)
settings.load_profile("evblab")


def pytest_configure(config):
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(params=["1", "2", "3"])
def threads(request, monkeypatch):
    """EVBLAB_THREADS at 1, 2 and 3, with at least that many cores reported,
    so that the cap and not the machine sets the worker count."""
    cores = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(cores, int(request.param)))
    monkeypatch.setenv("EVBLAB_THREADS", request.param)
    return int(request.param)
