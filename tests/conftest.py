"""Put the checkout's ``src`` on PYTHONPATH for child processes.

pytest's ``pythonpath`` setting reaches only the test process; the tests
that run ``python -m evblab.cli`` in a subprocess inherit this environment,
so they import the same checkout without an install.
"""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
