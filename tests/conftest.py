"""Shared fixtures for the test suite.

The suite honours the ``REPRO_FORCE_ENGINE`` environment variable (also
consulted by ``Simulator(engine="auto")`` itself): the CI matrix sets it to
``compiled`` to drive every auto-mode simulation — including all the batch
and trajectory tests — through the compiled engine, the fallback for hosts
without a C compiler.  The session fixture below validates the value up front
and skips the run with a clear message when a forced ``native`` engine cannot
be built, instead of failing every test individually.
"""

import os

import pytest

from repro.simulation import native
from repro.simulation.simulator import _ENGINES


@pytest.fixture(scope="session", autouse=True)
def _honour_forced_engine():
    forced = os.environ.get("REPRO_FORCE_ENGINE")
    if forced:
        if forced not in _ENGINES:
            pytest.exit(
                f"REPRO_FORCE_ENGINE must be one of {_ENGINES}, got {forced!r}",
                returncode=4,
            )
        if forced == "native" and not native.available():
            pytest.skip("REPRO_FORCE_ENGINE=native needs a C compiler (cc)")
    yield
