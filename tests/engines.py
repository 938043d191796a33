"""Shared test helpers: which engines this host can run.

The native engine needs a C compiler (``cc``) to build its library.  On a
host without one, ``engine="auto"`` runs the compiled engine, the engine
tuples below leave ``native`` out, and tests marked ``requires_native`` skip.
With ``cc`` every test runs.

This is a plain module, not a ``conftest.py``, so that ``tests/`` and
``benchmarks/`` (whose table printer is ``benchmarks/reporting.py``) can be
collected in one session: pytest registers every ``conftest.py`` under the
one module name ``conftest``.
"""

import pytest

from repro.simulation import native

#: The engines whose results the cross-engine tests compare on this host,
#: the reference engine first.
ENGINES = ("reference", "compiled") + (("native",) if native.available() else ())

#: Skips a test or class that runs the native engine on a host without ``cc``.
requires_native = pytest.mark.skipif(
    not native.available(), reason="the native engine needs a C compiler (cc)"
)
