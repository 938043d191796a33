"""The table printer shared by the benchmark suite.

Benchmarks ``bench_e1`` to ``bench_e14`` each wrap one experiment runner of
:mod:`repro.experiments` (E1..E14) with pytest-benchmark, check the shape assertions
that correspond to the paper's claims, and print the resulting table so that
a benchmark run doubles as a regeneration of its data.

This is a plain module, not a ``conftest.py``: the tests import their own
helpers from ``tests/engines.py``, and pytest registers every ``conftest.py``
under the one module name ``conftest``, so helpers imported by that name
from both directories would shadow each other in a session collecting both.
"""


def report(table):
    """Print an experiment table below the benchmark output."""
    print()
    print(table.render())
