"""Shared fixtures for the benchmark suite.

Benchmarks ``bench_e1`` to ``bench_e14`` each wrap one experiment runner of
:mod:`repro.experiments` (E1..E14) with pytest-benchmark, check the shape
assertions that correspond to the paper's claims, and print the resulting
table so that a benchmark run doubles as a regeneration of its data.
"""

import pytest


def report(table):
    """Print an experiment table below the benchmark output."""
    print()
    print(table.render())
