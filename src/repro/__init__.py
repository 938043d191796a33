"""repro — reproduction of "State Complexity of Protocols With Leaders" (Leroux, PODC 2022).

The package is organised as follows:

* :mod:`repro.core` — configurations, Petri nets, population protocols with
  leaders, predicates and stable-computation semantics (paper Sections 2–4).
* :mod:`repro.algebra` — integer vectors and Pottier's algorithm for minimal
  solutions of linear Diophantine systems (used by Section 7).
* :mod:`repro.controlstates` — Petri nets with control-states, cycles,
  multicycles, the Euler lemma and the small-cycle lemmas (Section 7).
* :mod:`repro.analysis` — coverability (Rackoff), stabilized configurations
  (Section 5), bottom configurations (Section 6), protocol verification, and
  the state-complexity bounds of Theorem 4.3 / Corollary 4.4 (Section 8).
* :mod:`repro.protocols` — concrete protocol constructions: the classical
  flock-of-birds protocol, the paper's Examples 4.1 and 4.2, and the
  Blondin–Esparza–Jaax succinct protocols (the upper-bound baselines).
* :mod:`repro.simulation` — random-scheduler simulation of protocols.
* :mod:`repro.experiments` — the experiment harness backing the benchmark
  suite.
"""

__version__ = "1.0.0"

from . import core

__all__ = ["core", "__version__"]
