"""reprolint: AST-based invariant analyzer for the PROP reproduction.

One rule, for the one invariant no tier-1 test sees yet:

* **D5** exchange atomicity — overlay neighbor structures mutate only
  inside the overlay/exchange modules.

The determinism invariants are tests: the seeded sweep in
``tests/properties/test_stream_ownership.py`` watches every run for a
foreign stream, a wall clock, unseeded entropy and set order, and
``tests/live/test_swarm.py::TestTeardown`` closes a swarm mid-exchange.
``docs/analysis.md`` records the audit (seeded bug -> who catches it).
Run as ``python -m tools.reprolint`` (or ``make analyze``).
"""

from tools.reprolint.engine import analyze

__all__ = ["analyze"]
