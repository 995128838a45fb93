"""reprolint: AST-based invariant analyzer for the PROP reproduction.

Domain-specific static analysis over ``src/repro``.  Where generic
linters enforce style, reprolint enforces the *reproduction invariants*
the paper's theorems and the determinism bridge rest on.

Four rules, each for an invariant no tier-1 test can see:

* **D1** no wall-clock or unseeded randomness — every draw flows from an
  injected seeded :class:`numpy.random.Generator`;
* **D3** no set/dict-key iteration feeding a protocol decision without
  an explicit ``sorted()``;
* **D5** exchange atomicity — overlay neighbor structures mutate only
  inside the overlay/exchange modules;
* **C1** await-interleaving hazards in ``repro.live``
  (:mod:`tools.reprolint.rules_flow`) — stale read-across-await writes
  and fire-and-forget ``create_task``.

One check per invariant: a rule lives here only while no tier-1 test
can see its bug class.  ``docs/analysis.md`` records the audit (seeded
bug -> who catches it) and the ``# reprolint: disable=RULE``
suppression syntax.  Run as ``python -m tools.reprolint`` (or
``make analyze``).
"""

from tools.reprolint.engine import Finding, ModuleInfo, Project, analyze, iter_rules

__all__ = ["Finding", "ModuleInfo", "Project", "analyze", "iter_rules"]
