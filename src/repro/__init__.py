"""repro — a reproduction of "Templates and Recurrences: Better Together" (PLDI 2020).

The package implements CHORA-style compositional, recurrence-based invariant
generation for programs with loops, branches, and (possibly non-linear or
mutual) recursion, together with the substrates it needs: a small imperative
language and its CFGs, transition formulas, a polyhedral abstract domain,
symbolic abstraction, and an exponential-polynomial recurrence solver.

Public entry points
-------------------
* :func:`repro.lang.parse_program` — parse a mini-language program.
* :func:`repro.core.analyze_program` — compute procedure summaries (CHORA).
* :func:`repro.core.check_assertions` — prove the program's assertions.
* :func:`repro.core.complexity_bound` — symbolic + asymptotic cost bounds.
* :mod:`repro.baselines` — ICRA-style and bounded-unrolling baselines.
* :mod:`repro.benchlib` — every benchmark program used in the paper's
  evaluation (Table 1, Table 2, Figure 3, and the worked examples).
* :mod:`repro.engine` — the parallel batch engine and result cache behind
  ``repro bench``.
* :mod:`repro.service` — the warm-worker analysis service behind
  ``repro serve``.

The layer map and the data flow of one analysis request are documented in
``docs/architecture.md``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
