"""repro lint: AST-based invariant checkers for the simulator's contracts.

The quiescence engine and the busy-path caches rest on invariants that
plain tests only catch after the fact:

* every push into a component-owned ingress queue must ``wake()`` the
  component (a missing wake is a lost-wakeup that silently stalls a
  sleeping component),
* every tracer emit must sit behind an ``enabled`` guard (the
  <5 %-overhead-when-disabled bar from PR 2),
* simulation code must stay deterministic (no wall clocks, no unseeded
  randomness, no ``id()``/set-order arbitration),
* hot classes must declare ``__slots__`` and keep their attribute set
  fixed after ``__init__``.

``repro lint`` encodes these contracts as four checkers over the ``ast``
of ``src/repro/**``.  See docs/LINT.md for the catalog, the suppression
format, and how to add a checker.
"""

from repro.lint.core import (  # noqa: F401
    Checker,
    Finding,
    LintModule,
    Resolver,
    iter_source_files,
)
from repro.lint.baseline import Baseline, load_baseline  # noqa: F401
from repro.lint.runner import (  # noqa: F401
    ALL_CHECKERS,
    LintResult,
    lint_paths,
    lint_sources,
)
from repro.lint.report import render_json, render_text  # noqa: F401
