"""Static + dynamic correctness analysis for SPMD programs.

The package attacks the failure classes of bulk-synchronous SPMD code that
the runtime's docstrings warn about:

* **collective divergence** — ranks of one communicator entering different
  collectives (deadlock, or silent garbage exchange), typically caused by
  collectives under rank-dependent control flow;
* **nondeterminism** — unordered iteration, wall clocks, or order-sensitive
  float folds leaking into replicated algorithm state;
* **backend portability** — thread-backend conveniences (shared globals,
  by-reference payloads, closures) that break under a process backend;
* **one-sided races** — unsynchronized ``Get``/``Put``/``Fetch-and-op``
  overlap on a runtime :class:`~repro.runtime.rma.Window`, checked at run
  time only (no engine opens a window).

The *static* half lives here: a rank-taint dataflow engine
(:mod:`repro.analysis.engine`) with per-function collective-effect
summaries propagated over the module call graph, queried by the rule
catalogue in :mod:`repro.analysis.rules` and its satellite rule modules
(:mod:`.determinism`, :mod:`.portability`).  Entry points:
:func:`lint_paths` / ``repro lint`` with text or JSON output, inline
``# repro: noqa[...]`` suppression and baseline files
(:mod:`repro.analysis.suppress`).

The *dynamic* half is wired into the runtime and enabled per job with
``spmd(..., verify=True)`` (``repro spmd --verify``): a collective-trace
checker in :class:`repro.runtime.fabric.CollectiveTrace` and an RMA race
detector in :class:`repro.runtime.rma.RmaAccessLog`.
"""

from .lint import lint_file, lint_paths, lint_source
from .report import RULES, Finding, format_json, format_text, sort_findings
from .rules import all_rules
from .suppress import Baseline, load_baseline, write_baseline
from .cli import run_lint

__all__ = [
    "Baseline",
    "Finding",
    "RULES",
    "all_rules",
    "format_json",
    "format_text",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "run_lint",
    "sort_findings",
    "write_baseline",
]
