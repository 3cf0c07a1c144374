"""Explicit-state protocol model checker for the multiproc runtime.

The package has four layers, each usable on its own:

* :mod:`.checker` — a generic bounded breadth-first model checker over any
  hashable-state machine, returning shortest counterexample traces;
* :mod:`.machine` — the faithful model of the seq/ack/group-commit/
  respawn protocol (one parent, one supervised worker, FIFO channels, a
  bounded dup/reorder/crash adversary) with its six invariants;
* :mod:`.spec` — the declarative transition table, pinned to the real
  source by coarse AST :class:`~.spec.CodeAnchor` patterns;
* :mod:`.extract` — the anchor cross-check that turns "the model is
  verified" into "the code the model describes is verified".

CHR020 (:mod:`.rule`) ties them together as a lint rule; the exhaustive
10⁴–10⁵-state runs live in ``tests/test_protocol_check.py``.  See
``docs/ANALYSIS.md`` for the state-machine format and how to read a
counterexample trace.
"""

from __future__ import annotations

from .checker import CheckResult, Model, Violation, explore
from .extract import Drift, anchor_matches, check_anchors, locate_classes
from .machine import MPConfig, MPState, MultiprocModel
from .rule import LINT_CONFIG, ProtocolInvariantRule
from .spec import ANCHOR_KINDS, CodeAnchor, ProtocolSpec, Transition, multiproc_spec

__all__ = [
    "ANCHOR_KINDS",
    "CheckResult",
    "CodeAnchor",
    "Drift",
    "LINT_CONFIG",
    "MPConfig",
    "MPState",
    "Model",
    "MultiprocModel",
    "ProtocolInvariantRule",
    "ProtocolSpec",
    "Transition",
    "Violation",
    "anchor_matches",
    "check_anchors",
    "explore",
    "locate_classes",
    "multiproc_spec",
]
