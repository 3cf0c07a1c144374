"""Project-specific static analysis (``python -m repro.analysis``).

AST-based lint rules enforcing the invariants the test suite can't see:

========  ===========================  =====================================
Code      Name                         Invariant
========  ===========================  =====================================
CHR001    protocol-unregistered        every message dataclass is codec-
                                       registered (JSON + binary index)
CHR002    protocol-unhandled           registry ↔ handlers agree (no stale
                                       or unroutable registrations)
CHR003    determinism-wallclock        no OS clock in sim-reachable code
CHR004    determinism-randomness       randomness flows from explicit seeds
CHR005    determinism-iteration-order  no set/listdir iteration-order leaks
CHR006    async-blocking               no blocking calls in net/ async defs
CHR007    missing-slots                hot-path dataclasses are slotted
CHR008    untyped-public-api           typed packages stay fully annotated
CHR009    unbounded-stage-buffer       on_message-reachable buffers carry an
                                       enforced or declared high-water mark
CHR010    await-atomicity              no read-await-write races on instance
                                       state in net/ coroutines
CHR011    request-dispatch-gap         dict-request types sent ↔ handled by
                                       the net/ servers, both directions
CHR012    orphan-message               no unroutable constructions, no dead
                                       codec registrations
CHR013    swallowed-exception          pipeline stages never silently drop a
                                       broad exception
CHR014    socket-no-timeout            socket recv/accept in runtime/ and
                                       net/ always run under a deadline
CHR015    reply-shape                  RPC reply keys emitted ↔ read agree
                                       per request type, both directions
CHR016    supervisor-protocol          sequenced emissions get ack/trimmed;
                                       detected worker deaths reach a
                                       respawn-or-park terminal
CHR017    dead-noqa                    every noqa directive still suppresses
                                       something (full runs only)
CHR018    cross-actor-lost-update      no field read before a send is
                                       blindly rewritten by the reply
                                       handler (stale across the round trip)
CHR019    handler-silent-drop          no state guard silently swallows
                                       message kinds that provably arrive
CHR020    protocol-invariant           the multiproc exactly-once machine
                                       model-checks clean (and still anchors
                                       to the code — drift is a finding)
CHR021    backpressure-deadlock        no actor cycle where every edge's
                                       bounded intake can refuse at once
========  ===========================  =====================================

CHR001/CHR002 and CHR009–CHR016 read a shared, memoised whole-project model
(message-flow graph + bounded multi-hop interprocedural dataflow; see
:mod:`repro.analysis.model` and :mod:`repro.analysis.dataflow`), which
``--graph {json,dot}`` dumps for docs and debugging.  CHR018/CHR019/CHR021
layer a memoised cross-actor send/handle graph on top
(:mod:`repro.analysis.actors`; merged into ``--graph json`` as the
``actors`` section), and CHR020 runs the explicit-state model checker in
:mod:`repro.analysis.protocol_check` against the multiproc runtime's
seq/ack/output-commit protocol.  ``--format sarif`` renders any run as
SARIF 2.1.0 for code-scanning uploads.

Suppression: ``# chariots: noqa=CHR003`` on the offending line (comma list
or bare ``noqa`` for all codes); CHR009 additionally accepts a structured
``# chariots: bounded-by=<invariant>`` declaration.  Directives only count
inside real comments (tokenized, not regex-over-lines), and CHR017 flags any
directive that no longer suppresses a finding.  Any other finding fails
the run (exit 1).

The package is pure stdlib and never imports the code it scans, so it runs
identically on the real tree and on synthetic fixtures in the tests.
"""

from __future__ import annotations

from .cli import main, run_rules
from .findings import Finding
from .model import ProjectModel, build_model
from .project import ModuleInfo, ProjectInfo, scan
from .rules import ALL_RULES, Rule, rules_by_code

__all__ = [
    "ALL_RULES",
    "Finding",
    "ModuleInfo",
    "ProjectInfo",
    "ProjectModel",
    "Rule",
    "build_model",
    "main",
    "run_rules",
    "rules_by_code",
    "scan",
]
