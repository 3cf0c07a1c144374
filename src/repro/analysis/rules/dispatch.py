"""CHR011 — dict-request dispatch exhaustiveness for the ``net/`` servers.

CHR002 keeps the *object* protocol (codec registry vs ``on_message``)
honest; the TCP layer speaks a second, stringly-typed protocol of
``{"type": ...}`` request dicts.  This rule closes the gap the ROADMAP
named: using the project model's request-flow graph it cross-checks the
type strings clients **send** (``conn.request({...})``, ``link.post({...})``,
``self._post(link, {...})``) against the ones server ``handle()``/``_serve()``
methods **dispatch** (``request["type"] == ...`` comparisons, through module-level
string constants), in both directions:

* a request type sent but never dispatched is dropped on the server floor
  (the client hangs until timeout);
* a dispatch branch for a type nothing sends is dead server surface.

Responses are CHR015's job (:mod:`repro.analysis.rules.replies`): this rule
balances *which types* flow, the reply-shape rule balances *what each
reply contains*.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from ..model import build_model
from ..project import ProjectInfo
from .base import Rule


class RequestDispatchRule(Rule):
    """CHR011: sent request types and handled request types must agree."""

    code = "CHR011"
    name = "request-dispatch-gap"
    description = (
        "Every {'type': ...} request dict a net/ client sends must have a "
        "matching request['type'] dispatch branch in a server handle()/"
        "_serve() method, and every dispatch branch must correspond to a "
        "type some client actually sends.  Both gaps are silent protocol "
        "drift on the TCP surface."
    )

    def check(self, project: ProjectInfo) -> Iterator[Finding]:
        model = build_model(project)
        if not model.has_request_handlers:
            return  # partial scan without servers: the cross-check is moot
        for kind in sorted(set(model.request_sent) - set(model.request_handled)):
            for site in model.request_sent[kind]:
                yield self.finding(
                    site.module,
                    site.line,
                    site.col,
                    f'request type "{kind}" is sent here but no server '
                    "handle()/_serve() method dispatches it",
                )
        for kind in sorted(set(model.request_handled) - set(model.request_sent)):
            for site in model.request_handled[kind]:
                yield self.finding(
                    site.module,
                    site.line,
                    site.col,
                    f'request type "{kind}" is dispatched here but no client '
                    "ever sends it (dead server surface)",
                )
