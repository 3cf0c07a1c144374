"""Rule registry.

Rules self-describe (code, name, description) and are discovered from this
registry; adding a rule is: write a :class:`~repro.analysis.rules.base.Rule`
subclass in a module here, then list it in :data:`ALL_RULES`.  Codes must be
unique and are never reused once retired (suppression comments reference
them).
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..protocol_check.rule import ProtocolInvariantRule
from .async_safety import BlockingAsyncRule
from .atomicity import AwaitAtomicityRule
from .base import ModuleRule, Rule
from .buffers import UnboundedBufferRule
from .cross_actor import BackpressureCycleRule, CrossActorRaceRule, SilentDropRule
from .deadcode import OrphanMessageRule
from .determinism import IterationOrderRule, UnseededRandomRule, WallClockRule
from .dispatch import RequestDispatchRule
from .exceptions import SwallowedExceptionRule
from .noqa_audit import DeadNoqaRule
from .protocol import ProtocolDispatchRule, ProtocolRegistrationRule
from .replies import ReplyShapeRule
from .slots import SlotsRule
from .sockets import BlockingSocketRule
from .supervision import SupervisorProtocolRule
from .typed_api import TypedApiRule

#: Every shipped rule, in code order.
ALL_RULES: List[Type[Rule]] = [
    ProtocolRegistrationRule,  # CHR001
    ProtocolDispatchRule,  # CHR002
    WallClockRule,  # CHR003
    UnseededRandomRule,  # CHR004
    IterationOrderRule,  # CHR005
    BlockingAsyncRule,  # CHR006
    SlotsRule,  # CHR007
    TypedApiRule,  # CHR008
    UnboundedBufferRule,  # CHR009
    AwaitAtomicityRule,  # CHR010
    RequestDispatchRule,  # CHR011
    OrphanMessageRule,  # CHR012
    SwallowedExceptionRule,  # CHR013
    BlockingSocketRule,  # CHR014
    ReplyShapeRule,  # CHR015
    SupervisorProtocolRule,  # CHR016
    DeadNoqaRule,  # CHR017
    CrossActorRaceRule,  # CHR018
    SilentDropRule,  # CHR019
    ProtocolInvariantRule,  # CHR020
    BackpressureCycleRule,  # CHR021
]


def rules_by_code() -> Dict[str, Type[Rule]]:
    table: Dict[str, Type[Rule]] = {}
    for rule in ALL_RULES:
        if rule.code in table:
            raise ValueError(f"duplicate rule code {rule.code}")
        table[rule.code] = rule
    return table


__all__ = [
    "ALL_RULES",
    "ModuleRule",
    "Rule",
    "rules_by_code",
    "AwaitAtomicityRule",
    "BackpressureCycleRule",
    "BlockingAsyncRule",
    "BlockingSocketRule",
    "CrossActorRaceRule",
    "DeadNoqaRule",
    "IterationOrderRule",
    "OrphanMessageRule",
    "ProtocolDispatchRule",
    "ProtocolInvariantRule",
    "ProtocolRegistrationRule",
    "ReplyShapeRule",
    "RequestDispatchRule",
    "SilentDropRule",
    "SlotsRule",
    "SupervisorProtocolRule",
    "SwallowedExceptionRule",
    "TypedApiRule",
    "UnboundedBufferRule",
    "UnseededRandomRule",
    "WallClockRule",
]
