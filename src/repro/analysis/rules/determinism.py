"""CHR003/CHR004/CHR005 — determinism in sim-reachable code.

The deterministic runtimes replay identical histories from a seed; the
pipeline ≡ abstract equivalence tests and the seeded chaos soaks depend on
it.  One ``time.time()`` or bare ``random.random()`` inside an actor, a
stage, or the chaos layer silently turns every such test flaky.  These
rules scan the packages reachable from ``SimRuntime`` (``sim``,
``chariots``, ``flstore``, ``chaos``, ``core``, ``runtime``) for the three
ways nondeterminism sneaks in:

* **CHR003** — wall-clock reads (``time.time``, ``datetime.now``, …).
  Simulated time comes from ``Actor.now`` / the event loop, never the OS.
* **CHR004** — unseeded randomness: module-level ``random.*`` functions
  (shared global RNG), ``random.Random()`` with no seed, ``os.urandom``,
  ``uuid.uuid1/uuid4``, ``secrets``.  ``random.Random(seed)`` is the
  sanctioned pattern.
* **CHR005** — iteration-order hazards: iterating a set expression
  directly, or ``os.listdir`` outside ``sorted(...)``.  Set iteration order
  depends on insertion history and hash seeding; replay needs sorted order.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from ..findings import Finding
from ..project import ModuleInfo, qualified_name
from .base import ModuleRule

#: Packages reachable from the deterministic runtimes.  ``net`` (wall-clock
#: asyncio deployment), ``scenarios`` (times its runs), ``apps``/``baseline``
#: and the CLI are intentionally out of scope.
SIM_SCOPED_PACKAGES: Tuple[str, ...] = (
    "sim",
    "chariots",
    "flstore",
    "chaos",
    "core",
    "runtime",
)

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Module-level random functions sharing the process-global RNG.
_GLOBAL_RANDOM_CALLS = {
    f"random.{fn}"
    for fn in (
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "getrandbits",
        "gauss",
        "expovariate",
        "betavariate",
        "normalvariate",
        "seed",
    )
}

_ENTROPY_CALLS = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbelow",
    "secrets.choice",
}


def _in_scope(module: ModuleInfo) -> bool:
    return module.in_package(SIM_SCOPED_PACKAGES)


class WallClockRule(ModuleRule):
    """CHR003: no wall-clock reads in sim-reachable code."""

    code = "CHR003"
    name = "determinism-wallclock"
    description = (
        "Code reachable from the deterministic runtimes (sim/, chariots/, "
        "flstore/, chaos/, core/, runtime/) must not read the OS clock "
        "(time.time, time.monotonic, perf_counter, datetime.now, ...); "
        "simulated time comes from Actor.now / the event loop."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, module.imports)
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call {name}() in sim-reachable code; use "
                    "the runtime clock (Actor.now) instead",
                )


class UnseededRandomRule(ModuleRule):
    """CHR004: randomness must flow from an explicit seed."""

    code = "CHR004"
    name = "determinism-randomness"
    description = (
        "Sim-reachable code must not use the process-global random module "
        "functions, an unseeded random.Random(), os.urandom, uuid.uuid1/4, "
        "or secrets; derive a random.Random(seed) from configuration so "
        "replays are exact."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, module.imports)
            if name is None:
                continue
            if name in _GLOBAL_RANDOM_CALLS:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"process-global {name}() in sim-reachable code; use an "
                    "explicitly seeded random.Random instance",
                )
            elif name in _ENTROPY_CALLS:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"OS-entropy call {name}() in sim-reachable code; "
                    "derive values from the configured seed",
                )
            elif name == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "random.Random() constructed without a seed in "
                    "sim-reachable code; pass an explicit seed",
                )


def _is_set_expression(node: ast.AST, module: ModuleInfo) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = qualified_name(node.func, module.imports)
        if name == "set" or name == "frozenset":
            return True
        if name in ("set.union", "set.intersection", "set.difference"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # ``seen | new`` etc. — only flag when an operand is itself a
        # visible set expression; plain names stay out (too noisy).
        return _is_set_expression(node.left, module) or _is_set_expression(
            node.right, module
        )
    return False


class IterationOrderRule(ModuleRule):
    """CHR005: no order-unstable iteration in sim-reachable code."""

    code = "CHR005"
    name = "determinism-iteration-order"
    description = (
        "Sim-reachable code must not iterate directly over a set expression "
        "or an unsorted os.listdir(): iteration order then depends on hash "
        "seeding / filesystem order and replays diverge.  Wrap the iterable "
        "in sorted(...)."
    )

    def _sorted_wrapped(self, parents: Dict[ast.AST, ast.AST], node: ast.AST) -> bool:
        parent = parents.get(node)
        if isinstance(parent, ast.Call):
            name: Optional[str] = None
            if isinstance(parent.func, ast.Name):
                name = parent.func.id
            return name in ("sorted", "len", "set", "frozenset", "min", "max", "sum")
        return False

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module):
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(module.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        iter_sites: Set[Tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            iterables = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if _is_set_expression(iterable, module):
                    site = (iterable.lineno, iterable.col_offset)
                    if site not in iter_sites:
                        iter_sites.add(site)
                        yield self.finding(
                            module,
                            iterable.lineno,
                            iterable.col_offset,
                            "iteration over a set expression in sim-reachable "
                            "code; wrap in sorted(...) for stable order",
                        )
            if isinstance(node, ast.Call):
                name = qualified_name(node.func, module.imports)
                if name == "os.listdir" and not self._sorted_wrapped(parents, node):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        "os.listdir() without sorted(...) in sim-reachable "
                        "code; directory order is filesystem-dependent",
                    )
