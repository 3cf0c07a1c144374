"""Whole-deployment determinism and public-API sanity."""

import ast
from pathlib import Path

import repro
from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
from repro.runtime import LocalRuntime


def run_deployment(seed):
    runtime = LocalRuntime(chaos=FaultPlan(seed).reorder(delay=0.02))
    deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
    ca = deployment.blocking_client("A")
    cb = deployment.blocking_client("B")
    for i in range(6):
        ca.append(f"a{i}")
        cb.append(f"b{i}")
    assert deployment.settle(max_seconds=30)
    return deployment.logs()


#: Public definitions in ``src/repro`` (outside ``analysis/``) that nothing
#: in ``src/`` or ``examples/`` uses, each kept on purpose, keyed
#: ``path::Qualname`` under ``src/repro``.  An entry whose definition is gone,
#: or that has gained a use, fails the check below: delete it from here too.
KEPT_WITHOUT_A_CALLER = {
    "net/protocol.py::FrameProtocol.get_buffer": "asyncio BufferedProtocol callback",
    "net/protocol.py::FrameProtocol.buffer_updated": "asyncio BufferedProtocol callback",
    "net/protocol.py::_Link.pause_writing": "asyncio flow-control callback",
    "net/protocol.py::_Link.resume_writing": "asyncio flow-control callback",
    "net/server.py::_ServerConnection.pause_writing": "asyncio flow-control callback",
    "net/server.py::_ServerConnection.resume_writing": "asyncio flow-control callback",
    "net/protocol.py::FrameProtocol.connection_made": "asyncio callback, ROADMAP item 11",
    "net/protocol.py::FrameProtocol.connection_lost": "asyncio callback, ROADMAP item 11",
    "net/protocol.py::_Link.connection_lost": "asyncio callback, ROADMAP item 11",
    "net/server.py::_ServerConnection.connection_made": "asyncio callback, ROADMAP item 11",
    "net/server.py::_ServerConnection.connection_lost": "asyncio callback, ROADMAP item 11",
    "runtime/actor.py::Runtime.has_actor": "member of the Runtime protocol",
    "runtime/local.py::BaseRuntime.has_actor": "implements Runtime.has_actor",
    "scenarios/runner.py::run_scenario": "drives one spec by hand (docs/API.md, docs/FAULTS.md)",
    "net/binary_codec.py::encode_message_binary": "a message's wire bytes (docs/API.md)",
    "apps/objects.py::ReplicatedSet": "§4 case study, judged by ROADMAP item 2",
    "apps/streams.py::WindowedAggregator": "§4 case study, judged by ROADMAP item 2",
    "apps/timetravel.py::Checkpointer": "§1 checkpointing case study, judged by ROADMAP item 2",
    "core/causality.py::topological_causal_sort": "reference order that tests build logs from",
    "core/causality.py::happened_before": "reference relation that tests check the walk against",
    "flstore/archive.py::ArchiveStore": "§6.1 cold storage; users pass it as a maintainer's archive",
    "flstore/archive.py::ArchiveStore.dump": "writes the file `repro.cli inspect-journal` reads",
    "chaos/procchaos.py::ProcChaos": "ledger-only vestige (ledger/geo.py), ROADMAP item 14",
    "chaos/procchaos.py::ProcChaos.from_plan": "ledger-only vestige (ledger/geo.py), ROADMAP item 14",
    "core/causality.py::causal_order_respected": "ledger-only (ledger/probes.py), ROADMAP item 14",
    "runtime/multiproc/__init__.py::MultiprocRuntime.prepare_encoded": (
        "ledger-only vestige (ledger/calibrate.py), ROADMAP item 14"
    ),
}


def public_definitions(body, prefix=""):
    """``(qualname, node)`` of every public function, method and class in
    ``body``, methods of private classes included (dunders are private)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            if not node.name.startswith("_"):
                yield qualname, node
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node.body, qualname + ".")


def dead_definitions(root, examples):
    """``{path::qualname: line}`` of the public definitions under ``root``
    (``analysis/`` excepted) whose name no code under ``root`` or
    ``examples`` uses.  A use is a name, an attribute, or a string constant
    spelling the name (``getattr`` by name), except that:

    - a definition, a re-export and an ``__all__`` entry are not uses;
    - nothing under ``analysis/`` is a use: the analyzer names production
      code in its rule tables and never calls it;
    - a reference to ``m`` inside a function named ``m`` is not a use, so a
      delegating wrapper needs a caller of its own;
    - ``K.m``, where ``K`` names a class defined here, uses only the ``m``
      of a class named ``K``, not another class's namesake."""
    sources = [
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(root.rglob("*.py")) + sorted(examples.glob("*.py"))
        if root / "analysis" not in path.parents
    ]
    classes = {
        node.name
        for _, tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    uses, qualified_uses, defined = set(), set(), {}

    def visit(node, function, exports):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Name) and node.id != function:
            uses.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != function:
            if isinstance(node.value, ast.Name) and node.value.id in classes:
                qualified_uses.add((node.value.id, node.attr))
            else:
                uses.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier() and node.value != function and id(node) not in exports:
                uses.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, function, exports)

    for path, tree in sources:
        exports = {
            id(node)
            for statement in tree.body
            if isinstance(statement, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in statement.targets)
            for node in ast.walk(statement.value)
        }
        visit(tree, None, exports)
        if root in path.parents:
            module = path.relative_to(root).as_posix()
            for qualname, node in public_definitions(tree.body):
                owner = qualname.split(".")[-2] if "." in qualname else None
                defined[f"{module}::{qualname}"] = owner, node.name, node.lineno
    return {
        key: line
        for key, (owner, name, line) in defined.items()
        if name not in uses and (owner, name) not in qualified_uses
    }


class TestDeterministicReplay:
    def test_same_seed_same_logs(self):
        first = run_deployment(seed=11)
        second = run_deployment(seed=11)
        assert first == second

    def test_different_seeds_still_converge_to_same_record_sets(self):
        assert check_logs(run_deployment(seed=1), reference=run_deployment(seed=2)).ok


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)

    def test_subpackage_exports_resolve(self):
        import repro.apps
        import repro.baseline
        import repro.chariots
        import repro.core
        import repro.flstore
        import repro.net
        import repro.runtime
        import repro.scenarios
        import repro.sim

        for module in (
            repro.apps, repro.baseline, repro.chariots, repro.core,
            repro.flstore, repro.net, repro.runtime, repro.scenarios, repro.sim,
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module.__name__, name)

    def test_storage_and_pipeline_layers_do_not_import_the_network_layer(self):
        """``core``, ``flstore`` and ``chariots`` sit below ``net``: the wire
        codec imports their message types, so an import the other way is a
        cycle waiting for a lazy-import workaround."""
        root = Path(repro.__file__).parent
        offenders = []
        for package in ("core", "flstore", "chariots"):
            for path in sorted((root / package).rglob("*.py")):
                here = ("repro", *path.relative_to(root).parts[:-1])
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Import):
                        targets = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        base = ".".join(here[: len(here) - node.level + 1]) if node.level else ""
                        module = ".".join(part for part in (base, node.module) if part)
                        targets = [module] + [f"{module}.{alias.name}" for alias in node.names]
                    else:
                        continue
                    if any(t == "repro.net" or t.startswith("repro.net.") for t in targets):
                        offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert offenders == []

    def test_only_the_runtime_base_touches_the_collector(self):
        """One collector policy: outside ``runtime/local.py``, whose hold every
        runtime takes, no module sets thresholds, disables or freezes it."""
        root = Path(repro.__file__).parent
        touching = {"set_threshold", "disable", "freeze"}
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "runtime" / "local.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            gc_names = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names
                if alias.name == "gc"
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    hit = touching & {alias.name for alias in node.names}
                else:
                    hit = (
                        isinstance(node, ast.Attribute)
                        and node.attr in touching
                        and isinstance(node.value, ast.Name)
                        and node.value.id in gc_names
                    )
                if hit:
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert offenders == []

    def test_every_public_definition_has_a_production_use(self):
        """Dead surface stays out: a public function, method or class that
        only tests call is deleted, used, or kept here with a reason."""
        root = Path(repro.__file__).parent
        dead = dead_definitions(root, Path(__file__).resolve().parents[1] / "examples")
        unexplained = [
            f"src/repro/{key.split('::')[0]}:{line} {key.split('::')[1]}"
            for key, line in sorted(dead.items())
            if key not in KEPT_WITHOUT_A_CALLER
        ]
        assert not unexplained, (
            "public definitions that nothing in src/ or examples/ uses; delete each, "
            "use it, or add it to KEPT_WITHOUT_A_CALLER with a reason:\n  "
            + "\n  ".join(unexplained)
        )
        stale = sorted(set(KEPT_WITHOUT_A_CALLER) - set(dead))
        assert not stale, (
            f"KEPT_WITHOUT_A_CALLER entries no longer defined, or now used: {stale}"
        )

    def test_tests_judge_logs_through_check_logs(self):
        """Only the causal walk's own tests (and ``DeferredQueue.admit``'s)
        use it on bare record lists; every other test uses ``check_logs``."""
        walk = {"causal_order_respected", "first_violation"}
        allowed = {
            "test_core_causality.py", "test_property_structures.py", "test_burst_append_path.py"
        }
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(__file__).parent.glob("*.py"))
            if path.name not in allowed
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and walk & {alias.name for alias in node.names}
        ]
        assert offenders == []

    def test_docstrings_on_public_classes(self):
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"{name} lacks a docstring"
