"""The catalog itself: completeness, the deterministic regression subset,
and the CLI."""

import json

import pytest

from repro.scenarios import (
    CATALOG,
    get,
    run_scenario,
    select,
)
from repro.scenarios.__main__ import main as cli_main
from repro.core.errors import ConfigurationError

#: Catalog entries cheap enough for tier-1 (seconds-scale); the rest of the
#: deterministic subset runs under ``-m slow`` (make chaos / scenarios CI).
_QUICK = {
    "fig7-single-maintainer",
    "table2-basic-pipeline",
    "fig9-stage-timeseries",
    "overload-backpressure",
    "geo-replication-lag",
    "geo-partition-soak",
    "flstore-chaos-soak",
    "crash-during-partition",
    "rolling-maintainer-restart",
    "functional-convergence-local",
}


# --------------------------------------------------------------------- #
# Catalog completeness
# --------------------------------------------------------------------- #


def test_catalog_names_are_unique():
    names = [spec.name for spec in CATALOG]
    assert len(names) == len(set(names))


#: §7's Figures 7–9 and Tables 2–5: the ``paper-figure`` entries.
_PAPER_FIGURES = {
    "fig7-single-maintainer",
    "fig8-scaling-private-131k",
    "fig8-scaling-public-125k",
    "fig8-scaling-public-250k",
    "fig9-stage-timeseries",
    "table2-basic-pipeline",
    "table3-two-clients",
    "table4-two-batchers",
    "table5-two-per-stage",
}

#: The repo's own parameter sweeps beyond the paper's figures.
_ABLATIONS = {
    "corfu-sequencer-ceiling",
    "geo-replication-lag",
    "ablation-lid-batch-size",
    "ablation-gossip-interval",
    "ablation-token-queues",
    "ablation-elasticity",
}


def test_every_paper_figure_and_ablation_has_a_tagged_catalog_entry():
    """The evaluation's experiments are pinned by name — deleting an entry
    (or its tag) breaks this test."""
    assert {spec.name for spec in select(tags=["paper-figure"])} == _PAPER_FIGURES
    assert _ABLATIONS <= {spec.name for spec in select(tags=["ablation"])}


def test_every_entry_is_tagged_and_checked():
    for spec in CATALOG:
        assert spec.tags, spec.name
        assert spec.invariants, spec.name


def test_required_tags_present():
    tags_in_use = {tag for spec in CATALOG for tag in spec.tags}
    assert {"paper-figure", "soak", "overload", "geo", "chaos"} <= tags_in_use


def test_deterministic_selection_excludes_aio():
    names = {spec.name for spec in select(deterministic=True)}
    assert "functional-convergence-aio" not in names
    assert "functional-convergence-multiproc" not in names
    assert "multiproc-crash-recovery" not in names
    assert "functional-convergence-local" in names


def test_runtime_selection():
    multiproc = {spec.name for spec in select(runtime="multiproc")}
    assert multiproc == {"multiproc-crash-recovery", "functional-convergence-multiproc"}
    assert all(spec.runtime == "sim" for spec in select(runtime="sim"))


@pytest.mark.parametrize("runtime", ["local", "aio", "multiproc"])
def test_functional_convergence_passes_on_every_runtime(runtime):
    """The one functional drive, on each runtime it supports."""
    spec = get(f"functional-convergence-{runtime}")
    result = run_scenario(spec, run_root=None, raise_on_failure=False)
    assert spec.runtime == runtime and result.error is None, result.error
    assert result.invariant_failures == []


def test_get_unknown_scenario_raises():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        get("no-such-entry")


# --------------------------------------------------------------------- #
# The deterministic regression subset, as pytest
# --------------------------------------------------------------------- #

_DETERMINISTIC = select(deterministic=True)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            spec.name,
            marks=() if spec.name in _QUICK else pytest.mark.slow,
        )
        for spec in _DETERMINISTIC
    ],
)
def test_catalog_entry_passes_its_invariants(name):
    result = run_scenario(get(name), run_root=None, raise_on_failure=False)
    assert result.error is None, result.error
    assert result.invariant_failures == []


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def test_cli_list_and_show(capsys):
    assert cli_main(["list", "--tag", "paper-figure"]) == 0
    out = capsys.readouterr().out
    assert "fig7-single-maintainer" in out
    assert cli_main(["show", "geo-partition-soak"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["name"] == "geo-partition-soak"


def test_cli_run_persists_artifacts(tmp_path, capsys):
    code = cli_main(["run", "table2-basic-pipeline", "--run-root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    run_dir = tmp_path / "table2-basic-pipeline" / "run-0001"
    assert (run_dir / "aggregates.json").is_file()
    assert "1/1 scenarios passed" in out


def test_cli_rejects_unknown_scenario_name():
    with pytest.raises(SystemExit):
        cli_main(["run", "no-such-entry", "--no-persist"])
