"""Tests for the command-line interface (repro.cli)."""

import os

import pytest

from repro.cli import build_parser, main
from repro.flstore import FileJournal, MaintainerCore, OwnershipPlan
from repro.flstore.archive import ArchiveStore

from conftest import chain, rec


class TestDemo:
    def test_demo_runs_and_converges(self, capsys):
        assert main(["demo", "--records", "2"]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "head of log" in out

    def test_demo_with_three_datacenters(self, capsys):
        assert main(["demo", "--datacenters", "X,Y,Z", "--records", "1"]) == 0
        out = capsys.readouterr().out
        assert "3 datacenters" in out


class TestTable1:
    def test_prints_every_group(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Chariots" in out
        assert "CORFU/Tango" in out
        assert "Megastore" in out


class TestInspection:
    def test_inspect_journal(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "m.journal")
        journal = FileJournal(path)
        core = MaintainerCore("m0", OwnershipPlan(["m0"], batch_size=5), journal=journal)
        core.append(chain("c", 3))
        core.place(3, rec("c", 4))
        journal.close()
        assert main(["inspect-journal", path, "-v"]) == 0
        out = capsys.readouterr().out
        assert "4 placements" in out
        size = os.path.getsize(path)
        assert f"blocks: 2 ({size} bytes, {size / 4:.1f} per record)" in out
        assert "LId range: 0..3" in out

    def test_inspect_empty_journal(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "empty.journal")
        FileJournal(path).close()
        assert main(["inspect-journal", path]) == 0
        assert "empty journal" in capsys.readouterr().out

    def test_inspect_archive(self, tmp_path, capsys):
        archive = ArchiveStore()
        for i in range(3):
            archive.append_run([(i, rec("A", i + 1, tags={"k": i}))])
        path = os.path.join(tmp_path, "a.archive")
        archive.dump(path)
        assert main(["inspect-journal", path, "-v"]) == 0
        out = capsys.readouterr().out
        assert "3 placements" in out
        assert "blocks: 1 (" in out
        assert "[2] <A,3> tags={'k': 2}" in out


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for argv in (
            ["demo"],
            ["table1"],
            ["inspect-journal", "x"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)
