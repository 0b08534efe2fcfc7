"""Command-line interface tests."""

import pytest

from repro.cli import _architecture, _build_parser, main
from repro.config.topology import Architecture


class TestParsing:
    def test_architecture_aliases(self):
        assert _architecture("uba") is Architecture.MEM_SIDE_UBA
        assert _architecture("NUBA") is Architecture.NUBA
        assert _architecture("sm-side-uba") is Architecture.SM_SIDE_UBA

    def test_unknown_architecture(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _architecture("tpu")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_bench_is_optional(self):
        """`repro run --arch nuba --trace out.json` must work without
        --bench (defaults to KMEANS)."""
        import argparse
        from repro.cli import _build_parser
        args = _build_parser().parse_args(["run"])
        assert isinstance(args, argparse.Namespace)
        assert args.bench == "KMEANS"

    def test_trace_defaults(self):
        from repro.cli import _build_parser
        args = _build_parser().parse_args(["trace"])
        assert args.bench == "KMEANS"
        assert args.out == "trace.json"
        assert args.interval == 500

    def test_figure_validates_name(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_every_paper_figure_has_a_cli_entry(self):
        expected = {"table2", "fig3", "fig7", "fig8", "fig9", "fig10",
                    "fig11", "fig12", "fig13", "fig14", "fig16", "sec76"}
        for name in expected:
            assert _build_parser().parse_args(["figure", name]).name == name


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "KMEANS" in out and "BICG" in out
        assert out.count("\n") >= 30  # 29 benchmarks + header

    def test_run(self, capsys):
        assert main(["run", "--bench", "AN", "--arch", "nuba"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "local L1 misses" in out

    def test_run_with_overrides(self, capsys):
        code = main([
            "run", "--bench", "KMEANS", "--arch", "uba",
            "--replication", "no-rep", "--page-policy", "round-robin",
            "--noc-gbps", "200",
        ])
        assert code == 0
        assert "mem-side-uba" in capsys.readouterr().out

    def test_run_with_trace_artifacts(self, tmp_path, capsys):
        """The acceptance path: run --trace emits Perfetto-loadable
        JSON and --timeline emits the CSV time series."""
        import json
        trace = tmp_path / "out.json"
        timeline = tmp_path / "timeline.csv"
        code = main([
            "run", "--bench", "AN", "--arch", "nuba",
            "--trace", str(trace), "--timeline", str(timeline),
        ])
        assert code == 0
        loaded = json.loads(trace.read_text())
        assert loaded["traceEvents"]
        assert all({"ph", "ts", "pid", "name"} <= set(e)
                   for e in loaded["traceEvents"])
        header = timeline.read_text().splitlines()[0]
        assert "npb" in header and "mdr_replicating" in header
        out = capsys.readouterr().out
        assert "trace events" in out

    def test_trace_subcommand(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        code = main([
            "trace", "--bench", "AN", "--channels", "4",
            "--out", str(out_path), "--profile",
        ])
        assert code == 0
        assert out_path.stat().st_size > 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "tick profile" in out

    def test_compare(self, capsys):
        assert main(["compare", "--bench", "KMEANS"]) == 0
        out = capsys.readouterr().out
        assert "NUBA speedup" in out

    def test_figure_with_subset(self, capsys):
        code = main(["figure", "fig8", "--subset", "KMEANS"])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main([
            "report", "--out", str(out),
            "--subset", "KMEANS", "--channels", "4",
        ])
        assert code == 0
        text = out.read_text()
        assert "Figure 7" in text and "Figure 13" in text
        assert "wrote" in capsys.readouterr().out

    def test_figure_with_channels(self, capsys):
        code = main(["figure", "fig9", "--subset", "KMEANS",
                     "--channels", "4"])
        assert code == 0
        assert "Figure 9" in capsys.readouterr().out
