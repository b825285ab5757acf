"""Tests for the command-line interface."""


import pytest

from repro.cli import build_parser, main
from repro.graph.io import read_json, write_json
from repro.graph.generators import erdos_renyi_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = erdos_renyi_graph(25, average_degree=3, seed=0)
    path = tmp_path / "graph.json"
    write_json(graph, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "erdos", "--out", "x.json"]
        )
        assert args.dataset == "erdos"

    def test_workers_accepts_only_a_positive_count(self, capsys):
        select = ["select", "--graph", "g.json", "--budget", "2", "--workers"]
        assert build_parser().parse_args(select + ["2"]).workers == 2
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(select + ["remote:h:1"])
        assert excinfo.value.code == 2
        assert "expected a worker count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["generate", "--dataset", "erdos", "--out", "x.json"],
            ["select", "--graph", "g.json", "--budget", "2"],
            ["select", "--graph", "g.json", "--budget", "2", "--algorithm", "Naive"],
            ["evaluate", "--graph", "g.json", "--edges", "e.txt"],
            ["batch", "--graph", "g.json", "--requests", "r.jsonl"],
            ["serve", "--graph", "g.json"],
        ],
    )
    def test_negative_seed_is_a_usage_error(self, command, capsys):
        assert build_parser().parse_args(command + ["--seed", "3"]).seed == 3
        for bad in ("-1", "abc"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(command + ["--seed", bad])
            assert excinfo.value.code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err


class TestGenerate:
    def test_generates_json(self, tmp_path, capsys):
        out = tmp_path / "erdos.json"
        code = main(["generate", "--dataset", "erdos", "--size", "30", "--out", str(out)])
        assert code == 0
        assert out.exists()
        graph = read_json(out)
        assert graph.n_vertices == 30
        assert "30 vertices" in capsys.readouterr().out


class TestSelect:
    def test_select_reports_flow(self, graph_file, capsys, tmp_path):
        edges_out = tmp_path / "edges.txt"
        code = main(
            [
                "select",
                "--graph", str(graph_file),
                "--budget", "4",
                "--algorithm", "FT+M",
                "--samples", "40",
                "--out", str(edges_out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "expected flow" in output
        assert edges_out.exists()
        assert len(edges_out.read_text().strip().splitlines()) == 4

    def test_select_with_explicit_query(self, graph_file, capsys):
        code = main(
            ["select", "--graph", str(graph_file), "--budget", "2", "--query", "0",
             "--samples", "30"]
        )
        assert code == 0
        assert "query vertex   : 0" in capsys.readouterr().out

    def test_unknown_query_vertex(self, graph_file):
        with pytest.raises(SystemExit):
            main(["select", "--graph", str(graph_file), "--budget", "2", "--query", "zzz"])

    def test_resample_per_candidate_flag_is_gone(self, graph_file):
        with pytest.raises(SystemExit) as exit_info:
            main(["select", "--graph", str(graph_file), "--budget", "2",
                  "--resample-per-candidate"])
        assert exit_info.value.code == 2

    def test_negative_budget_exits_with_one_line_message(self, graph_file):
        with pytest.raises(SystemExit, match="^edge budget must be a non-negative integer"):
            main(["select", "--graph", str(graph_file), "--budget", "-1", "--samples", "20"])


class TestEvaluate:
    def test_evaluate_round_trip(self, graph_file, tmp_path, capsys):
        edges_file = tmp_path / "edges.txt"
        main(
            ["select", "--graph", str(graph_file), "--budget", "3", "--query", "0",
             "--samples", "30", "--out", str(edges_file)]
        )
        capsys.readouterr()
        code = main(
            ["evaluate", "--graph", str(graph_file), "--edges", str(edges_file),
             "--query", "0", "--samples", "100"]
        )
        assert code == 0
        assert "expected flow" in capsys.readouterr().out

    def test_malformed_edge_file(self, graph_file, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("only-one-token\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["evaluate", "--graph", str(graph_file), "--edges", str(bad), "--query", "0"])

    def test_negative_samples_exits_with_one_line_message(self, graph_file, tmp_path):
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("", encoding="utf-8")
        with pytest.raises(SystemExit, match="^sample size must be a positive integer"):
            main(["evaluate", "--graph", str(graph_file), "--edges", str(edges_file),
                  "--query", "0", "--samples", "-3"])


class TestExperiment:
    def test_variance_figure_runs(self, capsys):
        code = main(["experiment", "--figure", "variance"])
        assert code == 0
        out = capsys.readouterr().out
        assert "whole-graph MC" in out

    def test_csv_output(self, capsys):
        code = main(["experiment", "--figure", "variance", "--csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("estimator")

    def test_output_dir_writes_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(
            ["experiment", "--figure", "7a", "--quick", "--output-dir", str(out_dir)]
        )
        assert code == 0
        written = list(out_dir.glob("figure_*.csv"))
        assert len(written) == 1
        assert (out_dir / "SUMMARY.md").exists()
        assert "CSV files written" in capsys.readouterr().out


class TestBatch:
    @staticmethod
    def _write_requests(tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_batch_answers_match_single_query(self, graph_file, tmp_path, capsys):
        import json

        from repro.reachability.engine import SamplingEngine

        requests = self._write_requests(
            tmp_path,
            [
                '{"kind": "expected_flow", "query": 0, "n_samples": 80, "seed": 7}',
                '{"kind": "pair_reachability", "source": 0, "target": 5, "n_samples": 80, "seed": 7}',
                "# comments and blank lines are skipped",
                "",
            ],
        )
        out = tmp_path / "results.jsonl"
        code = main(
            ["batch", "--graph", str(graph_file), "--requests", str(requests),
             "--out", str(out)]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        graph = read_json(graph_file)
        engine = SamplingEngine()
        flow = engine.expected_flow(graph, 0, n_samples=80, seed=7)
        pair = engine.pair_reachability(graph, 0, 5, n_samples=80, seed=7)
        assert rows[0]["expected_flow"] == flow.expected_flow
        assert rows[1]["probability"] == pair.probability
        summary = capsys.readouterr().out
        assert "world batches  : 1" in summary  # both requests shared one batch

    def test_batch_warm_serves_from_cache(self, graph_file, tmp_path, capsys):
        import json

        requests = self._write_requests(
            tmp_path,
            ['{"kind": "expected_flow", "query": 0, "n_samples": 60, "seed": 1}'],
        )
        code = main(
            ["batch", "--graph", str(graph_file), "--requests", str(requests), "--warm"]
        )
        assert code == 0
        captured = capsys.readouterr()
        row = json.loads(captured.out.splitlines()[0])
        assert row["from_cache"] is True

    def test_batch_rejects_bad_request_lines(self, graph_file, tmp_path):
        requests = self._write_requests(
            tmp_path, ['{"kind": "mystery", "query": 0}']
        )
        with pytest.raises(SystemExit):
            main(["batch", "--graph", str(graph_file), "--requests", str(requests)])

    def test_batch_rejects_missing_vertices_cleanly(self, graph_file, tmp_path):
        requests = self._write_requests(
            tmp_path, ['{"kind": "expected_flow", "query": 424242}']
        )
        with pytest.raises(SystemExit, match="batch evaluation failed"):
            main(["batch", "--graph", str(graph_file), "--requests", str(requests)])

    def test_batch_rejects_empty_request_file(self, graph_file, tmp_path):
        requests = self._write_requests(tmp_path, ["# nothing here"])
        with pytest.raises(SystemExit, match="no requests"):
            main(["batch", "--graph", str(graph_file), "--requests", str(requests)])

    def test_batch_validates_flags(self, graph_file, tmp_path):
        requests = self._write_requests(
            tmp_path, ['{"kind": "expected_flow", "query": 0}']
        )
        with pytest.raises(SystemExit):
            main(["batch", "--graph", str(graph_file), "--requests", str(requests),
                  "--cache-size", "-1"])
        with pytest.raises(SystemExit):
            main(["batch", "--graph", str(graph_file), "--requests", str(requests),
                  "--workers", "0"])
