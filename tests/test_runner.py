"""Tests for the batch figure runner."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import FigureArtifacts, run_all_figures, summary_table

TINY = ExperimentConfig(
    n_vertices=36,
    degree=4,
    budget=3,
    n_samples=30,
    naive_samples=15,
    algorithms=("Dijkstra", "FT+M"),
    seed=1,
)


class TestRunAllFigures:
    def test_single_figure_to_disk(self, tmp_path):
        artifacts = run_all_figures(output_dir=tmp_path, figures=["7a"], config=TINY)
        assert len(artifacts) == 1
        artifact = artifacts[0]
        assert artifact.figure == "7a"
        assert artifact.csv_path is not None and artifact.csv_path.exists()
        content = artifact.csv_path.read_text()
        assert "algorithm" in content.splitlines()[0]
        assert (tmp_path / "SUMMARY.md").exists()

    def test_multi_panel_figure(self, tmp_path):
        artifacts = run_all_figures(output_dir=tmp_path, figures=["variance"])
        assert len(artifacts) == 1
        assert artifacts[0].n_rows == 2

    def test_without_output_dir(self):
        artifacts = run_all_figures(output_dir=None, figures=["variance"])
        assert artifacts[0].csv_path is None

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_all_figures(output_dir=tmp_path, figures=["nope"])

    def test_algorithm_means_recorded(self, tmp_path):
        artifacts = run_all_figures(output_dir=tmp_path, figures=["7a"], config=TINY)
        means = artifacts[0].algorithm_means
        assert set(means) == {"Dijkstra", "FT+M"}
        assert all(value >= 0.0 for value in means.values())


class TestSummaryTable:
    def test_renders_rows(self, tmp_path):
        artifacts = run_all_figures(output_dir=tmp_path, figures=["variance"])
        table = summary_table(artifacts)
        assert "Regenerated figures" in table
        assert "variance-ablation" in table

    def test_handles_memory_only_artifacts(self):
        artifact = FigureArtifacts(
            figure="x", description="demo", csv_path=None, n_rows=0
        )
        assert "demo" in summary_table([artifact])


class TestSharedWorldCache:
    def test_run_all_figures_installs_and_restores_the_cache(self, monkeypatch):
        import repro
        import repro.experiments.runner as runner_module
        from repro.experiments.figures import FigureResult
        from repro.runtime import current_session
        from repro.service.cache import get_default_world_cache

        sentinel = get_default_world_cache()
        seen = []

        def fake_run_figure(figure_id, config):
            # every figure of the run resolves the session's sized cache
            # ahead of the process default
            seen.append((get_default_world_cache(), current_session()))
            return FigureResult(figure=figure_id, description="", x_name="x")

        monkeypatch.setattr(runner_module, "run_figure", fake_run_figure)
        with repro.session(world_cache=16) as session:
            runner_module.run_all_figures(figures=["variance", "7a"], config=TINY)
        assert [cache for cache, _ in seen] == [session.world_cache] * 2
        assert seen[0][0].max_entries == 16
        assert all(active is session for _, active in seen)
        # scope exited afterwards: the process default is back
        assert get_default_world_cache() is sentinel
        assert current_session() is None
