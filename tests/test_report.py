"""Reproduce-all report tool and its one scale switch.

Structure only: ``tests/test_experiments.py`` runs every experiment at
the report's scale and asserts the paper's claims on the results.
"""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.campaign import registry
from repro.experiments import table1
from repro.experiments.common import ExperimentResult
from repro.experiments.report import _experiment_plan, render_markdown, report_plan


def test_plan_covers_every_artifact():
    sections = [section for section, _ in _experiment_plan(full=False)]
    for expected in (
        "Table I",
        "Table II",
        "Fig. 4",
        "Fig. 5",
        "Long-term stability",
        "Fig. 7a (NVIDIA)",
        "Fig. 7b (AMD)",
        "Fig. 8",
        "Fig. 10",
        "Fig. 12",
    ):
        assert expected in sections
    assert sum(1 for s in sections if s.startswith("Ablation")) == 6


def test_plan_full_flag_changes_scale():
    """Bench cells hold each Param's default; paper cells its full value."""
    bench = report_plan(full=False)
    paper = report_plan(full=True)
    assert (bench.scale, paper.scale) == ("bench", "full")
    assert [cell.label for cell in bench.cells] == [cell.label for cell in paper.cells]
    scaled = []
    for bench_cell, paper_cell in zip(bench.cells, paper.cells):
        params = registry.get(bench_cell.experiment).params
        assert set(bench_cell.params) == set(paper_cell.params) == {p.name for p in params}
        for param in params:
            assert bench_cell.params[param.name] == param.default
            if param.full is registry._UNSET:
                assert paper_cell.params[param.name] == param.default
            else:
                assert paper_cell.params[param.name] == param.full
                scaled.append(f"{bench_cell.experiment}.{param.name}")
    assert scaled == [
        "table2.n_samples",
        "fig4.n_samples",
        "stability.window_samples",
        "fig12.logical_bytes",
        "fig12.read_runtime_s",
        "fig12.write_runtime_s",
    ]


def _runner_module(experiment: registry.Experiment) -> str:
    return getattr(experiment.runner, "func", experiment.runner).__module__


#: Every experiment module (tests may register toy experiments of their own).
MODULES = sorted(
    {
        module
        for module in map(_runner_module, registry.experiments())
        if module.startswith("repro.experiments.")
    }
)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_main_runs_its_experiments_at_paper_scale(module, monkeypatch, capsys):
    """``python -m repro.experiments.<module>`` runs what ``--full`` runs."""
    expected, calls = {}, {}
    for experiment in registry.experiments():
        if _runner_module(experiment) != module:
            continue

        def runner(_name=experiment.name, **kwargs):
            calls[_name] = kwargs
            return ExperimentResult(name=_name)

        monkeypatch.setitem(
            registry._REGISTRY,
            experiment.name,
            dataclasses.replace(experiment, runner=runner),
        )
        expected[experiment.name] = experiment.scaled_args(True)
    importlib.import_module(module).main()
    assert calls == expected
    assert capsys.readouterr().out.count("(no rows)") == len(expected)


def test_a_module_runs_as_a_script():
    """Run as ``__main__``, a module's registrations do not collide."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments.table1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("[Table I: worst-case module accuracy]")


def test_render_markdown():
    result = table1.run()
    report = render_markdown([("Table I", result, 1.23)], full=False)
    assert "# PowerSensor3 reproduction report" in report
    assert "## Table I" in report
    assert "paper E_p" in report
    assert "1.2 s" in report
    assert "bench" in report
    full_report = render_markdown([("Table I", result, 0.5)], full=True)
    assert "paper (full)" in full_report


def test_experiment_result_save_load_roundtrip(tmp_path):
    import numpy as np

    from repro.experiments.common import ExperimentResult

    result = ExperimentResult(
        name="demo",
        rows=[{"x": 1.5, "ok": True, "label": "a"}],
        series={"t": np.arange(5.0), "p": np.ones(5)},
        notes=["hello"],
    )
    result.save(tmp_path / "artifact")
    restored = ExperimentResult.load(tmp_path / "artifact")
    assert restored.name == "demo"
    assert restored.rows == [{"x": 1.5, "ok": True, "label": "a"}]
    assert restored.notes == ["hello"]
    assert np.array_equal(restored.series["t"], np.arange(5.0))


def test_experiment_result_save_without_series(tmp_path):
    from repro.experiments.common import ExperimentResult

    result = ExperimentResult(name="tableonly", rows=[{"a": 1}])
    directory = result.save(tmp_path / "t")
    assert (directory / "result.json").exists()
    assert not (directory / "series.npz").exists()
    assert ExperimentResult.load(directory).rows == [{"a": 1}]


def test_real_experiment_artifact_roundtrip(tmp_path):
    import numpy as np

    from repro.experiments.common import ExperimentResult

    result = table1.run()
    result.save(tmp_path / "table1")
    restored = ExperimentResult.load(tmp_path / "table1")
    assert len(restored.rows) == 4
    assert restored.rows[0]["paper E_p"] == 4.2
