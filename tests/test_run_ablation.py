"""``scripts/run_ablation.py``, the experiment driver: gen-data, then train and
eval once per kNN budget, a row per run, and the first failing command's
exit code as its own."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_ablation.py"
SMALL = ["--scenes", "2", "--epochs", "1"]


@pytest.fixture
def driver():
    spec = importlib.util.spec_from_file_location("run_ablation", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(out: str) -> list[str]:
    return [line.split()[0] for line in out.splitlines() if line.startswith("knn_k=") and "gap" not in line]


def test_default_runs_relations_on_and_off(driver, tmp_path, capsys):
    assert driver.main(["--workdir", str(tmp_path), *SMALL]) == 0
    out = capsys.readouterr().out
    assert _rows(out) == ["knn_k=3", "knn_k=0"]
    assert "knn_k=3 minus knn_k=0 mAP gap: " in out and "total wall time: " in out
    for k in (3, 0):
        assert (tmp_path / f"ckpt_k{k}" / "weights.bin").exists()
        assert (tmp_path / f"report_k{k}.json").exists()


def test_one_budget_is_one_row_and_no_gap(driver, tmp_path, capsys):
    assert driver.main(["--workdir", str(tmp_path), *SMALL, "--knn-k", "3"]) == 0
    out = capsys.readouterr().out
    assert _rows(out) == ["knn_k=3"]
    assert "gap" not in out
    assert not (tmp_path / "ckpt_k0").exists()


def test_a_failing_command_exit_code_is_the_driver_exit_code(driver, tmp_path, capsys):
    assert driver.main(["--workdir", str(tmp_path), "--scenes", "2", "--epochs", "0"]) == 2
    out = capsys.readouterr().out
    assert _rows(out) == [] and "final loss" not in out


def test_an_exit_code_other_than_2_is_not_flattened(driver, tmp_path, monkeypatch):
    # a numeric divergence in train (exit 3) stops the driver before any eval
    run, calls = driver.cli.main, []

    def diverging(argv):
        calls.append(argv[0])
        return 3 if argv[0] == "train" else run(argv)

    monkeypatch.setattr(driver.cli, "main", diverging)
    assert driver.main(["--workdir", str(tmp_path), *SMALL]) == 3
    assert calls == ["gen-data", "train"]
