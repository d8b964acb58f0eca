"""Smoke test for ``scripts/run_experiments.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from fragility import parse_csv
from fragility.harness import STRATEGIES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiments_writes_curves_and_manifests(tmp_path, capsys):
    script = _load_script()
    assert script.main(["--out-dir", str(tmp_path), "--skip-bench",
                        "--max-fraction", "0.05"]) == 0
    assert "wrote" in capsys.readouterr().out
    for n, m in script.CURVE_SIZES:
        csv_path = tmp_path / f"curve_n{n}.csv"
        points = parse_csv(csv_path.read_text(encoding="utf-8"))
        assert {p.strategy for p in points} == set(STRATEGIES)
        assert all(p.fraction_removed <= 0.05 for p in points)
        manifest = json.loads(Path(f"{csv_path}.manifest.json")
                              .read_text(encoding="utf-8"))
        assert manifest["parameters"]["n"] == n
        assert manifest["parameters"]["m"] == m
        assert manifest["outputs"] == [str(csv_path)]
    assert not (tmp_path / "bench_n1133.csv").exists()


def test_run_experiments_bench_writes_medians(tmp_path, capsys, monkeypatch):
    script = _load_script()
    monkeypatch.setattr(script, "CURVE_SIZES", ((57, 162),))
    monkeypatch.setattr(script, "BENCH_SIZE", (57, 162))
    assert script.main(["--out-dir", str(tmp_path),
                        "--max-fraction", "0.05"]) == 0
    assert "benchmark on N=57" in capsys.readouterr().out
    bench_path = tmp_path / "bench_n57.csv"
    lines = bench_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "strategy,budget,median_wall_time_s"
    # budgets 1, 57 // 40, 57 // 20 and 57 // 10, each measured once
    rows = [line.split(",") for line in lines[1:]]
    assert [(s, int(b)) for s, b, _ in rows] == [
        (s, b) for s in STRATEGIES for b in (1, 2, 5)]
    assert all(float(t) >= 0.0 for _, _, t in rows)
    manifest = json.loads(Path(f"{bench_path}.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["parameters"]["budgets"] == [1, 2, 5]
    assert manifest["outputs"] == [str(bench_path)]
