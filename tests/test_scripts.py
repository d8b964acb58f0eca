"""Smoke test for ``scripts/run_experiments.py``."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from fragility import parse_csv
from fragility.harness import STRATEGIES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"


def _load_script(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_run_experiments_writes_curves_and_manifests(tmp_path, capsys,
                                                     monkeypatch):
    script = _load_script(monkeypatch)
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
