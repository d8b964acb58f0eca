#!/usr/bin/env python3
"""Reproduce the removal-curve and runtime experiments on synthetic graphs.

For each configured graph size this script grows a seeded scale-free graph,
sweeps removal budgets up to the configured fraction for the greedy planner
and the three static baselines, and writes one curve CSV per size plus a
run manifest.  It then benchmarks wall time per strategy across budgets on
the largest configured graph to show that ranking strategies cost the same
no matter how deep the removal goes, while greedy scales with the budget.

Usage:
    python scripts/run_experiments.py --out-dir results
    python scripts/run_experiments.py --seed 3 --skip-bench
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from fragility import (benchmark_runtime, emit_csv, emit_edge_list,
                       generate_synthetic, run_curves, run_manifest,
                       write_manifest)
from fragility.defaults import DEFAULT_MAX_FRACTION, STRATEGIES
from fragility.harness import BENCH_COLUMNS, BENCH_ROW

# (nodes, edges) pairs matching the densities of the published case-study
# networks at desk scale, plus one large instance for the scaling run.
CURVE_SIZES: tuple[tuple[int, int], ...] = ((57, 162), (102, 388), (105, 590),
                                            (135, 556))
BENCH_SIZE: tuple[int, int] = (1133, 5541)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for CSVs and manifests (default results)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")
    parser.add_argument("--max-fraction", type=float, default=DEFAULT_MAX_FRACTION,
                        help="largest fraction of nodes to remove (default %(default)s)")
    parser.add_argument("--skip-bench", action="store_true",
                        help="only produce the removal curves")
    return parser.parse_args(argv)


def run_curve_experiments(cfg: argparse.Namespace) -> None:
    for n, m in CURVE_SIZES:
        graph = generate_synthetic("scale-free", n, m, seed=cfg.seed)
        points = run_curves(graph, None, max_fraction=cfg.max_fraction)
        graph_path = cfg.out_dir / f"scale_free_n{n}.edges"
        graph_path.write_text(emit_edge_list(graph), encoding="utf-8")
        csv_path = cfg.out_dir / f"curve_n{n}.csv"
        csv_path.write_text(emit_csv(points), encoding="utf-8")
        write_manifest(run_manifest(
            "scripts/run_experiments.py curves",
            {"kind": "scale-free", "n": n, "m": m,
             "max_fraction": cfg.max_fraction,
             "strategies": list(STRATEGIES)},
            graph_path=str(graph_path),
            seed=cfg.seed,
            outputs=[str(csv_path)],
        ), str(csv_path) + ".manifest.json")

        budget = max(p.nodes_removed for p in points)
        finals = {p.strategy: p for p in points if p.nodes_removed == budget}
        print(f"N={n} M={graph.edge_count} budget={budget} "
              f"({100.0 * budget / n:.1f}% removed)")
        for strategy in sorted(finals):
            p = finals[strategy]
            print(f"  {strategy:12s} fragility {p.fragility:.4f} "
                  f"({p.percent_increase:+.1f}%) in {p.wall_time:.3f}s")
        print(f"  wrote {csv_path}")


def run_bench_experiment(cfg: argparse.Namespace) -> None:
    n, m = BENCH_SIZE
    graph = generate_synthetic("scale-free", n, m, seed=cfg.seed)
    budgets = sorted({1, n // 40, n // 20, n // 10})  # each measured once
    lines = [",".join(BENCH_COLUMNS)]
    print(f"benchmark on N={n} M={graph.edge_count}, budgets {budgets}")
    for strategy in STRATEGIES:
        t0 = time.perf_counter()
        for budget, seconds in benchmark_runtime(graph, None, strategy, budgets):
            lines.append(BENCH_ROW.format(strategy, budget, seconds))
            print(f"  {strategy:12s} budget {budget:4d}: {seconds:.4f}s")
        print(f"  {strategy:12s} total {time.perf_counter() - t0:.2f}s")
    bench_path = cfg.out_dir / f"bench_n{n}.csv"
    bench_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(run_manifest(
        "scripts/run_experiments.py bench",
        {"kind": "scale-free", "n": n, "m": m, "budgets": budgets},
        seed=cfg.seed,
        outputs=[str(bench_path)],
    ), str(bench_path) + ".manifest.json")
    print(f"  wrote {bench_path}")


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    run_curve_experiments(cfg)
    if not cfg.skip_bench:
        run_bench_experiment(cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
