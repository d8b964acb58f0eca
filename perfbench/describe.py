#!/usr/bin/env python3
"""Print the make-up of the benchmark's inputs for a range of seeds.

    python3 perfbench/describe.py --seeds 1-10

One markdown row per workload and seed: sizes, maximum degree, protected
labels and the SHA-256 of the files the program reads.  The files are
written under ``perfbench/out/describe/`` to be hashed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import gen  # noqa: E402
from perfbench.run import OUT, WORKLOADS  # noqa: E402
from perfbench.spread import seeds  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    args = parser.parse_args()
    print("| workload | seed | nodes | edges | max degree | protected | "
          "graph.txt sha256 | protected.txt sha256 |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for name, wl in WORKLOADS.items():
        for seed in args.seeds:
            inst = gen.make_instance(wl.nodes, wl.edges, seed, wl.protect_top)
            graph, protected = gen.write_instance(inst, OUT / "describe")
            labels = " ".join(gen.label(i) for i in sorted(inst.protected))
            print(f"| {name} | {seed} | {inst.n} | {inst.m} | {max(inst.degree)} | "
                  f"{labels or '-'} | `{gen.sha256(graph)}` | "
                  f"{f'`{gen.sha256(protected)}`' if protected else '-'} |")
            if protected:
                protected.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
