#!/usr/bin/env python3
"""Benchmark of the ``fragility`` command on seeded inputs.

    python3 perfbench/run.py --workload greedy_large --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/``.

``--trace 0`` runs each command of the workload as a fresh process, one at a
time, in whole rounds until ``--seconds`` have passed (at least two rounds),
and reports the end-to-end metrics.  ``--trace 1`` runs the same commands
in this process through ``fragility.cli.main``, untraced and with spans
around the program's public calls, in at least two rounds, and reports the
per-layer metrics.
Every output is checked against reference results computed here, apart from
the program.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench import checks, gen, reference, trace  # noqa: E402

# The child writes its own peak resident size (VmHWM, in kB) to the file
# named by its first argument when it exits.  The ru_maxrss that wait4
# reports is no use here: Linux carries the spawning process's resident
# high-water mark into the child's at exec, so it would show the
# benchmark's own memory.
LAUNCH = """\
import atexit, sys
peak_file = sys.argv.pop(1)

def record_peak():
    with open("/proc/self/status") as status, open(peak_file, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])

atexit.register(record_peak)
from fragility.cli import main
sys.exit(main(sys.argv[1:]))
"""
CHILD_TIMEOUT_S = 150.0
GREEDY_K = 100
GREEDY_SAMPLE_ROUNDS = 10
EXACT_K = 4
EMIT_K = 10
CURVE_PERCENT = 12
IMPORT_PROBES = 7


@dataclass(frozen=True)
class Workload:
    """Input size, how many top-degree nodes are protected, and how many
    set-up commands each round runs."""

    nodes: int
    edges: int
    protect_top: int
    setups_per_round: int


WORKLOADS = {
    "greedy_large": Workload(20000, 97800, 20, 2),
    "exact_small": Workload(57, 162, 0, 5),
    "paper_mid": Workload(1133, 5541, 0, 5),
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "io.parse_edge_list_s": "s", "graph.build_s": "s", "graph.fragile_us": "us",
    "solvers.tracker_init_ms": "ms", "solvers.greedy_round_ms": "ms",
    "solvers.greedy_round_p90_ms": "ms", "solvers.exact_s": "s",
    "solvers.decision_s": "s", "solvers.exact_subsets_per_s": "1/s",
    "baselines.betweenness_s": "s", "baselines.closeness_s": "s",
    "harness.run_curves_s": "s", "harness.ranking_curve_s": "s",
    "ip_model.build_ms": "ms", "ip_model.emit_lp_s": "s",
    "ip_model.check_feasible_s": "s", "cli.import_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One command of the program and the check of its JSON output."""

    argv: list[str]
    check: Callable[[dict], None]
    before: Callable[[], None] | None = None


@dataclass
class Outcome:
    code: int
    wall: float
    stdout: str
    stderr: str
    rss_kb: int = 0


@dataclass
class Tally:
    """Operations attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def judge(self, op: Op, out: Outcome) -> None:
        """Count one operation: it fails on a non-zero exit, a traceback on
        stderr, or a failed check."""
        self.attempted += 1
        problem = None
        if out.code != 0:
            problem = f"exit {out.code}"
        elif "Traceback (most recent call last)" in out.stderr:
            problem = "traceback on stderr"
        else:
            try:
                op.check(json.loads(out.stdout))
            except (checks.Mismatch, ValueError, KeyError, TypeError,
                    IndexError, OSError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.problems.append(f"{op.argv[0]}: {problem}")
            print(f"FAILED {' '.join(op.argv)}: {problem}\n{out.stderr[-2000:]}",
                  file=sys.stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], scratch: Path) -> Outcome:
    """Run ``cmd`` alone and wait for it."""
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        # a blocking wait sees the exit at once; Popen.wait(timeout) polls
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Outcome(code, wall, out.read().decode(errors="replace"),
                       err.read().decode(errors="replace"))


def run_program(op: Op, scratch: Path) -> Outcome:
    """Run one command of the program as a fresh process, with its peak RSS."""
    if op.before:
        op.before()
    peak_file = scratch / "peak_kb"
    peak_file.unlink(missing_ok=True)
    out = run_child([sys.executable, "-c", LAUNCH, str(peak_file), *op.argv],
                    scratch)
    if peak_file.exists():
        out.rss_kb = int(peak_file.read_text())
    return out


def run_in_process(cli, op: Op, tracer: trace.Tracer | None) -> Outcome:
    if op.before:
        op.before()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = (tracer.call("cli.main", cli.main, op.argv) if tracer
                    else cli.main(op.argv))
        except Exception:
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return Outcome(code, wall, out.getvalue(), err.getvalue())


# ----- workloads ------------------------------------------------------------

class EmitCheck:
    """Checks every LP model of the first emission; later emissions must be
    byte-identical to it."""

    def __init__(self, inst: gen.Instance, out_dir: Path, prefix: list[int],
                 k: int) -> None:
        self.inst, self.out_dir, self.prefix = inst, out_dir, prefix
        self.paths = [out_dir / f"model_i{i}.lp" for i in range(1, k + 1)]
        self.digests: list[str] | None = None

    def clear(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for path in self.out_dir.iterdir():
            path.unlink()

    def __call__(self, payload: dict) -> None:
        if payload["models"] != [str(p) for p in self.paths]:
            raise checks.Mismatch(f"models {payload['models'][:2]}...")
        texts = [p.read_bytes() for p in self.paths]
        digests = [hashlib.sha256(t).hexdigest() for t in texts]
        if self.digests is None:
            for i, text in enumerate(texts, start=1):
                checks.lp_model(self.inst, text.decode(), i, self.prefix)
            self.digests = digests
        elif digests != self.digests:
            changed = [i for i, (a, b) in enumerate(zip(digests, self.digests), 1)
                       if a != b]
            raise checks.Mismatch(f"re-emitted models differ: i={changed}")


def plan(name: str, inst: gen.Instance, graph: Path, protected: Path | None,
         seed: int, work: Path) -> tuple[Op, list[Op]]:
    """The set-up command and the workload's commands, with their checks."""
    files = ["--graph", str(graph)]
    if protected:
        files += ["--no-strike", str(protected)]
    setup = Op(["centrality", *files, "--format", "json"],
               lambda p: checks.centrality(inst, p))
    if name == "greedy_large":
        return setup, [Op(["greedy", *files, "--k", str(GREEDY_K), "--format", "json"],
                          lambda p: checks.greedy(inst, p, GREEDY_K, seed,
                                                  GREEDY_SAMPLE_ROUNDS))]
    if name == "exact_small":
        best, value = reference.exhaustive(inst.adj, inst.protected, EXACT_K)
        x = float(reference.score_after(inst.adj, ()))
        return setup, [
            Op(["exact", *files, "--k", str(EXACT_K), "--format", "json"],
               lambda p: checks.exact(inst, p, best, value)),
            Op(["decision", *files, "--k", str(EXACT_K), "--x", repr(x),
                "--format", "json"],
               lambda p: checks.decision(p, value, x)),
        ]
    curve_ref = checks.curve_reference(inst, CURVE_PERCENT)
    emit = EmitCheck(inst, work / "lp",
                     reference.greedy(inst.adj, inst.protected, EMIT_K), EMIT_K)
    return setup, [
        Op(["curve", *files, "--format", "json"],
           lambda p: checks.curve(inst, p, curve_ref)),
        Op(["emit-ip", *files, "--k", str(EMIT_K), "--all-i", "--out-dir",
            str(emit.out_dir), "--format", "json"], emit, emit.clear),
    ]


# ----- measurement ------------------------------------------------------------

def measure(ops: list[Op], setup: Op, setups_per_round: int, seconds: float,
            tally: Tally, scratch: Path) -> tuple[dict[str, float], dict]:
    """End-to-end metrics: each command in a fresh process.  A round is the
    set-up command a few times, then each of the workload's commands."""
    tally.judge(setup, run_program(setup, scratch))  # warm file and bytecode caches
    setups, walls, peaks = [], [], []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        for _ in range(setups_per_round):
            out = run_program(setup, scratch)
            tally.judge(setup, out)
            setups.append(out.wall)
        outs = [run_program(op, scratch) for op in ops]
        for op, out in zip(ops, outs):
            tally.judge(op, out)
        walls.append(sum(o.wall for o in outs))
        peaks.append(max(o.rss_kb for o in outs) / 1024)
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(peaks)}
    return metrics, {"wall_s": walls, "setup_s": setups, "peak_rss_mb": peaks}


def import_cost(tally: Tally, scratch: Path) -> float:
    """Fresh-interpreter import of the CLI minus a bare interpreter start."""
    probes = {"bare": "pass", "load": "import fragility.cli"}
    times: dict[str, list[float]] = {key: [] for key in probes}
    for _ in range(IMPORT_PROBES):
        for key, code in probes.items():
            out = run_child([sys.executable, "-c", code], scratch)
            tally.attempted += 1
            if out.code != 0:
                tally.failed += 1
                tally.problems.append(f"import probe {code!r}: exit {out.code}")
            times[key].append(out.wall)
    return statistics.median(times["load"]) - statistics.median(times["bare"])


def feasibility_models(inst: gen.Instance, graph: Path) -> list:
    """Each linearized model with the program's canonical assignment of the
    reference greedy prefix, built untraced."""
    import fragility
    g = fragility.parse_edge_list(graph.read_text(encoding="utf-8"))
    model = fragility.build_fragility_ip(g, inst.protected, EMIT_K)
    prefix = reference.greedy(inst.adj, inst.protected, EMIT_K)
    models = []
    for i in range(1, EMIT_K + 1):
        lin = fragility.linearize(model, i)
        models.append((lin, fragility.canonical_assignment(lin, prefix[:i])))
    return models


def run_all(cli, ops: list[Op], tracer: trace.Tracer | None, tally: Tally) -> float:
    total = 0.0
    for op in ops:
        out = run_in_process(cli, op, tracer)
        tally.judge(op, out)
        total += out.wall
    return total


def measure_traced(inst: gen.Instance, graph: Path, ops: list[Op],
                   probe_feasibility: bool, seconds: float, tally: Tally,
                   scratch: Path, trace_path: Path) -> tuple[dict[str, float], dict]:
    """Per-layer metrics: the workload's commands in this process, untraced
    and traced, in at least two whole rounds that alternate which goes first."""
    sys.path.insert(0, str(SRC))
    import fragility
    from fragility import cli
    if Path(fragility.__file__).resolve().parent != SRC / "fragility":
        raise RuntimeError(f"imported fragility from {fragility.__file__}")
    models = feasibility_models(inst, graph) if probe_feasibility else []
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the program's collections
    rounds: list[dict[str, float]] = []
    tracers: list[trace.Tracer] = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        tracer = trace.Tracer()
        plain = run_all(cli, ops, None, tally) if len(rounds) % 2 == 0 else None
        restore = trace.instrument(tracer, fragility)
        try:
            traced = run_all(cli, ops, tracer, tally)
        finally:
            restore()
        if plain is None:
            plain = run_all(cli, ops, None, tally)
        for lin, assignment in models:
            report = tracer.call("ip_model.check_feasible", fragility.check_feasible,
                                 lin, assignment)
            tally.attempted += 1
            if not report.ok:
                tally.failed += 1
                tally.problems.append(f"check_feasible: {report.violations[:2]}")
        figures = trace.layer_metrics(tracer)
        exact_s = figures["solvers.exact_s"]
        pool = inst.n - len(inst.protected)
        figures["solvers.exact_subsets_per_s"] = (
            reference.subset_count(pool, EXACT_K) / exact_s if exact_s else 0.0)
        figures["trace.overhead_s"] = traced - plain
        rounds.append(figures)
        tracers.append(tracer)
    gc.unfreeze()
    trace.write(tracers, trace_path)
    figures = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    figures["cli.import_s"] = import_cost(tally, scratch)
    return figures, {"rounds": rounds, "trace_file": str(trace_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fragility" / "cli.py").is_file():
        print(f"error: the program's source is missing: {SRC / 'fragility'}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / tag
    work.mkdir(parents=True, exist_ok=True)
    inst = gen.make_instance(wl.nodes, wl.edges, args.seed, wl.protect_top)
    graph, protected = gen.write_instance(inst, work)
    setup, ops = plan(args.workload, inst, graph, protected, args.seed, work)
    tally = Tally()
    if args.trace:
        metrics, samples = measure_traced(
            inst, graph, ops, args.workload == "paper_mid", args.seconds, tally,
            work, OUT / f"trace-{tag}.jsonl.gz")
        units = PER_LAYER
    else:
        metrics, samples = measure(ops, setup, wl.setups_per_round, args.seconds,
                                   tally, work)
        units = END_TO_END
    inputs = {
        "nodes": inst.n, "edges": inst.m, "max_degree": max(inst.degree),
        "protected": [gen.label(i) for i in sorted(inst.protected)],
        "graph_sha256": gen.sha256(graph),
        "protected_sha256": gen.sha256(protected) if protected else None,
    }
    shutil.rmtree(work / "lp", ignore_errors=True)  # checked; about 23 MB a run
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, inputs=inputs, samples=samples,
                  problems=tally.problems)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for k, u in units.items():
        print(f"{args.workload} {k} = {metrics[k]:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
