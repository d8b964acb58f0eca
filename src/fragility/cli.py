"""Command-line interface.

Subcommands::

    centrality             score the loaded graph
    greedy --k K           greedy removal search
    exact --k K            exhaustive removal search (work-limited)
    decision --k K --x X   does some removal set push fragility above x?
    emit-ip --k K          write LP-format optimization models
    baseline --strategy S --m M   remove top-M nodes of a centrality ranking
    curve                  removal curves for several strategies (CSV)
    bench                  wall-time benchmark per strategy and budget
    synth                  generate a synthetic graph as an edge list

Common flags: ``--graph`` (edge-list file), ``--no-strike`` (protected
labels), ``--format {text,json,csv}``, ``--manifest`` (reproducibility
record path).  Exit codes: 0 success, 1 input error, 2 infeasible or
work-limit exceeded.

Each ``_cmd_*`` handler takes the parsed arguments, the loaded graph and
protected set (both None for ``synth``) and returns its manifest
parameters, text lines, JSON payload and the paths it wrote; ``main``
alone loads the inputs, prints the result and writes the manifest.
Handlers and the library raise ``ValueError`` for bad input (exit 1);
infeasible-request and work-limit errors carry ``exit_status = 2``; ``main``
alone maps exceptions to exit codes.  Each handler imports the solver,
ranking, harness or LP module it runs, so no command loads one it does
not call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

from .defaults import DEFAULT_MAX_FRACTION, DEFAULT_WORK_LIMIT, STRATEGIES
from .graph import fragile, network_degree_centrality
from .io import (emit_edge_list, parse_edge_list, parse_no_strike, run_manifest,
                 write_manifest)


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (2 is reserved)."""

    def error(self, message):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", help="edge-list file")
    common.add_argument("--no-strike", dest="no_strike",
                        help="file of protected node labels, one per line")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")
    common.add_argument("--manifest", help="write the run manifest to this path")

    parser = _Parser(prog="fragility",
                     description="node-removal planning for network centralization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centrality", parents=[common],
                       help="degree centralization of the graph")
    p.set_defaults(handler=_cmd_centrality)

    p = sub.add_parser("greedy", parents=[common], help="greedy removal search")
    p.add_argument("--k", type=int, required=True, help="removal budget")
    p.set_defaults(handler=_cmd_greedy)

    p = sub.add_parser("exact", parents=[common], help="exhaustive removal search")
    p.add_argument("--k", type=int, required=True, help="removal budget")
    p.add_argument("--work-limit", type=int, default=DEFAULT_WORK_LIMIT,
                   help=f"max subsets to enumerate (default {DEFAULT_WORK_LIMIT})")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("decision", parents=[common],
                       help="threshold decision on the exact optimum")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=float, required=True, help="fragility threshold")
    p.add_argument("--work-limit", type=int, default=DEFAULT_WORK_LIMIT)
    p.set_defaults(handler=_cmd_decision)

    p = sub.add_parser("emit-ip", parents=[common],
                       help="write LP-format optimization models")
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--linearize-i", type=int, metavar="I",
                       help="emit the single model fixing the removal count at I")
    group.add_argument("--all-i", action="store_true",
                       help="emit one model per removal count 1..k")
    p.add_argument("--relax", action="store_true",
                   help="continuous [0,1] domains for X and Z")
    p.add_argument("--out", help="output path for --linearize-i (default stdout)")
    p.add_argument("--out-dir", help="output directory for --all-i")
    p.add_argument("--prefix", help="file prefix for --all-i (default model)")
    p.set_defaults(handler=_cmd_emit_ip)

    p = sub.add_parser("baseline", parents=[common],
                       help="static centrality-ranking removal")
    p.add_argument("--strategy", required=True,
                   choices=[s for s in STRATEGIES if s != "greedy"])
    p.add_argument("--m", type=int, required=True, help="how many nodes to remove")
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("curve", parents=[common],
                       help="removal curves for several strategies")
    p.add_argument("--strategies", default=",".join(STRATEGIES),
                   help="comma-separated subset of: " + ", ".join(STRATEGIES))
    p.add_argument("--max-fraction", type=float, default=DEFAULT_MAX_FRACTION)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("bench", parents=[common],
                       help="median wall time per strategy and budget")
    p.add_argument("--strategies", default=",".join(STRATEGIES))
    p.add_argument("--budgets", default="1,5,10",
                   help="comma-separated removal budgets (default 1,5,10)")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic graph as an edge list")
    p.add_argument("--kind", choices=("scale-free", "random", "star-of-stars"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="target edge count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="edge-list output path (default stdout)")
    p.set_defaults(handler=_cmd_synth)

    return parser


# ----- shared helpers ------------------------------------------------------

def _parse_file(path, kind, parse, *args):
    """``parse(file, *args)`` on the file at ``path``, opened as UTF-8 text; a
    file that cannot be opened, read or decoded is bad input of ``kind``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh, *args)
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file: {exc}") from None
    except UnicodeDecodeError as exc:
        # the decoder counts positions from the start of a read, not the file
        raise ValueError(
            f"cannot read {kind} file: {path!r} is not UTF-8 "
            f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def _load_graph(args):
    if not args.graph:
        raise ValueError("this command requires --graph")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = _parse_file(args.graph, "graph", parse_edge_list)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    no_strike = frozenset()
    if args.no_strike:
        no_strike = _parse_file(args.no_strike, "no-strike", parse_no_strike, graph)
    return graph, no_strike


def _write_or_show(path, text, note=""):
    """(lines, paths written): ``text`` itself, or a note that ``path`` got it."""
    if not path:
        return [text.rstrip("\n")], []
    Path(path).write_text(text, encoding="utf-8")
    return [f"wrote {path}{note}"], [path]


def _removal_output(labels, removed, base, final):
    lines = [
        f"removed ({len(removed)}): "
        + (" ".join(labels[i] for i in removed) or "(none)"),
        f"baseline_fragility: {base:.6f}",
        f"final_fragility: {final:.6f}",
    ]
    payload = {
        "removed": [labels[i] for i in removed],
        "baseline_fragility": base,
        "final_fragility": final,
    }
    return lines, payload


def _solution_output(labels, solution):
    lines, payload = _removal_output(labels, solution.removed, solution.trace[0],
                                     solution.final_fragility)
    lines.append("trace: " + " ".join(f"{v:.6f}" for v in solution.trace))
    payload["trace"] = list(solution.trace)
    return lines, payload


# ----- handlers: compute and return what main prints and records ----------

def _cmd_centrality(args, graph, ns):
    value = network_degree_centrality(graph)
    return {}, [f"{value:.6f}"], {"centrality": value}, []


def _cmd_greedy(args, graph, ns):
    from .solvers import greedy_fragile
    solution = greedy_fragile(graph, ns, args.k)
    return {"k": args.k}, *_solution_output(graph.labels, solution), []


def _cmd_exact(args, graph, ns):
    from .solvers import exact_opt
    solution = exact_opt(graph, ns, args.k, args.work_limit)
    return ({"k": args.k, "work_limit": args.work_limit},
            *_solution_output(graph.labels, solution), [])


def _cmd_decision(args, graph, ns):
    if not math.isfinite(args.x):
        raise ValueError(f"--x must be a finite number, got {args.x}")
    from .solvers import fragility_decision
    answer = fragility_decision(graph, ns, args.k, args.x, args.work_limit)
    return ({"k": args.k, "x": args.x}, ["true" if answer else "false"],
            {"decision": answer}, [])


def _cmd_emit_ip(args, graph, ns):
    if args.all_i and args.out is not None:
        raise ValueError("--out writes one model; --all-i writes into --out-dir")
    if not args.all_i and args.out_dir is not None:
        raise ValueError("--out-dir is for --all-i; pass --out for one model")
    if not args.all_i and args.prefix is not None:
        raise ValueError("--prefix names the files of --all-i; pass --out for "
                         "one model")
    from .ip_model import (build_fragility_ip, emit_lp, linearize,
                           relax_bounds, write_lp_family)
    model = build_fragility_ip(graph, ns, args.k)
    if args.relax:
        model = relax_bounds(model)
    parameters = {"k": args.k, "relax": args.relax}
    if args.all_i:
        if args.k < 1:
            raise ValueError("--all-i needs a budget of at least 1")
        out_dir = Path(args.out_dir or ".")
        prefix = "model" if args.prefix is None else args.prefix
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = [str(out_dir / f"{prefix}_i{i}.lp") for i in range(1, args.k + 1)]
        write_lp_family(model, outputs)
        return ({**parameters, "all_i": True}, [f"wrote {p}" for p in outputs],
                {"models": outputs}, outputs)
    if args.linearize_i is None:
        raise ValueError(
            "the model objective is fractional: pass --linearize-i I for one "
            "removal count or --all-i for the whole 1..k family")
    text = emit_lp(linearize(model, args.linearize_i))
    lines, outputs = _write_or_show(args.out, text)
    return ({**parameters, "linearize_i": args.linearize_i}, lines,
            {"model": text, "path": args.out}, outputs)


def _cmd_baseline(args, graph, ns):
    # every ranking orders exactly the unprotected nodes
    targetable = graph.node_count - len(ns)
    if not 0 <= args.m <= targetable:
        raise ValueError(f"--m must lie in 0..{targetable} for this graph")
    from .baselines import _RANKERS
    removed = _RANKERS[args.strategy](graph, ns)[:args.m]
    lines, payload = _removal_output(graph.labels, removed,
                                     network_degree_centrality(graph),
                                     fragile(graph, removed))
    return ({"strategy": args.strategy, "m": args.m},
            [f"strategy: {args.strategy}", *lines],
            {"strategy": args.strategy, **payload}, [])


def _parse_strategies(raw: str) -> tuple[str, ...]:
    """The named strategies, each once, in the order first named."""
    from .harness import _strategies
    names = _strategies(s.strip() for s in raw.split(",") if s.strip())
    if not names:
        raise ValueError("no strategies selected")
    return names


def _cmd_curve(args, graph, ns):
    from .harness import CSV_HEADER, emit_csv, run_curves
    strategies = _parse_strategies(args.strategies)
    points = run_curves(graph, ns, strategies, args.max_fraction, args.step)
    lines, outputs = _write_or_show(args.out, emit_csv(points))
    payload = {"points": [dict(zip(CSV_HEADER.split(","), p)) for p in points]}
    return ({"strategies": list(strategies), "max_fraction": args.max_fraction,
             "step": args.step}, lines, payload, outputs)


def _cmd_bench(args, graph, ns):
    strategies = _parse_strategies(args.strategies)
    try:
        # each budget is measured once, in ascending order
        budgets = sorted({int(b) for b in args.budgets.split(",") if b.strip()})
    except ValueError:
        raise ValueError(f"bad --budgets value {args.budgets!r}") from None
    if not budgets:
        raise ValueError("no budgets given")
    from .harness import BENCH_COLUMNS, BENCH_ROW, benchmark_runtime
    rows = [(strategy, budget, seconds) for strategy in strategies
            for budget, seconds in benchmark_runtime(graph, ns, strategy, budgets)]
    lines = [",".join(BENCH_COLUMNS)] + [BENCH_ROW.format(*row) for row in rows]
    payload = {"measurements": [dict(zip(BENCH_COLUMNS, row)) for row in rows]}
    return {"strategies": list(strategies), "budgets": budgets}, lines, payload, []


def _cmd_synth(args, _graph, _ns):
    from .harness import generate_synthetic
    graph = generate_synthetic(args.kind, args.n, args.m, args.seed)
    lines, outputs = _write_or_show(
        args.out, emit_edge_list(graph),
        f" ({graph.node_count} nodes, {graph.edge_count} edges)")
    return ({"kind": args.kind, "n": args.n, "m": args.m}, lines,
            {"nodes": graph.node_count, "edges": graph.edge_count, "path": args.out},
            outputs)


# ----- entry points --------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.format == "csv" and args.command not in ("curve", "bench"):
            raise ValueError(
                "csv output is only available for the curve and bench commands")
        synth = args.command == "synth"  # reads no input file, so records none
        graph, ns = (None, None) if synth else _load_graph(args)
        parameters, lines, payload, outputs = args.handler(args, graph, ns)
        manifest = run_manifest(
            args.command, parameters, graph_path=None if synth else args.graph,
            no_strike_path=None if synth else args.no_strike,
            seed=getattr(args, "seed", None), outputs=outputs)
        if args.format == "json":
            body = {**payload, "command": args.command, "manifest": manifest}
            print(json.dumps(body, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        path = args.manifest
        if path is None and outputs:
            path = outputs[0] + ".manifest.json"
        if path:
            write_manifest(manifest, path)
        return 0
    except BrokenPipeError:
        # the reader closed stdout (``| head``), which is not bad input; with
        # stdout on devnull the flush at interpreter exit stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        # an error class may carry its own status; other bugs propagate
        bad_input = isinstance(exc, (OSError, ValueError))
        status = getattr(exc, "exit_status", 1 if bad_input else None)
        if status is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return status


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
