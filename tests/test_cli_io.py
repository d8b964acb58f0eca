"""Edge-list / no-strike parsing, manifests, and the command-line interface."""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ORACLE_SPLIT, graph_shape, oracle_graph,
                      oracle_parse_edge_list, random_graph_edges)
from fragility import (DuplicateEdgeWarning, EdgeListError, Graph,
                       emit_edge_list, generate_synthetic, parse_edge_list,
                       parse_no_strike, run_manifest, write_manifest)
from fragility import harness
from fragility.cli import main
from fragility.io import _BLOCK, _records


# ----- edge-list parsing ---------------------------------------------------

class TestParseEdgeList:
    def test_basic(self):
        g = parse_edge_list("a b\nb c\n")
        assert g.node_count == 3
        assert g.labels == ("a", "b", "c")
        assert g.edges() == ((0, 1), (1, 2))

    def test_commas_and_comments(self):
        g = parse_edge_list("# net\n a , b  # link\n\nc\n")
        assert g.labels == ("a", "b", "c")
        assert g.edges() == ((0, 1),)
        assert g.degree[2] == 0

    def test_first_appearance_ids(self):
        g = parse_edge_list("z a\na q\n")
        assert g.labels == ("z", "a", "q")

    def test_duplicate_edges_collapse_with_warning(self):
        with pytest.warns(DuplicateEdgeWarning, match="2 duplicate"):
            g = parse_edge_list("a b\nb a\na b\nb c\n")
        assert g.edges() == ((0, 1), (1, 2))

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(EdgeListError, match="line 2") as err:
            parse_edge_list("a b\nc c\n")
        assert err.value.lineno == 2

    def test_too_many_labels(self):
        with pytest.raises(EdgeListError, match="expected 1 or 2"):
            parse_edge_list("a b c\n")

    def test_empty_text_gives_empty_graph(self):
        g = parse_edge_list("# nothing\n")
        assert g.node_count == 0

    def test_whitespace_split_agrees_with_regex(self):
        # records are split with str.split() after commas become spaces, which
        # matches the oracle's [,\s]+ only because str.split() and \s agree
        # on every space character
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert spaces
        for c in spaces:
            body = f"a{c}b"
            assert body.split() == [p for p in ORACLE_SPLIT.split(body) if p] == ["a", "b"]


def _outcome(parse, text):
    """Everything ``parse`` makes of ``text``: the graph node for node and its
    warnings, or the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = parse(text)
        except EdgeListError as exc:
            return type(exc), str(exc), exc.lineno
    return (g.labels, g.edges(), g.degree, g.edge_count, g.max_degree,
            [list(a) for a in g.adjacency],
            [(w.category, str(w.message)) for w in caught])


def _messy_scale_free_text(seed: int, n: int = 3000, m: int = 14670) -> str:
    """An n/m scale-free edge list, shuffled, with 500 duplicate and 500
    reversed records, commas, tabs, comments and declared isolated nodes
    mixed in."""
    rng = random.Random(seed)
    g = generate_synthetic("scale-free", n, m, seed=seed)
    records = [(g.labels[u], g.labels[v]) for u, v in g.edges()]
    records += [rng.choice(records) for _ in range(500)]
    records += [(v, u) for u, v in rng.sample(records, 500)]
    records += [(f"iso{i}",) for i in range(40)]
    records += [(rng.choice(g.labels),) for _ in range(40)]
    rng.shuffle(records)
    seps = [" ", "\t", ",", " , ", "  ", "\t,"]
    lines = ["# scale-free corpus"]
    for rec in records:
        line = rng.choice(seps).join(rec)
        if rng.random() < 0.05:
            line += "  # note"
        if rng.random() < 0.02:
            lines.append("")
        lines.append(rng.choice(["", " ", "\t"]) + line)
    return "\n".join(lines) + "\n"


class TestParseMemory:
    def test_peak_stays_below_one_frozenset_per_node(self):
        # each record appends to its two endpoints' neighbour lists, each list
        # becomes a tuple in turn and the text is split into lines block by
        # block, so the whole load peaks below what one frozenset per node
        # would hold, and at under 3.2 times what the graph keeps (about 2.7
        # times on CPython 3.11)
        text = emit_edge_list(generate_synthetic("scale-free", 5000, 24450, seed=7))
        tracemalloc.start()
        try:
            g = parse_edge_list(text)
            retained, peak = tracemalloc.get_traced_memory()
            frozen = [frozenset(a) for a in g.adjacency]
            frozen_size = tracemalloc.get_traced_memory()[0] - retained
        finally:
            tracemalloc.stop()
        assert g.edge_count == 24450
        assert all(type(a) is tuple for a in g.adjacency)
        assert peak < frozen_size, (peak, frozen_size, len(frozen))
        assert peak < 3.2 * retained, (peak, retained)
        # every adjacency entry is one of the parser's own id objects
        assert len({id(v) for a in g.adjacency for v in a}) <= g.node_count


def _block_edge_text(sep: str, at: int) -> str:
    """30,000 records ending in turn with ``"\\n"``, ``"\\r\\n"`` and
    ``"\\x1c"``, with commas and comments mixed in; the first record is
    padded so that the last ``sep`` starting at or before ``at`` starts at
    ``at``."""
    ends = ["\n", "\r\n", "\x1c"]
    text = "".join(f"{i},{i + 1}" + (" # c" if i % 7 == 0 else "") + ends[i % 3]
                   for i in range(30000))
    j = text.rindex(sep, 0, at + 1)
    return text[:3] + " " * (at - j) + text[3:]


class TestRecordBlocks:
    @pytest.mark.parametrize("sep, at", [("\r\n", _BLOCK - 1), ("\r\n", _BLOCK),
                                         ("\x1c", _BLOCK), ("\x1c", _BLOCK - 1)])
    def test_block_edges_cut_no_line(self, sep, at):
        text = _block_edge_text(sep, at)
        assert len(text) > 200 * 1024 and text.startswith(sep, at)
        per_line = [(n, body.replace(",", " ").split())
                    for n, raw in enumerate(text.splitlines(), start=1)
                    if (body := raw.split("#", 1)[0].strip())]
        assert list(_records(text)) == per_line
        assert per_line[-1][0] == 30000

    def test_bad_record_reports_its_line(self):
        lines = _block_edge_text("\r\n", _BLOCK - 1).splitlines(keepends=True)
        lines[29999] = "a b c\n"
        with pytest.raises(EdgeListError, match=r"^line 30000: expected 1 or 2"):
            parse_edge_list("".join(lines))


# bodies built from labels that include non-ASCII letters and a byte-order
# mark, and separators that include every kind the parser treats differently
_LABEL = st.sampled_from(["a", "b", "c", "d", "é", "\ufeffa", "10", "1"])
_SEP = st.sampled_from([" ", "\t", ",", " , ", ",,", "\xa0", "\u3000", "\x0b"])
_LINE = st.builds(
    lambda labels, seps, tail: "".join(
        lab + sep for lab, sep in zip(labels, seps)) + tail,
    st.lists(_LABEL, max_size=4), st.lists(_SEP, min_size=4, max_size=4),
    st.sampled_from(["", "#", " # c", ",", "\r"]))


class TestParserMatchesOracle:
    """The one-pass parser against the regex/set parser it replaced."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_messy_scale_free_corpus(self, seed):
        text = _messy_scale_free_text(seed)
        new = _outcome(parse_edge_list, text)
        assert new == _outcome(oracle_parse_edge_list, text)
        assert len(new[0]) == 3040 and new[3] == 14670
        assert "collapsed 1000 duplicate" in new[-1][0][1]
        # each node's neighbours come out ascending and repeat-free, as the
        # oracle's do
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateEdgeWarning)
            g = parse_edge_list(text)
        assert graph_shape(g) == oracle_graph(g.node_count, g.edges())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LINE, max_size=12), st.sampled_from(["\n", "\r\n", "\x1c"]))
    def test_generated_records(self, lines, newline):
        text = newline.join(lines)
        assert _outcome(parse_edge_list, text) == _outcome(oracle_parse_edge_list, text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab ,#\t\n\r\xa0\u2028é\ufeff", max_size=40))
    def test_generated_text(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(oracle_parse_edge_list, text)


def _straddling_text() -> str:
    """A padded first record, then ``a b`` ending the first 64 KiB block and
    ``b a`` and ``a b`` opening the second, then a 9000-record chain given
    again, reversed, further on, so its repeats fall in later blocks."""
    head = "x y" + " " * (_BLOCK - 5) + "\n"
    chain = [f"n{i} n{i + 1}" for i in range(9000)]
    again = [f"n{i + 1},n{i}" for i in range(0, 9000, 2)]
    text = head + "a b\nb a\na b\n" + "\n".join(chain + again) + "\n"
    assert text.find("\n", _BLOCK) + 1 == len(head) + len("a b\n")
    return text


class TestRepeatedRecordsMatchOracle:
    """Repeat-heavy texts: the neighbour lists built while reading, with
    their repeats collapsed afterwards, give the oracle's labels, adjacency,
    degrees, edge count and warning."""

    @pytest.mark.parametrize("text, collapsed", [
        pytest.param("a b\na b\na b\n", 2, id="one-edge-three-times"),
        pytest.param("a b\nb a\n", 1, id="reversed-repeat"),
        pytest.param("b\nc\na b\nb a\nc,a\na c # again\n", 2,
                     id="endpoint-declared-alone-first"),
        pytest.param(_straddling_text(), 4502, id="repeats-straddle-block-cut"),
    ])
    def test_small_texts(self, text, collapsed):
        new = _outcome(parse_edge_list, text)
        assert new == _outcome(oracle_parse_edge_list, text)
        assert new[-1] == [(DuplicateEdgeWarning,
                            f"collapsed {collapsed} duplicate edge record(s)")]

    def test_seeded_scale_free_20000(self):
        text = _messy_scale_free_text(5, 20000, 97800)
        new = _outcome(parse_edge_list, text)
        assert new == _outcome(oracle_parse_edge_list, text)
        assert new[3] == 97800 and len(new[0]) == 20040
        assert new[-1] == [(DuplicateEdgeWarning,
                            "collapsed 1000 duplicate edge record(s)")]


class TestErrorContract:
    """Errors keep their messages and line numbers whether the neighbour
    lists come from the parser or from Graph's own edge loop."""

    @pytest.mark.parametrize("bad, message", [
        ("c c", "self-loop on 'c'"), ("a b c", "expected 1 or 2 labels, got 3")])
    @pytest.mark.parametrize("at", [1, 4, 8])
    def test_parser_errors_keep_line_numbers_among_repeats(self, bad, message, at):
        lines = ["a b", "b a", "# note", "a", "a b", "c,d", "d c"]
        lines.insert(at - 1, bad)
        text = "\n".join(lines) + "\n"
        with pytest.raises(EdgeListError, match=f"^line {at}: {re.escape(message)}$") as err:
            parse_edge_list(text)
        assert err.value.lineno == at
        assert _outcome(parse_edge_list, text) == _outcome(oracle_parse_edge_list, text)

    def test_repeats_raise_from_graph_and_collapse_in_the_parser(self):
        rng = random.Random(0xC0)
        for _ in range(200):
            n = rng.randint(2, 14)
            edges = random_graph_edges(rng, n, rng.uniform(0.1, 0.7)) or [(0, 1)]
            given = edges + [rng.choice(edges)[::rng.choice((1, -1))]
                             for _ in range(rng.randint(1, 4))]
            rng.shuffle(given)
            counts = Counter((min(e), max(e)) for e in given)
            lowest = min(e for e, c in counts.items() if c > 1)
            with pytest.raises(ValueError, match=f"^duplicate edge {re.escape(str(lowest))}$"):
                Graph(n, given)
            # every id declared first, in order, so the parser's ids are Graph's
            text = "".join(f"{i}\n" for i in range(n))
            text += "".join(f"{u} {v}\n" for u, v in given)
            with pytest.warns(DuplicateEdgeWarning,
                              match=f"^collapsed {len(given) - len(counts)} duplicate"):
                g = parse_edge_list(text)
            assert graph_shape(g) == oracle_graph(n, sorted(counts))


class TestEmitEdgeList:
    def test_round_trip_labels_and_edges(self):
        g = Graph(4, [(0, 1), (2, 1)], labels=("n1", "hub", "n2", "lone"))
        back = parse_edge_list(emit_edge_list(g))
        assert set(back.labels) == set(g.labels)
        named = {frozenset((back.labels[u], back.labels[v]))
                 for u, v in back.edges()}
        assert named == {frozenset(("n1", "hub")), frozenset(("hub", "n2"))}
        assert back.node_count == 4  # the isolated label survives

    def test_rejects_unwritable_label(self):
        g = Graph(2, [(0, 1)], labels=("ok", "not ok"))
        with pytest.raises(ValueError, match="cannot be written"):
            emit_edge_list(g)

    def test_empty_graph(self):
        assert emit_edge_list(Graph(0, [])) == ""

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(25):
            n = rng.randint(1, 12)
            g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.0, 0.8)))
            back = parse_edge_list(emit_edge_list(g))
            assert back.node_count == g.node_count
            named_a = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
            named_b = {frozenset((back.labels[u], back.labels[v]))
                       for u, v in back.edges()}
            assert named_a == named_b


class TestNoStrike:
    def test_parse(self):
        g = parse_edge_list("a b\nb c\n")
        assert parse_no_strike("c\n# x\na\n", g) == {0, 2}

    def test_unknown_label(self):
        g = parse_edge_list("a b\n")
        with pytest.raises(EdgeListError, match="unknown node label 'q'"):
            parse_no_strike("q\n", g)

    def test_one_label_per_line(self):
        g = parse_edge_list("a b\n")
        with pytest.raises(EdgeListError, match="exactly one"):
            parse_no_strike("a b\n", g)

    def test_graph_built_in_code(self):
        # labels in an order no edge-list parse would give them
        g = Graph(4, [(0, 1), (2, 3)], labels=["z", "y", "x", "w"])
        assert parse_no_strike("w\n# x\ny\n", g) == {3, 1}
        with pytest.raises(EdgeListError, match="line 3: unknown node label 'a'"):
            parse_no_strike("x\n\na\n", g)


class TestManifest:
    def test_json_is_deterministic_and_sorted(self, tmp_path):
        m = run_manifest("greedy", {"k": 2}, "g.txt", None, None, ("out.csv",))
        assert m["outputs"] == ["out.csv"]
        write_manifest(m, tmp_path / "a.json")
        write_manifest(m, tmp_path / "b.json")
        a = (tmp_path / "a.json").read_text(encoding="utf-8")
        assert a == (tmp_path / "b.json").read_text(encoding="utf-8")
        assert a == json.dumps(m, indent=2, sort_keys=True) + "\n"
        payload = json.loads(a)
        assert list(payload) == sorted(payload)
        assert payload["command"] == "greedy"
        assert payload["outputs"] == ["out.csv"]

    def test_defaults(self):
        assert run_manifest("synth", {"n": 5}) == {
            "command": "synth", "parameters": {"n": 5}, "graph_path": None,
            "no_strike_path": None, "seed": None, "outputs": []}

    def test_write(self, tmp_path):
        m = run_manifest("synth", {"n": 5}, seed=3)
        dest = tmp_path / "run.manifest.json"
        write_manifest(m, dest)
        assert json.loads(dest.read_text())["seed"] == 3


# ----- CLI -----------------------------------------------------------------

@pytest.fixture()
def graph_file(tmp_path):
    # the two-hub fixture: hubs a/b, three leaves each
    text = ("a b\n" + "".join(f"a l{i}\n" for i in range(3))
            + "".join(f"b r{i}\n" for i in range(3)))
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestCliBasics:
    def test_centrality_text(self, graph_file, capsys):
        assert main(["centrality", "--graph", str(graph_file)]) == 0
        assert capsys.readouterr().out.strip() == f"{18 / 42:.6f}"

    def test_centrality_json(self, graph_file, capsys):
        assert main(["centrality", "--graph", str(graph_file),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["centrality"] == 18 / 42
        assert payload["manifest"]["command"] == "centrality"

    def test_greedy(self, graph_file, capsys):
        assert main(["greedy", "--graph", str(graph_file), "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "removed (1): l0" in out
        assert f"final_fragility: {16 / 30:.6f}" in out

    def test_greedy_with_no_strike(self, graph_file, tmp_path, capsys):
        ns = tmp_path / "protected.txt"
        ns.write_text("".join(f"l{i}\n" for i in range(3))
                      + "".join(f"r{i}\n" for i in range(3)))
        assert main(["greedy", "--graph", str(graph_file),
                     "--no-strike", str(ns), "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "removed (1): a" in out
        assert f"final_fragility: {15 / 30:.6f}" in out

    def test_exact(self, graph_file, capsys):
        assert main(["exact", "--graph", str(graph_file), "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "removed (2): l0 l1" in out
        assert "final_fragility: 0.700000" in out

    def test_decision(self, graph_file, capsys):
        assert main(["decision", "--graph", str(graph_file),
                     "--k", "2", "--x", "0.65"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["decision", "--graph", str(graph_file),
                     "--k", "2", "--x", "0.7"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_baseline(self, graph_file, capsys):
        assert main(["baseline", "--graph", str(graph_file),
                     "--strategy", "degree", "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert "strategy: degree" in out
        assert "removed (1): a" in out

    @pytest.mark.parametrize("ns_bytes", [b"a\n", b"\xef\xbb\xbfa\n"])
    def test_byte_order_mark_is_not_part_of_a_label(self, tmp_path, ns_bytes,
                                                     capsys):
        graph = tmp_path / "bom.txt"
        graph.write_bytes(b"\xef\xbb\xbfa b\nb c\nc a\na d\n")
        ns = tmp_path / "ns.txt"
        ns.write_bytes(ns_bytes)
        assert main(["centrality", "--graph", str(graph), "--no-strike", str(ns),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["centrality"] == 4 / 6  # 4 nodes, not 5
        assert main(["centrality", "--graph", str(graph),
                     "--no-strike", str(ns)]) == 0
        assert capsys.readouterr().out == "0.666667\n"

    def test_duplicate_edge_warning_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("a b\nb a\nb c\n")
        assert main(["centrality", "--graph", str(path)]) == 0
        assert "warning: collapsed 1 duplicate" in capsys.readouterr().err


class TestCliErrors:
    def test_missing_graph_flag(self, capsys):
        assert main(["centrality"]) == 1
        assert "requires --graph" in capsys.readouterr().err

    def test_unreadable_graph(self, tmp_path, capsys):
        assert main(["centrality", "--graph", "/nonexistent/g.txt"]) == 1
        assert "cannot read graph" in capsys.readouterr().err
        # an OSError other than a closed stdout stays bad input
        assert main(["centrality", "--graph", str(tmp_path)]) == 1
        assert "cannot read graph" in capsys.readouterr().err

    def test_closed_stdout_pipe_exits_0_silently(self):
        # the reader takes one line and closes the pipe, as `| head -1` does;
        # 20,000 nodes write far more than the pipe and stdout buffers hold
        proc = subprocess.Popen(
            [sys.executable, "-m", "fragility", "synth", "--kind",
             "star-of-stars", "--n", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first == b"0 1\n"
        assert err == b""

    def test_malformed_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a a\n")
        assert main(["centrality", "--graph", str(bad)]) == 1
        assert "self-loop" in capsys.readouterr().err

    def test_colliding_edge_names_are_exit_1(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("a_b c\na b_c\nc d\n", encoding="utf-8")
        argv = ["emit-ip", "--graph", str(graph), "--k", "1", "--all-i",
                "--out-dir", str(tmp_path / "models")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: edges ('a_b', 'c') and ('a', 'b_c')")
        assert not (tmp_path / "models").exists()

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_csv_format_restricted(self, graph_file, capsys):
        assert main(["centrality", "--graph", str(graph_file),
                     "--format", "csv"]) == 1
        assert "csv output" in capsys.readouterr().err

    def test_work_limit_is_exit_2(self, graph_file, capsys):
        assert main(["exact", "--graph", str(graph_file), "--k", "3",
                     "--work-limit", "5"]) == 2
        assert "work limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["exact"], ["decision", "--x", "0.5"]])
    def test_huge_budget_is_exit_2_at_once(self, command, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(14999)))
        assert main(command + ["--graph", str(path), "--k", "15000"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: work limit exceeded: "
                       "more than 10000000 candidate subsets\n")

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_decision_x_must_be_finite(self, graph_file, tmp_path, x, capsys):
        manifest = tmp_path / "m.json"
        assert main(["decision", "--graph", str(graph_file), "--k", "1",
                     f"--x={x}", "--format", "json",
                     "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --x must be a finite number, got {x}\n"
        assert not manifest.exists()

    def test_zero_baseline_curve_is_exit_2(self, tmp_path, capsys):
        ring = tmp_path / "ring.txt"
        ring.write_text("a b\nb c\nc d\nd a\n")
        assert main(["curve", "--graph", str(ring),
                     "--max-fraction", "0.5"]) == 2
        assert "baseline fragility is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["exact"], ["decision", "--x", "0.5"]])
    def test_negative_work_limit_is_exit_1(self, command, graph_file, capsys):
        assert main(command + ["--graph", str(graph_file), "--k", "1",
                               "--work-limit", "-1"]) == 1
        assert capsys.readouterr().err == "error: work limit must be non-negative\n"

    def test_infeasible_synth_is_exit_2(self, capsys):
        assert main(["synth", "--kind", "random", "--n", "5", "--m", "99"]) == 2

    def test_synth_missing_target_is_exit_2(self, capsys):
        # inside the density window, but growth cannot reach so dense a target
        assert main(["synth", "--kind", "scale-free", "--n", "10", "--m", "45"]) == 2
        assert capsys.readouterr().err == (
            "error: generation landed at 35 edges, more than 5% from target 45\n")

    def test_star_of_stars_zero_target_is_exit_2(self, capsys):
        # 0 is a target like any other: 9 nodes make 8 edges, not 0
        assert main(["synth", "--kind", "star-of-stars", "--n", "9", "--m", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: infeasible density: star-of-stars on 9 "
                                "nodes has 8 edges, more than 5% from 0\n")

    @pytest.mark.parametrize("kind", ["scale-free", "random", "star-of-stars"])
    def test_negative_synth_target_is_exit_1(self, kind, capsys):
        assert main(["synth", "--kind", kind, "--n", "9", "--m", "-4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target edge count must be non-negative\n"

    def test_baseline_m_out_of_range(self, graph_file, capsys):
        assert main(["baseline", "--graph", str(graph_file),
                     "--strategy", "degree", "--m", "99"]) == 1

    @pytest.mark.parametrize("strategy", sorted(harness._RANKERS))
    def test_baseline_m_checked_before_ranking(self, strategy, graph_file,
                                               tmp_path, monkeypatch, capsys):
        calls = []
        for name, ranker in harness._RANKERS.items():
            def counted(*args, _ranker=ranker, _name=name):
                calls.append(_name)
                return _ranker(*args)
            monkeypatch.setitem(harness._RANKERS, name, counted)
        ns = tmp_path / "ns.txt"
        ns.write_text("a\n")
        argv = ["baseline", "--graph", str(graph_file), "--strategy", strategy]
        for extra, bound in [(["--m", "99"], 8), (["--m", "-1"], 8),
                             (["--no-strike", str(ns), "--m", "8"], 7)]:
            assert main(argv + extra) == 1
            assert capsys.readouterr().err == (
                f"error: --m must lie in 0..{bound} for this graph\n")
        assert calls == []
        # the bound is the ranking's length: the largest accepted --m ranks once
        assert main(argv + ["--no-strike", str(ns), "--m", "7"]) == 0
        assert "removed (7):" in capsys.readouterr().out
        assert calls == [strategy]

    def test_unknown_curve_strategy(self, graph_file, capsys):
        assert main(["curve", "--graph", str(graph_file),
                     "--strategies", "greedy,voodoo"]) == 1


class TestCliCurveBench:
    def test_curve_stdout_csv(self, graph_file, capsys):
        assert main(["curve", "--graph", str(graph_file),
                     "--max-fraction", "0.3"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("strategy,nodes_removed,")
        assert len(lines) == 1 + 4 * 2  # four strategies, budgets 1..2

    def test_curve_out_file_and_sidecar_manifest(self, graph_file, tmp_path,
                                                 capsys):
        dest = tmp_path / "curve.csv"
        assert main(["curve", "--graph", str(graph_file), "--out",
                     str(dest), "--strategies", "greedy"]) == 0
        assert dest.exists()
        sidecar = tmp_path / "curve.csv.manifest.json"
        payload = json.loads(sidecar.read_text())
        assert payload["command"] == "curve"
        assert payload["outputs"] == [str(dest)]
        assert payload["parameters"]["strategies"] == ["greedy"]

    def test_curve_json(self, graph_file, capsys):
        assert main(["curve", "--graph", str(graph_file), "--format", "json",
                     "--strategies", "degree", "--max-fraction", "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 2
        assert payload["points"][0]["strategy"] == "degree"

    def test_manifest_override_path(self, graph_file, tmp_path, capsys):
        override = tmp_path / "custom.json"
        assert main(["greedy", "--graph", str(graph_file), "--k", "1",
                     "--manifest", str(override)]) == 0
        assert json.loads(override.read_text())["parameters"] == {"k": 1}

    def test_bench_table(self, graph_file, capsys):
        assert main(["bench", "--graph", str(graph_file),
                     "--strategies", "degree,greedy", "--budgets", "1,2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "strategy,budget,median_wall_time_s"
        assert len(lines) == 5
        assert lines[1].startswith("degree,1,")


class TestCliEmitIp:
    def test_requires_mode_flag(self, graph_file, capsys):
        assert main(["emit-ip", "--graph", str(graph_file), "--k", "2"]) == 1
        assert "--linearize-i" in capsys.readouterr().err

    def test_single_model_stdout(self, graph_file, capsys):
        assert main(["emit-ip", "--graph", str(graph_file), "--k", "2",
                     "--linearize-i", "1"]) == 0
        out = capsys.readouterr().out
        assert "Maximize" in out and "Subject To" in out and "End" in out
        assert "\\ nodes=8 edges=7 budget=2" in out

    def test_all_i_writes_family(self, graph_file, tmp_path, capsys):
        out_dir = tmp_path / "models"
        assert main(["emit-ip", "--graph", str(graph_file), "--k", "3",
                     "--all-i", "--out-dir", str(out_dir),
                     "--prefix", "ds8"]) == 0
        files = sorted(p.name for p in out_dir.glob("*.lp"))
        assert files == ["ds8_i1.lp", "ds8_i2.lp", "ds8_i3.lp"]
        sidecar = out_dir / "ds8_i1.lp.manifest.json"
        payload = json.loads(sidecar.read_text())
        assert len(payload["outputs"]) == 3

    def test_relaxed_flag(self, graph_file, tmp_path, capsys):
        dest = tmp_path / "relaxed.lp"
        assert main(["emit-ip", "--graph", str(graph_file), "--k", "1",
                     "--linearize-i", "1", "--relax", "--out", str(dest)]) == 0
        assert "Bounds" in dest.read_text()

    @pytest.mark.parametrize("argv, option", [
        (["--all-i", "--out", "x.lp", "--out-dir", "lpA"], "--out"),
        (["--linearize-i", "1", "--out-dir", "lpB"], "--out-dir"),
    ])
    def test_output_option_its_mode_ignores_is_exit_1(self, graph_file, tmp_path,
                                                      monkeypatch, argv, option,
                                                      capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["emit-ip", "--graph", str(graph_file), "--k", "2", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {option} ")
        assert [p.name for p in tmp_path.iterdir()] == [graph_file.name]

    def test_bad_linearize_index(self, graph_file, capsys):
        assert main(["emit-ip", "--graph", str(graph_file), "--k", "2",
                     "--linearize-i", "5"]) == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("where", [["--out-dir", "taken"], ["--prefix", "a/b"]])
    def test_unwritable_model_path_is_one_error_line(self, graph_file, tmp_path,
                                                     monkeypatch, where, fmt,
                                                     capsys):
        # --out-dir names an existing file, or --prefix points into a
        # directory that does not exist
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        assert main(["emit-ip", "--graph", str(graph_file), "--k", "2", "--all-i",
                     *where, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.lp"))

    def test_all_i_peak_memory_stays_below_four_models(self, tmp_path):
        # each model is written part by part, and the parts of its shared
        # body are rendered once; whole-model strings and their encoded
        # copies took the peak to 4.6 models
        graph = tmp_path / "g.txt"
        graph.write_text(emit_edge_list(
            generate_synthetic("scale-free", 1133, 5541, seed=1)), encoding="utf-8")
        argv = ["emit-ip", "--graph", str(graph), "--k", "10", "--all-i",
                "--out-dir", str(tmp_path / "lp")]
        import fragility.ip_model  # noqa: F401  (loaded before tracing starts)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        model_size = (tmp_path / "lp" / "model_i1.lp").stat().st_size
        assert model_size > 1_900_000
        assert peak < 4 * model_size, (peak, model_size)


class TestCliSynth:
    def test_synth_stdout_round_trip(self, capsys):
        assert main(["synth", "--kind", "star-of-stars", "--n", "30"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.node_count == 30
        assert g.edge_count == 29

    def test_synth_out_manifest_records_seed(self, tmp_path, capsys):
        dest = tmp_path / "sf.txt"
        assert main(["synth", "--kind", "scale-free", "--n", "57",
                     "--m", "162", "--seed", "11", "--out", str(dest)]) == 0
        g = parse_edge_list(dest.read_text())
        assert g.node_count == 57
        payload = json.loads((tmp_path / "sf.txt.manifest.json").read_text())
        assert payload["seed"] == 11
        assert payload["parameters"]["kind"] == "scale-free"

    def test_synth_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for dest in (a, b):
            assert main(["synth", "--kind", "random", "--n", "20",
                         "--m", "40", "--seed", "4", "--out", str(dest)]) == 0
        assert a.read_bytes() == b.read_bytes()


_COMMON = {"--graph": None, "--no-strike": None, "--format": "text",
           "--manifest": None}
_ALL = "betweenness,closeness,degree,greedy"
# every subcommand's option strings and defaults; a change here changes the CLI
OPTION_SURFACE = {
    "centrality": {},
    "greedy": {"--k": None},
    "exact": {"--k": None, "--work-limit": 10_000_000},
    "decision": {"--k": None, "--x": None, "--work-limit": 10_000_000},
    "emit-ip": {"--k": None, "--linearize-i": None, "--all-i": False,
                "--relax": False, "--out": None, "--out-dir": None,
                "--prefix": "model"},
    "baseline": {"--strategy": None, "--m": None},
    "curve": {"--strategies": _ALL, "--max-fraction": 0.12, "--step": 1,
              "--out": None},
    "bench": {"--strategies": _ALL, "--budgets": "1,5,10"},
    "synth": {"--kind": None, "--n": None, "--m": None, "--seed": 0, "--out": None},
}


def test_option_surface_is_unchanged():
    import argparse
    from fragility.cli import _build_parser
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {" ".join(a.option_strings): a.default for a in p._actions
               if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()}
    assert surface == {name: {**_COMMON, **own}
                       for name, own in OPTION_SURFACE.items()}


class TestConsoleScript:
    def test_installed_entry_point(self, graph_file):
        exe = shutil.which("fragility")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "centrality", "--graph", str(graph_file)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"{18 / 42:.6f}"

    @pytest.mark.parametrize("module", ["fragility", "fragility.cli"])
    def test_python_dash_m_runs_the_command(self, graph_file, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "decision", "--graph",
             str(graph_file), "--k", "1", "--x", "nan"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: --x must be a finite number, got nan\n"

    def test_module_usable_from_fresh_interpreter(self, graph_file):
        code = ("from fragility.cli import main; import sys; "
                "sys.exit(main(['decision', '--graph', sys.argv[1], "
                "'--k', '1', '--x', '0.5']))")
        proc = subprocess.run([sys.executable, "-c", code, str(graph_file)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "true"
