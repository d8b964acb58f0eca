"""The checks pass on the program's real outputs and fail on corrupted ones.

The program runs in this process through ``fragility.cli.main`` on a small
generated instance.
"""

from __future__ import annotations

import copy
import io
import json
import math
import re
import sys
from contextlib import redirect_stdout

import pytest

from perfbench import checks, gen, reference
from perfbench.run import SRC, EmitCheck, Op, run_program

sys.path.insert(0, str(SRC))
from fragility import cli  # noqa: E402

SEED = 5


def ulp_up(x: float) -> float:
    return math.nextafter(x, math.inf)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    inst = gen.make_instance(60, 170, SEED, protect_top=3)
    graph, protected = gen.write_instance(inst, tmp_path_factory.mktemp("inst"))
    return inst, graph, protected


def run(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return json.loads(out.getvalue())


def test_run_program_reports_the_childs_own_peak(files, tmp_path):
    inst, graph, _ = files
    ballast = b"x" * (150 << 20)  # the parent's high-water mark must not leak in
    out = run_program(Op(["centrality", "--graph", str(graph), "--format", "json"],
                         lambda p: checks.centrality(inst, p)), tmp_path)
    assert out.code == 0, out.stderr
    checks.centrality(inst, json.loads(out.stdout))
    assert 1 << 10 < out.rss_kb < 100 << 10
    del ballast


def test_centrality(files):
    inst, graph, _ = files
    payload = run("centrality", "--graph", graph, "--format", "json")
    checks.centrality(inst, payload)
    payload["centrality"] = ulp_up(payload["centrality"])
    with pytest.raises(checks.Mismatch):
        checks.centrality(inst, payload)


@pytest.fixture(scope="module")
def greedy_payload(files):
    _, graph, protected = files
    return run("greedy", "--graph", graph, "--no-strike", protected, "--k", 12,
               "--format", "json")


def test_greedy_passes(files, greedy_payload):
    inst = files[0]
    checks.greedy(inst, greedy_payload, 12, SEED, sample=12)
    assert [int(x[1:]) for x in greedy_payload["removed"]] == \
        reference.greedy(inst.adj, inst.protected, 12)


def corrupt_trace(p, inst):
    p["trace"][4] = ulp_up(p["trace"][4])


def remove_protected(p, inst):
    p["removed"][2] = gen.label(min(inst.protected))


def swap_choice(p, inst):
    p["removed"][0], p["removed"][1] = p["removed"][1], p["removed"][0]


def drop_last(p, inst):
    p["removed"].pop()
    p["trace"].pop()


def falling_trace(p, inst):
    p["trace"][-1] = p["trace"][-2] - 0.01
    p["final_fragility"] = p["trace"][-1]


@pytest.mark.parametrize("corrupt", [corrupt_trace, remove_protected, swap_choice,
                                     drop_last, falling_trace])
def test_greedy_fails_on_corrupted_output(files, greedy_payload, corrupt):
    inst = files[0]
    payload = copy.deepcopy(greedy_payload)
    corrupt(payload, inst)
    with pytest.raises(checks.Mismatch):
        checks.greedy(inst, payload, 12, SEED, sample=12)


def test_exact_and_decision(files):
    inst, graph, protected = files
    best, value = reference.exhaustive(inst.adj, inst.protected, 2)
    payload = run("exact", "--graph", graph, "--no-strike", protected, "--k", 2,
                  "--format", "json")
    checks.exact(inst, payload, best, value)
    wrong = copy.deepcopy(payload)
    wrong["removed"] = wrong["removed"][::-1]
    with pytest.raises(checks.Mismatch):
        checks.exact(inst, wrong, best, value)
    wrong = copy.deepcopy(payload)
    wrong["final_fragility"] = ulp_up(wrong["final_fragility"])
    with pytest.raises(checks.Mismatch):
        checks.exact(inst, wrong, best, value)

    for x in (float(value) - 1e-6, float(value) + 1e-6):
        answer = run("decision", "--graph", graph, "--no-strike", protected,
                     "--k", 2, "--x", repr(x), "--format", "json")
        checks.decision(answer, value, x)
        answer["decision"] = not answer["decision"]
        with pytest.raises(checks.Mismatch):
            checks.decision(answer, value, x)


def test_curve(files):
    inst, graph, protected = files
    ref = checks.curve_reference(inst, 12)
    payload = run("curve", "--graph", graph, "--no-strike", protected,
                  "--format", "json")
    checks.curve(inst, payload, ref)
    for corrupt in (lambda p: p["points"].pop(),
                    lambda p: p["points"][3].update(fragility=ulp_up(p["points"][3]["fragility"])),
                    lambda p: p["points"][-1].update(percent_increase=0.0),
                    lambda p: p["points"].reverse()):
        wrong = copy.deepcopy(payload)
        corrupt(wrong)
        with pytest.raises(checks.Mismatch):
            checks.curve(inst, wrong, ref)


def test_curve_reference_uses_protected_set():
    inst = gen.make_instance(60, 170, SEED, protect_top=3)
    ref = checks.curve_reference(inst, 12)
    assert ref.budgets == tuple(range(1, 8))
    assert ref.scores["degree"][0] == reference.score_after(inst.adj, ())


@pytest.fixture(scope="module")
def emitted(files, tmp_path_factory):
    inst, graph, protected = files
    out_dir = tmp_path_factory.mktemp("lp")
    prefix = reference.greedy(inst.adj, inst.protected, 3)
    argv = ("emit-ip", "--graph", graph, "--no-strike", protected, "--k", 3,
            "--all-i", "--out-dir", out_dir, "--format", "json")
    return inst, out_dir, prefix, argv


def test_lp_models_pass(emitted):
    inst, out_dir, prefix, argv = emitted
    check = EmitCheck(inst, out_dir, prefix, 3)
    check(run(*argv))
    check(run(*argv))  # a second emission, byte-identical
    assert check.digests is not None


def double_q_coefficients(text):
    coef = re.search(r"obj: (\S+) Q", text).group(1)
    return text.replace(f" {coef} Q", f" {float(coef) * 2!r} Q")


@pytest.mark.parametrize("edit", [
    lambda t: "\n".join(line for line in t.split("\n")
                        if not line.startswith(" c7_")),
    lambda t: t.replace("<= 2\n c4:", "<= 1\n c4:", 1),
    double_q_coefficients,
    lambda t: t.replace("\\ variables=", "\\ variables=1", 1),
    lambda t: re.sub(r"( c5_\S+: )Y_", r"\1W_", t, count=1),
    lambda t: t.replace("Subject To", "Subject", 1),
])
def test_lp_model_fails_on_corrupted_text(emitted, edit):
    inst, out_dir, prefix, argv = emitted
    run(*argv)
    text = (out_dir / "model_i2.lp").read_text()
    edited = edit(text)
    assert edited != text
    with pytest.raises(checks.Mismatch):
        checks.lp_model(inst, edited, 2, prefix)


def test_re_emission_must_be_byte_identical(emitted):
    inst, out_dir, prefix, argv = emitted
    check = EmitCheck(inst, out_dir, prefix, 3)
    check(run(*argv))
    path = out_dir / "model_i1.lp"
    path.write_text(path.read_text() + "\\ extra\n")
    with pytest.raises(checks.Mismatch):
        check({"models": [str(p) for p in check.paths]})
