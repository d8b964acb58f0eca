"""Integer-program construction, assignments, and LP export."""

from __future__ import annotations

import random
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fragility import (Graph, build_fragility_ip, canonical_assignment,
                       check_feasible, complete_graph, emit_lp, exact_opt,
                       fragile, generate_synthetic, linearize, parse_edge_list,
                       path_graph, relax_bounds, star_graph, write_lp_family)
from fragility import ip_model

from conftest import (InfeasibleAssignmentError, _oracle_wrap,
                      oracle_check_feasible, oracle_domains, oracle_emit_lp,
                      oracle_evaluate_objective, oracle_rows,
                      oracle_variable_names, random_graph_edges, var_name)


GOLDEN_SINGLE_EDGE_LP = """\
\\ fragility centralization removal model
\\ nodes=2 edges=1 budget=1
\\ variables=7 constraints=11
\\ objective: linearized at removal count i=1
\\ degenerate instance (fewer than 3 survivors): objective left unscaled
Maximize
 obj: Qf_0_1 + Qb_0_1 - 2 Y_0_1
Subject To
 c3: X_0 + X_1 <= 1
 c4: Z_0 + Z_1 = 1
 c5_0_1: Y_0_1 + X_0 <= 1
 c6_0_1: Y_0_1 + X_1 <= 1
 c7_0_1: Y_0_1 + X_0 + X_1 >= 1
 c8_0_1: Qf_0_1 + Qb_0_1 - Y_0_1 <= 0
 c9_0_1: Qf_0_1 + Qb_0_1 - Z_0 - Z_1 <= 0
Binary
 X_0
 X_1
 Z_0
 Z_1
 Y_0_1
 Qf_0_1
 Qb_0_1
End
"""


def feasible_binary_maximum(model):
    """Enumerate every structurally complete 0/1 assignment and keep the best.

    Z configurations are restricted to one-hot (anything else trips the
    designated-survivor equality, checked separately), everything else is
    free, so the sweep covers every feasible point of the binary model.
    """
    n, edges = model.n_nodes, model.edges
    best = None
    for xs in product((0, 1), repeat=n):
        for z_hot in range(n):
            for ys in product((0, 1), repeat=len(edges)):
                for qs in product((0, 1, 2), repeat=len(edges)):
                    # per-edge Q pattern: 0 none, 1 forward, 2 backward
                    values = {}
                    for i in range(n):
                        values[var_name(model, "X", i)] = xs[i]
                        values[var_name(model, "Z", i)] = 1 if i == z_hot else 0
                    for e, y, q in zip(edges, ys, qs):
                        values[var_name(model, "Y", e)] = y
                        values[var_name(model, "Qf", e)] = 1 if q == 1 else 0
                        values[var_name(model, "Qb", e)] = 1 if q == 2 else 0
                    if check_feasible(model, values).ok:
                        val = oracle_evaluate_objective(model, values)
                        if best is None or val > best:
                            best = val
    return best


# ----- counting identities -------------------------------------------------

class TestCounts:
    @pytest.mark.parametrize("n,m_edges,expect_vars,expect_cons", [
        (2, [(0, 1)], 7, 11),
        (5, [], 10, 12),
        (8, None, 37, 53),    # None -> use double-star fixture edge count 7
        (10, None, 47, 67),   # 9 edges
    ])
    def test_variable_and_constraint_counts(self, n, m_edges, expect_vars,
                                            expect_cons, double_star8,
                                            double_star10):
        if m_edges is None:
            g = double_star8 if n == 8 else double_star10
        else:
            g = Graph(n, m_edges)
        model = build_fragility_ip(g, k=1)
        assert model.variable_count == expect_vars
        assert model.constraint_count == expect_cons
        assert len(oracle_variable_names(model)) == expect_vars

    def test_rows_plus_domains_cover_count(self, double_star8):
        for ns in (frozenset(), frozenset({0}), frozenset({2, 5, 7})):
            model = build_fragility_ip(double_star8, no_strike=ns, k=2)
            assert (len(oracle_rows(model)) + len(oracle_domains(model))
                    == model.constraint_count)

    def test_variable_names_unique(self, double_star10):
        names = oracle_variable_names(build_fragility_ip(double_star10, k=1))
        assert len(names) == len(set(names))


# ----- row structure -------------------------------------------------------

class TestRows:
    def test_single_edge_rows(self):
        model = build_fragility_ip(Graph(2, [(0, 1)]), k=1)
        rows = {row[0]: row[1:] for row in oracle_rows(model)}
        assert rows["c3"][1:] == ("<=", 1.0)
        assert rows["c4"][1:] == ("=", 1.0)
        assert rows["c5_0_1"][0] == ((1.0, "Y_0_1"), (1.0, "X_0"))
        assert rows["c6_0_1"][0] == ((1.0, "Y_0_1"), (1.0, "X_1"))
        assert rows["c7_0_1"][1:] == (">=", 1.0)
        assert (-1.0, "Y_0_1") in rows["c8_0_1"][0]
        assert rows["c9_0_1"][0][-2:] == ((-1.0, "Z_0"), (-1.0, "Z_1"))

    def test_no_strike_pins_x_to_zero(self, double_star8):
        model = build_fragility_ip(double_star8, no_strike={5, 1}, k=2)
        pins = [r for r in oracle_rows(model) if r[0].startswith("c11")]
        assert [r[0] for r in pins] == ["c11_1", "c11_5"]
        assert all(r[2:] == ("=", 0.0) for r in pins)
        x_domains = [var for _, var, _ in oracle_domains(model) if var.startswith("X_")]
        assert "X_1" not in x_domains and "X_5" not in x_domains

    def test_budget_validation(self, star4):
        with pytest.raises(ValueError, match="0..N"):
            build_fragility_ip(star4, k=-1)
        with pytest.raises(ValueError, match="0..N"):
            build_fragility_ip(star4, k=6)

    def test_unknown_no_strike(self, star4):
        with pytest.raises(ValueError, match="unknown node id"):
            build_fragility_ip(star4, no_strike={8}, k=1)

    def test_label_sanitization_collision(self):
        g = Graph(2, [(0, 1)], labels=("a b", "a_b"))
        with pytest.raises(ValueError, match="collide"):
            build_fragility_ip(g, k=1)

    def test_label_sanitization_applied(self):
        g = Graph(2, [(0, 1)], labels=("alpha-1", "beta:2"))
        model = build_fragility_ip(g, k=1)
        assert var_name(model, "X", 0) == "X_alpha_1"
        assert var_name(model, "Y", (0, 1)) == "Y_alpha_1_beta_2"

    def test_edge_name_collision(self):
        # (a_b, c) and (a, b_c) would share Y_a_b_c, Qf_a_b_c, Qb_a_b_c and
        # rows c5_a_b_c..c9_a_b_c
        g = parse_edge_list("a_b c\na b_c\nc d\n")
        with pytest.raises(ValueError, match=r"edges \('a_b', 'c'\) and "
                           r"\('a', 'b_c'\) collide as variable name 'Y_a_b_c'"):
            build_fragility_ip(g, k=1)

    def test_edge_name_collision_after_sanitizing(self):
        g = Graph(4, [(0, 1), (2, 3)], labels=("a-b", "c", "a", "b:c"))
        with pytest.raises(ValueError, match="'Y_a_b_c'"):
            build_fragility_ip(g, k=1)

    def test_underscored_labels_without_collision(self):
        model = build_fragility_ip(parse_edge_list("a_b c\na c\nb_c d\n"), k=1)
        names = oracle_variable_names(model)
        assert len(names) == len(set(names)) == model.variable_count
        rids = [r[0] for r in oracle_rows(model)]
        assert len(rids) == len(set(rids))


# ----- canonical assignments ----------------------------------------------

class TestCanonicalAssignment:
    def test_matches_fragile_on_fixtures(self, star4, double_star8,
                                         double_star10, k4_pendant, path4):
        for g in (star4, double_star8, double_star10, k4_pendant, path4):
            model = build_fragility_ip(g, k=2)
            for removed in ((), (0,), (0, 1), (g.node_count - 1,)):
                asg = canonical_assignment(model, removed)
                assert check_feasible(model, asg).ok
                assert oracle_evaluate_objective(model, asg) == fragile(g, removed)

    def test_matches_fragile_randomized(self):
        rng = random.Random(0x1B)
        for _ in range(60):
            n = rng.randint(2, 10)
            g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.1, 0.8)))
            k = rng.randint(0, n)
            model = build_fragility_ip(g, k=k)
            removed = rng.sample(range(n), rng.randint(0, k))
            asg = canonical_assignment(model, removed)
            assert check_feasible(model, asg).ok
            assert oracle_evaluate_objective(model, asg) == fragile(g, removed)

    def test_non_maximal_selection_never_beats_fragile(self, double_star8):
        model = build_fragility_ip(double_star8, k=0)
        true_value = fragile(double_star8, ())
        for s in range(8):
            asg = canonical_assignment(model, (), selected=s)
            assert check_feasible(model, asg).ok
            assert oracle_evaluate_objective(model, asg) <= true_value
        # leaf selection concretely: degree 1 of 8 nodes, 7 edges
        leaf = oracle_evaluate_objective(
            model, canonical_assignment(model, (), selected=2))
        assert leaf == (8 * 1 - 2 * 7) / (7 * 6)

    @pytest.mark.parametrize("selected", [99, -1, 3])
    def test_rejects_a_selection_that_is_not_a_survivor(self, selected):
        # 99 and -1 are no node ids, and node 3 is removed
        model = build_fragility_ip(path_graph(5), k=1)
        with pytest.raises(ValueError, match=f"selected node {selected} is not"):
            canonical_assignment(model, {3}, selected=selected)

    def test_rejects_protected_removal(self, double_star8):
        model = build_fragility_ip(double_star8, no_strike={0}, k=2)
        with pytest.raises(ValueError, match="protected"):
            canonical_assignment(model, {0})

    def test_rejects_budget_overrun(self, star4):
        model = build_fragility_ip(star4, k=1)
        with pytest.raises(ValueError, match="exceed"):
            canonical_assignment(model, {1, 2})


# ----- feasibility checking ------------------------------------------------

class TestCheckFeasible:
    def test_dead_edge_variable_canonically_forced(self):
        g = path_graph(3)
        model = build_fragility_ip(g, k=1)
        asg = canonical_assignment(model, ())
        # claiming the edge died while both endpoints live violates the
        # survival lower bound
        asg["Y_0_1"] = 0
        asg["Qf_0_1"] = 0
        asg["Qb_0_1"] = 0
        report = check_feasible(model, asg)
        assert not report.ok
        assert any(v.startswith("c7_0_1") for v in report.violations)

    def test_ghost_edge_detected(self):
        g = path_graph(3)
        model = build_fragility_ip(g, k=1)
        asg = canonical_assignment(model, {0})
        asg["Y_0_1"] = 1  # node 0 is removed; edge cannot survive
        report = check_feasible(model, asg)
        assert not report.ok
        assert any(v.startswith("c5_0_1") for v in report.violations)

    def test_q_needs_designated_survivor(self):
        g = path_graph(3)
        model = build_fragility_ip(g, k=1)
        asg = canonical_assignment(model, ())  # Z on node 1
        asg["Qf_0_1"] = 1  # counts edge toward node 0, not designated
        report = check_feasible(model, asg)
        assert not report.ok
        assert any(v.startswith("c8_0_1") or v.startswith("c9_0_1")
                   for v in report.violations)

    def test_infeasible_evaluation_raises(self):
        g = path_graph(3)
        model = build_fragility_ip(g, k=1)
        asg = canonical_assignment(model, ())
        asg["Z_0"] = 1  # two designated survivors
        with pytest.raises(InfeasibleAssignmentError):
            oracle_evaluate_objective(model, asg)

    def test_dimension_mismatch(self):
        model = build_fragility_ip(path_graph(3), k=1)
        good = canonical_assignment(model, ())
        del good["X_0"]
        with pytest.raises(ValueError, match="dimension mismatch"):
            check_feasible(model, good)

    def test_fractional_edge_variable_flagged(self):
        model = relax_bounds(build_fragility_ip(path_graph(3), k=1))
        asg = canonical_assignment(model, ())
        asg["X_0"] = 0.5  # allowed: X is relaxed to [0, 1]
        asg["Y_0_1"] = 0.5  # never allowed: edge vars stay binary
        report = check_feasible(model, asg)
        assert any("Y_0_1" in v and "not binary" in v for v in report.violations)

    def test_relaxed_variable_outside_unit_interval_flagged(self):
        model = relax_bounds(build_fragility_ip(path_graph(3), k=1))
        asg = canonical_assignment(model, ())
        asg["Z_0"] = -0.5
        asg["X_2"] = 1.5
        report = check_feasible(model, asg)
        assert "c10_0: Z_0=-0.5 outside [0, 1]" in report.violations
        assert "c12_2: X_2=1.5 outside [0, 1]" in report.violations


def _infeasible_cases():
    """The infeasible assignments above, plus one that breaks rows of
    several families and a domain at once."""
    base = build_fragility_ip(path_graph(3), k=1)
    relaxed = relax_bounds(base)
    wide = build_fragility_ip(path_graph(6), no_strike={2}, k=1)
    edits = {
        "dead-edge": (base, (), {"Y_0_1": 0, "Qf_0_1": 0, "Qb_0_1": 0}),
        "ghost-edge": (base, {0}, {"Y_0_1": 1}),
        "q-without-survivor": (base, (), {"Qf_0_1": 1}),
        "two-survivors": (base, (), {"Z_0": 1}),
        "fractional-edge": (relaxed, (), {"X_0": 0.5, "Y_0_1": 0.5}),
        "many": (wide, (), {"X_2": 1, "X_4": 1, "Z_1": 0.5, "Qb_3_4": 1}),
    }
    for name, (model, removed, changes) in edits.items():
        asg = canonical_assignment(model, removed)
        asg.update(changes)
        yield name, model, asg


# recorded from the check that walked materialized row objects
_VIOLATIONS = {
    "dead-edge": ("c7_0_1: 0 >= 1 fails",),
    "ghost-edge": ("c5_0_1: 2 <= 1 fails",),
    "q-without-survivor": ("c8_0_1: 1 <= 0 fails", "c9_0_1: 1 <= 0 fails"),
    "two-survivors": ("c4: 2 = 1 fails",),
    "fractional-edge": ("c8_0_1: 0.5 <= 0 fails", "dom_Y_0_1: Y_0_1=0.5 not binary"),
    "many": ("c3: 2 <= 1 fails", "c4: 0.5 = 1 fails", "c5_2_3: 2 <= 1 fails",
             "c5_4_5: 2 <= 1 fails", "c6_1_2: 2 <= 1 fails", "c6_3_4: 2 <= 1 fails",
             "c9_0_1: 0.5 <= 0 fails", "c9_1_2: 0.5 <= 0 fails",
             "c9_3_4: 1 <= 0 fails", "c11_2: 1 = 0 fails",
             "c10_1: Z_1=0.5 not binary"),
}


@pytest.mark.parametrize("model,asg,expected", [
    pytest.param(model, asg, _VIOLATIONS[name], id=name)
    for name, model, asg in _infeasible_cases()])
def test_violations_identical_and_in_row_order(model, asg, expected):
    report = check_feasible(model, asg)
    assert not report.ok
    assert report.violations == expected


def _perturbed_assignments(rng: random.Random, count: int):
    """Canonical assignments of random binary and relaxed, fractional and
    linearized models with protected nodes, some with Z on a node other
    than the max-degree survivor, each with up to four values replaced."""
    for _ in range(count):
        n = rng.randint(1, 8)
        g = Graph(n, random_graph_edges(rng, n, rng.uniform(0.1, 0.9)))
        protected = set(rng.sample(range(n), rng.randint(0, min(2, n))))
        k = rng.randint(0, n)
        model = build_fragility_ip(g, protected, k)
        if k and rng.random() < 0.6:
            model = linearize(model, rng.randint(1, k))
        if rng.random() < 0.5:
            model = relax_bounds(model)
        pool = [i for i in range(n) if i not in protected]
        removed = rng.sample(pool, rng.randint(0, min(k, len(pool))))
        selected = rng.choice([None, rng.randrange(n)])
        # only a survivor can be selected; a removed draw takes the default
        values = canonical_assignment(
            model, removed, None if selected in removed else selected)
        names = list(values)
        for _ in range(rng.randint(0, 4)):
            values[rng.choice(names)] = rng.choice(
                [0, 1, 0.25, 0.5, -0.5, 1.5, 2, 1e-10, 1 - 1e-10, 1.5e-9, 1 + 1.5e-9])
        yield model, values


def test_check_feasible_equals_the_oracle_row_walk():
    reports = []
    for model, values in _perturbed_assignments(random.Random(0xCF), 2000):
        report = check_feasible(model, values)
        assert report == oracle_check_feasible(model, values)
        reports.append(report)
    # the corpus reaches both verdicts and every kind of violation
    assert 0 < sum(r.ok for r in reports) < len(reports)
    found = " ".join(v for r in reports for v in r.violations)
    for kind in ("c3:", "c4:", "c5_", "c6_", "c7_", "c8_", "c9_", "c11_",
                 "not binary", "outside [0, 1]", "dom_"):
        assert kind in found


def test_benchmark_feasibility_probe_calls():
    # the call sequence of the benchmark's traced feasibility probe, every
    # name read from the package
    import fragility
    g = fragility.parse_edge_list("a b\nb c\nc d\nb d\nd e\ne f\nb f\na g\n")
    protected = {g.labels.index("b")}
    model = fragility.build_fragility_ip(g, protected, 3)
    prefix = fragility.greedy_fragile(g, protected, 3).removed
    assert prefix
    for i in range(1, 4):
        lin = fragility.linearize(model, i)
        values = fragility.canonical_assignment(lin, prefix[:i])
        report = fragility.check_feasible(lin, values)
        assert report.ok
        assert report.violations == ()


# ----- binary optimum equals the enumeration solver ------------------------

class TestBinaryOptimum:
    def test_path3_exhaustive(self):
        g = path_graph(3)
        for k in (0, 1, 2):
            model = build_fragility_ip(g, k=k)
            assert feasible_binary_maximum(model) == exact_opt(g, k=k).final_fragility

    def test_path4_exhaustive(self):
        g = path_graph(4)
        model = build_fragility_ip(g, k=1)
        assert feasible_binary_maximum(model) == exact_opt(g, k=1).final_fragility

    def test_triangle_with_no_strike(self, triangle):
        model = build_fragility_ip(triangle, no_strike={0}, k=1)
        assert (feasible_binary_maximum(model)
                == exact_opt(triangle, no_strike={0}, k=1).final_fragility)

    def test_structured_assignments_reach_exact_on_double_star(self, double_star8):
        # over all canonical assignments the best equals the enumeration
        # optimum; gaming via non-canonical Y/Q can only lose value
        model = build_fragility_ip(double_star8, k=2)
        from itertools import combinations
        best = max(
            oracle_evaluate_objective(model, canonical_assignment(model, combo))
            for size in range(3) for combo in combinations(range(8), size))
        assert best == exact_opt(double_star8, k=2).final_fragility == 0.7


# ----- linearization -------------------------------------------------------

class TestLinearize:
    def test_index_validation(self, double_star8):
        model = build_fragility_ip(double_star8, k=2)
        with pytest.raises(ValueError, match="outside"):
            linearize(model, 0)
        with pytest.raises(ValueError, match="outside"):
            linearize(model, 3)

    def test_scale_value(self, double_star8):
        model = linearize(build_fragility_ip(double_star8, k=2), 2)
        assert ip_model._scale(model) == 1.0 / (5 * 4)
        assert model.removal_count == 2

    def test_budget_row_tightened(self, double_star8):
        model = linearize(build_fragility_ip(double_star8, k=2), 1)
        c3 = next(r for r in oracle_rows(model) if r[0] == "c3")
        assert c3[3] == 1.0

    def test_degenerate_scale_is_none(self):
        model = linearize(build_fragility_ip(star_graph(3), k=2), 2)
        assert ip_model._scale(model) is None  # only 2 survivors
        model5 = linearize(build_fragility_ip(star_graph(4), k=3), 3)
        assert ip_model._scale(model5) is None
        ok5 = linearize(build_fragility_ip(star_graph(4), k=2), 2)
        assert ip_model._scale(ok5) == 1.0 / (2 * 1)

    def test_unscaled_objective_is_the_numerator(self):
        # path 0-1-2-3 at i = 2: (N-1-i)(N-2-i) = 0, so no scale; nothing
        # removed, Z on node 1: sq = 2, sy = 3, (N - i) * sq - 2 * sy = -2
        model = linearize(build_fragility_ip(path_graph(4), k=2), 2)
        assert ip_model._scale(model) is None
        value = oracle_evaluate_objective(model, canonical_assignment(model, ()))
        assert value == -2.0 and type(value) is float

    def test_exact_on_full_budget_removals(self):
        # with |R| equal to the fixed removal count the linear value is the
        # true fragility
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(4, 9)
            g = Graph(n, random_graph_edges(rng, n, 0.5))
            i = rng.randint(1, max(1, n - 4))
            model = linearize(build_fragility_ip(g, k=i), i)
            if ip_model._scale(model) is None:
                continue
            removed = rng.sample(range(n), i)
            val = oracle_evaluate_objective(model, canonical_assignment(model, removed))
            assert val == fragile(g, removed)

    def test_known_inflation_below_full_budget(self):
        # fixing the removal count at 2 while removing nothing overstates the
        # objective: the 10-node star scores 54/42 > 1
        g = star_graph(9)
        model = linearize(build_fragility_ip(g, k=2), 2)
        val = oracle_evaluate_objective(model, canonical_assignment(model, ()))
        assert val == 54 / 42
        assert val > fragile(g, ())


# ----- LP export -----------------------------------------------------------

class TestEmitLp:
    def test_fractional_rejected_with_guidance(self, double_star8):
        model = build_fragility_ip(double_star8, k=2)
        with pytest.raises(ValueError, match="linearize"):
            emit_lp(model)

    def test_golden_single_edge(self):
        model = linearize(build_fragility_ip(Graph(2, [(0, 1)]), k=1), 1)
        assert emit_lp(model) == GOLDEN_SINGLE_EDGE_LP

    def test_byte_determinism(self, double_star10):
        def build():
            return emit_lp(linearize(
                build_fragility_ip(double_star10, no_strike={3}, k=3), 2))
        assert build() == build()
        assert build().encode() == build().encode()

    def test_header_counts(self, double_star8):
        text = emit_lp(linearize(build_fragility_ip(double_star8, k=2), 1))
        assert "\\ nodes=8 edges=7 budget=2" in text
        assert "\\ variables=37 constraints=53" in text

    def test_structure_sections_in_order(self, k4_pendant):
        text = emit_lp(linearize(build_fragility_ip(k4_pendant, k=2), 2))
        positions = [text.index(s) for s in
                     ("Maximize", "Subject To", "Binary", "End")]
        assert positions == sorted(positions)
        assert "Bounds" not in text  # nothing relaxed

    def test_relaxed_moves_xz_to_bounds(self, triangle):
        model = relax_bounds(linearize(build_fragility_ip(triangle, k=1), 1))
        text = emit_lp(model)
        assert "Bounds" in text
        assert " 0 <= X_0 <= 1" in text
        assert " 0 <= Z_2 <= 1" in text
        binary_block = text.split("Binary\n", 1)[1].split("End", 1)[0]
        assert "X_" not in binary_block and "Z_" not in binary_block
        assert "Y_0_1" in binary_block

    def test_line_width_bounded(self):
        g = star_graph(30)
        text = emit_lp(linearize(build_fragility_ip(g, k=3), 2))
        for line in text.splitlines():
            assert len(line) <= 72

    def test_no_strike_row_emitted(self, double_star8):
        text = emit_lp(linearize(
            build_fragility_ip(double_star8, no_strike={4}, k=2), 1))
        assert " c11_4: X_4 = 0" in text


# a line of exactly 72 columns, then a continuation line of exactly 72, then
# one that wraps; and a token longer than a whole line, alone on its lines
_WRAP_ON_THE_LIMIT = (" obj:", ["a" * 66, "b" * 69, "c"])
_WRAP_LONG_TOKEN = (" c4:", ["x" * 80, "y", "z" * 75, "w"])
_WRAP_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                      min_size=1, max_size=80)


class TestWrap:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([" obj:", " c3:", f" c11_{'n' * 64}:"]),
           st.lists(_WRAP_TOKEN, max_size=40))
    @example(*_WRAP_ON_THE_LIMIT)
    @example(*_WRAP_LONG_TOKEN)
    @example(" obj:", [])
    def test_generator_input_matches_oracle(self, prefix, tokens):
        assert (ip_model._wrap(prefix, (t for t in tokens))
                == "\n".join(_oracle_wrap(prefix, tokens)))

    def test_examples_sit_on_the_limit(self):
        lines = ip_model._wrap(*_WRAP_ON_THE_LIMIT).split("\n")
        assert [len(line) for line in lines] == [72, 72, 4]
        lines = ip_model._wrap(*_WRAP_LONG_TOKEN).split("\n")
        assert lines == [" c4: " + "x" * 80, "   y", "   " + "z" * 75, "   w"]


# ----- the LP family ------------------------------------------------------

def _assert_family_matches(model):
    """Each file ``write_lp_family`` writes, byte for byte, against
    ``emit_lp`` and the oracle; returns the ``(i, text)`` pairs."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"m_i{i}.lp") for i in range(1, model.k + 1)]
        write_lp_family(model, paths)
        written = [p.read_bytes() for p in paths]
    texts = [emit_lp(linearize(model, i)) for i in range(1, model.k + 1)]
    assert written == [text.encode() for text in texts]
    assert texts == [oracle_emit_lp(linearize(model, i))
                     for i in range(1, model.k + 1)]
    return list(enumerate(texts, 1))


# label stems: empty, short, or long enough that per-edge and c11 rows wrap;
# ':', '-', ' ' and 'é' are sanitized to '_'
_STEMS = st.one_of(st.just(""), st.text("ab:- é_.09", max_size=6),
                   st.text("ab:- é_.09", min_size=10, max_size=40))


@st.composite
def _family_models(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    protected = draw(st.sets(st.integers(0, n - 1), max_size=3))
    labels = None
    if draw(st.booleans()):
        # the "_<id>" suffix keeps labels and edge names distinct after
        # sanitizing: the text after a name's last '_' is a node id
        labels = [f"{draw(_STEMS)}_{i}" for i in range(n)]
    model = build_fragility_ip(Graph(n, edges, labels=labels), protected,
                               draw(st.integers(0, n)))
    return relax_bounds(model) if draw(st.booleans()) else model


# c4 and the first c5 row are exactly 72 columns, so they stay on one line;
# the first c6 row is 73 and the c11 row 69 + 4, so they wrap.  At k = N,
# i = 2 leaves one survivor (objective coefficient 1, a bare name) and i = 3
# none (Q terms dropped).
_WIDTH_EDGES = relax_bounds(build_fragility_ip(
    Graph(3, [(0, 1), (1, 2), (0, 2)], labels=("a" * 10, "b:" * 5 + "b", "c-" * 15)),
    {2}, k=3))


class TestEmitLpFamily:
    @settings(max_examples=120, deadline=None)
    @given(_family_models())
    @example(_WIDTH_EDGES)
    @example(build_fragility_ip(Graph(4, []), {1}, k=4))
    def test_equals_emit_lp_per_removal_count(self, model):
        _assert_family_matches(model)

    def test_width_example_sits_on_the_limit(self):
        lines = emit_lp(linearize(_WIDTH_EDGES, 2)).splitlines()
        first = {line.split(":")[0].strip(): len(line)
                 for line in lines if line.startswith(" c")}
        assert first["c4"] == first["c5_aaaaaaaaaa_b_b_b_b_b_b"] == 72
        assert lines[lines.index(" c6_aaaaaaaaaa_b_b_b_b_b_b: Y_aaaaaaaaaa_b_b_b_b_b_b"
                                 " + X_b_b_b_b_b_b") + 1] == "   <= 1"
        assert lines[lines.index(" c11_c_c_c_c_c_c_c_c_c_c_c_c_c_c_c_:"
                                 " X_c_c_c_c_c_c_c_c_c_c_c_c_c_c_c_") + 1] == "   = 0"
        assert " obj: Qf_aaaaaaaaaa_b_b_b_b_b_b + Qb_aaaaaaaaaa_b_b_b_b_b_b" in lines

    def test_degenerate_removal_counts(self):
        # 5 nodes: i = 3, 4, 5 leave fewer than three survivors
        model = build_fragility_ip(star_graph(4), no_strike={0}, k=5)
        family = _assert_family_matches(model)
        degenerate = [i for i, text in family if "degenerate instance" in text]
        assert degenerate == [3, 4, 5]
        assert [ip_model._scale(linearize(model, i)) is None
                for i in range(1, 6)] == [False, False, True, True, True]

    def test_edgeless_objective_token(self):
        family = _assert_family_matches(build_fragility_ip(Graph(4, []), k=2))
        assert all("\n obj: 0\n" in text for _, text in family)

    def test_sanitized_labels(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)],
                  labels=("alpha-1", "beta:2", "gamma 3", "d.4"))
        family = _assert_family_matches(build_fragility_ip(g, {1}, k=3))
        assert " c11_beta_2: X_beta_2 = 0" in family[0][1]

    def test_complete_graph(self):
        _assert_family_matches(relax_bounds(build_fragility_ip(complete_graph(7), k=4)))
        _assert_family_matches(build_fragility_ip(complete_graph(7), k=4))

    def test_paper_scale_graph(self):
        g = generate_synthetic("scale-free", 1133, 5541, seed=1)
        assert (g.node_count, g.edge_count) == (1133, 5541)
        _assert_family_matches(build_fragility_ip(g, k=3))

    def test_renders_the_body_once_and_each_head_once(self, monkeypatch,
                                                      double_star8, tmp_path):
        heads, bodies = [], []
        render_head, render_body = ip_model._render_head, ip_model._render_body

        def head(model, names):
            heads.append(model.removal_count)
            return render_head(model, names)

        def body(model, names):
            bodies.append(model)
            return render_body(model, names)

        monkeypatch.setattr(ip_model, "_render_head", head)
        monkeypatch.setattr(ip_model, "_render_body", body)
        model = build_fragility_ip(double_star8, k=3)
        paths = [tmp_path / f"m{i}.lp" for i in range(1, 4)]
        write_lp_family(model, paths)
        assert heads == [1, 2, 3] and len(bodies) == 1
        assert [p.read_text() for p in paths] == [
            emit_lp(linearize(model, i)) for i in range(1, 4)]

    def test_needs_one_path_per_model(self, double_star8, tmp_path):
        model = build_fragility_ip(double_star8, k=3)
        with pytest.raises(ValueError, match="2 paths for the 3 models"):
            write_lp_family(model, [tmp_path / "a.lp", tmp_path / "b.lp"])
        assert not list(tmp_path.iterdir())
        write_lp_family(build_fragility_ip(double_star8, k=0), [])
