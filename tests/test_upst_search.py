import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qwalk.constructions import (OrientedGraph, oriented_cycle, oriented_k2,
                                 oriented_k3, oriented_to_hermitian,
                                 upst_circulant)
from qwalk.numtheory import Surd, square_free_part
from qwalk.transfer import check_periodicity
from qwalk.upst_search import (NecessaryConditions, charpoly_rule_out,
                               classify_all, complement_c7_adjacency,
                               exhaustive_rule_out, nk_table, orientations,
                               regular_underlying_graphs, sigma_bound_filter,
                               spectrum_candidates, upst_necessary_conditions)


# --- gap bounds ----------------------------------------------------------------

def test_sigma_bound_examples():
    assert sigma_bound_filter(12) == {"passes": False,
                                      "sigma_sq_max": Fraction(12, 13)}
    res = sigma_bound_filter(11)
    assert res["passes"] and res["sigma_sq_max"] == 1
    res = sigma_bound_filter(6)
    assert res["passes"] and 1 <= res["sigma_sq_max"] < 2  # forces Delta = 1


def test_sigma_bound_edge_count():
    # fewer edges tighten the bound
    sparse = sigma_bound_filter(6, edges=4)
    assert not sparse["passes"]


# --- necessary conditions --------------------------------------------------------

def test_k3_passes_all_conditions():
    checks = upst_necessary_conditions(oriented_k3())
    assert checks.all_pass
    assert checks.delta == 3


def test_cyclic_c4_fails():
    checks = upst_necessary_conditions(oriented_cycle(4))
    assert not checks.all_pass
    # 4x4 eigensolver oracle: the cyclic orientation has a repeated eigenvalue
    dec_values = np.linalg.eigvalsh(
        oriented_to_hermitian(oriented_cycle(4)).array)
    assert np.min(np.diff(np.sort(dec_values))) < 1e-9
    assert checks.failure == "degenerate spectrum"


def test_upst_circulant_passes():
    # the circulants are not oriented graphs: their exact spectra are
    # simple and satisfy the ratio condition (flatness of the Fourier
    # vectors is checked in test_constructions)
    for circ in (upst_circulant(3, 0, 1, 1), upst_circulant(5, "1/2", "1/3", 2)):
        assert len(set(circ.thetas)) == len(circ.thetas)
        assert check_periodicity([Surd(t) for t in circ.thetas])[0]


def test_sqrt_grid_recognition():
    for graph, grid in ((OrientedGraph(1, frozenset()), (1, (0,))),
                        (oriented_k2(), (1, (-1, 1))),
                        (oriented_k3(), (3, (-1, 0, 1)))):
        checks = upst_necessary_conditions(graph)
        assert checks.all_pass
        assert (checks.delta, checks.grid_coeffs) == grid


def test_isolated_vertices_are_degenerate():
    # q(y) = y is square-free, but theta = 0 is a double eigenvalue
    checks = upst_necessary_conditions(OrientedGraph(2, frozenset()))
    assert checks == NecessaryConditions(False, False, False,
                                         failure="degenerate spectrum")


def test_non_regular_graph_fails_flatness_at_k2():
    # the path 0 -> 1 -> 2 has spectrum 0, +-sqrt(2) but degrees 1, 2, 1
    checks = upst_necessary_conditions(OrientedGraph(3, frozenset({(0, 1), (1, 2)})))
    assert checks == NecessaryConditions(True, False, False,
                                         failure="eigenvectors not flat")


def test_n4_orientation_fails_only_the_grid():
    # the transitive tournament on 4 vertices is simple and walk-regular,
    # with theta^2 = 3 +- sqrt(8)
    arcs = frozenset((a, b) for a in range(4) for b in range(a + 1, 4))
    checks = upst_necessary_conditions(OrientedGraph(4, arcs))
    assert checks == NecessaryConditions(True, True, False, integer_grid=False,
                                         failure="spectrum not in Z*sqrt(Delta)")


def _float_conditions(graph: OrientedGraph) -> NecessaryConditions:
    """The eigensolver version of the checklist: gap > 1e-8, flatness within
    1e-7, theta = z*sqrt(Delta) recognized within 1e-7."""
    n = graph.n
    thetas, vectors = np.linalg.eigh(oriented_to_hermitian(graph).array)
    if n > 1 and np.min(np.diff(thetas)) <= 1e-8:
        return NecessaryConditions(False, False, False,
                                   failure="degenerate spectrum")
    if np.max(np.abs(np.abs(vectors) - 1 / math.sqrt(n))) > 1e-7:
        return NecessaryConditions(True, False, False,
                                   failure="eigenvectors not flat")
    squares = [round(t * t) for t in thetas]
    if any(abs(t * t - y) > 1e-7 * max(1.0, abs(2 * t))
           for t, y in zip(thetas, squares)):
        return _off_grid()
    g = math.gcd(*squares)
    delta = square_free_part(g)[0] if g else 1
    zs = tuple(round(t / math.sqrt(delta)) for t in thetas)
    if any(abs(t - z * math.sqrt(delta)) > 1e-7 for t, z in zip(thetas, zs)):
        return _off_grid()
    periodic, _ = check_periodicity([Surd.sqrt(delta, z) for z in zs])
    return NecessaryConditions(
        True, True, periodic, integer_grid=True, delta=delta, grid_coeffs=zs,
        failure=None if periodic else "ratio condition fails")


def _off_grid() -> NecessaryConditions:
    return NecessaryConditions(True, True, False, integer_grid=False,
                               failure="spectrum not in Z*sqrt(Delta)")


def test_exact_conditions_match_eigensolver_on_all_small_orientations():
    graphs = [graph for n in (3, 4, 5)
              for _, _, edges in regular_underlying_graphs(n)
              for _, graph in orientations(edges, n)]
    assert len(graphs) == 1144
    failures = Counter()
    for graph in graphs:
        checks = upst_necessary_conditions(graph)
        assert checks == _float_conditions(graph), sorted(graph.arcs)
        failures[checks.failure] += 1
    # every branch of the checklist is exercised
    assert failures == {None: 8, "degenerate spectrum": 32,
                        "eigenvectors not flat": 640,
                        "spectrum not in Z*sqrt(Delta)": 464}


def test_exact_conditions_match_eigensolver_on_random_graphs():
    rng = random.Random(20231)
    failures = Counter()
    for _ in range(400):
        n = rng.randint(1, 8)
        density = rng.random()
        arcs = frozenset((a, b) if rng.random() < 0.5 else (b, a)
                         for a in range(n) for b in range(a + 1, n)
                         if rng.random() < density)
        graph = OrientedGraph(n, arcs)
        checks = upst_necessary_conditions(graph)
        assert checks == _float_conditions(graph), (n, sorted(arcs))
        failures[checks.failure] += 1
    assert len(failures) >= 4, failures


# --- exhaustive search -------------------------------------------------------------

def test_exhaustive_counts_and_no_survivors():
    r4 = exhaustive_rule_out(4)
    assert len(r4) == 2 ** 4 + 2 ** 6 == 80
    assert all(r.verdict == "ruled-out-exhaustive" for r in r4)
    r5 = exhaustive_rule_out(5)
    assert len(r5) == 2 ** 5 + 2 ** 10 == 1056
    assert all(r.verdict == "ruled-out-exhaustive" for r in r5)


def test_exhaustive_n3_control_survives():
    r3 = exhaustive_rule_out(3)
    assert len(r3) == 8
    assert all(r.verdict == "survives" for r in r3)


def test_exhaustive_records_failed_condition():
    reasons = Counter(r.witness.get("failed_condition")
                      for r in exhaustive_rule_out(4))
    assert None not in reasons
    assert sum(reasons.values()) == 80


def test_trace_identity_over_enumerated_orientations():
    # sum (theta_r - theta_s)^2 = 2 n Tr(H^2) = 4 m n over every orientation
    from qwalk.upst_search import orientations
    name, k, edges = regular_underlying_graphs(4)[0]
    for mask, graph in orientations(edges, 4):
        h = oriented_to_hermitian(graph).array
        eigs = np.linalg.eigvalsh(h)
        lhs = sum((a - b) ** 2 for a in eigs for b in eigs)
        assert abs(lhs - 2 * 4 * np.trace(h @ h).real) < 1e-8
        assert abs(lhs - 4 * len(edges) * 4) < 1e-8


def test_regular_underlying_graphs_validation():
    with pytest.raises(ValueError):
        regular_underlying_graphs(6)


# --- spectrum candidates -------------------------------------------------------------

def test_nk_table_matches_bounds():
    assert nk_table() == {6: [3, 4, 5], 7: [4, 6], 8: [6, 7],
                          9: [8], 10: [9], 11: [10]}


def test_spectrum_candidate_rows():
    assert spectrum_candidates(7, 4) == [(0, 1, 2, 3)]
    assert spectrum_candidates(7, 6) == [(0, 1, 2, 4)]
    assert spectrum_candidates(11, 10) == [(0, 1, 2, 3, 4, 5)]
    # exhaustive enumeration oracle for the (6,3) parity obstruction:
    # 18 = 2(a^2+b^2+c^2) over distinct positive integers <= 6 is unsolvable
    solutions = [(a, b, c) for a in range(1, 7) for b in range(a + 1, 7)
                 for c in range(b + 1, 7) if 2 * (a * a + b * b + c * c) == 18]
    assert solutions == []
    assert spectrum_candidates(6, 3) == []


def test_spectrum_candidates_reject_off_table():
    with pytest.raises(ValueError):
        spectrum_candidates(7, 5)  # odd k with odd n
    with pytest.raises(ValueError):
        spectrum_candidates(12, 11)


def test_only_three_nonempty_cases():
    nonempty = {(n, k): spectrum_candidates(n, k)
                for n, ks in nk_table().items() for k in ks
                if spectrum_candidates(n, k)}
    assert set(nonempty) == {(11, 10), (7, 6), (7, 4)}


# --- charpoly rule-outs ----------------------------------------------------------------

def test_charpoly_rule_out_all_three():
    assert charpoly_rule_out("K7", [0, 1, 2, 4])
    assert charpoly_rule_out("K11", [0, 1, 2, 3, 4, 5])
    assert charpoly_rule_out("C7bar", [0, 1, 2, 3])
    with pytest.raises(ValueError):
        charpoly_rule_out("petersen", [0, 1])


def test_complement_c7_is_4_regular():
    adj = complement_c7_adjacency()
    assert all(sum(row) == 4 for row in adj)


def test_charpoly_no_false_rule_out():
    # sanity: a graph is never ruled out against its own exact spectrum
    k3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    from qwalk.numtheory import charpoly_mod2
    assert charpoly_mod2(k3) == charpoly_mod2([[2, 0, 0], [0, -1, 0], [0, 0, -1]])


# --- orchestration -------------------------------------------------------------------

def test_classify_all_verdicts():
    assert [r.verdict for r in classify_all(2)] == ["survives"]
    assert all(r.verdict == "survives" for r in classify_all(3))
    for n in (4, 5):
        assert all(r.verdict == "ruled-out-exhaustive"
                   for r in classify_all(n))
    for n in range(6, 12):
        assert all(r.verdict in ("ruled-out-spectrum", "ruled-out-charpoly")
                   for r in classify_all(n))
    assert [r.verdict for r in classify_all(12)] == ["ruled-out-bounds"]
    assert [r.verdict for r in classify_all(30)] == ["ruled-out-bounds"]


def test_report_json_lines():
    import json
    report = exhaustive_rule_out(3)[0]
    payload = json.loads(report.to_json_line())
    assert payload["verdict"] == "survives"
    assert payload["n"] == 3
