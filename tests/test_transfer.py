import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qwalk.constructions import (build_family, one_way_family_4, oriented_k3,
                                 oriented_to_hermitian, rooted_star_product,
                                 upst_circulant)
from qwalk.linalg import (SpectralDecomposition, hermitian_from_entries,
                          spectral_decomposition, transition_matrix)
from qwalk.numtheory import PI, Surd, Transcendental, relation_lattice
from qwalk.transfer import (CSV_BLOCK_ROWS, NotProportional, SupportMismatch,
                            certify_pgst, check_periodicity, eigenvalue_support,
                            PEAK_TIE_TOL, fidelity_sweep, pgst_verdict,
                            pst_verdict, solve_phase_congruences,
                            solve_pst_congruences, strong_cospectrality,
                            transfer_amplitude)

K3 = hermitian_from_entries([[0, -1j, 1j], [1j, 0, -1j], [-1j, 1j, 0]])


def k3_dec():
    return spectral_decomposition(K3)


def k3_closed_form():
    """K3's decomposition labelled with its exact eigenvalues -sqrt(3), 0, sqrt(3)."""
    bundle = build_family("oriented-k3")
    assert np.array_equal(bundle.matrix.array, K3.array)
    return bundle.decomposition()


def angle_close(a, b, tol=1e-8):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi) <= tol


# --- eigenvalue support -------------------------------------------------------

def test_k3_full_support():
    dec = k3_dec()
    for v in range(3):
        assert eigenvalue_support(dec, v) == (0, 1, 2)


def test_star_root_excludes_zero_projector():
    product = rooted_star_product(oriented_to_hermitian(oriented_k3()), 3)
    dec = spectral_decomposition(product)
    zero_idx = int(np.argmin(np.abs(dec.eigenvalues)))
    assert abs(dec.eigenvalues[zero_idx]) < 1e-9
    for root in range(3):
        assert zero_idx not in eigenvalue_support(dec, root)
    # pendant vertices do see the zero eigenvalue
    assert zero_idx in eigenvalue_support(dec, 3)


def test_support_of_one_dim_zero_graph():
    dec = spectral_decomposition(np.zeros((1, 1)))
    assert eigenvalue_support(dec, 0) == (0,)
    with pytest.raises(IndexError):
        eigenvalue_support(dec, 1)


# --- strong cospectrality -------------------------------------------------------

def test_k3_quarrels_match_closed_form_projectors():
    # oracle: phases read from the closed-form rank-one projectors, whose
    # columns are (1, z, z*)/3 with z = exp(2 pi i/3) for the +sqrt(3) branch
    dec = k3_dec()
    q = strong_cospectrality(dec, 0, 1)
    assert q.support == (0, 1, 2)
    by_eig = dict(zip([round(dec.eigenvalues[r], 6) for r in q.support], q.phases))
    assert angle_close(by_eig[0.0], 0.0)
    assert angle_close(by_eig[round(math.sqrt(3), 6)], 2 * math.pi / 3)
    assert angle_close(by_eig[round(-math.sqrt(3), 6)], -2 * math.pi / 3)
    assert q.rationals == (Fraction(2, 3), Fraction(0), Fraction(1, 3))


def test_self_pair_zero_quarrels():
    q = strong_cospectrality(k3_dec(), 1, 1)
    assert all(p == 0.0 for p in q.phases)


def test_star_product_quarrel_pattern():
    product = rooted_star_product(oriented_to_hermitian(oriented_k3()), 2)
    dec = spectral_decomposition(product)
    q = strong_cospectrality(dec, 0, 1)
    turns = sorted(u for u in q.rationals)
    assert turns == [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1, 3),
                     Fraction(2, 3), Fraction(2, 3)]


def test_path3_refusal():
    p3 = hermitian_from_entries([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    dec = spectral_decomposition(p3)
    with pytest.raises((SupportMismatch, NotProportional)):
        strong_cospectrality(dec, 0, 1)
    # endpoints are fine
    q = strong_cospectrality(dec, 0, 2)
    assert q.rationals == (Fraction(0), Fraction(1, 2), Fraction(0))


# --- PST certification -----------------------------------------------------------

def test_certify_pst_k3_exact():
    dec = k3_closed_form()
    verdict = pst_verdict(dec, 0, 1)
    assert verdict.kind == "PST-certified"
    assert verdict.witness["mode"] == "exact"
    assert abs(verdict.time - 2 * math.pi / (3 * math.sqrt(3))) < 1e-12
    assert verdict.fidelity >= 1 - 1e-8
    # numeric grid-search oracle confirms the certified time
    sweep = fidelity_sweep(dec, 0, 1, 3.0, 30_001)
    assert abs(sweep.best_time - verdict.time) < 1e-6
    # both verdicts decide every pair of the labelled triangle exactly
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for verdict in (pst_verdict, pgst_verdict):
            assert verdict(dec, a, b).witness["mode"] == "exact"


def test_certify_pst_one_way_family():
    fam = one_way_family_4(math.sqrt(2))
    verdict = pst_verdict(fam.decomposition(), 2, 0)
    assert verdict.kind == "PST-numeric"
    assert abs(verdict.time - 1.0) < 1e-6
    assert abs(verdict.phase - 1.0) < 1e-6


def test_certify_pst_c4_tensor_time():
    from qwalk.constructions import c4_tensor_construction, oriented_k2
    h = c4_tensor_construction(oriented_to_hermitian(oriented_k2()))
    dec = spectral_decomposition(h)
    verdict = pst_verdict(dec, 0, 3)
    assert verdict.kind == "PST-numeric"
    assert abs(verdict.time - math.pi / 4) < 1e-6


def test_pst_verdict_absent_on_refusal():
    p3 = hermitian_from_entries([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    dec = spectral_decomposition(p3)
    verdict = pst_verdict(dec, 0, 1)
    assert verdict.kind == "absent-certified"
    assert verdict.witness["criterion"] == "strong-cospectrality"


THREE_VERTEX_BASIS = np.array([[1, 1, 1], [1, -1, 0], [1, 1, -2]], dtype=float)
THREE_VERTEX_BASIS /= np.linalg.norm(THREE_VERTEX_BASIS, axis=1, keepdims=True)


def _three_vertex_matrix(thetas):
    """Real symmetric matrix with eigenvalues thetas on the eigenbasis
    (1,1,1)/sqrt(3), (1,-1,0)/sqrt(2), (1,1,-2)/sqrt(6).  Vertex 0 sees
    every eigenvalue; the pair (0, 1) has quarrels 0, 1/2, 0 turns."""
    basis = THREE_VERTEX_BASIS
    return hermitian_from_entries(basis.T @ np.diag(thetas) @ basis)


def _three_vertex_closed_form(exact):
    """The decomposition of _three_vertex_matrix labelled with the exact
    eigenvalues, validated against the matrix."""
    dec = SpectralDecomposition.closed_form(exact, np.hsplit(THREE_VERTEX_BASIS.T, 3))
    dec.validate(_three_vertex_matrix([float(v) for v in exact]))
    return dec


def test_exact_decision_irrational_ratio_absent():
    # (0, 1, sqrt(2)) with zero turns (the self pair): the ratio condition
    # fails, which rules out PST at every time
    dec = _three_vertex_closed_form([Surd(0), Surd(1), Surd.sqrt(2)])
    quarrels = strong_cospectrality(dec, 0, 0)
    assert quarrels.rationals == (Fraction(0),) * 3
    verdict = pst_verdict(dec, 0, 0)
    assert verdict.kind == "absent-certified"
    assert verdict.witness["mode"] == "exact"
    assert verdict.witness["criterion"] == "ratio-condition"
    assert verdict.witness["numerator"] == repr(Surd.sqrt(2))


def test_exact_decision_congruence_absent():
    # path 0-2-1 Laplacian: spectrum (0, 1, 3) is periodic, but the endpoint
    # quarrels (0, 1/2, 0) need x = 1/2 and 2x = -1/2 (mod 1) at once
    laplacian = _three_vertex_matrix([0, 1, 3])
    assert np.allclose(laplacian.array, [[1, 0, -1], [0, 1, -1], [-1, -1, 2]])
    dec = _three_vertex_closed_form([Surd(0), Surd(1), Surd(3)])
    quarrels = strong_cospectrality(dec, 0, 1)
    assert quarrels.rationals == (Fraction(0), Fraction(1, 2), Fraction(0))
    verdict = pst_verdict(dec, 0, 1)
    assert verdict.kind == "absent-certified"
    assert verdict.witness["criterion"] == "phase-congruence"
    assert verdict.witness["index"] == 1
    assert verdict.witness["ratio"] == 2
    assert (verdict.witness["du_0"], verdict.witness["du_i"]) == (
        Fraction(1, 2), Fraction(-1, 2))
    # the numeric oracle agrees: fidelity stays well below 1
    assert fidelity_sweep(dec, 0, 1, 60.0, 20_001).best_fidelity < 0.99


def test_star_product_pst_absent_certified():
    from qwalk.constructions import build_family
    for m in range(1, 31):
        dec = build_family("star-product", m=m).decomposition()
        for a, b in ((0, 1), (1, 2)):
            verdict = pst_verdict(dec, a, b)
            assert verdict.kind == "absent-certified", (m, a, b, verdict.notes)
            assert verdict.witness["mode"] == "exact"
            assert pgst_verdict(dec, a, b).witness["mode"] == "exact"


def _scan_windings(values, turns, bound):
    """Least tau > 0 at which every 2*pi*u_r - tau*theta_r agrees mod 2*pi,
    trying the reference windings |m| <= bound in floating point."""
    thetas = [float(v) for v in values]
    phases = [2 * math.pi * float(u) for u in turns]
    du0 = float(turns[1] - turns[0])
    for m in range(-bound, bound + 1):
        if du0 + m <= 0:
            continue
        tau = 2 * math.pi * (du0 + m) / (thetas[1] - thetas[0])
        shifted = [p - tau * t for p, t in zip(phases, thetas)]
        if all(angle_close(s, shifted[0], 1e-7) for s in shifted):
            return tau
    return None


def test_pst_congruences_match_winding_scan():
    rng = np.random.default_rng(2012)
    units = [Surd(1), Surd.sqrt(2), Surd.sqrt(3)]
    outcomes = set()
    for _ in range(200):
        unit = units[int(rng.integers(3))]
        offset = Surd.sqrt(5) if rng.integers(2) else Surd(0)
        d = int(rng.integers(2, 6))
        ks = sorted(int(k) for k in rng.choice(np.arange(-6, 7), size=d, replace=False))
        values = [offset + unit * k for k in ks]
        if rng.integers(4) == 0:  # break the ratio condition
            i = int(rng.integers(d))
            values[i] = values[i] + Surd.sqrt(7) / 10
            values.sort(key=float)
        turns = [Fraction(int(rng.integers(12)), int(rng.choice([1, 2, 3, 4, 6])))
                 for _ in range(d)]
        x, witness = solve_pst_congruences(values, turns)
        scan = _scan_windings(values, turns, 200)
        if x is None:
            outcomes.add(witness["criterion"])
            assert scan is None, (values, turns)
            continue
        outcomes.add("found")
        tau = 2 * math.pi * float(x) / float(values[1] - values[0])
        if x - (turns[1] - turns[0]) <= 200:
            assert scan is not None and abs(scan - tau) <= 1e-9 * tau, (values, turns)
        else:
            assert scan is None
        windings = witness["windings"]
        assert len(windings) == d - 1
    assert outcomes == {"found", "ratio-condition", "phase-congruence"}


def test_supports_never_empty():
    rng = np.random.default_rng(77)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dec = spectral_decomposition(
            hermitian_from_entries((raw + raw.conj().T) / 2))
        for v in range(n):
            assert eigenvalue_support(dec, v)


def test_quarrel_reconstruction_consistency():
    # U(tau) e_a rebuilt from quarrels matches the direct column to 1e-7
    dec = k3_dec()
    q = strong_cospectrality(dec, 0, 2)
    tau = 0.83
    rebuilt = np.zeros(3, dtype=complex)
    for r, phase in zip(q.support, q.phases):
        rebuilt += (np.exp(1j * (phase - tau * dec.eigenvalues[r]))
                    * dec.projector(r)[:, 2])
    direct = transition_matrix(dec, tau)[:, 0]
    assert np.max(np.abs(rebuilt - direct)) <= 1e-7


# --- periodicity -----------------------------------------------------------------

def test_periodicity_examples():
    lam = Transcendental("lambda", math.sqrt(2))
    values = [Surd(0), Surd.symbol(PI), Surd.symbol(lam),
              Surd.symbol(PI) + Surd.symbol(lam)]
    periodic, witness = check_periodicity(values)
    assert not periodic
    assert witness["numerator"] == "1*lambda"
    assert witness["denominator"] == "1*pi"
    assert check_periodicity(k3_closed_form().exact) == (True, None)
    ok, _ = check_periodicity([Surd(0), Surd(1), Surd.sqrt(2)])
    assert not ok
    assert check_periodicity([Surd.sqrt(5)]) == (True, None)


def _all_pairs_periodicity(values):
    # reference: every pairwise difference against the first one, in order
    distinct = []
    for v in values:
        if v not in distinct:
            distinct.append(v)
    if len(distinct) < 2:
        return True, None
    base = distinct[1] - distinct[0]
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            diff = distinct[j] - distinct[i]
            if diff.ratio(base) is None:
                return False, {"numerator_pair": (j, i), "denominator_pair": (1, 0),
                               "numerator": repr(diff), "denominator": repr(base)}
    return True, None


def test_periodicity_matches_all_pairs_reference(monkeypatch):
    rng = np.random.default_rng(4242)
    units = [Surd(1), Surd.sqrt(2), Surd.sqrt(3) / 2]
    ratio = Surd.ratio
    calls = []

    def counted(self, other):
        calls.append(1)
        return ratio(self, other)

    outcomes = set()
    for _ in range(300):
        unit = units[int(rng.integers(3))]
        offset = Surd.sqrt(5) if rng.integers(2) else Surd(0)
        values = [offset + unit * int(k) for k in rng.integers(-5, 6, int(rng.integers(1, 7)))]
        for _ in range(int(rng.integers(0, 3))):  # break the ratio condition
            i = int(rng.integers(len(values)))
            values[i] = values[i] + Surd.sqrt(7) * Fraction(int(rng.integers(1, 4)), 3)
        values += [values[int(i)] for i in rng.integers(0, len(values), 2)]  # duplicates
        values = [values[int(i)] for i in rng.permutation(len(values))]
        expected = _all_pairs_periodicity(values)
        monkeypatch.setattr(Surd, "ratio", counted)
        calls.clear()
        got = check_periodicity(values)
        monkeypatch.setattr(Surd, "ratio", ratio)
        assert got == expected, values
        assert len(calls) <= max(len(set(values)) - 1, 0)
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_periodicity_equivalence_numeric():
    # spectrum in Z*sqrt(3): exact check says periodic, and the walk returns
    # at t = 2 pi/sqrt(3) within the 1e-6 window
    dec = k3_dec()
    assert check_periodicity(k3_closed_form().exact)[0]
    t = 2 * math.pi / math.sqrt(3)
    assert t <= 100
    assert abs(transition_matrix(dec, t)[0, 0]) >= 1 - 1e-6


# --- PGST certification -----------------------------------------------------------

def star_surd_data(m):
    from qwalk.star import star_support_surds
    return star_support_surds(m)


def test_certify_pgst_star_m1():
    values, turns = star_surd_data(1)
    verdict = certify_pgst(values, turns)
    assert verdict.kind == "PGST-certified"
    assert verdict.witness["delta_turns"] == 0


def test_certify_pgst_star_m3_absent_with_witnesses():
    values, turns = star_surd_data(3)
    verdict = certify_pgst(values, turns)
    assert verdict.kind == "absent-certified"
    lattice = relation_lattice(values)
    # two relations that jointly block any common phase shift live in the lattice
    assert lattice.contains([0, 0, 1, 0, 0, 1])
    assert lattice.contains([1, 0, 0, 0, 1, 1])
    bad, witness = solve_phase_congruences(
        [[0, 0, 1, 0, 0, 1], [1, 0, 0, 0, 1, 1]], turns)
    assert bad is None
    # and the reported witness generator really is in the lattice
    assert lattice.contains(verdict.witness["generator"])


def test_certify_pgst_independent_eigenvalues():
    values = [Surd.sqrt(2), Surd.sqrt(3), Surd.sqrt(5)]
    lattice = relation_lattice(values)
    assert lattice.rank == 0
    verdict = certify_pgst(values, [Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)])
    assert verdict.kind == "PGST-certified"
    # a lattice over more eigenvalues than quarrels is a caller's error
    with pytest.raises(ValueError, match="lattice dimension"):
        certify_pgst(None, [Fraction(1, 7), Fraction(2, 7)], lattice)


def test_certify_pgst_trivial_cases():
    # rational eigenvalues, all-zero quarrels: always certified
    verdict = certify_pgst([Surd(1), Surd(2), Surd(3)],
                           [Fraction(0)] * 3)
    assert verdict.kind == "PGST-certified"
    # equal quarrels: certified with delta = -common value
    common = Fraction(1, 5)
    verdict = certify_pgst([Surd(1), Surd(2), Surd(3)], [common] * 3)
    assert verdict.kind == "PGST-certified"
    assert (verdict.witness["delta_turns"] + common) % 1 == 0


def test_certify_pgst_direction_symmetry():
    for m in (1, 3, 6, 12):
        values, turns = star_surd_data(m)
        forward = certify_pgst(values, turns)
        backward = certify_pgst(values, [(-u) % 1 for u in turns])
        assert forward.certified == backward.certified
        if forward.certified:
            delta_f = forward.witness["delta_turns"]
            delta_b = backward.witness["delta_turns"]
            assert (delta_f + delta_b) % 1 == 0


def test_pgst_refusal_carries_pst_witness():
    # the path's middle vertex misses an eigenvalue its end sees; the
    # oriented 6-cycle's vertices 0 and 3 are not proportional at index 0;
    # both refusals are float decisions and say so
    p3 = spectral_decomposition(hermitian_from_entries([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    c6 = spectral_decomposition(build_family("oriented-cycle", n=6).matrix)
    for dec, a, b, fields in ((p3, 0, 1, {"support_a", "support_b"}),
                              (c6, 0, 3, {"eigenvalue_index", "residual"})):
        pgst, pst = pgst_verdict(dec, a, b), pst_verdict(dec, a, b)
        assert pgst.kind == pst.kind == "absent-certified"
        assert set(pgst.witness) == {"mode", "criterion"} | fields
        assert pgst.witness["mode"] == "numeric"
        assert pgst.witness == pst.witness
        assert pgst.notes == pst.notes


def test_pgst_sweep_fallback_says_numeric():
    # no exact spectrum for the oriented 4-cycle: PGST falls back to a sweep
    c4 = spectral_decomposition(build_family("oriented-cycle", n=4).matrix)
    verdict = pgst_verdict(c4, 0, 2)
    assert verdict.kind == "numeric-evidence"
    assert verdict.witness == {"mode": "numeric", "t_max": 200.0}


def test_pgst_verdict_numeric_fallback():
    fam = one_way_family_4(math.sqrt(2))
    dec = spectral_decomposition(fam.matrix)
    verdict = pgst_verdict(dec, 0, 2)
    assert verdict.kind == "numeric-evidence"
    assert verdict.fidelity > 0.5


def test_pgst_fallback_notes_name_the_reason():
    fam = one_way_family_4(math.sqrt(2))
    dec = spectral_decomposition(fam.matrix)
    assert pgst_verdict(dec, 0, 2).notes == (
        "exact PGST check unavailable (the decomposition carries neither exact "
        "labels nor a relation lattice); sweep evidence only")
    # the quarrels 0, pi, lambda, lambda + pi are not all rational turns
    verdict = pgst_verdict(fam.decomposition(), 2, 0)
    assert verdict.kind == "numeric-evidence"
    assert verdict.notes == (
        "exact PGST check unavailable (quarrels of pair (2, 0) are not all "
        "recognized rational multiples of 2*pi); sweep evidence only")


# --- fidelity sweep ----------------------------------------------------------------

def test_sweep_k3_closed_form_oracle():
    dec = k3_dec()
    sweep = fidelity_sweep(dec, 0, 1, 10.0, 20_001)
    assert sweep.best_fidelity >= 1 - 1e-9
    # closed-form 3x3 exponential at the best time agrees
    t = sweep.best_time
    direct = abs(transition_matrix(dec, t)[1, 0])
    assert abs(direct - sweep.best_fidelity) < 1e-12


def test_sweep_disconnected_pair_zero():
    h = hermitian_from_entries(np.diag([0, 0, 1, 1]) * 0 + np.kron(
        np.eye(2), [[0, 1], [1, 0]]))
    dec = spectral_decomposition(h)
    sweep = fidelity_sweep(dec, 0, 2, 20.0, 5001)
    assert sweep.best_fidelity < 1e-12


def test_sweep_argument_validation_and_csv(tmp_path):
    dec = k3_dec()
    with pytest.raises(ValueError):
        fidelity_sweep(dec, 0, 1, 10.0, 1)
    with pytest.raises(ValueError):
        fidelity_sweep(dec, 0, 1, -1.0, 100)
    sweep = fidelity_sweep(dec, 0, 1, 1.0, 11)
    out = tmp_path / "sweep.csv"
    with open(out, "w") as fh:
        sweep.to_csv(fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,fidelity"
    assert len(lines) == 12
    t0, f0 = lines[1].split(",")
    assert float(t0) == 0.0 and abs(float(f0)) < 1e-15


def test_sweep_csv_matches_per_row_format():
    # one full CSV block and a partial one; the first row is t = 0, and the
    # small times and fidelities print in exponent form
    dec = k3_dec()
    sweep = fidelity_sweep(dec, 0, 1, 1e-3, CSV_BLOCK_ROWS + 452)
    fh = io.StringIO()
    sweep.to_csv(fh)
    want = "t,fidelity\n" + "".join(
        f"{t:.17g},{f:.17g}\n" for t, f in zip(sweep.times, sweep.fidelities))
    assert fh.getvalue() == want
    assert want.split("\n")[1].startswith("0,") and "e-07," in want


def test_sweep_deterministic():
    dec = k3_dec()
    a = fidelity_sweep(dec, 0, 1, 10.0, 5001)
    b = fidelity_sweep(dec, 0, 1, 10.0, 5001)
    assert a.best_time == b.best_time
    assert a.best_fidelity == b.best_fidelity


def _grid_argmax_rule(dec, a, b, t_max, steps, refine_top=5):
    # the former rule: the grid maximum, replaced by the best golden-section
    # refinement around the refine_top best grid points
    from qwalk.transfer import transfer_amplitude
    amp = transfer_amplitude(dec, a, b)
    times = np.linspace(0.0, t_max, steps)
    fid = np.abs(amp(times))
    spacing = t_max / (steps - 1)
    best_f = float(fid.max())
    for idx in np.argsort(fid)[::-1][:refine_top]:
        lo, hi = max(0.0, times[idx] - spacing), min(t_max, times[idx] + spacing)
        invphi = (math.sqrt(5) - 1) / 2
        for _ in range(60):
            c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
            if abs(amp([c])[0]) > abs(amp([d])[0]):
                hi = d
            else:
                lo = c
        best_f = max(best_f, float(abs(amp([(lo + hi) / 2])[0])))
    return best_f


GRID_STEPS = (2, 3, 10, 1001, 1024, 1025, 20_001, 1_000_001)


def _grid_cases(n):
    if n == "one-way-4":
        return spectral_decomposition(one_way_family_4(math.sqrt(2)).matrix), 0, 2, 5000.0
    rng = np.random.default_rng(n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dec = spectral_decomposition(hermitian_from_entries((raw + raw.conj().T) / 2))
    a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
    return dec, a, b, 100.0


@pytest.mark.parametrize("chunk", [None, 1000])
@pytest.mark.parametrize("n", [2, 5, 32, 64, "one-way-4"])
def test_grid_fidelities_match_direct_amplitude(monkeypatch, n, chunk):
    # the factored grid against |U(t)[b, a]| evaluated term by term at the
    # np.linspace times: square and non-square step counts, one row of the
    # factorization or many, and (with chunk) many row blocks
    from qwalk import transfer
    from qwalk.transfer import transfer_amplitude
    if chunk is not None:
        monkeypatch.setattr(transfer, "SWEEP_CHUNK_ENTRIES", chunk)
    dec, a, b, t_max = _grid_cases(n)
    amp = transfer_amplitude(dec, a, b)
    for steps in GRID_STEPS:
        sweep = fidelity_sweep(dec, a, b, t_max, steps)
        times = np.linspace(0.0, t_max, steps)
        assert np.array_equal(sweep.times, times)
        assert sweep.fidelities.shape == (steps,)
        # every 97th point and the last 3,000 (the last rows and block)
        idx = np.unique(np.r_[np.arange(0, steps, 97),
                              np.arange(max(0, steps - 3000), steps)])
        direct = np.abs(amp(times[idx]))
        assert np.max(np.abs(sweep.fidelities[idx] - direct)) <= 1e-11


def test_sweep_peak_memory_does_not_grow_with_steps():
    import tracemalloc
    dec = spectral_decomposition(one_way_family_4(math.sqrt(2)).matrix)
    fidelity_sweep(dec, 0, 2, 5000.0, 1001)
    for steps in (1_000_001, 10_000_001):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sweep = fidelity_sweep(dec, 0, 2, 5000.0, steps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sweep.best_fidelity >= 0.99
        # one grid block at a time (2^16 entries: the complex product, its
        # modulus and one partition copy) and two sqrt(steps) x d
        # exponential tables; nothing is kept per grid point
        assert peak <= 4 << 20


def _whole_grid_kept_points(dec, a, b, fid, spacing, top=5):
    # the selection rule on the whole grid at once: every grid peak within
    # slope*spacing/2 of the maximum, and the top best points (earliest of
    # equal ones)
    thetas, coeffs = dec.eigenvalues, dec.entries(b, a)
    slope = float(np.sum(np.abs(coeffs) * np.abs(thetas - (thetas[0] + thetas[-1]) / 2)))
    near = fid >= fid.max() - slope * spacing / 2
    near[1:] &= fid[1:] > fid[:-1]
    near[:-1] &= fid[:-1] >= fid[1:]
    near[np.lexsort((np.arange(len(fid)), -fid))[:top]] = True
    return np.flatnonzero(near)


@pytest.mark.parametrize("chunk", [None, 64, 1000])
@pytest.mark.parametrize("case", ["one-way-4", "hypercube", 5, 12])
def test_streamed_peak_selection_matches_whole_grid_rule(monkeypatch, chunk, case):
    # with chunk = 64 every grid row is its own block, so peaks and the
    # top points straddle many block edges
    from qwalk import transfer
    if chunk is not None:
        monkeypatch.setattr(transfer, "SWEEP_CHUNK_ENTRIES", chunk)
    if case == "one-way-4":
        dec, a, b, t_max = _grid_cases("one-way-4")
        steps = 200_001
    elif case == "hypercube":  # sixteen equal peaks at the odd multiples of pi/2
        dec = spectral_decomposition(build_family("hypercube", m=3).matrix)
        a, b, t_max, steps = 5, 122, 100.0, 20_001
    else:
        dec, a, b, t_max = _grid_cases(case)
        steps = 20_001
    sweep = fidelity_sweep(dec, a, b, t_max, steps)
    fid = sweep.fidelities
    kept = _whole_grid_kept_points(dec, a, b, fid, t_max / (steps - 1))
    assert len(sweep.refined) == len(kept)
    grid_t = np.linspace(0.0, t_max, steps)[kept]
    spacing = t_max / (steps - 1)
    for (t, f), t_k, f_k in zip(sweep.refined, grid_t, fid[kept]):
        assert abs(t - t_k) <= spacing + 1e-12
        assert f >= f_k


@pytest.mark.parametrize("case", ["hypercube", 5, 12, 32])
def test_kept_point_at_a_block_edge_is_kept(monkeypatch, case):
    # the grid cut into blocks so that each kept point in turn ends a
    # block, starts one, or is a block of its own: the sweep must keep and
    # refine the same points as on the whole grid
    from qwalk import transfer
    if case == "hypercube":  # sixteen equal peaks at the odd multiples of pi/2
        dec = spectral_decomposition(build_family("hypercube", m=3).matrix)
        a, b, t_max = 5, 122, 100.0
    else:
        dec, a, b, t_max = _grid_cases(case)
    steps = 20_001
    whole = fidelity_sweep(dec, a, b, t_max, steps)
    fid = whole.fidelities
    kept = _whole_grid_kept_points(dec, a, b, fid, t_max / (steps - 1))
    for k in kept.tolist():
        for cuts in ([k + 1], [k], [k, k + 1]):
            edges = [0, *cuts, steps]
            monkeypatch.setattr(transfer, "_grid_fidelities", lambda *args: (
                (lo, fid[lo:hi]) for lo, hi in zip(edges, edges[1:]) if hi > lo))
            sweep = fidelity_sweep(dec, a, b, t_max, steps)
            assert sweep.refined == whole.refined
            assert (sweep.best_time, sweep.best_fidelity) == (
                whole.best_time, whole.best_fidelity)


@pytest.mark.parametrize("above", [False, True])
def test_block_trailing_a_full_top_list_leaves_it_unchanged(monkeypatch, above):
    # the first block plants the five best grid points 0.9 .. 0.5 over a
    # floor of at most 0.4; later blocks reach 0.5 exactly (they lose the
    # tie to the earlier point, so the top list stays as it is) or one ulp
    # above it (they displace it): the blocked sweep keeps and refines the
    # points of the whole-grid rule
    from qwalk import transfer
    dec, a, b, t_max = _grid_cases(5)
    steps = 20_001
    rng = np.random.default_rng(24)
    fid = rng.uniform(0.0, 0.4, steps)
    fid[[300, 900, 1500, 2100, 2700]] = [0.9, 0.8, 0.7, 0.6, 0.5]
    later = 0.5 if not above else float(np.nextafter(0.5, 1.0))
    fid[[9000, 9001, 17000]] = later
    edges = [0, 4000, 8000, 12000, 16000, steps]

    def sweep(blocks):
        monkeypatch.setattr(transfer, "_grid_fidelities", lambda *args: (
            (lo, fid[lo:hi]) for lo, hi in zip(blocks, blocks[1:])))
        return fidelity_sweep(dec, a, b, t_max, steps)

    whole, blocked = sweep([0, steps]), sweep(edges)
    kept = _whole_grid_kept_points(dec, a, b, fid, t_max / (steps - 1))
    assert kept.tolist() == [300, 900, 1500, 2100, 9000 if above else 2700]
    assert len(blocked.refined) == len(kept)
    assert blocked.refined == whole.refined
    assert (blocked.best_time, blocked.best_fidelity) == (
        whole.best_time, whole.best_fidelity)


def test_sweep_reports_earliest_of_equal_peaks():
    # the oriented 7-cube has PST between antipodal vertices at every odd
    # multiple of pi/2; the reported time is the first one
    dec = spectral_decomposition(build_family("hypercube", m=3).matrix)
    for a in (0, 5, 77):
        sweep = fidelity_sweep(dec, a, a ^ 127, 50.0, 2001)
        assert abs(sweep.best_time - math.pi / 2) <= 1e-12
        assert sweep.best_fidelity >= 1 - 1e-9
        verdict = pst_verdict(dec, a, a ^ 127)
        assert verdict.kind == "PST-numeric"
        assert abs(verdict.time - math.pi / 2) <= 1e-12


def test_numeric_pst_on_oriented_cycle_reports_pi_over_2():
    dec = spectral_decomposition(build_family("oriented-cycle", n=4).matrix)
    verdict = pst_verdict(dec, 0, 2)
    assert verdict.kind == "PST-numeric"
    assert verdict.witness["mode"] == "numeric"
    assert abs(verdict.time - math.pi / 2) <= 1e-12


@pytest.mark.parametrize("b", [1, 2, 3])
def test_numeric_pst_on_one_way_8_is_exact_to_rounding(b):
    # PST 0 -> b at t = b, found to rounding
    verdict = pst_verdict(build_family("one-way-8").decomposition(), 0, b)
    assert verdict.kind == "PST-numeric"
    assert abs(verdict.time - b) <= 1e-12
    assert verdict.fidelity >= 1 - 1e-12


def test_earliest_peak_never_below_grid_argmax_rule():
    rng = np.random.default_rng(31)
    cases = [(k3_dec(), 0, 1, 10.0, 2001),
             (spectral_decomposition(build_family("hypercube", m=3).matrix),
              3, 124, 100.0, 20_001)]
    for n in (5, 12, 32):
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dec = spectral_decomposition(hermitian_from_entries((raw + raw.conj().T) / 2))
        cases.append((dec, 0, n - 1, 100.0, 20_001))
    for dec, a, b, t_max, steps in cases:
        sweep = fidelity_sweep(dec, a, b, t_max, steps)
        assert sweep.best_fidelity >= _grid_argmax_rule(dec, a, b, t_max, steps) - PEAK_TIE_TOL
        assert sweep.best_fidelity >= float(np.max(sweep.fidelities))
        assert all(f <= sweep.best_fidelity + PEAK_TIE_TOL
                   for t, f in sweep.refined if t < sweep.best_time)


def _random_dec(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return spectral_decomposition(hermitian_from_entries((raw + raw.conj().T) / 2))


@pytest.mark.parametrize("n", [5, 8, 13, 21, 34, 64])
def test_newton_refinement_against_golden_section_oracle(n):
    # an interior peak, the return peak of a vertex to itself at t = 0, and
    # a window that ends while the fidelity still rises
    rng = np.random.default_rng(4000 + n)
    dec = _random_dec(rng, n)
    a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
    for src, dst, t_max, steps, at in ((a, b, 100.0, 20_001, None),
                                       (a, a, 20.0, 2001, 0.0),
                                       (a, b, 1e-3, 101, 1e-3)):
        sweep = fidelity_sweep(dec, src, dst, t_max, steps)
        reference = _grid_argmax_rule(dec, src, dst, t_max, steps)
        assert max(f for _, f in sweep.refined) >= reference - 1e-12
        assert sweep.best_fidelity >= float(np.max(sweep.fidelities))
        if at is not None:
            assert abs(sweep.best_time - at) <= 1e-12
            assert abs(sweep.best_fidelity
                       - abs(transfer_amplitude(dec, src, dst)(at)[0])) <= 1e-12


def test_not_proportional_witness_ignores_noise_angle():
    # columns of the vertices 0 and 3 of the oriented 6-cycle are orthogonal
    # in every eigenspace: E_0 e_0 = (w^j + w^2j)/6 and E_0 e_3 = (-w^j + w^2j)/6
    dec = spectral_decomposition(build_family("oriented-cycle", n=6).matrix)
    with pytest.raises(NotProportional) as err:
        strong_cospectrality(dec, 0, 3)
    assert err.value.index == 0
    assert abs(err.value.residual - 1 / 3) <= 1e-12
    verdict = pst_verdict(dec, 0, 3)
    assert verdict.kind == "absent-certified"
    assert abs(verdict.witness["residual"] - 1 / 3) <= 1e-12


# --- verdict serialization --------------------------------------------------------------

def test_verdict_json_shape():
    payload = pst_verdict(k3_closed_form(), 0, 1).to_json()
    assert payload["kind"] == "PST-certified"
    assert {"time", "phase", "fidelity"} <= set(payload)
    values, turns = star_surd_data(3)
    payload = certify_pgst(values, turns).to_json()
    assert payload["kind"] == "absent-certified"
    assert "witness" in payload


def test_verdict_json_needs_no_default():
    # every verdict kind and every witness criterion serializes with the
    # plain json encoder: witnesses hold dicts, lists, tuples, ints, floats,
    # strs and Fractions only
    def family(name, **params):
        return build_family(name, **params).decomposition()
    c4 = family("oriented-cycle", n=4)
    c6 = family("oriented-cycle", n=6)
    p3 = spectral_decomposition(hermitian_from_entries([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    ratio = _three_vertex_closed_form([Surd(0), Surd(1), Surd.sqrt(2)])
    congruence = _three_vertex_closed_form([Surd(0), Surd(1), Surd(3)])
    verdicts = [
        pst_verdict(k3_closed_form(), 0, 1),
        pst_verdict(c4, 0, 2),
        pgst_verdict(family("star-product", m=6), 0, 1),
        pgst_verdict(family("looped-path", m=2), 0, 1),
        pst_verdict(p3, 0, 1),
        pst_verdict(c6, 0, 3),
        pst_verdict(ratio, 0, 0),
        pst_verdict(congruence, 0, 1),
        pgst_verdict(family("star-product", m=3), 0, 1),
        pst_verdict(family("one-way-4"), 0, 2),
        pgst_verdict(c4, 0, 2),
    ]
    seen = set()
    for verdict in verdicts:
        payload = verdict.to_json()
        assert json.loads(json.dumps(payload)) == payload
        seen.add((verdict.kind, verdict.witness.get("criterion")))
    assert {kind for kind, _ in seen} == {
        "PST-certified", "PST-numeric", "PGST-certified", "absent-certified",
        "numeric-evidence"}
    assert {criterion for _, criterion in seen} == {
        None, "strong-cospectrality", "ratio-condition", "phase-congruence",
        "kronecker"}
