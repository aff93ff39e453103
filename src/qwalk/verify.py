"""Verification battery: every headline claim this package reproduces, one
callable per criterion, each returning (passed, detail).

Sweep windows below are empirical choices: the theory guarantees fidelity
approaching 1 over unbounded time but gives no rate, so each window is the
smallest round number at which the target level was observed with margin.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from .constructions import (OrientedGraph, SIGNED_SHIFT_4, build_family,
                            c4_tensor_construction, one_way_family_4,
                            one_way_family_8, oriented_k2, oriented_k3,
                            oriented_hypercube, oriented_to_hermitian,
                            rooted_looped_path_product, rooted_star_product,
                            rooted_star_spectrum, upst_circulant)
from .linalg import hermitian_from_entries, spectral_decomposition, transition_matrix
from .numtheory import Surd, float_relation_probe, relation_lattice
from .star import classify_star_m, star_support_surds
from .transfer import (align_exact_spectrum, certify_pgst, check_periodicity,
                       eigenvalue_support, fidelity_sweep, pst_verdict,
                       strong_cospectrality)
from .upst_search import (charpoly_rule_out, exhaustive_rule_out, nk_table,
                          spectrum_candidates)

def crit_oriented_k3_universal_pst() -> tuple[bool, str]:
    """Every ordered pair of the oriented triangle gets certified PST."""
    bundle = build_family("oriented-k3")
    dec = spectral_decomposition(bundle.matrix)
    worst = 1.0
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            verdict = pst_verdict(dec, a, b, bundle.exact_spectrum)
            if verdict.kind != "PST-certified":
                return False, f"pair ({a},{b}) got {verdict.kind}"
            worst = min(worst, verdict.fidelity)
    return worst >= 1 - 1e-8, f"6/6 ordered pairs certified, min fidelity {worst:.3e}"


def crit_c4_tensor_family() -> tuple[bool, str]:
    """Block PST at pi/4, pi/2, 3pi/4 and the signed-shift identity for the
    4-cycle tensor construction over K2 and the oriented 3-cube."""
    details = []
    for name, base in (("K2", oriented_k2()), ("3-cube", oriented_hypercube(1))):
        h_x = oriented_to_hermitian(base)
        h_y = c4_tensor_construction(h_x)
        dec = spectral_decomposition(h_y)
        n = h_x.dim
        shift_err = float(np.max(np.abs(
            transition_matrix(dec, math.pi / 4)
            - np.kron(np.eye(n), SIGNED_SHIFT_4))))
        if shift_err > 1e-9:
            return False, f"{name}: exp(-i pi/4 H) off by {shift_err:.3e}"
        worst = 1.0
        for h in range(n):
            src = 4 * h
            for t, tgt in ((math.pi / 4, src + 3), (math.pi / 2, src + 2),
                           (3 * math.pi / 4, src + 1)):
                worst = min(worst, abs(transition_matrix(dec, t)[tgt, src]))
        if worst < 1 - 1e-8:
            return False, f"{name}: block fidelity dropped to {worst}"
        details.append(f"{name}: shift err {shift_err:.1e}, min fidelity {worst:.10f}")
    return True, "; ".join(details)


def crit_one_way_pst() -> tuple[bool, str]:
    """One-way transfer: exact hit at t=1 with phase 1, no periodicity, and
    pretty good return transfer within the [0, 5000] window."""
    fam = one_way_family_4(math.sqrt(2))
    dec = spectral_decomposition(fam.matrix)
    amp = transition_matrix(dec, 1.0)[0, 2]
    if abs(amp) < 1 - 1e-10:
        return False, f"|U(1)[0,2]| = {abs(amp)}"
    if abs(amp - 1) > 1e-8:
        return False, f"phase off: U(1)[0,2] = {amp}"
    periodic, witness = check_periodicity(fam.eigenvalues_exact)
    if periodic or witness is None:
        return False, "periodicity check did not fail as required"
    if "lambda" not in witness["numerator"] or "pi" not in witness["denominator"]:
        return False, f"unexpected witness {witness}"
    sweep = fidelity_sweep(dec, 0, 2, 5000.0, 1_000_001)
    if sweep.best_fidelity < 0.99:
        return False, f"reverse sweep only reached {sweep.best_fidelity}"
    return True, (f"|U(1)[0,2]-1| = {abs(amp-1):.1e}; witness lambda/pi; "
                  f"reverse max {sweep.best_fidelity:.6f} at t={sweep.best_time:.1f}")


def crit_eight_vertex_example() -> tuple[bool, str]:
    """The 8-vertex family: PST 0->1,2,3 at t = 1,2,3, full support
    everywhere, periodic nowhere."""
    fam = one_way_family_8(math.sqrt(2))
    dec = spectral_decomposition(fam.matrix)
    fidelities = []
    for t, tgt in ((1.0, 1), (2.0, 2), (3.0, 3)):
        f = abs(transition_matrix(dec, t)[tgt, 0])
        if f < 1 - 1e-8:
            return False, f"0->{tgt} at t={t}: fidelity {f}"
        fidelities.append(f)
    exact = align_exact_spectrum(dec, fam.eigenvalues_exact)
    for v in range(8):
        support = eigenvalue_support(dec, v)
        if len(support) != 8:
            return False, f"vertex {v} lacks full support"
        periodic, _ = check_periodicity([exact[r] for r in support])
        if periodic:
            return False, f"vertex {v} reported periodic"
    return True, (f"fidelities {', '.join(f'{f:.12f}' for f in fidelities)}; "
                  "full support at all 8 vertices; periodic nowhere")


def crit_exhaustive_classification() -> tuple[bool, str]:
    """n=4,5 orientation enumeration has no survivors; the trace equation
    leaves exactly three (n,k) rows; mod-2 charpolys kill all three."""
    r4 = exhaustive_rule_out(4)
    r5 = exhaustive_rule_out(5)
    if len(r4) != 80 or any(r.verdict == "survives" for r in r4):
        return False, f"n=4: {len(r4)} reports, survivors present"
    if len(r5) != 1056 or any(r.verdict == "survives" for r in r5):
        return False, f"n=5: {len(r5)} reports, survivors present"
    rows = {}
    for n, ks in nk_table().items():
        for k in ks:
            for spec in spectrum_candidates(n, k):
                rows[(n, k)] = spec
    expected = {(11, 10): (0, 1, 2, 3, 4, 5),
                (7, 6): (0, 1, 2, 4),
                (7, 4): (0, 1, 2, 3)}
    if rows != expected:
        return False, f"trace-equation rows {rows} != {expected}"
    for (n, k), name in (((11, 10), "K11"), ((7, 6), "K7"), ((7, 4), "C7bar")):
        if not charpoly_rule_out(name, rows[(n, k)]):
            return False, f"{name} not ruled out"
    return True, ("80 + 1056 orientations, zero survivors; three table rows "
                  "reproduced and all charpoly-ruled-out")


def crit_star_product_spectra() -> tuple[bool, str]:
    """The closed-form star-product decomposition validates against the
    product matrix (orthonormal to 1e-9, separated clusters, reconstruction
    to 1e-8) and matches the eigensolver's eigenvalues and multiplicities
    for m in {1, 2, 3, 6, 27}."""
    h_x = oriented_to_hermitian(oriented_k3())
    worst_spec, worst_rec = 0.0, 0.0
    for m in (1, 2, 3, 6, 27):
        h_y = rooted_star_product(h_x, m)
        closed = rooted_star_spectrum(h_x, m)
        closed.validate(h_y)
        dec = spectral_decomposition(h_y)
        if dec.multiplicities != closed.multiplicities:
            return False, f"m={m}: multiplicity mismatch"
        worst_spec = max(worst_spec, float(np.max(np.abs(
            dec.eigenvalues - closed.eigenvalues))))
        worst_rec = max(worst_rec, float(np.max(np.abs(
            closed.matrix() - h_y.array))))
    ok = worst_spec <= 1e-8 and worst_rec <= 1e-8
    return ok, f"max spectrum error {worst_spec:.2e}, max reconstruction error {worst_rec:.2e}"


def crit_star_classification() -> tuple[bool, str]:
    """Closed-form classification agrees with the generic Kronecker engine
    for every m up to 200, with the spot rows as expected."""
    spots = {1: True, 3: False, 6: True, 12: False, 27: True}
    for m, want in spots.items():
        if classify_star_m(m).pgst is not want:
            return False, f"spot row m={m} wrong"
    for m in range(1, 201):
        closed = classify_star_m(m).pgst
        values, turns = star_support_surds(m)
        generic = certify_pgst(values, turns).certified
        if closed != generic:
            return False, f"m={m}: classifier {closed} vs checker {generic}"
    return True, "closed form == Kronecker engine for 1 <= m <= 200; spot rows match"


def crit_looped_path_product() -> tuple[bool, str]:
    """Looped-path products over the rational universal-transfer circulant:
    simple spectra, predicted eigenpairs, exact quarrels, certified multiple
    transfer, and sweep corroboration."""
    circ = upst_circulant(3, 0, 1, 1)
    details = []
    for m in (2, 3):
        product = rooted_looped_path_product(circ, m, math.pi)
        dec = spectral_decomposition(product.matrix)
        if len(dec.eigenvalues) != 3 * m:
            return False, f"m={m}: spectrum not simple"
        if float(np.min(np.diff(dec.eigenvalues))) <= 1e-8:
            return False, f"m={m}: eigenvalue gap at clustering tolerance"
        h = product.matrix.array
        for j, s, lam, vec in product.eigenpairs:
            residual = float(np.max(np.abs(h @ vec - lam * vec)))
            if residual > 1e-8:
                return False, f"m={m}: eigenpair ({j},{s}) residual {residual:.2e}"
        for level in range(1, m + 1):
            for (a, b) in ((0, 1), (1, 2), (0, 2)):
                turns = strong_cospectrality(dec, product.vertex(a, level),
                                             product.vertex(b, level)).turns
                want = product.quarrel_turns(a, b)
                if turns != want:
                    return False, (f"m={m}, level {level}: quarrel turns "
                                   f"{turns} != {want} for pair ({a}, {b})")
        # every level pair (0, 1) has these quarrels, so one check covers all
        verdict = certify_pgst(
            None, product.quarrel_turns(0, 1), product.relation_superlattice(),
            notes="superset lattice from the trace conditions; assumes "
                  "the loop weight is transcendental over the rational "
                  "base spectrum")
        if verdict.kind != "PGST-certified":
            return False, f"m={m}: {verdict.kind}"
        sweep = fidelity_sweep(dec, product.vertex(0, 1), product.vertex(1, 1),
                               1e4, 1_000_001)
        if sweep.best_fidelity < 0.9:
            return False, f"m={m}: sweep only reached {sweep.best_fidelity}"
        details.append(f"m={m}: sweep max {sweep.best_fidelity:.4f}")
    return True, "; ".join(details)


def crit_property_suites() -> tuple[bool, str]:
    """Randomized invariants at fixed seeds: projector algebra, unitarity,
    the group law, the zero-diagonal trace identity, oriented spectrum
    symmetry, surd/float consistency, and lattice completeness."""
    rng = np.random.default_rng(20240811)
    for trial in range(8):
        n = int(rng.integers(2, 7))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = hermitian_from_entries((raw + raw.conj().T) / 2)
        dec = spectral_decomposition(h)  # validates the projector algebra
        t1, t2 = rng.uniform(-10, 10, 2)
        u1 = transition_matrix(dec, t1)
        u2 = transition_matrix(dec, t2)
        u12 = transition_matrix(dec, t1 + t2)
        if float(np.max(np.abs(u12 - u1 @ u2))) > 1e-9:
            return False, f"group law failed on trial {trial}"
        if float(np.max(np.abs(u1 @ u1.conj().T - np.eye(n)))) > 1e-9:
            return False, f"unitarity failed on trial {trial}"
        hz = h.array.copy()
        np.fill_diagonal(hz, 0)
        dz = spectral_decomposition(hermitian_from_entries(hz))
        full = np.concatenate([[ev] * mult for ev, mult
                               in zip(dz.eigenvalues, dz.multiplicities)])
        lhs = float(sum((a - b) ** 2 for a in full for b in full))
        rhs = float(2 * n * np.trace(hz @ hz).real)
        if rhs and abs(lhs - rhs) / abs(rhs) > 1e-9:
            return False, f"trace identity failed on trial {trial}"
    for trial in range(6):
        n = int(rng.integers(3, 6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        arcs = frozenset((a, b) if rng.random() < 0.5 else (b, a)
                         for a, b in pairs if rng.random() < 0.8)
        dec = spectral_decomposition(oriented_to_hermitian(OrientedGraph(n, arcs)))
        full = np.concatenate([[ev] * mult for ev, mult
                               in zip(dec.eigenvalues, dec.multiplicities)])
        if float(np.max(np.abs(np.sort(full) + np.sort(full)[::-1]))) > 1e-8:
            return False, "oriented spectrum not symmetric"
    for trial in range(30):
        a = _random_surd(rng)
        b = _random_surd(rng)
        if abs(float(a + b) - (float(a) + float(b))) > 1e-10:
            return False, "surd/float addition drifted"
        if abs(float(a - b) - (float(a) - float(b))) > 1e-10:
            return False, "surd/float subtraction drifted"
        q = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        if abs(float(a * q) - float(a) * float(q)) > 1e-10:
            return False, "surd/float scaling drifted"
    for trial in range(12):
        d = int(rng.integers(2, 5))
        values = [Surd(int(rng.integers(-5, 6)))
                  + Surd.sqrt(int(rng.integers(2, 6)), int(rng.integers(-3, 4)))
                  for _ in range(d)]
        lattice = relation_lattice(values)
        probe = float_relation_probe([float(v) for v in values], 10)
        outside = [vec for vec in probe if not lattice.contains(vec)]
        if outside:
            return False, f"probe found relations outside the lattice: {outside}"
    return True, "all randomized property suites passed at fixed seed"


def _random_surd(rng) -> Surd:
    rat = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 12)))
    rads = {int(d): Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 6)))
            for d in rng.integers(2, 30, size=rng.integers(0, 3))}
    return Surd(rat, rads)


CRITERIA = [
    ("oriented-k3-universal-pst", crit_oriented_k3_universal_pst, 1.0),
    ("c4-tensor-family", crit_c4_tensor_family, 5.0),
    ("one-way-pst", crit_one_way_pst, 30.0),
    ("eight-vertex-example", crit_eight_vertex_example, 5.0),
    ("exhaustive-classification", crit_exhaustive_classification, 60.0),
    ("star-product-spectra", crit_star_product_spectra, 60.0),
    ("star-classification", crit_star_classification, 10.0),
    ("looped-path-product", crit_looped_path_product, 60.0),
    ("property-suites", crit_property_suites, 60.0),
]


def run_battery(stream) -> int:
    """Run every acceptance criterion, print one pass/fail line each, and
    return a nonzero exit status if anything failed."""
    failures = 0
    for name, fn, budget in CRITERIA:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - start
        if ok and elapsed > budget:
            ok, detail = False, f"passed but exceeded {budget:.0f}s budget ({detail})"
        tag = "PASS" if ok else "FAIL"
        stream.write(f"[{tag}] {name} ({elapsed:.2f}s) {detail}\n")
        failures += 0 if ok else 1
    stream.write(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed\n")
    return 1 if failures else 0
