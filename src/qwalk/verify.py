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
                            oriented_to_hermitian, rooted_looped_path_product,
                            upst_circulant)
from .linalg import (EigensolverFailure, SpectralDecomposition,
                     hermitian_from_entries, spectral_decomposition,
                     transition_matrix)
from .numtheory import Surd, float_relation_probe, relation_lattice
from .star import classify_star_m, star_support_surds
from .transfer import (certify_pgst, check_periodicity, eigenvalue_support,
                       fidelity_sweep, pgst_verdict, pst_verdict,
                       strong_cospectrality)
from .upst_search import (classify_all, orientation_classes,
                          regular_underlying_graphs)

def crit_oriented_k3_universal_pst() -> tuple[bool, str]:
    """Every ordered pair of the oriented triangle gets certified PST."""
    bundle = build_family("oriented-k3")
    dec = bundle.decomposition()
    worst = 1.0
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            verdict = pst_verdict(dec, a, b)
            if verdict.kind != "PST-certified":
                return False, f"pair ({a},{b}) got {verdict.kind}"
            worst = min(worst, verdict.fidelity)
    return worst >= 1 - 1e-8, f"6/6 ordered pairs certified, min fidelity {worst:.3e}"


def crit_c4_tensor_family() -> tuple[bool, str]:
    """Block PST at pi/4, pi/2, 3pi/4 and the signed-shift identity for the
    4-cycle tensor construction over K2 and the oriented 3-cube."""
    details = []
    for name, bundle in (("K2", build_family("c4-tensor-k2")),
                         ("3-cube", build_family("c4-tensor-cube", m=1))):
        dec = bundle.decomposition()
        n = dec.dim // 4
        shift_err = float(np.max(np.abs(
            transition_matrix(dec, math.pi / 4)
            - np.kron(np.eye(n), SIGNED_SHIFT_4))))
        if shift_err > 1e-9:
            return False, f"{name}: exp(-i pi/4 H) off by {shift_err:.3e}"
        worst = 1.0
        for t, offset in ((math.pi / 4, 3), (math.pi / 2, 2),
                          (3 * math.pi / 4, 1)):
            u = transition_matrix(dec, t)
            for h in range(n):
                worst = min(worst, abs(u[4 * h + offset, 4 * h]))
        if worst < 1 - 1e-8:
            return False, f"{name}: block fidelity dropped to {worst}"
        details.append(f"{name}: shift err {shift_err:.1e}, min fidelity {worst:.10f}")
    return True, "; ".join(details)


def crit_one_way_pst() -> tuple[bool, str]:
    """One-way transfer: exact hit at t=1 with phase 1, no periodicity, and
    pretty good return transfer within the [0, 5000] window."""
    fam = build_family("one-way-4")
    dec = fam.decomposition()
    amp = transition_matrix(dec, 1.0)[0, 2]
    if abs(amp) < 1 - 1e-10:
        return False, f"|U(1)[0,2]| = {abs(amp)}"
    if abs(amp - 1) > 1e-8:
        return False, f"phase off: U(1)[0,2] = {amp}"
    periodic, witness = check_periodicity(dec.exact)
    if periodic or witness is None:
        return False, "periodicity check did not fail as required"
    if (witness["numerator"], witness["denominator"]) != ("1*pi", "1*lambda"):
        return False, f"unexpected witness {witness}"
    sweep = fidelity_sweep(dec, 0, 2, 5000.0, 1_000_001)
    if sweep.best_fidelity < 0.99:
        return False, f"reverse sweep only reached {sweep.best_fidelity}"
    return True, (f"|U(1)[0,2]-1| = {abs(amp-1):.1e}; witness pi/lambda; "
                  f"reverse max {sweep.best_fidelity:.6f} at t={sweep.best_time:.1f}")


def crit_eight_vertex_example() -> tuple[bool, str]:
    """The 8-vertex family: PST 0->1,2,3 at t = 1,2,3, full support
    everywhere, periodic nowhere."""
    fam = build_family("one-way-8")
    dec = fam.decomposition()
    fidelities = []
    for t, tgt in ((1.0, 1), (2.0, 2), (3.0, 3)):
        f = abs(transition_matrix(dec, t)[tgt, 0])
        if f < 1 - 1e-8:
            return False, f"0->{tgt} at t={t}: fidelity {f}"
        fidelities.append(f)
    for v in range(8):
        support = eigenvalue_support(dec, v)
        if len(support) != 8:
            return False, f"vertex {v} lacks full support"
        periodic, _ = check_periodicity([dec.exact[r] for r in support])
        if periodic:
            return False, f"vertex {v} reported periodic"
    return True, (f"fidelities {', '.join(f'{f:.12f}' for f in fidelities)}; "
                  "full support at all 8 vertices; periodic nowhere")


def crit_exhaustive_classification() -> tuple[bool, str]:
    """classify_all, as search-upst prints it: the n=4,5 orientation
    enumeration has no survivors; the trace equation leaves exactly three
    (n,k) rows for 6 <= n <= 11; mod-2 charpolys kill all three."""
    reports = {n: classify_all(n) for n in range(4, 12)}
    for n, count in ((4, 80), (5, 1056)):
        if len(reports[n]) != count or any(r.verdict == "survives"
                                           for r in reports[n]):
            return False, f"n={n}: {len(reports[n])} reports, survivors present"
    classes = [sum(len(set(orientation_classes(edges, n).tolist()))
                   for _, _, edges in regular_underlying_graphs(n))
               for n in (4, 5)]
    charpoly = [r for n in range(6, 12) for r in reports[n]
                if r.verdict != "ruled-out-spectrum"]
    rows = {(r.n, r.k): tuple(r.witness["spectrum"]) for r in charpoly}
    expected = {(11, 10): (0, 1, 2, 3, 4, 5),
                (7, 6): (0, 1, 2, 4),
                (7, 4): (0, 1, 2, 3)}
    if rows != expected or len(charpoly) != len(expected):
        return False, f"trace-equation rows {rows} != {expected}"
    for r in charpoly:
        if r.verdict != "ruled-out-charpoly":
            return False, f"{r.underlying} not ruled out"
    return True, (f"80 + 1056 orientations in {classes[0]} + {classes[1]} "
                  "symmetry classes, zero survivors; three table rows "
                  "reproduced and all charpoly-ruled-out")


def _eigensolver_error(closed: SpectralDecomposition, h) -> float:
    """Match a closed form's multiplicities and eigenvalues (to 1e-8) with
    the eigensolver's, raising EigensolverFailure if not; returns the
    eigenvalue error."""
    dec = spectral_decomposition(h)
    if dec.multiplicities != closed.multiplicities:
        raise EigensolverFailure(
            f"multiplicities {closed.multiplicities} != {dec.multiplicities}")
    err = float(np.max(np.abs(dec.eigenvalues - closed.eigenvalues)))
    if err > 1e-8:
        raise EigensolverFailure(f"eigenvalues differ by {err:.2e}")
    return err


def crit_star_product_spectra() -> tuple[bool, str]:
    """The star-product family's closed-form decomposition, as the CLI
    decides on it, validates and matches the eigensolver for m in
    {1, 2, 3, 6, 27}."""
    worst_spec, worst_rec = 0.0, 0.0
    for m in (1, 2, 3, 6, 27):
        bundle = build_family("star-product", m=m)
        closed = bundle.decomposition()
        worst_spec = max(worst_spec, _eigensolver_error(closed, bundle.matrix))
        worst_rec = max(worst_rec, float(np.max(np.abs(
            closed.matrix() - bundle.matrix.array))))
    return True, f"max spectrum error {worst_spec:.2e}, max reconstruction error {worst_rec:.2e}"


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
    """Looped-path products over the rational universal-transfer circulant,
    on the family's closed-form decomposition as the CLI decides on it: at
    m = 2, 3 it matches the eigensolver, the exact quarrels match the
    measured ones at every level, multiple transfer is certified and sweeps
    corroborate; at m = 12, past the eigensolver's reach, pgst_verdict
    certifies pair (0, 1) exactly."""
    circ = upst_circulant(3, 0, 1, 1)
    details = []
    for m in (2, 3):
        bundle = build_family("looped-path", m=m)
        dec = bundle.decomposition()
        _eigensolver_error(dec, bundle.matrix)
        product = rooted_looped_path_product(circ, m, math.pi)
        for level in range(1, m + 1):
            for (a, b) in ((0, 1), (1, 2), (0, 2)):
                turns = strong_cospectrality(dec, product.vertex(a, level),
                                             product.vertex(b, level)).turns
                want = product.quarrel_turns(a, b)
                if turns != want:
                    return False, (f"m={m}, level {level}: quarrel turns "
                                   f"{turns} != {want} for pair ({a}, {b})")
        # every level pair (0, 1) has these quarrels, so one check covers
        # all; the superset lattice from the trace conditions assumes the
        # loop weight is transcendental over the rational base spectrum
        verdict = pgst_verdict(dec, 0, 1)
        if verdict.kind != "PGST-certified":
            return False, f"m={m}: {verdict.kind}"
        sweep = fidelity_sweep(dec, product.vertex(0, 1), product.vertex(1, 1),
                               1e4, 1_000_001)
        if sweep.best_fidelity < 0.9:
            return False, f"m={m}: sweep only reached {sweep.best_fidelity}"
        details.append(f"m={m}: sweep max {sweep.best_fidelity:.4f}")
    bundle = build_family("looped-path", m=12)
    verdict = pgst_verdict(bundle.decomposition(), 0, 1)
    mode = verdict.witness.get("mode")
    details.append(f"m=12 pair (0, 1): {verdict.kind}, mode {mode}")
    return (verdict.kind, mode) == ("PGST-certified", "exact"), "; ".join(details)


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
