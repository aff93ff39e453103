from fractions import Fraction

import numpy as np
import pytest

from qwalk.constructions import (oriented_k3, oriented_to_hermitian,
                                 rooted_star_product, rooted_star_spectrum)
from qwalk.linalg import spectral_decomposition
from qwalk.numtheory import Surd, square_free_part
from qwalk.star import CSV_HEADER, classify_star_m, star_support_surds
from qwalk.transfer import certify_pgst, fidelity_sweep, strong_cospectrality


def test_classifier_spot_rows():
    assert classify_star_m(1) == classify_star_m(1)
    assert classify_star_m(1).case == "coprime" and classify_star_m(1).pgst
    v3 = classify_star_m(3)
    assert v3.case == "none" and not v3.pgst and v3.s == 1 and v3.h == 1
    v6 = classify_star_m(6)
    assert v6.case == "27k^2+27k+6" and v6.pgst and v6.k == 0
    v12 = classify_star_m(12)
    assert v12.case == "none" and not v12.pgst
    v27 = classify_star_m(27)
    assert v27.case == "27k^2" and v27.pgst and v27.k == 1


def test_classifier_case_families():
    for k in range(1, 6):
        assert classify_star_m(27 * k * k).pgst
        assert classify_star_m(27 * k * k + 27 * k + 6).pgst
    # m = 3 h^2 with 3 not dividing h never transfers
    for h in (1, 2, 4, 5, 7):
        assert not classify_star_m(3 * h * h).pgst


def test_classifier_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify_star_m(0)


def test_support_surds_normalization():
    values, turns = star_support_surds(3)
    assert values[0] == Surd.sqrt(3)
    assert values[2] == (Surd.sqrt(3) + Surd.sqrt(15)) / 2
    assert {d for v in values for d in v.radical_terms} == {3, 15}
    values, _ = star_support_surds(12)
    assert values[0] == Surd.sqrt(3, 2)  # sqrt(12) = 2 sqrt(3)
    assert values[2] == (Surd.sqrt(3) + Surd.sqrt(51)) / 2
    assert square_free_part(3 + 4 * 12) == (51, 1)
    # m = 1 support values in closed form
    values, turns = star_support_surds(1)
    assert values[2] == (Surd.sqrt(3) + Surd.sqrt(7)) / 2
    assert turns == [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1, 3),
                     Fraction(2, 3), Fraction(2, 3)]


def test_support_surds_match_star_product_numerically():
    for m in (1, 4, 9):
        values, _ = star_support_surds(m)
        closed = rooted_star_spectrum(oriented_to_hermitian(oriented_k3()), m)
        nonzero = [lam for lam in closed.eigenvalues if lam != 0.0]
        assert np.allclose(sorted(float(v) for v in values), nonzero,
                           atol=1e-10)


def test_classifier_agrees_with_generic_checker():
    for m in range(1, 61):
        closed = classify_star_m(m).pgst
        values, turns = star_support_surds(m)
        assert certify_pgst(values, turns).certified == closed, m


def test_verdict_invariant_pgst_iff_case():
    for m in range(1, 201):
        verdict = classify_star_m(m)
        assert verdict.pgst == (verdict.case != "none")


def test_rotational_symmetry_of_verdicts():
    # the three non-pendant pairs carry the same quarrel multiset, so the
    # certification verdict cannot depend on the pair
    product = rooted_star_product(oriented_to_hermitian(oriented_k3()), 2)
    dec = spectral_decomposition(product)
    multisets = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        q = strong_cospectrality(dec, a, b)
        multisets.append(sorted(q.rationals))
    assert multisets[0] == multisets[1] == multisets[2]


@pytest.mark.slow
def test_numeric_corroboration_windows():
    # documented tool choice: window 5e4, threshold 0.9 for certified cases;
    # the non-transfer case's maximum is recorded as evidence, not asserted
    # (measured 0.9486 for m = 3 with this grid)
    base = oriented_to_hermitian(oriented_k3())
    product = rooted_star_product(base, 1)
    dec = spectral_decomposition(product)
    sweep = fidelity_sweep(dec, 0, 1, 5e4, 2_000_001)
    assert sweep.best_fidelity >= 0.9
    product = rooted_star_product(base, 3)
    dec = spectral_decomposition(product)
    sweep = fidelity_sweep(dec, 0, 1, 5e4, 2_000_001)
    print(f"non-PGST m=3 sweep max (recorded): {sweep.best_fidelity:.6f}")


def test_csv_rows():
    assert CSV_HEADER == "m,case,pgst,s,h,k"
    assert classify_star_m(1).csv_row() == "1,coprime,true,,,"
    assert classify_star_m(27).csv_row() == "27,27k^2,true,9,3,1"
    assert classify_star_m(3).csv_row() == "3,none,false,1,1,"
