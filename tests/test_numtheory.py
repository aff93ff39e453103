import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import numtheory
from qwalk.numtheory import (PROBE_TOL, DimensionTooLarge, Surd, Transcendental,
                             charpoly_int, charpoly_mod2, float_relation_probe,
                             integer_kernel, poly_gcd,
                             relation_lattice, solve_congruences,
                             square_free_part)


# --- square-free decomposition ---------------------------------------------

def trial_division_square_free(n):
    # independent oracle: factor completely, split exponents
    s, k = 1, 1
    d = 2
    m = n
    factors = {}
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    for p, e in factors.items():
        k *= p ** (e // 2)
        if e % 2:
            s *= p
    return s, k


def test_square_free_examples():
    assert square_free_part(12) == (3, 2)
    assert square_free_part(1) == (1, 1)
    # 3 + 4m at m=1
    assert square_free_part(7) == trial_division_square_free(7) == (7, 1)


@given(st.integers(min_value=1, max_value=100_000))
def test_square_free_matches_oracle(n):
    s, k = square_free_part(n)
    assert (s, k) == trial_division_square_free(n)
    assert s * k * k == n


@given(st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=12))
def test_square_free_invariant_under_square_scaling(n, k):
    assert square_free_part(n)[0] == square_free_part(n * k * k)[0]


def test_square_free_rejects_nonpositive():
    with pytest.raises(ValueError):
        square_free_part(0)


# --- surd arithmetic --------------------------------------------------------

def test_surd_cancellation():
    a = Surd.sqrt(3)
    assert (a + (-a)).is_zero()


def test_surd_normalization_numeric_oracle():
    # sqrt(3) + sqrt(12) == 3 sqrt(3), checked against floats at 1e-12
    total = Surd.sqrt(3) + Surd.sqrt(12)
    assert total == Surd.sqrt(3, 3)
    assert abs(float(total) - (math.sqrt(3) + math.sqrt(12))) < 1e-12


def test_surd_star_eigenvalue_m1():
    lam3 = (Surd.sqrt(3) + Surd.sqrt(3 + 4 * 1)) / 2
    assert (Surd.sqrt(3) + Surd.sqrt(7)) * Fraction(1, 2) == lam3


def test_surd_ratio():
    assert Surd.sqrt(12).ratio(Surd.sqrt(3)) == 2
    assert Surd.sqrt(2).ratio(Surd.sqrt(3)) is None
    assert Surd(0).ratio(Surd.sqrt(5)) == 0
    with pytest.raises(ZeroDivisionError):
        Surd(1).ratio(Surd(0))


def test_surd_symbols_are_independent_basis():
    lam = Transcendental("lambda", math.sqrt(2))
    v = Surd.symbol(lam) + Surd.sqrt(2)
    assert not v.is_zero()  # sqrt(2) the radical is not the symbol lambda
    assert v.has_symbols


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@st.composite
def surds(draw):
    rat = draw(rationals)
    rads = {draw(st.integers(min_value=2, max_value=40)): draw(rationals)
            for _ in range(draw(st.integers(min_value=0, max_value=3)))}
    return Surd(rat, rads)


@given(surds(), surds())
@settings(max_examples=150)
def test_surd_float_consistency(a, b):
    assert abs(float(a + b) - (float(a) + float(b))) <= 1e-10
    assert abs(float(a - b) - (float(a) - float(b))) <= 1e-10


@given(surds(), rationals)
@settings(max_examples=150)
def test_surd_scaling_consistency(a, q):
    assert abs(float(a * q) - float(a) * float(q)) <= 1e-10


@given(surds(), surds())
def test_surd_eq_iff_difference_zero(a, b):
    assert (a == b) == (a - b).is_zero()


# --- relation lattices ------------------------------------------------------

def brute_force_relations(values, bound):
    d = len(values)
    out = []
    for vec in product(range(-bound, bound + 1), repeat=d):
        if any(vec) and sum((v * c for v, c in zip(values, vec)), Surd(0)).is_zero():
            out.append(vec)
    return out


def test_relation_lattice_forced_coefficients():
    lattice = relation_lattice([Surd.sqrt(3), -Surd.sqrt(3), Surd.sqrt(3, 2)])
    assert lattice.rank == 2
    assert lattice.contains([1, 1, 0])
    assert lattice.contains([2, 0, -1])


def test_relation_lattice_rationals():
    lattice = relation_lattice([Surd(1), Surd(2), Surd(3)])
    assert lattice.rank == 2
    # brute-force oracle: small vectors in/out of the kernel
    members = brute_force_relations([Surd(1), Surd(2), Surd(3)], 3)
    assert (2, -1, 0) in members and (3, 0, -1) in members
    for vec in members:
        assert lattice.contains(vec)
    assert not lattice.contains([1, 0, 0])


def test_relation_lattice_star_m1_kills_surd_coefficients():
    m = 1
    values = [Surd.sqrt(m), -Surd.sqrt(m),
              (Surd.sqrt(3) + Surd.sqrt(7)) / 2, (Surd.sqrt(3) - Surd.sqrt(7)) / 2,
              (-Surd.sqrt(3) + Surd.sqrt(7)) / 2, (-Surd.sqrt(3) - Surd.sqrt(7)) / 2]
    lattice = relation_lattice(values)
    assert lattice.rank == 3
    for g in lattice.generators:
        combo = sum((v * c for v, c in zip(values, g)), Surd(0))
        assert combo.is_zero()


@given(st.lists(st.tuples(st.integers(min_value=-5, max_value=5),
                          st.sampled_from([1, 2, 3, 5])),
                min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_relation_lattice_complete_on_small_inputs(spec):
    # value r is c_r*sqrt(d_r); 1, sqrt(2), sqrt(3), sqrt(5) are linearly
    # independent over Q, so l is a relation iff sum l_r c_r vanishes over
    # each group of equal d_r -- exact integer arithmetic, no Surd
    values = [Surd.sqrt(d, c) for c, d in spec]
    lattice = relation_lattice(values)
    groups = [[c if dr == d else 0 for c, dr in spec] for d in {d for _, d in spec}]
    for vec in product(range(-4, 5), repeat=len(spec)):
        member = all(sum(l * c for l, c in zip(vec, g)) == 0 for g in groups)
        assert lattice.contains(vec) == member, vec


def test_integer_kernel_saturation():
    # kernel of (2 4) is spanned by (2, -1), not (4, -2)
    gens = integer_kernel([[2, 4]], 2)
    assert gens == [[2, -1]] or gens == [[-2, 1]]


# --- linear congruences -----------------------------------------------------

def _grid_solutions(rows, grid):
    return {x for x in grid
            if all((Fraction(c) * x - Fraction(d)).denominator == 1 for c, d in rows)}


def test_solve_congruences_matches_grid_scan():
    # c = p/q with |p| <= 4, q | 3 and d in Z/6: every solution lies on the
    # grid Z/72 and the solution set has period dividing 6, so x in [0, 6)
    # on that grid sees all of it
    rng = np.random.default_rng(505)
    grid = [Fraction(j, 72) for j in range(6 * 72)]
    outcomes = set()
    for _ in range(300):
        rows = []
        for _ in range(int(rng.integers(0, 5))):
            p, q = int(rng.integers(-4, 5)), int(rng.choice([1, 2, 3]))
            rows.append((Fraction(p, q), Fraction(int(rng.integers(-12, 13)), 6)))
        solution, i = solve_congruences(rows)
        scan = _grid_solutions(rows, grid)
        if solution is None:
            outcomes.add("none")
            assert not scan, rows
            assert _grid_solutions(rows[:i], grid), rows  # rows before i agree
            continue
        offset, step = solution
        assert all((c * offset - d).denominator == 1 for c, d in rows)
        if step is None:
            outcomes.add("all")
            assert offset == 0 and scan == set(grid), rows
        else:
            outcomes.add("progression")
            assert scan == {x for x in grid if ((x - offset) / step).denominator == 1}, rows
            if sum(1 for c, _ in rows if c) >= 2:  # intersected: canonical offset
                assert 0 <= offset < step
    assert outcomes == {"none", "all", "progression"}


def test_solve_congruences_edge_cases():
    assert solve_congruences([]) == ((0, None), None)
    assert solve_congruences([(0, 3), (0, -1)]) == ((0, None), None)
    assert solve_congruences([(0, 2), (0, Fraction(1, 2))]) == (None, 1)
    # the first progression keeps d/c unreduced; negative c gives a positive step
    assert solve_congruences([(-2, Fraction(7, 3))]) == ((Fraction(-7, 6), Fraction(1, 2)), None)
    # x = 1/2 (mod 1) and 2x = 1/2 (mod 1) have no common solution
    assert solve_congruences([(1, Fraction(1, 2)), (2, Fraction(1, 2))]) == (None, 1)
    # x = 1/3 (mod 1) and x/2 = 2/3 (mod 1): x = 4/3 (mod 2)
    assert solve_congruences([(1, Fraction(1, 3)), (Fraction(1, 2), Fraction(2, 3))]) == (
        (Fraction(4, 3), Fraction(2)), None)


# --- float relation probe ---------------------------------------------------

def test_probe_examples():
    assert (2, -1) in float_relation_probe([1.0, 2.0], 3)
    assert (2, -1) in float_relation_probe([math.pi, 2 * math.pi], 3)
    assert float_relation_probe([1.0, math.sqrt(2)], 10) == []


def probe_reference(values, bound):
    # the per-vector loop float_relation_probe replaced, kept as the oracle
    out = []
    radix = 2 * bound + 1
    for code in range(radix ** len(values)):
        vec = []
        x = code
        for _ in range(len(values)):
            vec.append(x % radix - bound)
            x //= radix
        if not any(vec):
            continue
        if next(v for v in vec if v) < 0:
            continue
        if abs(sum(l * v for l, v in zip(vec, values))) <= PROBE_TOL:
            out.append(tuple(vec))
    return out


def seeded_probe_inputs(count):
    """(values, bound) with zeros, negatives, repeated values, exact integer
    relations and values PROBE_TOL/2 .. 2*PROBE_TOL apart."""
    rng = np.random.default_rng(2023)
    max_bound = {1: 10, 2: 10, 3: 6, 4: 3}
    for _ in range(count):
        d = int(rng.integers(1, 5))
        values = []
        for _ in range(d):
            kind = int(rng.integers(0, 6))
            if kind == 0 or not values:
                values.append(float(rng.choice([0.0, 1.0, -2.0, math.pi, -math.sqrt(2),
                                                math.sqrt(3), rng.uniform(-5, 5)])))
            elif kind == 1:  # repeated value
                values.append(values[int(rng.integers(0, len(values)))])
            elif kind == 2:  # exact small integer relation
                coeffs = rng.integers(-3, 4, size=len(values))
                values.append(float(sum(int(c) * v for c, v in zip(coeffs, values))))
            elif kind == 3:  # near PROBE_TOL
                base = values[int(rng.integers(0, len(values)))]
                values.append(base + float(rng.choice([5e-10, -5e-10, 1e-9, 2e-9])))
            else:
                values.append(float(rng.uniform(-10, 10)))
        yield values, int(rng.integers(0, max_bound[d] + 1))


def test_probe_matches_reference_loop(monkeypatch):
    inputs = list(seeded_probe_inputs(300))
    expected = [probe_reference(values, bound) for values, bound in inputs]
    assert sum(map(len, expected)) > 1000
    assert {len(values) for values, _ in inputs} == {1, 2, 3, 4}
    for chunk in (numtheory.PROBE_CHUNK, 37):  # 37: many chunk boundaries
        monkeypatch.setattr(numtheory, "PROBE_CHUNK", chunk)
        for (values, bound), want in zip(inputs, expected):
            assert float_relation_probe(values, bound) == want, (values, bound)


def test_probe_spans_chunks():
    # (2*10 + 1)^4 codes are more than one chunk; (1, 1, -1, 0) and its
    # multiples are the relations
    values = [1.0, math.sqrt(2), 1.0 + math.sqrt(2), math.pi]
    assert 21 ** 4 > numtheory.PROBE_CHUNK
    got = float_relation_probe(values, 10)
    assert got == probe_reference(values, 10)
    assert (1, 1, -1, 0) in got and (10, 10, -10, 0) in got


def test_probe_budget():
    with pytest.raises(DimensionTooLarge):
        float_relation_probe([0.0] * 12, 50)
    with pytest.raises(ValueError):
        float_relation_probe([1.0], 51)


# --- integer and mod-2 characteristic polynomials ----------------------------

def test_charpoly_against_sympy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        a = rng.integers(-5, 6, (n, n))
        mine = charpoly_int(a.tolist())
        t = sympy.symbols("t")
        oracle = sympy.Matrix(a.tolist()).charpoly(t).all_coeffs()
        assert mine == [int(c) for c in oracle]


def test_k7_rule_out_example():
    k7 = [[0 if i == j else 1 for j in range(7)] for i in range(7)]
    # integer charpoly oracle, then reduce: (t-6)(t+1)^6 mod 2 = t (t+1)^6
    t = sympy.symbols("t")
    oracle = sympy.Poly((t - 6) * (t + 1) ** 6, t).all_coeffs()
    mine = charpoly_int(k7)
    assert mine == [int(c) for c in oracle]
    lhs = charpoly_mod2(k7)
    assert lhs == [int(c) % 2 for c in oracle]
    roots = [0, 1, -1, 2, -2, 4, -4]
    rhs = charpoly_mod2([[r if i == j else 0 for j in range(7)]
                         for i, r in enumerate(roots)])
    # exact expansion oracle for the candidate roots
    expanded = sympy.Poly(sympy.prod([(t - r) for r in roots]), t).all_coeffs()
    assert rhs == [int(c) % 2 for c in expanded]
    assert lhs != rhs  # the case is ruled out


def test_poly_gcd_against_sympy_oracle():
    rng = np.random.default_rng(13)
    t = sympy.symbols("t")
    for _ in range(60):
        common, f, g = (rng.integers(-4, 5, int(rng.integers(1, 4))).tolist()
                        for _ in range(3))
        a = sympy.Poly(common, t) * sympy.Poly(f, t)
        b = sympy.Poly(common, t) * sympy.Poly(g, t)
        a, b = ([int(c) for c in p.all_coeffs()] if not p.is_zero else []
                for p in (a, b))
        mine = poly_gcd(a, b)
        oracle = sympy.gcd(sympy.Poly(a or [0], t), sympy.Poly(b or [0], t))
        if oracle.is_zero:
            assert mine == []
            continue
        want = [int(c) for c in oracle.primitive()[1].all_coeffs()]
        assert mine == want or mine == [-c for c in want]
    assert poly_gcd([0, 0], []) == []
    assert poly_gcd([2, 4], []) == [1, 2]
    assert len(poly_gcd([1, 0, -2], [2, 0])) == 1  # t^2 - 2 is square-free


def test_charpoly_mod2_requires_symmetry():
    with pytest.raises(ValueError):
        charpoly_mod2([[0, 1], [2, 0]])


def test_poly2_block_multiplicativity():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2, (3, 3))
    a = ((a + a.T) % 2).tolist()
    b = rng.integers(0, 2, (4, 4))
    b = ((b + b.T) % 2).tolist()
    blocks = [[0] * 7 for _ in range(7)]
    for i in range(3):
        for j in range(3):
            blocks[i][j] = a[i][j]
    for i in range(4):
        for j in range(4):
            blocks[3 + i][3 + j] = b[i][j]
    pa, pb = charpoly_mod2(a), charpoly_mod2(b)
    product = [0] * (len(pa) + len(pb) - 1)
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            product[i + j] = (product[i + j] + x * y) % 2
    assert charpoly_mod2(blocks) == product
