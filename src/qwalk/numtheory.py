"""Exact arithmetic for quadratic surds, integer relation lattices, linear
congruences over the rationals, and integer characteristic polynomials
(with their gcds over the rationals and reductions over GF(2)).

Values of the form q0 + sum qi*sqrt(di) (qi rational, di square-free) carry
the spectra of every construction in this package exactly.  Transcendental
parameters (pi, loop weights, ...) ride along as named symbols assumed
Q-linearly independent of the radicals and of each other; that assumption
is the caller's to make and is recorded wherever it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Rational = Union[int, Fraction]


class DimensionTooLarge(ValueError):
    """Exhaustive relation probe would exceed its enumeration budget."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def square_free_part(n: int) -> tuple[int, int]:
    """Decompose n = s * k**2 with s square-free.  Trial division; n >= 1."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    s, k = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    return s * n, k


@dataclass(frozen=True)
class Transcendental:
    """A named real number assumed transcendental (or at least irrational and
    Q-independent from every radical and other symbol in play)."""

    name: str
    value: float

    def __repr__(self) -> str:
        return self.name


PI = Transcendental("pi", math.pi)


class Surd:
    """Exact value sum(coeff * basis) over the basis 1, sqrt(d) for
    square-free d > 1, and Transcendental symbols.

    Held as one tuple of (basis, coefficient) terms with no zero
    coefficient, ordered 1, radicals by d, symbols by name (the order
    float() sums in).  The basis is Q-linearly independent (for symbols by
    assumption), so structural equality is exact equality.  Immutable and
    hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, rational: Rational = 0, radicals=None, symbols=None):
        terms: dict = {1: Fraction(rational)}
        for d, c in dict(radicals or {}).items():
            c = Fraction(c)
            if c:
                s, k = square_free_part(int(d))
                terms[s] = terms.get(s, 0) + c * k
        for t, c in dict(symbols or {}).items():
            terms[t] = terms.get(t, 0) + Fraction(c)
        self._terms = _sorted_terms(terms)

    @classmethod
    def _from_terms(cls, terms: tuple) -> "Surd":
        """The Surd of terms already in canonical form."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def sqrt(cls, n: int, coeff: Rational = 1) -> "Surd":
        """coeff * sqrt(n) for a positive integer n, normalized square-free."""
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        if not coeff:
            return cls._from_terms(())
        s, k = square_free_part(int(n))
        return cls._from_terms(((s, coeff * k),))

    @classmethod
    def symbol(cls, t: Transcendental, coeff: Rational = 1) -> "Surd":
        return cls(0, None, {t: coeff})

    @property
    def radical_terms(self) -> dict[int, Fraction]:
        return {b: c for b, c in self._terms
                if not isinstance(b, Transcendental) and b != 1}

    @property
    def has_symbols(self) -> bool:
        return bool(self._terms) and isinstance(self._terms[-1][0], Transcendental)

    def is_zero(self) -> bool:
        return not self._terms

    def __float__(self) -> float:
        x = 0.0
        for b, c in self._terms:
            x += float(c) * (b.value if isinstance(b, Transcendental)
                             else math.sqrt(b))
        return x

    def __add__(self, other) -> "Surd":
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return Surd._from_terms(_merge_terms(self._terms, other._terms, False))

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd._from_terms(tuple((b, -c) for b, c in self._terms))

    def __sub__(self, other) -> "Surd":
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return Surd._from_terms(_merge_terms(self._terms, other._terms, True))

    def __rsub__(self, other) -> "Surd":
        return _as_surd(other) - self

    def __mul__(self, q) -> "Surd":
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        terms = tuple((b, c * q) for b, c in self._terms) if q else ()
        return Surd._from_terms(terms)

    __rmul__ = __mul__

    def __truediv__(self, q) -> "Surd":
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(q))

    def __eq__(self, other) -> bool:
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def ratio(self, other: "Surd") -> Optional[Fraction]:
        """Return q with self == q * other, or None if no rational q exists.

        other must be nonzero."""
        other = _as_surd(other)
        if other.is_zero():
            raise ZeroDivisionError("ratio against zero")
        if self.is_zero():
            return Fraction(0)
        mine, theirs = self._terms, other._terms
        if [b for b, _ in mine] != [b for b, _ in theirs]:
            return None
        q = mine[0][1] / theirs[0][1]
        return q if all(c == q * d for (_, c), (_, d) in zip(mine, theirs)) else None

    def __repr__(self) -> str:
        parts = []
        for b, c in self._terms:
            if isinstance(b, Transcendental):
                parts.append(f"{c}*{b.name}")
            else:
                parts.append(str(c) if b == 1 else f"{c}*sqrt({b})")
        return " + ".join(parts or ["0"]).replace("+ -", "- ")


def _sorted_terms(terms: dict) -> tuple:
    """The canonical term tuple of a basis -> coefficient map: zero
    coefficients dropped, ordered 1, radicals by d, symbols by name."""
    return tuple(sorted(((b, c) for b, c in terms.items() if c),
                        key=lambda term: _basis_order(term[0])))


def _basis_order(b) -> tuple:
    return (1, b.name) if isinstance(b, Transcendental) else (0, b)


def _merge_terms(xs: tuple, ys: tuple, subtract: bool) -> tuple:
    """The canonical term tuple of xs + ys (xs - ys when subtract), both
    canonical, merged in one ordered pass."""
    if not ys:
        return xs
    if not xs and not subtract:
        return ys
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        bx, cx = xs[i]
        by, cy = ys[j]
        if bx == by:
            c = cx - cy if subtract else cx + cy
            if c:
                out.append((bx, c))
            i += 1
            j += 1
        elif _basis_order(bx) <= _basis_order(by):
            out.append(xs[i])
            i += 1
        else:
            out.append((by, -cy) if subtract else ys[j])
            j += 1
    out.extend(xs[i:])
    out.extend(((b, -c) for b, c in ys[j:]) if subtract else ys[j:])
    return tuple(out)


def _as_surd(x) -> Surd:
    if isinstance(x, Surd):
        return x
    if isinstance(x, (int, Fraction)):
        return Surd(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# Integer elimination, relation lattices and linear congruences
# ---------------------------------------------------------------------------

def _echelon(rows: list[list[int]], columns: int) -> list[int]:
    """Fraction-free row echelon form of the first `columns` columns, in
    place, by unimodular row operations (which keep the row lattice).

    For each column in turn, the first row at or below the frontier with a
    nonzero entry is swapped up and every later row is cleared in that
    column by an extended-gcd pair operation.  Returns the pivot columns;
    rows[k] is the pivot row of the k-th one, and the rows after the last
    pivot row vanish on the eliminated columns.
    """
    pivots: list[int] = []
    for c in range(columns):
        frontier = len(pivots)
        piv = next((i for i in range(frontier, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[frontier], rows[piv] = rows[piv], rows[frontier]
        top = rows[frontier]
        for bot in rows[frontier + 1:]:
            if not bot[c]:
                continue
            x, y, g = xgcd(top[c], bot[c])
            ag, bg = top[c] // g, bot[c] // g
            for j in range(c, len(top)):
                t, u = top[j], bot[j]
                top[j] = x * t + y * u
                bot[j] = -bg * t + ag * u
        pivots.append(c)
    return pivots


def integer_kernel(rows: Sequence[Sequence[Rational]], dim: int) -> list[list[int]]:
    """Saturated basis of {x in Z^dim : M x = 0} for a rational matrix M.

    Entries are ints or Fractions.  Clears denominators row-wise (each
    entry x becomes its numerator times den // x.denominator, with den the
    row's lcm denominator), then runs _echelon on [M^T | I]: unimodular
    row operations preserve the row lattice, so the identity-part of every
    row whose M^T-part vanishes is a kernel member, and together those rows
    form a basis of the full integer kernel (no finite-index defect).
    """
    cleared: list[list[int]] = []
    for row in rows:
        if len(row) != dim:
            raise ValueError("row length mismatch")
        den = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        if any(ints):
            cleared.append(ints)
    b = len(cleared)
    # work rows: [column j of M | e_j]
    work = [[cleared[i][j] for i in range(b)] + [int(jj == j) for jj in range(dim)]
            for j in range(dim)]
    rank = len(_echelon(work, b))
    return [_canonical_sign(row[b:]) for row in work[rank:]]


def _canonical_sign(v: list[int]) -> list[int]:
    lead = next((x for x in v if x), 0)
    return [-x for x in v] if lead < 0 else list(v)


class RelationLattice:
    """Basis of {l in Z^d : sum l_r * values_r == 0}."""

    def __init__(self, generators: Iterable[Sequence[int]], dim: int):
        self.dim = dim
        self.generators = [list(map(int, g)) for g in generators]
        for g in self.generators:
            if len(g) != dim:
                raise ValueError("generator length mismatch")
        self._reduced = None  # (row, pivot) pairs, echelonned on first use

    def _basis(self) -> list[tuple[list[int], int]]:
        if self._reduced is None:
            rows = [list(g) for g in self.generators]
            self._reduced = list(zip(rows, _echelon(rows, self.dim)))
        return self._reduced

    @property
    def rank(self) -> int:
        return len(self._basis())

    def contains(self, vec: Sequence[int]) -> bool:
        v = [int(x) for x in vec]
        if len(v) != self.dim:
            return False
        for row, piv in self._basis():
            if v[piv] == 0:
                continue
            q, r = divmod(v[piv], row[piv])
            if r:
                return False
            for j in range(self.dim):
                v[j] -= q * row[j]
        return not any(v)


def relation_lattice(values: Sequence[Surd]) -> RelationLattice:
    """Full integer relation lattice of a list of exact values.

    Rows of the coefficient matrix are the basis elements appearing in the
    inputs (1, each sqrt(d), each symbol); the kernel is computed exactly.
    """
    values = [_as_surd(v) for v in values]
    if not values:
        raise ValueError("need at least one value")
    coeffs = [dict(v._terms) for v in values]
    bases = sorted({b for c in coeffs for b in c}, key=_row_order)
    rows = [[c.get(b, 0) for c in coeffs] for b in bases]
    return RelationLattice(integer_kernel(rows, len(values)), len(values))


def _row_order(basis) -> tuple:
    """relation_lattice's row order, which fixes its generators: radicals by
    d, then the rational basis 1, then symbols by name."""
    if isinstance(basis, Transcendental):
        return (2, basis.name)
    return (basis == 1, basis)


def solve_congruences(rows: Iterable[tuple[Rational, Rational]]):
    """Solve c*x = d (mod 1) jointly for rational x, one pair (c, d) of
    ints or Fractions per row.

    A row with c != 0 allows the progression d/c + Z/|c|; a row with c == 0
    allows every x when d is an integer and none otherwise.  Progressions
    are intersected exactly by a gcd test.  The solution set is carried as
    integers, num/den + Z*sn/den over one common denominator, and made into
    Fractions only on return.

    Returns ((offset, step), None) for the solutions offset + step*Z, with
    step None (and offset 0) when every x solves, or (None, i) for the
    first row inconsistent with the rows before it.  The first progression
    keeps its offset d/c as given; each intersection reduces the offset
    to [0, step).
    """
    num, sn, den = 0, None, 1
    for i, (c, d) in enumerate(rows):
        cn, cd, dn, dd = c.numerator, c.denominator, d.numerator, d.denominator
        if not cn:
            if dd != 1:
                return None, i
            continue
        # d/c + Z/|c| over the denominator dd*|cn|
        n2, s2, den2 = dn * cd, cd * dd, dd * cn
        if den2 < 0:
            n2, den2 = -n2, -den2
        if sn is None:
            num, sn, den = n2, s2, den2
            continue
        # num/den + sn/den*k == n2/den2 + s2/den2*j, scaled to integers
        # a*k - b*j == gap over the common denominator
        lcd = math.lcm(den, den2)
        fa, fb = lcd // den, lcd // den2
        a, b, gap = sn * fa, s2 * fb, n2 * fb - num * fa
        x, _, g = xgcd(a, b)
        if gap % g:
            return None, i
        sn = a * (b // g)
        num, den = (num * fa + a * x * (gap // g)) % sn, lcd
        common = math.gcd(num, sn, den)
        num, sn, den = num // common, sn // common, den // common
    if sn is None:
        return (Fraction(0), None), None
    return (Fraction(num, den), Fraction(sn, den)), None


_PROBE_BUDGET = 2_000_000
PROBE_TOL = 1e-9


def float_relation_probe(values: Sequence[float], bound: int) -> list[tuple[int, ...]]:
    """Exhaustive search for integer vectors l, |l|_inf <= bound, with
    |sum l_r v_r| <= PROBE_TOL.  Advisory only -- float evidence, never a proof.

    Vectors are canonicalized so their first nonzero entry is positive, and
    returned in the order of their codes sum_r (l_r + bound)*(2*bound + 1)**r.
    Each sum is accumulated left to right from 0.0, so it is the float
    Python's sum() gives, and the result is exactly that of testing every
    code.

    Meet in the middle: the sums s_lo over the first ceil(d/2) values and
    s_hi over the rest are tabled, and searchsorted on the sorted s_hi table
    pairs each s_lo with the s_hi in [-s_lo - w, -s_lo + w], w = PROBE_TOL
    + slack.  Only those candidates are summed left to right and tested.
    No hit is lost: with M = bound * sum_r |v_r| and gamma_d = u*d/(1 - u*d),
    u = eps/2, the left-to-right sum and s_lo + s_hi each lie within
    gamma_d*M of the exact sum, so they differ by at most 2*gamma_d*M
    (about d*eps*M), and slack = 4*d*eps*(M + PROBE_TOL) also covers the
    rounding of the window ends and of slack itself, and underflow.  When
    2*M is not finite (an inf or nan value, or one near overflow), every
    code is a candidate.
    """
    if not 0 <= bound <= 50:
        raise ValueError(f"bound {bound} is outside 0..50")
    d = len(values)
    if d * math.log(2 * bound + 1) > math.log(_PROBE_BUDGET):
        raise DimensionTooLarge(
            f"(2*{bound}+1)^{d} exceeds the enumeration budget")
    radix = 2 * bound + 1
    floats = [float(v) for v in values]
    scale = bound * sum(abs(v) for v in floats)
    if math.isfinite(2 * scale):
        width = PROBE_TOL + 4 * d * np.finfo(float).eps * (scale + PROBE_TOL)
        half = (d + 1) // 2
        lo_sum, _ = _left_to_right_sums(np.arange(radix ** half), floats[:half],
                                        radix, bound)
        hi_sum, _ = _left_to_right_sums(np.arange(radix ** (d - half)), floats[half:],
                                        radix, bound)
        order = np.argsort(hi_sum)
        hi_sorted = hi_sum[order]
        start = np.searchsorted(hi_sorted, -lo_sum - width, "left")
        count = np.searchsorted(hi_sorted, -lo_sum + width, "right") - start
        lo = np.repeat(np.arange(len(lo_sum)), count)
        # position of each pair in its lo code's run of the sorted table
        pos = np.arange(len(lo)) - np.repeat(np.cumsum(count) - count, count) + start[lo]
        codes = np.sort(lo + order[pos] * radix ** half)
    else:
        codes = np.arange(radix ** d)
    acc, first = _left_to_right_sums(codes, values, radix, bound)
    hits = codes[(first > 0) & (np.abs(acc) <= PROBE_TOL)]
    vecs = []
    for _ in range(d):
        vecs.append(hits % radix - bound)
        hits = hits // radix
    return list(zip(*(v.tolist() for v in vecs)))


def _left_to_right_sums(codes: np.ndarray, values: Sequence[float], radix: int,
                        bound: int) -> tuple[np.ndarray, np.ndarray]:
    """For each code, sum_r l_r v_r accumulated left to right from 0.0 over
    its digits l_r = (code // radix**r) % radix - bound, and its first
    nonzero digit (0 for the zero vector)."""
    rest = codes
    acc = np.zeros(len(codes))
    first = np.zeros(len(codes), dtype=codes.dtype)
    for v in values:
        digit = rest % radix - bound
        rest = rest // radix
        acc += digit * v
        first = np.where(first == 0, digit, first)
    return acc, first


# ---------------------------------------------------------------------------
# Integer characteristic polynomials
# ---------------------------------------------------------------------------

def charpoly_int(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Integer coefficients of det(tI - A), descending, via the
    division-free Berkowitz recursion."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return [1]
    coeffs = [1, -a[0][0]]
    for m in range(1, n):
        # the leading m x m block A, the row R and column C beside it, and
        # the next diagonal entry d: the Toeplitz column (1, -d, -RC, -RAC,
        # ..., -RA^(m-1)C) times the block's coefficients
        top = [row[:m] for row in a[:m]]
        row_m = a[m][:m]
        w = [row[m] for row in a[:m]]
        vec = [1, -a[m][m], -sum(x * y for x, y in zip(row_m, w))]
        for _ in range(m - 1):
            w = [sum(x * y for x, y in zip(row, w)) for row in top]
            vec.append(-sum(x * y for x, y in zip(row_m, w)))
        coeffs = [sum(vec[i - j] * coeffs[j] for j in range(min(i, m) + 1))
                  for i in range(m + 2)]
    return coeffs


def _primitive(p: list[int]) -> list[int]:
    """p with leading zeros stripped and its content divided out."""
    start = 0
    while start < len(p) and p[start] == 0:
        start += 1
    p = p[start:]
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """gcd over Q of two integer polynomials (coefficients descending), as a
    primitive integer polynomial; [] when both are zero.  Euclid on
    pseudo-remainders, dividing out the content at every step."""
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        lead, r = b[0], a
        while len(r) >= len(b):
            c = r[0]
            r = [lead * x - c * y for x, y in
                 zip(r, b + [0] * (len(r) - len(b)))][1:]
            r = _primitive(r)
        a, b = b, r
    return a


def charpoly_mod2(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Characteristic polynomial of a symmetric integer matrix reduced
    mod 2: the coefficients of charpoly_int, descending, each 0 or 1."""
    rows = [list(r) for r in matrix]
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row[j] != rows[j][i]:
                raise ValueError("adjacency matrix must be symmetric")
    return [c % 2 for c in charpoly_int(rows)]
