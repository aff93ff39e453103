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
    """Exact value rational + sum(coeff * sqrt(d)) + sum(coeff * symbol).

    Radical keys are normalized square-free integers > 1, so structural
    equality is exact equality ({1, sqrt(d1), sqrt(d2), ...} is Q-linearly
    independent for distinct square-free di).  Immutable and hashable.
    """

    __slots__ = ("_rat", "_rad", "_sym")

    def __init__(self, rational: Rational = 0, radicals=None, symbols=None):
        rat = Fraction(rational)
        rad: dict[int, Fraction] = {}
        for d, c in dict(radicals or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            s, k = square_free_part(int(d))
            if s == 1:
                rat += c * k
            else:
                rad[s] = rad.get(s, Fraction(0)) + c * k
        sym: dict[Transcendental, Fraction] = {}
        for t, c in dict(symbols or {}).items():
            c = Fraction(c)
            if c != 0:
                sym[t] = sym.get(t, Fraction(0)) + c
        self._rat = rat
        self._rad = tuple(sorted((d, c) for d, c in rad.items() if c))
        self._sym = tuple(sorted(((t, c) for t, c in sym.items() if c),
                                 key=lambda p: p[0].name))

    @classmethod
    def sqrt(cls, n: int, coeff: Rational = 1) -> "Surd":
        """coeff * sqrt(n) for a positive integer n, normalized square-free."""
        return cls(0, {n: coeff})

    @classmethod
    def symbol(cls, t: Transcendental, coeff: Rational = 1) -> "Surd":
        return cls(0, None, {t: coeff})

    @property
    def radical_terms(self) -> dict[int, Fraction]:
        return dict(self._rad)

    @property
    def has_symbols(self) -> bool:
        return bool(self._sym)

    def coefficients(self) -> dict[tuple, Fraction]:
        """Coefficient vector over the basis {1} | {sqrt(d)} | {symbols}."""
        out: dict[tuple, Fraction] = {}
        if self._rat:
            out[("rat",)] = self._rat
        for d, c in self._rad:
            out[("rad", d)] = c
        for t, c in self._sym:
            out[("sym", t.name)] = c
        return out

    def is_zero(self) -> bool:
        return not self._rat and not self._rad and not self._sym

    def __float__(self) -> float:
        x = float(self._rat)
        for d, c in self._rad:
            x += float(c) * math.sqrt(d)
        for t, c in self._sym:
            x += float(c) * t.value
        return x

    def __add__(self, other) -> "Surd":
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return Surd(self._rat + other._rat,
                    _merge(self._rad, other._rad),
                    _merge(self._sym, other._sym))

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self._rat,
                    {d: -c for d, c in self._rad},
                    {t: -c for t, c in self._sym})

    def __sub__(self, other) -> "Surd":
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Surd":
        return _as_surd(other) - self

    def __mul__(self, q) -> "Surd":
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        return Surd(self._rat * q,
                    {d: c * q for d, c in self._rad},
                    {t: c * q for t, c in self._sym})

    __rmul__ = __mul__

    def __truediv__(self, q) -> "Surd":
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(q))

    def __eq__(self, other) -> bool:
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._rat == other._rat and self._rad == other._rad
                and self._sym == other._sym)

    def __hash__(self):
        return hash((self._rat, self._rad, self._sym))

    def ratio(self, other: "Surd") -> Optional[Fraction]:
        """Return q with self == q * other, or None if no rational q exists.

        other must be nonzero."""
        other = _as_surd(other)
        if other.is_zero():
            raise ZeroDivisionError("ratio against zero")
        if self.is_zero():
            return Fraction(0)
        mine, theirs = self.coefficients(), other.coefficients()
        if set(mine) != set(theirs):
            return None
        key = next(iter(theirs))
        q = mine[key] / theirs[key]
        return q if all(mine[k] == q * theirs[k] for k in theirs) else None

    def __repr__(self) -> str:
        parts = []
        if self._rat or (not self._rad and not self._sym):
            parts.append(str(self._rat))
        for d, c in self._rad:
            parts.append(f"{c}*sqrt({d})")
        for t, c in self._sym:
            parts.append(f"{c}*{t.name}")
        return " + ".join(parts).replace("+ -", "- ")


def _as_surd(x) -> Surd:
    if isinstance(x, Surd):
        return x
    if isinstance(x, (int, Fraction)):
        return Surd(x)
    return NotImplemented


def _merge(a: Sequence[tuple], b: Sequence[tuple]) -> dict:
    out = dict(a)
    for k, c in b:
        out[k] = out.get(k, Fraction(0)) + c
    return out


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

    Clears denominators row-wise, then runs _echelon on [M^T | I]:
    unimodular row operations preserve the row lattice, so the
    identity-part of every row whose M^T-part vanishes is a kernel member,
    and together those rows form a basis of the full integer kernel (no
    finite-index defect).
    """
    cleared: list[list[int]] = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        if len(fr) != dim:
            raise ValueError("row length mismatch")
        den = math.lcm(*(f.denominator for f in fr)) if fr else 1
        ints = [int(f * den) for f in fr]
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
        rows = [list(g) for g in self.generators]
        pivots = _echelon(rows, dim)
        self._echelon = list(zip(rows, pivots))

    @property
    def rank(self) -> int:
        return len(self._echelon)

    def contains(self, vec: Sequence[int]) -> bool:
        v = [int(x) for x in vec]
        if len(v) != self.dim:
            return False
        for row, piv in self._echelon:
            if v[piv] == 0:
                continue
            q, r = divmod(v[piv], row[piv])
            if r:
                return False
            for j in range(self.dim):
                v[j] -= q * row[j]
        return not any(v)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def relation_lattice(values: Sequence[Surd]) -> RelationLattice:
    """Full integer relation lattice of a list of exact values.

    Rows of the coefficient matrix are the basis elements appearing in the
    inputs (1, each sqrt(d), each symbol); the kernel is computed exactly.
    """
    values = [_as_surd(v) for v in values]
    if not values:
        raise ValueError("need at least one value")
    keys = sorted({k for v in values for k in v.coefficients()})
    rows = [[v.coefficients().get(k, Fraction(0)) for v in values] for k in keys]
    return RelationLattice(integer_kernel(rows, len(values)), len(values))


def solve_congruences(rows: Iterable[tuple[Rational, Rational]]):
    """Solve c*x = d (mod 1) jointly for rational x, one rational pair
    (c, d) per row.

    A row with c != 0 allows the progression d/c + Z/|c|; a row with c == 0
    allows every x when d is an integer and none otherwise.  Progressions
    are intersected exactly by a gcd test.

    Returns ((offset, step), None) for the solutions offset + step*Z, with
    step None (and offset 0) when every x solves, or (None, i) for the
    first row inconsistent with the rows before it.  The first progression
    keeps its offset d/c as given; each intersection reduces the offset
    to [0, step).
    """
    offset, step = Fraction(0), None
    for i, (c, d) in enumerate(rows):
        c, d = Fraction(c), Fraction(d)
        if c == 0:
            if d.denominator != 1:
                return None, i
            continue
        o2, p2 = d / c, 1 / abs(c)
        if step is None:
            offset, step = o2, p2
            continue
        # offset + step*k == o2 + p2*j, scaled to integers a*k - b*j == gap
        den = math.lcm(step.denominator, p2.denominator, (o2 - offset).denominator)
        a, b, gap = int(step * den), int(p2 * den), int((o2 - offset) * den)
        x, _, g = xgcd(a, b)
        if gap % g:
            return None, i
        offset, step = offset + step * x * (gap // g), step * (b // g)
        offset %= step
    return (offset, step), None


_PROBE_BUDGET = 2_000_000
PROBE_TOL = 1e-9
# codes float_relation_probe enumerates at once: 64 KB per array stays in
# cache, and larger chunks were slower and raised the battery's peak RSS
PROBE_CHUNK = 1 << 13


def float_relation_probe(values: Sequence[float], bound: int) -> list[tuple[int, ...]]:
    """Exhaustive search for integer vectors l, |l|_inf <= bound, with
    |sum l_r v_r| <= PROBE_TOL.  Advisory only -- float evidence, never a proof.

    Vectors are canonicalized so their first nonzero entry is positive, and
    returned in the order of their codes sum_r (l_r + bound)*(2*bound + 1)**r.
    The codes are enumerated PROBE_CHUNK at a time; each sum is accumulated
    left to right from 0.0, so it is the float Python's sum() gives.
    """
    if bound > 50:
        raise ValueError("bound must be <= 50")
    d = len(values)
    if d * math.log(2 * bound + 1) > math.log(_PROBE_BUDGET):
        raise DimensionTooLarge(
            f"(2*{bound}+1)^{d} exceeds the enumeration budget")
    out = []
    radix = 2 * bound + 1
    total = radix ** d
    for start in range(0, total, PROBE_CHUNK):
        rest = np.arange(start, min(start + PROBE_CHUNK, total))
        acc = np.zeros(len(rest))
        first = np.zeros(len(rest), dtype=rest.dtype)  # first nonzero entry
        for v in values:
            digit = rest % radix - bound
            rest //= radix
            acc += digit * v
            first = np.where(first == 0, digit, first)
        hits = np.flatnonzero((first > 0) & (np.abs(acc) <= PROBE_TOL))
        for code in (start + hits).tolist():
            vec = []
            for _ in range(d):
                vec.append(code % radix - bound)
                code //= radix
            out.append(tuple(vec))
    return out


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
