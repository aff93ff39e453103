"""Closed-form classification of pretty good state transfer between the
non-pendant vertices of the oriented triangle rooted with m-stars, plus the
exact eigenvalue-support data feeding the generic Kronecker checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numtheory import Rational, Surd


@dataclass(frozen=True)
class StarVerdict:
    m: int
    case: str  # coprime | non-square-s | 27k^2 | 27k^2+27k+6 | none
    pgst: bool
    s: Optional[int] = None
    h: Optional[int] = None
    k: Optional[int] = None

    def csv_row(self) -> str:
        def fmt(x):
            return "" if x is None else str(x)
        return f"{self.m},{self.case},{str(self.pgst).lower()}," \
               f"{fmt(self.s)},{fmt(self.h)},{fmt(self.k)}"


def _is_square(x: int) -> Optional[int]:
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


def classify_star_m(m: int) -> StarVerdict:
    """Decide pretty good state transfer for the m-star rooted triangle by
    exact integer arithmetic.

    Transfer holds iff gcd(3, m) = 1; or m = 3s with neither s nor 4s+1
    square; or m = 27k^2; or m = 27k^2 + 27k + 6.  The square cases are
    only reachable once the generic m = 3s case fails."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if math.gcd(3, m) == 1:
        return StarVerdict(m, "coprime", True)
    s = m // 3
    hs = _is_square(s)
    hq = _is_square(4 * s + 1)
    if hs is None and hq is None:
        return StarVerdict(m, "non-square-s", True, s=s)
    if hs is not None:
        # m = 3h^2: transfer iff 3 | h, i.e. m = 27k^2
        if hs % 3 == 0:
            return StarVerdict(m, "27k^2", True, s=s, h=hs, k=hs // 3)
        return StarVerdict(m, "none", False, s=s, h=hs)
    # 4s+1 = h^2: transfer iff 3 | h, i.e. m = 27k^2 + 27k + 6
    assert hq is not None
    if hq % 3 == 0:
        k = (hq // 3 - 1) // 2
        return StarVerdict(m, "27k^2+27k+6", True, s=s, h=hq, k=k)
    return StarVerdict(m, "none", False, s=s, h=hq)


def star_pair(d: int, c: Rational, m: int) -> tuple[Surd, Surd]:
    """The eigenvalues (theta +/- sqrt(theta^2 + 4m))/2 that a base
    eigenvalue theta = c*sqrt(d) gives the m-star rooted product."""
    c = Fraction(c)
    half_root = Surd.sqrt(c.numerator ** 2 * d + 4 * m * c.denominator ** 2,
                          Fraction(1, 2 * c.denominator))
    half = Surd.sqrt(d, c / 2)
    return half + half_root, half - half_root


def star_support_surds(m: int) -> tuple[list[Surd], list[Fraction]]:
    """Exact eigenvalue support of a non-pendant vertex in the m-star rooted
    triangle, with the quarrels as fractions of a full turn.

    The six support values are the star pairs of the triangle's
    eigenvalues c*sqrt(3), c = 0, 1, -1: +-sqrt(m) and
    (+-sqrt(3) +- sqrt(3+4m))/2; the quarrels between consecutive
    non-pendant vertices are 0, 0, 1/3, 1/3, -1/3, -1/3 turns."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    values = [lam for c in (0, 1, -1) for lam in star_pair(3, c, m)]
    third = Fraction(1, 3)
    turns = [Fraction(0), Fraction(0), third, third,
             (-third) % 1, (-third) % 1]
    return values, turns


CSV_HEADER = "m,case,pgst,s,h,k"
