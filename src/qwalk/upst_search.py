"""Classification machinery for universal perfect state transfer in oriented
graphs: spectral gap bounds, necessary-condition checks, exhaustive
orientation search for small vertex counts, candidate integer spectra from
the trace equation, and mod-2 characteristic polynomial rule-outs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .constructions import OrientedGraph
from .numtheory import (Surd, charpoly_int, charpoly_mod2, poly_gcd,
                        square_free_part)
from .transfer import check_periodicity


@dataclass
class UPSTReport:
    n: int
    k: int
    underlying: str
    verdict: str  # ruled-out-bounds | ruled-out-spectrum | ruled-out-charpoly
    #             | ruled-out-exhaustive | survives
    witness: dict = field(default_factory=dict)

    def to_json_line(self) -> str:
        return json.dumps({"n": self.n, "k": self.k,
                           "underlying": self.underlying,
                           "verdict": self.verdict,
                           "witness": self.witness}, sort_keys=True)


def sigma_bound_filter(n: int, edges: Optional[int] = None) -> dict:
    """Feasibility of the minimum-gap bound: universal transfer on an
    oriented graph needs sigma^2 >= 1, while sigma^2*n*(n^2-1)/24 <= edges
    (and hence sigma^2 <= 12/(n+1) at the maximum edge count).  Exact."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if edges is None:
        edges = n * (n - 1) // 2
    sigma_sq_max = Fraction(24 * edges, n * (n * n - 1))
    return {"passes": sigma_sq_max >= 1, "sigma_sq_max": sigma_sq_max}


@dataclass
class NecessaryConditions:
    simple: bool
    flat: bool
    periodic: bool
    integer_grid: Optional[bool] = None  # theta_r in Z*sqrt(Delta)
    delta: Optional[int] = None
    grid_coeffs: Optional[tuple[int, ...]] = None
    failure: Optional[str] = None

    @property
    def all_pass(self) -> bool:
        return (self.simple and self.flat and self.periodic
                and self.integer_grid is not False)


def upst_necessary_conditions(graph: OrientedGraph) -> NecessaryConditions:
    """Checklist of necessary conditions for universal perfect state
    transfer on an oriented graph, each decided in integer arithmetic from
    the skew matrix S (H = iS): simple spectrum, flat eigenvectors
    (|entry| = 1/sqrt(n)), eigenvalues in an integer sqrt(Delta) grid, and
    periodicity of every vertex via the exact ratio condition.

    det(yI - S) has vanishing odd-offset coefficients c_1, c_3, ..., so
    det(xI - H) = sum_k (-1)^k c_2k x^(n-2k) = x^(n mod 2) q(x^2): the
    eigenvalues come in pairs +-theta, and q has the roots theta^2."""
    n = graph.n
    s = [[0] * n for _ in range(n)]
    for a, b in graph.arcs:
        s[a][b], s[b][a] = 1, -1
    c = charpoly_int(s)
    q = [(-1) ** k * c[2 * k] for k in range(n // 2 + 1)]
    # simple: no repeated theta^2 and no theta = 0 pair, i.e. q square-free
    # with q(0) != 0
    derivative = [(len(q) - 1 - i) * x for i, x in enumerate(q[:-1])]
    if q[-1] == 0 or len(poly_gcd(q, derivative)) > 1:
        return NecessaryConditions(False, False, False,
                                   failure="degenerate spectrum")
    # with a simple spectrum each E_r is a polynomial in H of degree < n, so
    # E_r[v, v] = 1/n for all v iff (S^k)[v, v] is the same at every vertex
    # for k < n (walk-regularity); odd powers of S have a zero diagonal, and
    # (S^2j)[v, v] = (-1)^j |row v of S^j|^2 since S is skew
    walks, columns = s, list(zip(*s))
    for k in range(2, n, 2):
        if k > 2:
            walks = [[sum(x * y for x, y in zip(row, col)) for col in columns]
                     for row in walks]
        norms = [sum(x * x for x in row) for row in walks]
        if norms.count(norms[0]) != n:
            return NecessaryConditions(True, False, False,
                                       failure="eigenvectors not flat")
    # every theta^2 is at most (max degree)^2, the spectral radius bound
    bound = max((sum(map(abs, row)) for row in s), default=0) ** 2
    roots = [y for y in range(bound + 1) if _horner(q, y) == 0]
    grid = _sqrt_grid(roots, n) if len(roots) == len(q) - 1 else None
    if grid is None:
        return NecessaryConditions(True, True, False, integer_grid=False,
                                   failure="spectrum not in Z*sqrt(Delta)")
    delta, zs = grid
    periodic, _ = check_periodicity([Surd.sqrt(delta, z) for z in zs])
    if not periodic:
        return NecessaryConditions(True, True, False, integer_grid=True,
                                   delta=delta, grid_coeffs=zs,
                                   failure="ratio condition fails")
    return NecessaryConditions(True, True, True, integer_grid=True,
                               delta=delta, grid_coeffs=zs)


def _horner(coeffs: Sequence[int], y: int) -> int:
    value = 0
    for c in coeffs:
        value = value * y + c
    return value


def _sqrt_grid(squares: Sequence[int], n: int
               ) -> Optional[tuple[int, tuple[int, ...]]]:
    """(Delta, ascending z) with theta = z*sqrt(Delta) over the spectrum
    whose nonzero squares are `squares` (plus theta = 0 for odd n), Delta
    the square-free part of their gcd; None when some theta^2/Delta is not
    a perfect square."""
    g = math.gcd(*squares)
    delta = square_free_part(g)[0] if g else 1
    zs = []
    for y in squares:
        z = math.isqrt(y // delta)
        if z * z * delta != y:
            return None
        zs.append(z)
    return delta, tuple(sorted([-z for z in zs] + [0] * (n % 2) + zs))


# ---------------------------------------------------------------------------
# Exhaustive orientation search (n <= 5)
# ---------------------------------------------------------------------------

def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def regular_underlying_graphs(n: int) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """The connected regular graphs feeding the exhaustive search: C_n and
    K_n (identical at n = 3)."""
    if n == 3:
        return [("K3", 2, _complete_edges(3))]
    if n in (4, 5):
        return [(f"C{n}", 2, _cycle_edges(n)),
                (f"K{n}", n - 1, _complete_edges(n))]
    raise ValueError("exhaustive enumeration is defined for n in {3, 4, 5}")


def orientations(edges: Sequence[tuple[int, int]], n: int) -> Iterator[tuple[int, OrientedGraph]]:
    for mask in range(1 << len(edges)):
        arcs = set()
        for bit, (a, b) in enumerate(edges):
            arcs.add((a, b) if (mask >> bit) & 1 == 0 else (b, a))
        yield mask, OrientedGraph(n, frozenset(arcs))


def exhaustive_rule_out(n: int) -> list[UPSTReport]:
    """Check every orientation of every regular graph on n vertices against
    the necessary conditions; records which condition failed per case."""
    reports = []
    for name, k, edges in regular_underlying_graphs(n):
        for mask, graph in orientations(edges, n):
            checks = upst_necessary_conditions(graph)
            verdict = "survives" if checks.all_pass else "ruled-out-exhaustive"
            witness = {"orientation_mask": mask}
            if checks.failure:
                witness["failed_condition"] = checks.failure
            elif checks.delta is not None:
                witness["delta"] = checks.delta
                witness["grid"] = list(checks.grid_coeffs)
            reports.append(UPSTReport(n, k, name, verdict, witness))
    return reports


# ---------------------------------------------------------------------------
# Trace-equation spectrum candidates for 6 <= n <= 11
# ---------------------------------------------------------------------------

def nk_table() -> dict[int, list[int]]:
    """Feasible regularity degrees: (n^2-1)/12 <= k <= n-1, with k even
    when n is odd."""
    table = {}
    for n in range(6, 12):
        lo = (n * n - 1 + 11) // 12  # ceil((n^2-1)/12)
        ks = [k for k in range(lo, n)
              if not (n % 2 == 1 and k % 2 == 1)]
        table[n] = ks
    return table


def spectrum_candidates(n: int, k: int) -> list[tuple[int, ...]]:
    """Symmetric integer spectra 0?, +-theta_1 < ... < +-theta_p with unit
    minimum gap satisfying the trace equation n*k = 2*sum theta_r^2."""
    table = nk_table()
    if n not in table or k not in table[n]:
        raise ValueError(f"(n={n}, k={k}) is outside the feasible table")
    p = n // 2
    with_zero = n % 2 == 1
    target = n * k
    out = []
    for combo in _increasing_tuples(p, 1 if with_zero else 1, n):
        if 2 * sum(t * t for t in combo) != target:
            continue
        spectrum = ((0,) if with_zero else ()) + combo
        full = sorted({*(t for t in spectrum), *(-t for t in spectrum)})
        min_gap = min(b - a for a, b in zip(full, full[1:]))
        if min_gap != 1:
            continue
        out.append(spectrum)
    return out


def _increasing_tuples(size: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    if size == 0:
        yield ()
        return
    for first in range(lo, hi + 1):
        for rest in _increasing_tuples(size - 1, first + 1, hi):
            yield (first,) + rest


def complement_c7_adjacency() -> list[list[int]]:
    n = 7
    return [[1 if i != j and (i - j) % n not in (1, n - 1) else 0
             for j in range(n)] for i in range(n)]


def complete_adjacency(n: int) -> list[list[int]]:
    return [[0 if i == j else 1 for j in range(n)] for i in range(n)]


_NAMED_ADJACENCY = {
    "K7": lambda: complete_adjacency(7),
    "K11": lambda: complete_adjacency(11),
    "C7bar": complement_c7_adjacency,
}


def charpoly_rule_out(underlying: str, spectrum: Sequence[int]) -> bool:
    """True when the mod-2 characteristic polynomial of the underlying graph
    differs from the one of the diagonal matrix of the candidate roots,
    ruling the case out."""
    if underlying not in _NAMED_ADJACENCY:
        raise ValueError(f"unknown underlying graph {underlying!r}; "
                         f"expected one of {sorted(_NAMED_ADJACENCY)}")
    adjacency = _NAMED_ADJACENCY[underlying]()
    roots = sorted({*(int(t) for t in spectrum), *(-int(t) for t in spectrum)})
    diagonal = [[r if i == j else 0 for j in range(len(roots))]
                for i, r in enumerate(roots)]
    return charpoly_mod2(adjacency) != charpoly_mod2(diagonal)


_UNDERLYING_BY_NK = {(11, 10): "K11", (7, 6): "K7", (7, 4): "C7bar"}


def classify_large(n: int) -> list[UPSTReport]:
    """The 6 <= n <= 11 pipeline: trace-equation candidates per feasible k,
    then the mod-2 characteristic polynomial comparison."""
    reports = []
    for k in nk_table().get(n, []):
        candidates = spectrum_candidates(n, k)
        if not candidates:
            reports.append(UPSTReport(n, k, "any", "ruled-out-spectrum",
                                      {"reason": "trace equation has no "
                                       "integral solution"}))
            continue
        name = _UNDERLYING_BY_NK.get((n, k), "unknown")
        for spectrum in candidates:
            ruled = name != "unknown" and charpoly_rule_out(name, spectrum)
            verdict = "ruled-out-charpoly" if ruled else "survives"
            reports.append(UPSTReport(n, k, name, verdict,
                                      {"spectrum": list(spectrum)}))
    return reports


def classify_all(n: int) -> list[UPSTReport]:
    """Full pipeline for a single n: bounds, exhaustive search, or the
    trace/charpoly route, as appropriate."""
    if n < 2:
        raise ValueError("n must be at least 2")
    gate = sigma_bound_filter(n)
    if not gate["passes"]:
        return [UPSTReport(n, n - 1, f"K{n}", "ruled-out-bounds",
                           {"sigma_sq_max": str(gate["sigma_sq_max"])})]
    if n == 2:
        return [UPSTReport(2, 1, "K2", "survives", {})]
    if n in (3, 4, 5):
        return exhaustive_rule_out(n)
    return classify_large(n)
