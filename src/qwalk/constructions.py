"""Builders for every graph family in scope: oriented graphs and their
Hermitian matrices, bipartition-oriented hypercubes, the 4-cycle tensor
family with multiple PST, universal-transfer circulants, rooted star and
looped-path products, and the one-way-PST matrix families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .linalg import (HermitianMatrix, SpectralDecomposition,
                     hermitian_from_entries, kron, spectral_decomposition)
from .numtheory import (PI, RelationLattice, Surd, Transcendental,
                        integer_kernel)
from .star import star_support_surds

TWO_PI = 2 * math.pi
ODD_INTEGER_TOL = 1e-8  # c4_tensor_construction's base spectrum check


class SpectrumNotOddInteger(ValueError):
    pass


class NonCoprime(ValueError):
    pass


class DuplicateEigenvalue(ValueError):
    pass


class BadFamilyParameters(ValueError):
    """build_family got an unknown name or parameters it cannot use."""


class AssemblyMismatch(RuntimeError):
    pass


class NonHermitianResult(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Oriented graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientedGraph:
    """Digraph with at most one arc per vertex pair and no loops."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "arcs", frozenset(map(tuple, self.arcs)))
        for a, b in self.arcs:
            if a == b:
                raise ValueError(f"self-arc at vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"arc ({a}, {b}) out of range")
            if (b, a) in self.arcs:
                raise ValueError(f"anti-parallel arcs between {a} and {b}")


def oriented_to_hermitian(g: OrientedGraph) -> HermitianMatrix:
    """H[a, b] = i for an arc a -> b, -i for b -> a, 0 otherwise."""
    h = np.zeros((g.n, g.n), dtype=complex)
    for a, b in g.arcs:
        h[a, b] = 1j
        h[b, a] = -1j
    return hermitian_from_entries(h)


def oriented_k2() -> OrientedGraph:
    return OrientedGraph(2, frozenset({(0, 1)}))


def oriented_k3() -> OrientedGraph:
    """The triangle orientation with matrix [[0,-i,i],[i,0,-i],[-i,i,0]]
    (cycle 0 -> 2 -> 1 -> 0)."""
    return OrientedGraph(3, frozenset({(0, 2), (2, 1), (1, 0)}))


def oriented_cycle(n: int) -> OrientedGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return OrientedGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def oriented_hypercube(m: int) -> OrientedGraph:
    """(2m+1)-dimensional cube with every edge oriented from the even-weight
    bipartition class to the odd-weight class."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    d = 2 * m + 1
    arcs = set()
    for u in range(1 << d):
        for bit in range(d):
            v = u ^ (1 << bit)
            if u < v:
                src, dst = (u, v) if bin(u).count("1") % 2 == 0 else (v, u)
                arcs.add((src, dst))
    return OrientedGraph(1 << d, frozenset(arcs))


# ---------------------------------------------------------------------------
# 4-cycle tensor construction (multiple PST)
# ---------------------------------------------------------------------------

def c4_matrix() -> HermitianMatrix:
    """The directed 4-cycle matrix used by the tensor construction."""
    return hermitian_from_entries([[0, -1j, 0, 1j],
                                   [1j, 0, -1j, 0],
                                   [0, 1j, 0, -1j],
                                   [-1j, 0, 1j, 0]])


SIGNED_SHIFT_4 = np.array([[0, -1, 0, 0],
                           [0, 0, -1, 0],
                           [0, 0, 0, -1],
                           [-1, 0, 0, 0]], dtype=complex)


def c4_tensor_construction(h_x: HermitianMatrix) -> HermitianMatrix:
    """H_Y = I_n (x) H_C4 + H_X (x) J_4, requiring every eigenvalue of H_X
    to sit within ODD_INTEGER_TOL of an odd integer.

    Vertex 4h is sent to 4h+3, 4h+2, 4h+1 at times pi/4, pi/2, 3pi/4 in
    every block (0-based labels)."""
    dec = spectral_decomposition(h_x)
    for theta in dec.eigenvalues:
        nearest_odd = 2 * round((theta - 1) / 2) + 1
        if abs(theta - nearest_odd) > ODD_INTEGER_TOL:
            raise SpectrumNotOddInteger(
                f"eigenvalue {theta} is not within {ODD_INTEGER_TOL:.1e} "
                "of an odd integer")
    n = h_x.dim
    return hermitian_from_entries(kron(np.eye(n), c4_matrix().array)
                                  + kron(h_x.array, np.ones((4, 4))))


# ---------------------------------------------------------------------------
# Universal-PST circulants
# ---------------------------------------------------------------------------

def dft_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)


@dataclass
class Circulant:
    matrix: HermitianMatrix
    thetas: list[Fraction]  # eigenvalue for Fourier vector j, ordered by j


def upst_circulant(n: int, alpha, beta, h: int,
                   c: Optional[Sequence[int]] = None) -> Circulant:
    """Hermitian circulant with spectrum theta_j = alpha + beta*(j*h + c_j*n)
    on the Fourier basis; this arithmetic-progression shape forces universal
    perfect state transfer."""
    if n < 1:
        raise ValueError("n must be at least 1")
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    if c is None:
        c = [0] * n
    if len(c) != n:
        raise ValueError("c must have length n")
    if math.gcd(h, n) != 1:
        raise NonCoprime(f"h={h} is not coprime to n={n}")
    thetas = [alpha + beta * (j * h + c[j] * n) for j in range(n)]
    if len(set(thetas)) != n:
        raise DuplicateEigenvalue("spectrum has a repeated value")
    f = dft_matrix(n)
    mat = (f * np.array([float(t) for t in thetas])) @ f.conj().T
    return Circulant(hermitian_from_entries(mat), thetas)


# ---------------------------------------------------------------------------
# Rooted star product
# ---------------------------------------------------------------------------

def rooted_star_product(h_x: HermitianMatrix, m: int) -> HermitianMatrix:
    """Attach an m-star to every vertex of X; vertex k of X is index k, its
    pendant vertices are n + k*m .. n + (k+1)*m - 1 in block order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    n = h_x.dim
    unit = np.zeros((m + 1, m + 1))
    unit[0, 0] = 1.0
    star = np.zeros((m + 1, m + 1))
    star[0, 1:] = 1.0
    star[1:, 0] = 1.0
    return hermitian_from_entries(kron(unit, h_x.array) + kron(star, np.eye(n)))


def rooted_star_spectrum(h_x: HermitianMatrix, m: int) -> SpectralDecomposition:
    """Closed-form spectral decomposition of rooted_star_product(h_x, m).

    Each eigenvalue theta_r of X with eigenvector block V_r gives
    lambda(+/-) = (theta_r +/- sqrt(theta_r^2 + 4m))/2 with block
    kron(w/|w|, V_r), w = (lambda, 1, ..., 1); for m > 1, eigenvalue 0 has
    block kron((0, h), I_n) over a sum-zero (Helmert) basis h of R^m.
    lambda(+) > 0 > lambda(-), and both grow with theta_r, so the
    eigenvalues are distinct; the blocks are sorted ascending."""
    if m < 1:
        raise ValueError("m must be at least 1")
    n = h_x.dim
    dec = spectral_decomposition(h_x)
    blocks = []
    for r, theta in enumerate(dec.eigenvalues):
        root = math.sqrt(theta * theta + 4 * m)
        for lam in ((theta - root) / 2, (theta + root) / 2):
            w = np.ones((m + 1, 1))
            w[0, 0] = lam
            blocks.append((lam, np.kron(w / np.linalg.norm(w), dec.block(r))))
    if m > 1:
        helmert = np.zeros((m + 1, m - 1))
        for k in range(1, m):
            helmert[1:k + 1, k - 1] = 1.0
            helmert[k + 1, k - 1] = -k
            helmert[:, k - 1] /= math.sqrt(k * (k + 1))
        blocks.append((0.0, np.kron(helmert, np.eye(n))))
    blocks.sort(key=lambda block: block[0])
    return SpectralDecomposition(
        [lam for lam, _ in blocks], np.hstack([v for _, v in blocks]),
        [v.shape[1] for _, v in blocks], dec.cluster_tol)


# ---------------------------------------------------------------------------
# Rooted looped-path product and its Jacobi spectra
# ---------------------------------------------------------------------------

def _jacobi_eigenpairs(m: int, gamma: float, theta: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the m x m tridiagonal matrix with unit off-diagonal,
    loop weight gamma at the top corner and theta at the bottom corner.

    Returns the ascending roots (eigvalsh) and the matrix whose column s is
    (phi_0, ..., phi_{m-1}) at root s, from the three-term recurrence
    phi_r = (t - d_r) phi_{r-1} - phi_{r-2}, phi_0 = 1, d the diagonal
    (both corrections land on the single entry when m = 1)."""
    jacobi = np.eye(m, k=1) + np.eye(m, k=-1)
    jacobi[0, 0] += gamma
    jacobi[-1, -1] += theta
    roots = np.linalg.eigvalsh(jacobi)
    vecs = np.ones((m, m))
    for r in range(1, m):
        vecs[r] = (roots - jacobi[r - 1, r - 1]) * vecs[r - 1]
        if r > 1:
            vecs[r] -= vecs[r - 2]
    return roots, vecs


@dataclass
class LoopedPathProduct:
    """Circulant X rooted with looped paths, position-major vertex order:
    vertex (x_h, j) sits at index (j-1)*n + h, the loop on level j=1 and the
    root level j=m carrying X."""

    matrix: HermitianMatrix
    n: int
    m: int
    thetas: list[Fraction]  # base spectrum, ordered by Fourier index
    # (j, s, lam, vec) sorted ascending by lam, the index order of a
    # spectral decomposition of the (simple-spectrum) product matrix
    eigenpairs: list[tuple[int, int, float, np.ndarray]]

    def vertex(self, h: int, level: int) -> int:
        """Index of (x_h, level) with level counted 1..m as in the labels."""
        return (level - 1) * self.n + h

    def relation_superlattice(self) -> RelationLattice:
        """Integer vectors killing both trace conditions: sum l = 0 and
        sum_j theta_j (sum_s l_{j,s}) = 0, in eigenvalue-sorted order.

        For transcendental gamma and rational base spectrum every true
        eigenvalue relation satisfies both, so this lattice contains the
        true one; a Kronecker check passing on it is conclusive."""
        row_ones = [1] * len(self.eigenpairs)
        row_theta = [self.thetas[j] for j, _, _, _ in self.eigenpairs]
        gens = integer_kernel([row_ones, row_theta], len(self.eigenpairs))
        return RelationLattice(gens, len(self.eigenpairs))

    def quarrel_turns(self, a: int, b: int) -> list[Fraction]:
        """Exact quarrels q/(2*pi) for the level pair ((x_a,h),(x_b,h)) in
        eigenvalue-sorted order: 2*pi*j*(b-a)/n for branch j."""
        return [Fraction(j * (b - a), self.n) % 1
                for j, _, _, _ in self.eigenpairs]


def rooted_looped_path_product(circ: Circulant, m: int, gamma: float
                               ) -> LoopedPathProduct:
    """Assemble the mn x mn product of a Hermitian circulant with a looped
    path, together with the predicted eigenpairs (poly eigenvector) (x)
    (Fourier vector), one Jacobi matrix per Fourier branch."""
    if m < 1:
        raise ValueError("m must be at least 1")
    n = circ.matrix.dim
    root_block = np.zeros((m, m))
    root_block[-1, -1] = 1.0
    path = np.eye(m, k=1) + np.eye(m, k=-1)
    path[0, 0] = gamma
    h_z = kron(root_block, circ.matrix) + kron(path, np.eye(n))
    fourier = dft_matrix(n)
    eigenpairs = []
    for j, theta in enumerate(circ.thetas):
        roots, vecs = _jacobi_eigenpairs(m, gamma, float(theta))
        for s in range(m):
            vec = np.kron(vecs[:, s], fourier[:, j])
            eigenpairs.append((j, s, float(roots[s]), vec))
    eigenpairs.sort(key=lambda e: e[2])
    return LoopedPathProduct(hermitian_from_entries(h_z), n, m,
                             list(circ.thetas), eigenpairs)


# ---------------------------------------------------------------------------
# One-way perfect state transfer families
# ---------------------------------------------------------------------------

@dataclass
class OneWayFamily:
    matrix: HermitianMatrix
    diagonalizer: np.ndarray
    eigenvalues_exact: list[Surd]
    notes: str


def one_way_family_4(lam: float) -> OneWayFamily:
    """4-vertex Hermitian graph with PST from vertex 2 to vertex 0 (0-based)
    at time 1 and phase 1, periodic nowhere when lam is not in Q*pi.

    The diagonalizer is normalized so the quarrels from vertex 2 to 0 are
    (0, pi, lam, lam+pi); built both as P D P* and from the closed-form
    entries, which must agree to 1e-10."""
    p = np.array([[1, 1, 1, 1],
                  [1, 1, -1, -1],
                  [1, -1, np.exp(-1j * lam), -np.exp(-1j * lam)],
                  [1, -1, -np.exp(-1j * lam), np.exp(-1j * lam)]],
                 dtype=complex) / 2
    d = np.diag([0.0, math.pi, lam, lam + math.pi])
    assembled = p @ d @ p.conj().T
    pi4 = math.pi / 4
    em, ep = np.exp(-1j * lam), np.exp(1j * lam)
    inner = np.array([
        [0, lam / 2, pi4 * (1 + ep), pi4 * (1 - ep)],
        [lam / 2, 0, pi4 * (1 - ep), pi4 * (1 + ep)],
        [pi4 * (1 + em), pi4 * (1 - em), 0, lam / 2],
        [pi4 * (1 - em), pi4 * (1 + em), lam / 2, 0]], dtype=complex)
    closed = ((math.pi + lam) / 2) * np.eye(4) - inner
    err = float(np.max(np.abs(assembled - closed)))
    if err > 1e-10:
        raise AssemblyMismatch(
            f"P D P* and the closed form differ by {err:.3e}")
    tag = Transcendental("lambda", lam)
    lam_surd, notes = _parameter_surd(lam, tag)
    spectrum = [Surd(0), Surd.symbol(PI), lam_surd,
                lam_surd + Surd.symbol(PI)]
    return OneWayFamily(hermitian_from_entries(closed), p, spectrum, notes)


def one_way_family_8(theta: float) -> OneWayFamily:
    """8-vertex one-way family from the complex-Hadamard diagonalization;
    PST 0 -> 1 at t = 1, 0 -> 2 at t = 2, 0 -> 3 at t = 3 (0-based)."""
    i = 1j
    e1, e2, e3 = np.exp(1j * theta), np.exp(2j * theta), np.exp(3j * theta)
    p = np.array([
        [1, 1, 1, 1, i, i, i, i],
        [1, -1, e1, -e1, -1, 1, -e1, e1],
        [1, 1, e2, e2, -i, -i, -i * e2, -i * e2],
        [1, -1, e3, -e3, 1, -1, e3, -e3],
        [i, i, -i, -i, -1, -1, 1, 1],
        [-i, i, i * e1, -i * e1, i, -i, -i * e1, i * e1],
        [i, i, -i * e2, -i * e2, 1, 1, -e2, -e2],
        [-i, i, i * e3, -i * e3, -i, i, i * e3, -i * e3]], dtype=complex)
    p = p / np.linalg.norm(p, axis=0, keepdims=True)
    d = np.diag([0.0, math.pi, theta, theta + math.pi,
                 math.pi / 2, 3 * math.pi / 2,
                 theta + math.pi / 2, theta + 3 * math.pi / 2])
    h = p @ d @ np.linalg.inv(p)
    err = float(np.max(np.abs(h - h.conj().T)))
    if err > 1e-10:
        raise NonHermitianResult(
            f"P D P^-1 deviates from Hermitian by {err:.3e}")
    tag = Transcendental("theta", theta)
    th, notes = _parameter_surd(theta, tag)
    half = Surd.symbol(PI, Fraction(1, 2))
    spectrum = [Surd(0), Surd.symbol(PI), th, th + Surd.symbol(PI),
                half, half * 3, th + half, th + half * 3]
    return OneWayFamily(hermitian_from_entries(h), p, spectrum, notes)


def _parameter_surd(value: float, tag: Transcendental) -> tuple[Surd, str]:
    """Represent the family parameter exactly: as a rational multiple of pi
    when it evidently is one (degenerate case, reported), else as its own
    symbol under the recorded irrationality assumption."""
    turn = Fraction(value / math.pi).limit_denominator(64)
    if abs(value - float(turn) * math.pi) <= 1e-12:
        return (Surd.symbol(PI, turn),
                f"{tag.name} = {turn}*pi is rational in pi: "
                "degenerate case, transcendence assumption violated")
    return (Surd.symbol(tag),
            f"assumes {tag.name} = {value!r} is not a rational multiple of pi")


# ---------------------------------------------------------------------------
# JSON family specs
# ---------------------------------------------------------------------------

@dataclass
class FamilyBundle:
    """A built family: matrix plus whatever exact data the family affords:
    its eigenvalues as surds in any order, or a lattice holding every
    integer relation among the ascending eigenvalues (a superset will do)."""

    name: str
    matrix: HermitianMatrix
    exact_spectrum: Optional[list[Surd]] = None
    notes: str = ""
    lattice: Optional[RelationLattice] = None


def build_family(name: str, **params) -> FamilyBundle:
    """Construct a named family; names use underscores or hyphens freely.

    Recognized: oriented_k2, oriented_k3, oriented_cycle(n),
    hypercube(m), c4_tensor_k2, c4_tensor_cube(m), upst_circulant(n, alpha,
    beta, h, c), star_product(m), looped_path(n, m, param, alpha, beta, h, c),
    one_way_4(param), one_way_8(param).  An unknown name, a missing
    required parameter, a parameter the family does not take, or one it
    cannot be built from raises BadFamilyParameters."""
    key = name.replace("-", "_").lower()
    if key not in _FAMILY_PARAMETERS:
        raise BadFamilyParameters(f"unknown family {name!r}")
    required, optional = _FAMILY_PARAMETERS[key]
    unexpected = sorted(set(params) - set(required) - set(optional))
    if unexpected:
        raise BadFamilyParameters(
            f"family {name!r} does not take parameter {unexpected[0]}")
    for parameter in required:
        if parameter not in params:
            raise BadFamilyParameters(f"family {name!r} needs parameter {parameter}")
    try:
        return _build_family(key, params)
    except (TypeError, ValueError) as exc:
        raise BadFamilyParameters(str(exc)) from exc


_CIRCULANT_PARAMETERS = ("alpha", "beta", "h", "c")
# (required, optional) parameter names of each family
_FAMILY_PARAMETERS = {
    "oriented_k2": ((), ()),
    "oriented_k3": ((), ()),
    "oriented_cycle": (("n",), ()),
    "hypercube": ((), ("m",)),
    "c4_tensor_k2": ((), ()),
    "c4_tensor_cube": ((), ("m",)),
    "upst_circulant": (("n",), _CIRCULANT_PARAMETERS),
    "star_product": (("m",), ()),
    "looped_path": (("m",), ("n", "param") + _CIRCULANT_PARAMETERS),
    "one_way_4": ((), ("param",)),
    "one_way_8": ((), ("param",)),
}


def _build_family(key: str, params: dict) -> FamilyBundle:
    if key == "oriented_k2":
        return FamilyBundle(key, oriented_to_hermitian(oriented_k2()),
                            [Surd(-1), Surd(1)])
    if key == "oriented_k3":
        return FamilyBundle(key, oriented_to_hermitian(oriented_k3()),
                            [Surd.sqrt(3, -1), Surd(0), Surd.sqrt(3)])
    if key == "oriented_cycle":
        n = int(params["n"])
        return FamilyBundle(key, oriented_to_hermitian(oriented_cycle(n)))
    if key == "hypercube":
        m = int(params.get("m", 0))
        return FamilyBundle(key, oriented_to_hermitian(oriented_hypercube(m)))
    if key == "c4_tensor_k2":
        base = oriented_to_hermitian(oriented_k2())
        return FamilyBundle(key, c4_tensor_construction(base))
    if key == "c4_tensor_cube":
        m = int(params.get("m", 1))
        base = oriented_to_hermitian(oriented_hypercube(m))
        return FamilyBundle(key, c4_tensor_construction(base))
    if key == "upst_circulant":
        n = int(params["n"])
        circ = upst_circulant(n, params.get("alpha", 0), params.get("beta", 1),
                              int(params.get("h", 1)), params.get("c"))
        return FamilyBundle(key, circ.matrix, [Surd(t) for t in circ.thetas])
    if key == "star_product":
        m = int(params["m"])
        base = oriented_to_hermitian(oriented_k3())
        product = rooted_star_product(base, m)
        exact = star_support_surds(m)[0] + [Surd(0)]
        return FamilyBundle(key, product, exact)
    if key == "looped_path":
        n = int(params.get("n", 3))
        m = int(params["m"])
        gamma = float(params.get("param", math.pi))
        circ = upst_circulant(n, params.get("alpha", 0), params.get("beta", 1),
                              int(params.get("h", 1)), params.get("c"))
        product = rooted_looped_path_product(circ, m, gamma)
        ratio = Fraction(gamma).limit_denominator(64)
        if abs(gamma - float(ratio)) <= 1e-12:
            # a rational loop weight breaks the trace-condition argument
            # behind relation_superlattice: no exact check applies
            return FamilyBundle(key, product.matrix,
                                notes=f"loop weight gamma = {ratio} is "
                                      "rational: no exact PGST check")
        return FamilyBundle(key, product.matrix,
                            notes=f"loop weight gamma = {gamma!r} assumed "
                                  "transcendental",
                            lattice=product.relation_superlattice())
    if key == "one_way_4":
        lam = float(params.get("param", math.sqrt(2)))
        fam = one_way_family_4(lam)
        return FamilyBundle(key, fam.matrix, fam.eigenvalues_exact, fam.notes)
    if key == "one_way_8":
        theta = float(params.get("param", math.sqrt(2)))
        fam = one_way_family_8(theta)
        return FamilyBundle(key, fam.matrix, fam.eigenvalues_exact, fam.notes)
    raise AssertionError(f"_FAMILY_PARAMETERS lists {key!r} but no builder")


def build_family_spec(spec: dict) -> FamilyBundle:
    """Build from a JSON construction spec, e.g.
    {"family": "upst_circulant", "n": 3, "alpha": "0", "beta": "1",
     "h": 1, "c": [0, 0, 0]}."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise BadFamilyParameters('construction spec needs a "family" key')
    params = dict(spec)
    name = str(params.pop("family"))
    for rational_key in ("alpha", "beta"):
        if rational_key in params:
            try:
                params[rational_key] = Fraction(str(params[rational_key]))
            except ValueError as exc:
                raise BadFamilyParameters(f"{rational_key}: {exc}") from None
    return build_family(name, **params)
