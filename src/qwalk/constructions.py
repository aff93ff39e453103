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

from .linalg import (HermitianMatrix, hermitian_from_entries, kron,
                     spectral_decomposition)
from .numtheory import (PI, RelationLattice, Surd, Transcendental,
                        integer_kernel)

TWO_PI = 2 * math.pi
ODD_INTEGER_TOL = 1e-8  # c4_tensor_construction's base spectrum check
CIRCULANT_TOL = 1e-10


class SpectrumNotOddInteger(ValueError):
    pass


class NonCoprime(ValueError):
    pass


class DuplicateEigenvalue(ValueError):
    pass


class NotCirculant(ValueError):
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
    h_y = kron(np.eye(n), c4_matrix().array).array \
        + kron(h_x.array, np.ones((4, 4))).array
    return hermitian_from_entries(h_y)


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


def is_circulant(h) -> bool:
    a = np.asarray(h, dtype=complex)
    n = a.shape[0]
    first = a[0]
    for i in range(1, n):
        if np.max(np.abs(a[i] - np.roll(first, i))) > CIRCULANT_TOL:
            return False
    return True


def circulant_thetas(h) -> np.ndarray:
    """Eigenvalues on the Fourier basis, ordered by Fourier index."""
    a = np.asarray(h, dtype=complex)
    n = a.shape[0]
    f = dft_matrix(n)
    return np.real(np.einsum("aj,ab,bj->j", f.conj(), a, f))


# ---------------------------------------------------------------------------
# Rooted star product
# ---------------------------------------------------------------------------

@dataclass
class RootedStarProduct:
    """X rooted with stars: attachment-major labels, the first n indices are
    the root (non-pendant) vertices carrying the copy of X."""

    matrix: HermitianMatrix
    m: int
    base_dim: int
    predicted_eigenvalues: np.ndarray  # with multiplicity, sorted
    branches: list[tuple[float, float, float]]  # (theta_r, lambda+, lambda-)
    projectors: list[tuple[float, np.ndarray]]  # (eigenvalue, projector)

    def reconstruction(self) -> np.ndarray:
        return sum(lam * proj for lam, proj in self.projectors)


def rooted_star_product(h_x: HermitianMatrix, m: int) -> RootedStarProduct:
    """Attach an m-star to every vertex of X; vertex k of X is index k, its
    pendant vertices are n + k*m .. n + (k+1)*m - 1 in block order.

    The product matrix, its predicted spectrum lambda_r(+/-) together with
    0 at multiplicity (m-1)*n, and the closed-form projectors are returned.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    n = h_x.dim
    unit = np.zeros((m + 1, m + 1))
    unit[0, 0] = 1.0
    star = np.zeros((m + 1, m + 1))
    star[0, 1:] = 1.0
    star[1:, 0] = 1.0
    h_y = kron(unit, h_x.array).array + kron(star, np.eye(n)).array
    dec = spectral_decomposition(h_x)

    branches = []
    projectors: list[tuple[float, np.ndarray]] = []
    predicted = []
    for r, (theta, mult) in enumerate(zip(dec.eigenvalues, dec.multiplicities)):
        e_r = dec.projector(r)
        root = math.sqrt(theta * theta + 4 * m)
        for sign in (+1, -1):
            lam = (theta + sign * root) / 2
            block = np.ones((m + 1, m + 1))
            block[0, 0] = lam * lam
            block[0, 1:] = lam
            block[1:, 0] = lam
            proj = kron(block / (lam * lam + m), e_r).array
            projectors.append((lam, proj))
            predicted.extend([lam] * mult)
        branches.append((float(theta), (theta + root) / 2, (theta - root) / 2))
    if m > 1:
        zero_block = np.zeros((m + 1, m + 1))
        zero_block[1:, 1:] = np.eye(m) - np.ones((m, m)) / m
        projectors.append((0.0, kron(zero_block, np.eye(n)).array))
        predicted.extend([0.0] * ((m - 1) * n))
    return RootedStarProduct(hermitian_from_entries(h_y), m, n,
                             np.sort(np.array(predicted)), branches, projectors)


# ---------------------------------------------------------------------------
# Rooted looped-path product and its Jacobi spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiMatrix:
    """Tridiagonal matrix with unit off-diagonal, loop weight gamma at the
    top corner and theta_j at the bottom corner."""

    m: int
    gamma: float
    theta: float

    @property
    def array(self) -> np.ndarray:
        t = np.zeros((self.m, self.m))
        for i in range(self.m - 1):
            t[i, i + 1] = t[i + 1, i] = 1.0
        t[0, 0] += self.gamma
        t[-1, -1] += self.theta
        return t


@dataclass
class OrthogonalPolynomials:
    """Three-term recurrence data of a Jacobi matrix: phi_0 .. phi_m
    (coefficient arrays ascending), the roots of phi_m, and the eigenvector
    matrix whose column s is (1, phi_1(root_s), ..., phi_{m-1}(root_s))."""

    jacobi: JacobiMatrix
    coefficients: list[np.ndarray]
    roots: np.ndarray
    eigenvectors: np.ndarray


def orthogonal_polynomials(jm: JacobiMatrix) -> OrthogonalPolynomials:
    """Characteristic polynomials of the leading principal submatrices:
    phi_r = (t - diag_r) phi_{r-1} - phi_{r-2}, with phi_1 = t - gamma and
    the final step using t - theta_j (both corrections land on the single
    entry when m = 1)."""
    m = jm.m
    diag = np.zeros(m)
    diag[0] += jm.gamma
    diag[-1] += jm.theta
    coeffs = [np.array([1.0])]
    prev2 = None
    for r in range(1, m + 1):
        shift = np.polynomial.polynomial.polymul(
            np.array([-diag[r - 1], 1.0]), coeffs[r - 1])
        if prev2 is not None:
            shift = np.polynomial.polynomial.polysub(shift, prev2)
        prev2 = coeffs[r - 1]
        coeffs.append(shift)
    roots = np.sort(np.linalg.eigvalsh(jm.array))
    vecs = np.ones((m, m))
    for r in range(1, m):
        vecs[r, :] = np.polynomial.polynomial.polyval(roots, coeffs[r])
    return OrthogonalPolynomials(jm, coeffs, roots, vecs)


@dataclass
class LoopedPathProduct:
    """Circulant X rooted with looped paths, position-major vertex order:
    vertex (x_h, j) sits at index (j-1)*n + h, the loop on level j=1 and the
    root level j=m carrying X."""

    matrix: HermitianMatrix
    n: int
    m: int
    gamma: float
    gamma_tag: Optional[Transcendental]
    thetas: np.ndarray                      # Fourier-ordered base spectrum
    thetas_exact: Optional[list[Fraction]]
    polynomials: list[OrthogonalPolynomials]
    eigenpairs: list[tuple[int, int, float, np.ndarray]]  # (j, s, lam, vec)

    def vertex(self, h: int, level: int) -> int:
        """Index of (x_h, level) with level counted 1..m as in the labels."""
        return (level - 1) * self.n + h

    @property
    def eigenpairs_by_value(self):
        """Eigenpairs sorted ascending by eigenvalue, matching the index
        order of a spectral decomposition of the product matrix."""
        return sorted(self.eigenpairs, key=lambda e: e[2])

    def relation_superlattice(self) -> RelationLattice:
        """Integer vectors killing both trace conditions: sum l = 0 and
        sum_j theta_j (sum_s l_{j,s}) = 0, in eigenvalue-sorted order.

        For transcendental gamma and rational base spectrum every true
        eigenvalue relation satisfies both, so this lattice contains the
        true one; a Kronecker check passing on it is conclusive."""
        if self.thetas_exact is None:
            raise ValueError("need exact rational base eigenvalues")
        ordered = self.eigenpairs_by_value
        row_ones = [1] * len(ordered)
        row_theta = [self.thetas_exact[j] for j, _, _, _ in ordered]
        gens = integer_kernel([row_ones, row_theta], len(ordered))
        return RelationLattice(gens, len(ordered))

    def quarrel_turns(self, a: int, b: int) -> list[Fraction]:
        """Exact quarrels q/(2*pi) for the level pair ((x_a,h),(x_b,h)) in
        eigenvalue-sorted order: 2*pi*j*(b-a)/n for branch j."""
        return [Fraction(j * (b - a), self.n) % 1
                for j, _, _, _ in self.eigenpairs_by_value]


def rooted_looped_path_product(h_x, m: int, gamma: float,
                               gamma_tag: Optional[Transcendental] = None,
                               thetas_exact: Optional[Sequence[Fraction]] = None
                               ) -> LoopedPathProduct:
    """Assemble the mn x mn product of a Hermitian circulant with a looped
    path, together with one Jacobi matrix per Fourier branch and the
    predicted eigenpairs (poly eigenvector) (x) (Fourier vector)."""
    a = np.asarray(h_x, dtype=complex)
    if not is_circulant(a):
        raise NotCirculant("base matrix is not circulant")
    n = a.shape[0]
    if m < 1:
        raise ValueError("m must be at least 1")
    root_block = np.zeros((m, m))
    root_block[-1, -1] = 1.0
    path = np.zeros((m, m))
    for i in range(m - 1):
        path[i, i + 1] = path[i + 1, i] = 1.0
    path[0, 0] = gamma
    h_z = kron(root_block, a).array + kron(path, np.eye(n)).array
    thetas = circulant_thetas(a)
    fourier = dft_matrix(n)
    polys, eigenpairs = [], []
    for j in range(n):
        op = orthogonal_polynomials(JacobiMatrix(m, gamma, float(thetas[j])))
        polys.append(op)
        for s in range(m):
            vec = np.kron(op.eigenvectors[:, s], fourier[:, j])
            eigenpairs.append((j, s, float(op.roots[s]), vec))
    exact = list(thetas_exact) if thetas_exact is not None else None
    if exact is not None and any(abs(float(f) - t) > 1e-9
                                 for f, t in zip(exact, thetas)):
        raise ValueError("exact base spectrum disagrees with the matrix")
    return LoopedPathProduct(hermitian_from_entries(h_z), n, m, gamma,
                             gamma_tag, thetas, exact, polys, eigenpairs)


# ---------------------------------------------------------------------------
# One-way perfect state transfer families
# ---------------------------------------------------------------------------

@dataclass
class OneWayFamily:
    matrix: HermitianMatrix
    diagonalizer: np.ndarray
    eigenvalues_exact: list[Surd]
    parameter: Transcendental
    notes: str


def one_way_family_4(lam: float, tag_name: str = "lambda") -> OneWayFamily:
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
    tag = Transcendental(tag_name, lam)
    lam_surd, notes = _parameter_surd(lam, tag)
    spectrum = [Surd(0), Surd.symbol(PI), lam_surd,
                lam_surd + Surd.symbol(PI)]
    return OneWayFamily(hermitian_from_entries(closed), p, spectrum, tag, notes)


def one_way_family_8(theta: float, tag_name: str = "theta") -> OneWayFamily:
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
    tag = Transcendental(tag_name, theta)
    th, notes = _parameter_surd(theta, tag)
    half = Surd.symbol(PI, Fraction(1, 2))
    spectrum = [Surd(0), Surd.symbol(PI), th, th + Surd.symbol(PI),
                half, half * 3, th + half, th + half * 3]
    return OneWayFamily(hermitian_from_entries(h), p, spectrum, tag, notes)


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
        from .star import star_support_surds
        exact = star_support_surds(m)[0] + [Surd(0)]
        return FamilyBundle(key, product.matrix, exact)
    if key == "looped_path":
        n = int(params.get("n", 3))
        m = int(params["m"])
        gamma = float(params.get("param", math.pi))
        circ = upst_circulant(n, params.get("alpha", 0), params.get("beta", 1),
                              int(params.get("h", 1)), params.get("c"))
        tag = Transcendental("gamma", gamma)
        product = rooted_looped_path_product(circ.matrix, m, gamma, tag,
                                             circ.thetas)
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
