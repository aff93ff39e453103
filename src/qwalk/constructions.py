"""Builders for every graph family in scope: oriented graphs and their
Hermitian matrices, bipartition-oriented hypercubes, the 4-cycle tensor
family with multiple PST, universal-transfer circulants, rooted star and
looped-path products, and the one-way-PST matrix families.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import (MAX_KRON_DIM, DimensionOverflow, HermitianMatrix,
                     SpectralDecomposition, check_kron_dim,
                     hermitian_from_entries, kron, spectral_decomposition)
from .numtheory import (PI, RelationLattice, Surd, Transcendental,
                        integer_kernel)
from .star import star_pair

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


@dataclass(frozen=True)
class FamilyBundle:
    """A built family: matrix plus, where the family affords one, its
    closed-form spectral decomposition, carrying exact eigenvalues or a
    relation lattice where the family knows them."""

    matrix: HermitianMatrix
    notes: str = ""
    spectrum: Optional[SpectralDecomposition] = None

    def decomposition(self) -> SpectralDecomposition:
        """The closed-form spectrum, validated against matrix, or when the
        family has none an eigensolve of matrix."""
        if self.spectrum is None:
            return spectral_decomposition(self.matrix)
        self.spectrum.validate(self.matrix)
        return self.spectrum


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
    """The n-cycle oriented i -> i+1, refused above MAX_KRON_DIM vertices
    before any arc is made."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    if n > MAX_KRON_DIM:
        raise DimensionOverflow(f"cycle vertex count {n} exceeds limit {MAX_KRON_DIM}")
    return OrientedGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def oriented_hypercube(m: int) -> OrientedGraph:
    """(2m+1)-dimensional cube with every edge oriented from the even-weight
    bipartition class to the odd-weight class, refused above MAX_KRON_DIM
    vertices before any arc is enumerated."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    d = 2 * m + 1
    if d >= MAX_KRON_DIM.bit_length():  # 2^d > MAX_KRON_DIM
        raise DimensionOverflow(
            f"hypercube vertex count 2^{d} exceeds limit {MAX_KRON_DIM}")
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


@dataclass(frozen=True)
class Circulant:
    matrix: HermitianMatrix
    thetas: list[Fraction]  # eigenvalue for Fourier vector j, ordered by j


def upst_circulant(n: int, alpha, beta, h: int,
                   c: Optional[Sequence[int]] = None) -> Circulant:
    """Hermitian circulant with spectrum theta_j = alpha + beta*(j*h + c_j*n)
    on the Fourier basis; this arithmetic-progression shape forces universal
    perfect state transfer.  Refused above MAX_KRON_DIM vertices before any
    eigenvalue or matrix is made."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_KRON_DIM:
        raise DimensionOverflow(
            f"circulant vertex count {n} exceeds limit {MAX_KRON_DIM}")
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
# Rooted products: stars and looped paths
# ---------------------------------------------------------------------------

def rooted_product(h_x: HermitianMatrix, rooted, root: int) -> HermitianMatrix:
    """The rooted product of X with a rooted graph R: a copy of R at every
    vertex x of X, its root identified with x.  rooted is R's k x k real
    symmetric matrix A_R, loops on its diagonal.  H = E_root (x) H_X + A_R
    (x) I_n in position-major order: vertex (i, x), position i of the copy
    at x, is index i*n + x, so X sits at indices root*n .. root*n + n - 1.

    On kron(R^k, V_r), V_r base eigenvectors for theta_r, H acts as A_R +
    theta_r e_root e_root^T: each eigenpair (mu, u) of that k x k matrix
    (branch_eigenpairs) gives the eigenvector block kron(u, V_r) for mu."""
    a_r = np.asarray(rooted, dtype=float)
    unit = np.zeros_like(a_r)
    unit[root, root] = 1.0
    return hermitian_from_entries(kron(unit, h_x.array)
                                  + kron(a_r, np.eye(h_x.dim)))


def branch_eigenpairs(rooted, root: int, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenpairs of A_R + theta e_root e_root^T for every
    base eigenvalue theta in thetas, in one batched eigh: eigenvalues of
    shape (len(thetas), k), eigenvectors (len(thetas), k, k) by column."""
    branches = np.repeat(np.asarray(rooted, dtype=float)[None], len(thetas), axis=0)
    branches[:, root, root] += thetas
    return np.linalg.eigh(branches)


def _star(m: int) -> np.ndarray:
    """The matrix of the star K_{1,m}, centre first."""
    star = np.zeros((m + 1, m + 1))
    star[0, 1:] = star[1:, 0] = 1.0
    return star


def rooted_star_product(h_x: HermitianMatrix, m: int) -> HermitianMatrix:
    """rooted_product of X with the m-star rooted at its centre: vertex k of
    X is index k, its pendant i = 1..m is index i*n + k."""
    if m < 1:
        raise ValueError("m must be at least 1")
    check_kron_dim((m + 1) * h_x.dim)
    return rooted_product(h_x, _star(m), 0)


def rooted_star_spectrum(base: SpectralDecomposition, m: int) -> SpectralDecomposition:
    """Closed-form spectral decomposition of rooted_star_product(h_x, m),
    from h_x's decomposition base as closed_form labels it.

    Each eigenvalue theta_r = c*sqrt(d) of X (c rational) with eigenvector
    block V_r gives the branch eigenpairs of the star with theta_r at the
    centre.  Ascending, their eigenvalues are lambda(-) < 0 (m - 1 times) <
    lambda(+), lambda(+/-) = (theta_r +/- sqrt(theta_r^2 + 4m))/2 from
    star_pair; the order is forced, as lambda(+)*lambda(-) = -m.  Eigenpair
    (mu, u) gives the block kron(u, V_r), labelled in that order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    _, vecs = branch_eigenpairs(_star(m), 0, base.eigenvalues)
    labels, blocks = [], []
    for r, theta in enumerate(base.exact):
        d = max(theta.radical_terms, default=1)
        c = theta.ratio(Surd.sqrt(d))  # theta = c*sqrt(d)
        if c is None:
            raise ValueError(f"no star pair for the base eigenvalue {theta!r}")
        plus, minus = star_pair(d, c, m)
        v = base.block(r)
        w = v.shape[1]
        pairs = np.kron(vecs[r], v)  # eigenpair s: columns s*w .. s*w + w - 1
        labels += [minus, plus]
        blocks += [pairs[:, :w], pairs[:, m * w:]]
        if m > 1:
            labels.append(Surd(0))
            blocks.append(pairs[:, w:m * w])
    return SpectralDecomposition.closed_form(labels, blocks)


@dataclass(frozen=True)
class LoopedPathProduct:
    """Circulant X rooted with looped paths, position-major vertex order:
    vertex (x_h, j) sits at index (j-1)*n + h, the loop on level j=1 and the
    root level j=m carrying X."""

    matrix: HermitianMatrix
    n: int
    spectrum: SpectralDecomposition  # closed form: simple, ascending
    branches: list[int]  # Fourier index j of each eigenvalue, in that order
    notes: str  # what spectrum.lattice assumes of gamma, or why it is None

    def vertex(self, h: int, level: int) -> int:
        """Index of (x_h, level) with level counted 1..m as in the labels."""
        return (level - 1) * self.n + h

    def quarrel_turns(self, a: int, b: int) -> list[Fraction]:
        """Exact quarrels q/(2*pi) for the level pair ((x_a,h),(x_b,h)) in
        eigenvalue-sorted order: 2*pi*j*(b-a)/n for branch j."""
        return [Fraction(j * (b - a), self.n) % 1 for j in self.branches]


def rooted_looped_path_product(circ: Circulant, m: int, gamma: float
                               ) -> LoopedPathProduct:
    """rooted_product of a Hermitian circulant with the m-level path, loop
    gamma on level 1, rooted at level m, and its closed-form spectrum:
    branch j's eigenpairs (theta_j at the root) with Fourier vector j.

    Every eigenvalue is simple, for every m and every real gamma, once the
    base theta_j are distinct (DuplicateEigenvalue otherwise).  Let q_k be
    the characteristic polynomial of the leading k x k block of the path
    matrix with nothing at the root: q_0 = 1, q_1 = x - gamma and
    q_k = x q_{k-1} - q_{k-2}.  The determinant is linear in the root
    entry, so branch j's polynomial is p_j = q_m - theta_j q_{m-1}.  A root
    shared by branches j != k is a common root of q_m and q_{m-1}, and the
    recurrence run backwards then makes it a root of q_0 = 1, which is
    impossible.  Within a branch the unit off-diagonal makes every
    eigenvalue simple.  So the spectrum is stored unclustered, one block
    per (branch, index), however close two floats come.

    The spectrum's lattice holds the integer vectors killing both trace
    conditions, sum l = 0 and sum_j theta_j (sum_s l_{j,s}) = 0.  For
    transcendental gamma and rational base spectrum every true eigenvalue
    relation satisfies both, so a Kronecker check passing on it is
    conclusive.  A gamma that is evidently rational, within 1e-12 of a
    fraction of denominator <= 64, breaks that argument and gets none."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if len(set(map(Fraction, circ.thetas))) != len(circ.thetas):
        raise DuplicateEigenvalue("base spectrum has a repeated value")
    n = circ.matrix.dim
    check_kron_dim(m * n)
    path = np.eye(m, k=1) + np.eye(m, k=-1)
    path[0, 0] = gamma
    roots, vecs = branch_eigenpairs(path, m - 1, [float(t) for t in circ.thetas])
    branches, s = np.divmod(np.argsort(roots, axis=None, kind="stable"), m)
    # column k: eigenvector s[k] of branch j = branches[k], (x) Fourier vector j
    vectors = vecs[branches, :, s].T[:, None, :] * dft_matrix(n)[:, branches]
    ratio = _evident_fraction(gamma, 1.0)
    if ratio is None:
        notes = f"loop weight gamma = {gamma!r} assumed transcendental"
        lattice = RelationLattice(integer_kernel(
            [[1] * (m * n), [circ.thetas[j] for j in branches]], m * n), m * n)
    else:
        notes = f"loop weight gamma = {ratio} is rational: no exact PGST check"
        lattice = None
    spectrum = SpectralDecomposition(roots[branches, s],
                                     vectors.reshape(m * n, m * n),
                                     [1] * (m * n), lattice=lattice)
    return LoopedPathProduct(rooted_product(circ.matrix, path, m - 1), n,
                             spectrum, branches.tolist(), notes)


# ---------------------------------------------------------------------------
# One-way perfect state transfer families
# ---------------------------------------------------------------------------

def one_way_family_4(param: float = math.sqrt(2)) -> FamilyBundle:
    """4-vertex Hermitian graph with PST from vertex 2 to vertex 0 (0-based)
    at time 1 and phase 1, periodic nowhere when lam = param is not in Q*pi.

    The diagonalizer is normalized so the quarrels from vertex 2 to 0 are
    (0, pi, lam, lam+pi); built both as P D P* and from the closed-form
    entries, which must agree to 1e-10."""
    lam = float(param)
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
    labels = [Surd(0), Surd.symbol(PI), lam_surd, lam_surd + Surd.symbol(PI)]
    return FamilyBundle(hermitian_from_entries(closed), notes, spectrum=(
        SpectralDecomposition.closed_form(labels, np.hsplit(p, 4))))


def one_way_family_8(param: float = math.sqrt(2)) -> FamilyBundle:
    """8-vertex one-way family from the complex-Hadamard diagonalization
    with phase theta = param; PST 0 -> 1 at t = 1, 0 -> 2 at t = 2,
    0 -> 3 at t = 3 (0-based).  P is unitary, so the matrix is the closed
    form's P Lambda P*."""
    theta = float(param)
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
    tag = Transcendental("theta", theta)
    th, notes = _parameter_surd(theta, tag)
    half = Surd.symbol(PI, Fraction(1, 2))
    labels = [Surd(0), Surd.symbol(PI), th, th + Surd.symbol(PI),
              half, half * 3, th + half, th + half * 3]
    spectrum = SpectralDecomposition.closed_form(labels, np.hsplit(p, 8))
    return FamilyBundle(hermitian_from_entries(spectrum.matrix()), notes, spectrum)


def _parameter_surd(value: float, tag: Transcendental) -> tuple[Surd, str]:
    """Represent the family parameter exactly: as a rational multiple of pi
    when it evidently is one (degenerate case, reported), else as its own
    symbol under the recorded irrationality assumption."""
    turn = _evident_fraction(value, math.pi)
    if turn is not None:
        return (Surd.symbol(PI, turn),
                f"{tag.name} = {turn}*pi is rational in pi: "
                "degenerate case, transcendence assumption violated")
    return (Surd.symbol(tag),
            f"assumes {tag.name} = {value!r} is not a rational multiple of pi")


def _evident_fraction(value: float, unit: float) -> Optional[Fraction]:
    """value/unit if a fraction of denominator <= 64 gives it to 1e-12."""
    ratio = Fraction(value / unit).limit_denominator(64)
    return ratio if abs(value - float(ratio) * unit) <= 1e-12 else None


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

def _oriented_k2_family() -> FamilyBundle:
    """Eigenvalues +1 and -1 on (1, -i)/sqrt(2) and (1, i)/sqrt(2)."""
    vectors = np.array([[1, 1], [-1j, 1j]]) / math.sqrt(2)
    return FamilyBundle(oriented_to_hermitian(oriented_k2()), spectrum=(
        SpectralDecomposition.closed_form([Surd(1), Surd(-1)], np.hsplit(vectors, 2))))


def _oriented_k3_family() -> FamilyBundle:
    """A circulant: eigenvalues 0, sqrt(3), -sqrt(3) on Fourier vectors 0, 1, 2."""
    labels = [Surd(0), Surd.sqrt(3), Surd.sqrt(3, -1)]
    return FamilyBundle(oriented_to_hermitian(oriented_k3()), spectrum=(
        SpectralDecomposition.closed_form(labels, np.hsplit(dft_matrix(3), 3))))


def _upst_circulant_family(n, alpha=0, beta=1, h=1, c=None) -> FamilyBundle:
    n = int(n)
    circ = upst_circulant(n, alpha, beta, int(h), c)
    return FamilyBundle(circ.matrix, spectrum=SpectralDecomposition.closed_form(
        [Surd(t) for t in circ.thetas], np.hsplit(dft_matrix(n), n)))


def _star_product_family(m) -> FamilyBundle:
    """The oriented triangle with an m-star at every vertex."""
    m = int(m)
    base = _oriented_k3_family()
    return FamilyBundle(rooted_star_product(base.matrix, m),
                        spectrum=rooted_star_spectrum(base.spectrum, m))


def _looped_path_family(m, n=3, param=math.pi, alpha=0, beta=1, h=1,
                        c=None) -> FamilyBundle:
    """upst_circulant(n, alpha, beta, h, c) rooted with m-level looped
    paths of loop weight gamma = param."""
    product = rooted_looped_path_product(
        upst_circulant(int(n), alpha, beta, int(h), c), int(m), float(param))
    return FamilyBundle(product.matrix, product.notes, product.spectrum)


# Each family's builder; its keyword parameters and their defaults are the
# family's parameters.
FAMILIES: dict[str, Callable[..., FamilyBundle]] = {
    "oriented_k2": _oriented_k2_family,
    "oriented_k3": _oriented_k3_family,
    "oriented_cycle": lambda n: FamilyBundle(
        oriented_to_hermitian(oriented_cycle(int(n)))),
    "hypercube": lambda m=0: FamilyBundle(
        oriented_to_hermitian(oriented_hypercube(int(m)))),
    "c4_tensor_k2": lambda: FamilyBundle(
        c4_tensor_construction(oriented_to_hermitian(oriented_k2()))),
    "c4_tensor_cube": lambda m=1: FamilyBundle(
        c4_tensor_construction(oriented_to_hermitian(oriented_hypercube(int(m))))),
    "upst_circulant": _upst_circulant_family,
    "star_product": _star_product_family,
    "looped_path": _looped_path_family,
    "one_way_4": one_way_family_4,
    "one_way_8": one_way_family_8,
}


def build_family(name: str, **params) -> FamilyBundle:
    """Build the FAMILIES entry name (underscores or hyphens alike) from
    params.  An unknown name, a missing required parameter, a parameter the
    family does not take, or one it cannot be built from raises
    BadFamilyParameters."""
    key = name.replace("-", "_").lower()
    if key not in FAMILIES:
        raise BadFamilyParameters(f"unknown family {name!r}")
    signature = inspect.signature(FAMILIES[key]).parameters
    unexpected = sorted(set(params) - set(signature))
    if unexpected:
        raise BadFamilyParameters(
            f"family {name!r} does not take parameter {unexpected[0]}")
    for parameter in signature.values():
        if parameter.default is parameter.empty and parameter.name not in params:
            raise BadFamilyParameters(
                f"family {name!r} needs parameter {parameter.name}")
    try:
        return FAMILIES[key](**params)
    except (TypeError, ValueError) as exc:
        raise BadFamilyParameters(str(exc)) from exc


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
