import math
from fractions import Fraction

import numpy as np
import pytest

from qwalk.constructions import (_FAMILY_PARAMETERS, NonCoprime,
                                 OrientedGraph, SIGNED_SHIFT_4,
                                 SpectrumNotOddInteger, _jacobi_eigenpairs,
                                 build_family, build_family_spec, c4_matrix,
                                 c4_tensor_construction, dft_matrix,
                                 one_way_family_4, one_way_family_8,
                                 oriented_cycle, oriented_hypercube,
                                 oriented_k2, oriented_k3,
                                 oriented_to_hermitian,
                                 rooted_looped_path_product,
                                 rooted_star_product, rooted_star_spectrum,
                                 upst_circulant)
from qwalk.linalg import hermitian_from_entries, spectral_decomposition, transition_matrix
from qwalk.numtheory import Surd
from qwalk.transfer import check_periodicity, eigenvalue_support, strong_cospectrality


# --- oriented graphs ------------------------------------------------------------

def test_oriented_graph_validation():
    with pytest.raises(ValueError):
        OrientedGraph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        OrientedGraph(3, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(ValueError):
        OrientedGraph(2, frozenset({(0, 5)}))


def test_oriented_to_hermitian():
    h = oriented_to_hermitian(oriented_k2())
    assert np.allclose(h.array, [[0, 1j], [-1j, 0]])
    empty = oriented_to_hermitian(OrientedGraph(3, frozenset()))
    assert np.allclose(empty.array, 0)


def test_oriented_k3_reference_matrix():
    h = oriented_to_hermitian(oriented_k3())
    assert np.allclose(h.array, [[0, -1j, 1j], [1j, 0, -1j], [-1j, 1j, 0]])
    # the forward cycle is the same graph up to relabeling (swap vertices 1, 2)
    perm = np.eye(3)[[0, 2, 1]]
    other = oriented_to_hermitian(oriented_cycle(3))
    assert np.allclose(perm @ other.array @ perm.T, h.array)


def test_oriented_spectra_are_symmetric():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(2, 7))
        arcs = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    arcs.add((i, j) if rng.random() < 0.5 else (j, i))
        dec = spectral_decomposition(
            oriented_to_hermitian(OrientedGraph(n, frozenset(arcs))))
        full = np.concatenate([[ev] * mult for ev, mult
                               in zip(dec.eigenvalues, dec.multiplicities)])
        assert np.max(np.abs(np.sort(full) + np.sort(full)[::-1])) <= 1e-8
        # iH is real skew-symmetric
        skew = (1j * np.asarray(dec.matrix())).real
        assert np.max(np.abs(skew + skew.T)) <= 1e-8


# --- hypercube orientation --------------------------------------------------------

def test_hypercube_m0_is_k2():
    g = oriented_hypercube(0)
    assert g.n == 2 and g.arcs == frozenset({(0, 1)})
    dec = spectral_decomposition(oriented_to_hermitian(g))
    assert np.allclose(dec.eigenvalues, [-1, 1])


def test_hypercube_m1_spectrum():
    dec = spectral_decomposition(oriented_to_hermitian(oriented_hypercube(1)))
    # oracle: the undirected 3-cube spectrum 2k - 3 with binomial multiplicity
    assert np.allclose(dec.eigenvalues, [-3, -1, 1, 3])
    assert dec.multiplicities == [1, 3, 3, 1]


def test_hypercube_bipartition_block_form():
    g = oriented_hypercube(1)
    h = oriented_to_hermitian(g).array
    even = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    odd = [v for v in range(8) if bin(v).count("1") % 2 == 1]
    order = even + odd
    permuted = h[np.ix_(order, order)]
    assert np.max(np.abs(permuted[:4, :4])) == 0
    assert np.max(np.abs(permuted[4:, 4:])) == 0
    block = permuted[:4, 4:]
    assert np.allclose(block, 1j * block.imag * 0 + block)  # entries are +-i
    assert np.allclose(np.abs(block.imag), np.abs(block.imag).astype(bool))
    assert np.max(np.abs(block.real)) == 0


# --- 4-cycle tensor construction ----------------------------------------------------

def test_c4_single_block_exponential_identity():
    # exp(-i pi/4 (H_C4 + theta J4)) for odd theta is the signed shift
    for theta in (1, -1, 3):
        dec = spectral_decomposition(
            c4_matrix().array + theta * np.ones((4, 4)))
        u = transition_matrix(dec, math.pi / 4)
        assert np.max(np.abs(u - SIGNED_SHIFT_4)) <= 1e-9


def test_c4_tensor_k2_is_godsil_lato_size():
    h = c4_tensor_construction(oriented_to_hermitian(oriented_k2()))
    assert h.dim == 8
    dec = spectral_decomposition(h)
    u = transition_matrix(dec, math.pi / 4)
    assert np.max(np.abs(u - np.kron(np.eye(2), SIGNED_SHIFT_4))) <= 1e-9


def test_c4_tensor_cube_32_vertices_pst():
    h = c4_tensor_construction(oriented_to_hermitian(oriented_hypercube(1)))
    assert h.dim == 32
    dec = spectral_decomposition(h)
    # numeric fidelity oracle for the first block: 0 -> 3 at pi/4
    assert abs(transition_matrix(dec, math.pi / 4)[3, 0]) >= 1 - 1e-8


def test_c4_tensor_rejects_even_spectrum():
    with pytest.raises(SpectrumNotOddInteger):
        c4_tensor_construction(hermitian_from_entries([[0, 1], [1, 0]]) if False
                               else hermitian_from_entries([[0, 2], [2, 0]]))


# --- universal-transfer circulants ---------------------------------------------------

def test_upst_circulant_3_cyclic_shift():
    circ = upst_circulant(3, 0, 1, 1)
    assert circ.thetas == [Fraction(0), Fraction(1), Fraction(2)]
    dec = spectral_decomposition(circ.matrix)
    u = transition_matrix(dec, 2 * math.pi / 3)
    # the direct 3x3 exponential is a cyclic shift up to global phase
    phase = u[1, 0]
    assert abs(abs(phase) - 1) < 1e-9
    shift = np.roll(np.eye(3), 1, axis=0)
    assert np.max(np.abs(u - phase * shift)) < 1e-9


def test_upst_circulant_flat_projectors():
    circ = upst_circulant(5, Fraction(1, 2), Fraction(1, 3), 2)
    dec = spectral_decomposition(circ.matrix)
    for r in range(len(dec)):
        assert np.max(np.abs(np.abs(dec.projector(r)) - 1 / 5)) < 1e-9


def test_upst_circulant_errors():
    with pytest.raises(NonCoprime):
        upst_circulant(4, 0, 1, 2)
    with pytest.raises(ValueError):
        upst_circulant(3, 0, 0, 1)
    # coprime h makes the spectrum distinct for any c (distinct mod n);
    # shifted c values just permute the line
    circ = upst_circulant(3, 0, 1, 1, c=[0, 0, -1])
    assert sorted(circ.thetas) == [-1, 0, 1]


def test_circulant_detection():
    # rows are cyclic shifts of the first, and the Fourier basis
    # diagonalizes the matrix with the exact spectrum in Fourier order
    circ = upst_circulant(4, 0, 1, 1)
    h = circ.matrix.array
    for i in range(1, 4):
        assert np.max(np.abs(h[i] - np.roll(h[0], i))) <= 1e-12
    f = dft_matrix(4)
    want = np.diag([float(t) for t in circ.thetas])
    assert circ.thetas == [0, 1, 2, 3]
    assert np.max(np.abs(f.conj().T @ h @ f - want)) <= 1e-12


# --- rooted star product ---------------------------------------------------------------

def test_star_product_m1_spectrum_formula():
    base = oriented_to_hermitian(oriented_k3())
    closed = rooted_star_spectrum(base, 1)
    expected = sorted([1.0, -1.0,
                       (math.sqrt(3) + math.sqrt(7)) / 2,
                       (math.sqrt(3) - math.sqrt(7)) / 2,
                       (-math.sqrt(3) + math.sqrt(7)) / 2,
                       (-math.sqrt(3) - math.sqrt(7)) / 2])
    assert np.allclose(closed.eigenvalues, expected, atol=1e-12)
    assert closed.multiplicities == [1] * 6
    dec = spectral_decomposition(rooted_star_product(base, 1))
    assert dec.multiplicities == closed.multiplicities
    assert np.max(np.abs(dec.eigenvalues - closed.eigenvalues)) <= 1e-8


def test_star_product_reconstruction_and_zero_multiplicity():
    base = oriented_to_hermitian(oriented_k3())
    product = rooted_star_product(base, 3)
    closed = rooted_star_spectrum(base, 3)
    closed.validate(product)
    assert np.max(np.abs(closed.matrix() - product.array)) <= 1e-8
    zero = int(np.argmin(np.abs(closed.eigenvalues)))
    assert closed.eigenvalues[zero] == 0.0
    assert closed.multiplicities[zero] == (3 - 1) * 3


def test_star_product_single_vertex_base():
    base = hermitian_from_entries([[0]])
    assert np.allclose(rooted_star_spectrum(base, 1).eigenvalues, [-1.0, 1.0])
    dec = spectral_decomposition(rooted_star_product(base, 1))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_star_product_base_major_permutation_equivalent():
    # reindexing (position-major -> copy-major) conjugates the matrix by a
    # permutation, preserving the walk
    base = oriented_to_hermitian(oriented_k3())
    m = 2
    product = rooted_star_product(base, m)
    n = 3
    size = (m + 1) * n
    perm = np.zeros((size, size))
    for pos in range(m + 1):
        for copy in range(n):
            perm[copy * (m + 1) + pos, pos * n + copy] = 1.0
    copy_major = perm @ product.array @ perm.T
    alt = np.kron(base.array, np.diag([1.0] + [0.0] * m))
    star = np.zeros((m + 1, m + 1))
    star[0, 1:] = star[1:, 0] = 1.0
    alt = alt + np.kron(np.eye(n), star)
    assert np.max(np.abs(copy_major - alt)) < 1e-12


# --- Jacobi matrices and orthogonal polynomials -------------------------------------------

def jacobi_array(m, gamma, theta):
    t = np.zeros((m, m))
    for i in range(m - 1):
        t[i, i + 1] = t[i + 1, i] = 1.0
    t[0, 0] += gamma
    t[-1, -1] += theta
    return t


def test_orthogonal_polynomial_m2_closed_form():
    # gamma = pi, theta = 0: the roots solve t^2 - pi t - 1 = 0 and the
    # eigenvector at root lam is (phi_0, phi_1) = (1, lam - gamma)
    roots, vecs = _jacobi_eigenpairs(2, math.pi, 0.0)
    for s, lam in enumerate(roots):
        assert abs(lam * lam - math.pi * lam - 1) <= 1e-12
        assert np.allclose(vecs[:, s], [1.0, lam - math.pi], atol=1e-12)
    assert roots[0] < roots[1]


def test_orthogonal_polynomials_match_charpoly_determinant_oracle():
    # phi_r is the characteristic polynomial of the leading r x r block,
    # and phi_5 vanishes at every root
    t = jacobi_array(5, 0.7, -1.3)
    roots, vecs = _jacobi_eigenpairs(5, 0.7, -1.3)
    for s, lam in enumerate(roots):
        shifted = lam * np.eye(5) - t
        assert abs(np.linalg.det(shifted)) <= 1e-8
        for r in range(1, 5):
            det = np.linalg.det(shifted[:r, :r])
            assert abs(det - vecs[r, s]) < 1e-8 * max(1.0, abs(det))


def test_orthogonal_polynomial_eigenvectors():
    t = jacobi_array(4, math.pi, 2.0)
    roots, vecs = _jacobi_eigenpairs(4, math.pi, 2.0)
    for s in range(4):
        vec = vecs[:, s]
        residual = np.max(np.abs(t @ vec - roots[s] * vec))
        assert residual <= 1e-8 * max(1.0, np.linalg.norm(vec))


def test_jacobi_m1_degenerate():
    # one entry carries both corrections: the single root is gamma + theta
    roots, vecs = _jacobi_eigenpairs(1, 0.5, 2.0)
    assert np.allclose(roots, [2.5])
    assert np.array_equal(vecs, [[1.0]])


# --- looped-path product -------------------------------------------------------------------

def test_looped_path_m1_gamma0_degenerates_to_base():
    circ = upst_circulant(3, 0, 1, 1)
    product = rooted_looped_path_product(circ, 1, 0.0)
    assert np.max(np.abs(product.matrix.array - circ.matrix.array)) < 1e-12


def test_looped_path_eigenpairs_and_quarrels():
    circ = upst_circulant(3, 0, 1, 1)
    product = rooted_looped_path_product(circ, 2, math.pi)
    dec = spectral_decomposition(product.matrix)
    assert len(dec.eigenvalues) == 6  # all simple
    assert np.min(np.diff(dec.eigenvalues)) > 1e-8
    h = product.matrix.array
    for j, s, lam, vec in product.eigenpairs:
        assert np.max(np.abs(h @ vec - lam * vec)) <= 1e-8
    # quarrels 2 pi j (b-a)/3, independent of level and s
    for level in (1, 2):
        q = strong_cospectrality(dec, product.vertex(0, level),
                                 product.vertex(1, level))
        for (j, _, _, _), turn in zip(product.eigenpairs, q.rationals):
            assert turn == Fraction(j, 3) % 1


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_looped_path_eigenpairs_ascending_match_eigensolve(n, m):
    # relation_superlattice and quarrel_turns index the eigenpairs in their
    # stored order, which must be the eigensolver's ascending order
    product = rooted_looped_path_product(upst_circulant(n, 0, 1, 1), m,
                                         math.pi)
    values = [lam for _, _, lam, _ in product.eigenpairs]
    assert values == sorted(values)
    dec = spectral_decomposition(product.matrix)
    assert dec.multiplicities == [1] * (n * m)
    assert np.max(np.abs(dec.eigenvalues - values)) <= 1e-8
    want = product.quarrel_turns(0, 1)
    for level in range(1, m + 1):
        q = strong_cospectrality(dec, product.vertex(0, level),
                                 product.vertex(1, level))
        assert q.turns == want


# --- one-way families ------------------------------------------------------------------------

def test_one_way_4_closed_form_assembly():
    fam = one_way_family_4(math.sqrt(2))
    # unitary diagonalizer, exact transfer at t = 1
    p = fam.diagonalizer
    assert np.max(np.abs(p @ p.conj().T - np.eye(4))) < 1e-12
    dec = spectral_decomposition(fam.matrix)
    u = transition_matrix(dec, 1.0)
    assert abs(u[0, 2] - 1) <= 1e-10
    periodic, witness = check_periodicity(fam.eigenvalues_exact)
    assert not periodic and "lambda" in witness["numerator"]


def test_one_way_4_degenerate_parameter_reported():
    fam = one_way_family_4(math.pi)
    assert "degenerate" in fam.notes
    periodic, _ = check_periodicity(fam.eigenvalues_exact)
    assert periodic


def test_one_way_8_transfer_chain():
    fam = one_way_family_8(math.sqrt(2))
    dec = spectral_decomposition(fam.matrix)
    for t, tgt in ((1.0, 1), (2.0, 2), (3.0, 3)):
        assert abs(transition_matrix(dec, t)[tgt, 0]) >= 1 - 1e-8
    for v in range(8):
        assert len(eigenvalue_support(dec, v)) == 8
    periodic, _ = check_periodicity(fam.eigenvalues_exact)
    assert not periodic


# --- family registry ---------------------------------------------------------------------------

def test_build_family_names():
    assert build_family("oriented-k3").matrix.dim == 3
    assert build_family("oriented_k2").exact_spectrum is not None
    assert build_family("hypercube", m=1).matrix.dim == 8
    assert build_family("c4_tensor_k2").matrix.dim == 8
    assert build_family("star_product", m=2).matrix.dim == 9
    assert build_family("one_way_4").matrix.dim == 4
    with pytest.raises(ValueError):
        build_family("no-such-family")
    # every listed family builds from its required parameters alone
    for key, (required, _) in _FAMILY_PARAMETERS.items():
        assert build_family(key, **{p: 3 for p in required}).name == key


def test_only_looped_path_carries_a_lattice():
    bundle = build_family("looped-path", m=2)
    circ = upst_circulant(3, 0, 1, 1)
    product = rooted_looped_path_product(circ, 2, math.pi)
    want = product.relation_superlattice()
    assert (bundle.lattice.dim, bundle.lattice.generators) == (want.dim, want.generators)
    # a rational loop weight voids the trace-condition argument
    rational = build_family("looped-path", m=2, param=0.1)
    assert rational.lattice is None and "is rational" in rational.notes
    for key, (required, _) in _FAMILY_PARAMETERS.items():
        if key != "looped_path":
            assert build_family(key, **{p: 3 for p in required}).lattice is None


def test_build_family_spec_json():
    bundle = build_family_spec({"family": "upst_circulant", "n": 3,
                                "alpha": "0", "beta": "1", "h": 1,
                                "c": [0, 0, 0]})
    assert bundle.matrix.dim == 3
    assert bundle.exact_spectrum == [Surd(0), Surd(1), Surd(2)]
    looped = build_family_spec({"family": "looped_path", "m": 2, "alpha": "0",
                                "beta": "1", "h": 1, "c": [0, 0, 0]})
    assert looped.matrix.dim == 6
    with pytest.raises(ValueError):
        build_family_spec({"n": 3})
