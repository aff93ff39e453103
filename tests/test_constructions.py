import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from qwalk.constructions import (FAMILIES, BadFamilyParameters, Circulant,
                                 DuplicateEigenvalue, FamilyBundle, NonCoprime,
                                 OrientedGraph, SIGNED_SHIFT_4,
                                 SpectrumNotOddInteger,
                                 build_family, build_family_spec, c4_matrix,
                                 c4_tensor_construction, dft_matrix,
                                 one_way_family_4, one_way_family_8,
                                 oriented_cycle, oriented_hypercube,
                                 oriented_k2, oriented_k3,
                                 oriented_to_hermitian,
                                 rooted_looped_path_product,
                                 rooted_star_product, rooted_star_spectrum,
                                 upst_circulant)
from qwalk.linalg import (EigensolverFailure, SpectralDecomposition,
                          hermitian_from_entries,
                          spectral_decomposition, transition_matrix)
from qwalk.numtheory import PI, Surd, Transcendental
from qwalk.transfer import (check_periodicity, eigenvalue_support, pgst_verdict,
                            strong_cospectrality)


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

def k3_closed_form():
    return build_family("oriented-k3").spectrum


def test_star_product_m1_spectrum_formula():
    base = oriented_to_hermitian(oriented_k3())
    closed = rooted_star_spectrum(k3_closed_form(), 1)
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
    closed = rooted_star_spectrum(k3_closed_form(), 3)
    closed.validate(product)
    assert np.max(np.abs(closed.matrix() - product.array)) <= 1e-8
    zero = int(np.argmin(np.abs(closed.eigenvalues)))
    assert closed.eigenvalues[zero] == 0.0
    assert closed.multiplicities[zero] == (3 - 1) * 3


def test_star_product_single_vertex_base():
    base = hermitian_from_entries([[0]])
    closed = rooted_star_spectrum(SpectralDecomposition.closed_form([Surd(0)], [[[1]]]), 1)
    assert np.allclose(closed.eigenvalues, [-1.0, 1.0])
    assert closed.exact == [Surd(-1), Surd(1)]
    # a base eigenvalue outside c*sqrt(d) has no star pair in the carrier
    with pytest.raises(ValueError, match="no star pair"):
        rooted_star_spectrum(one_way_family_4().spectrum, 1)
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
    closed = product.spectrum
    for lam, vec in zip(closed.eigenvalues, closed.vectors.T):
        assert np.max(np.abs(h @ vec - lam * vec)) <= 1e-8
    # quarrels 2 pi j (b-a)/3, independent of level and s
    for level in (1, 2):
        q = strong_cospectrality(dec, product.vertex(0, level),
                                 product.vertex(1, level))
        for j, turn in zip(product.branches, q.rationals):
            assert turn == Fraction(j, 3) % 1


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_looped_path_eigenpairs_ascending_match_eigensolve(n, m):
    # where the eigensolver separates the spectrum, it agrees with the
    # closed form, whose stored order its lattice and quarrel_turns index
    product = rooted_looped_path_product(upst_circulant(n, 0, 1, 1), m,
                                         math.pi)
    product.spectrum.validate(product.matrix)
    dec = spectral_decomposition(product.matrix)
    assert dec.multiplicities == product.spectrum.multiplicities
    assert np.max(np.abs(dec.eigenvalues - product.spectrum.eigenvalues)) <= 1e-8
    want = product.quarrel_turns(0, 1)
    for level in range(1, m + 1):
        q = strong_cospectrality(dec, product.vertex(0, level),
                                 product.vertex(1, level))
        assert q.turns == want


def test_looped_path_branch_polynomials_share_no_root():
    # sympy oracle for the separation argument of rooted_looped_path_product:
    # branch polynomial p = q - theta*r, and gcd(q, r) = 1 over Q(gamma)
    x, gamma, theta = sympy.symbols("x gamma theta")
    field = sympy.QQ.frac_field(gamma)
    for m in range(1, 6):
        path = sympy.zeros(m, m)
        path[0, 0] = gamma
        for k in range(m - 1):
            path[k, k + 1] = path[k + 1, k] = 1
        branch = path.copy()
        branch[m - 1, m - 1] += theta
        q = path.charpoly(x).as_expr()
        r = path[:m - 1, :m - 1].charpoly(x).as_expr() if m > 1 else sympy.Integer(1)
        assert sympy.expand(branch.charpoly(x).as_expr() - (q - theta * r)) == 0
        assert sympy.Poly(q, x, domain=field).gcd(
            sympy.Poly(r, x, domain=field)).degree() == 0


def test_looped_path_refuses_a_repeated_base_eigenvalue():
    circ = upst_circulant(3, 0, 1, 1)
    repeated = Circulant(circ.matrix, [Fraction(0), Fraction(1), Fraction(1)])
    with pytest.raises(DuplicateEigenvalue):
        rooted_looped_path_product(repeated, 2, math.pi)


# --- one-way families ------------------------------------------------------------------------

def test_one_way_4_closed_form_assembly():
    fam = one_way_family_4(math.sqrt(2))
    # the exact labels are the matrix's eigenvalues, exact transfer at t = 1
    dec = spectral_decomposition(fam.matrix)
    exact = [float(value) for value in fam.decomposition().exact]
    assert np.max(np.abs(dec.eigenvalues - exact)) < 1e-12
    u = transition_matrix(dec, 1.0)
    assert abs(u[0, 2] - 1) <= 1e-10
    periodic, witness = check_periodicity(fam.spectrum.exact)
    assert not periodic and "lambda" in witness["denominator"]


def test_one_way_4_degenerate_parameter_reported():
    fam = one_way_family_4(math.pi)
    assert "degenerate" in fam.notes
    periodic, _ = check_periodicity(fam.spectrum.exact)
    assert periodic


def test_one_way_4_keeps_eigenvalues_the_eigensolve_merges():
    # lambda = pi + 1e-10 is not an evident multiple of pi: four simple
    # labelled eigenvalues, where the eigensolve's clustering sees [1, 2, 1]
    fam = one_way_family_4(3.1415926536897931)
    assert spectral_decomposition(fam.matrix).multiplicities == [1, 2, 1]
    dec = fam.decomposition()
    lam = Surd.symbol(Transcendental("lambda", 3.1415926536897931))
    assert dec.multiplicities == [1, 1, 1, 1]
    assert dec.exact == [Surd(0), Surd.symbol(PI), lam, lam + Surd.symbol(PI)]
    verdict = pgst_verdict(dec, 0, 2)
    assert verdict.witness["mode"] == "exact"
    assert verdict.witness["generators"] == [[1, 0, 0, 0], [0, 1, 1, -1]]


def test_one_way_8_transfer_chain():
    fam = one_way_family_8(math.sqrt(2))
    dec = spectral_decomposition(fam.matrix)
    for t, tgt in ((1.0, 1), (2.0, 2), (3.0, 3)):
        assert abs(transition_matrix(dec, t)[tgt, 0]) >= 1 - 1e-8
    for v in range(8):
        assert len(eigenvalue_support(dec, v)) == 8
    periodic, _ = check_periodicity(fam.spectrum.exact)
    assert not periodic


@pytest.mark.parametrize("theta", [math.sqrt(2), math.pi / 2])
def test_one_way_8_matrix_is_p_lambda_p_star(theta):
    # P is unitary, so P Lambda P* is the matrix; at pi/2 labels merge into
    # blocks of two columns, stacked as given
    fam = one_way_family_8(theta)
    p = fam.spectrum.vectors
    assert np.max(np.abs(p.conj().T @ p - np.eye(8))) <= 1e-15
    thetas = np.repeat(fam.spectrum.eigenvalues, fam.spectrum.multiplicities)
    assert np.max(np.abs(fam.matrix.array - (p * thetas) @ p.conj().T)) <= 1e-14
    fam.spectrum.validate(fam.matrix)


# --- family registry ---------------------------------------------------------------------------

def test_build_family_names():
    assert build_family("oriented-k3").matrix.dim == 3
    assert build_family("oriented_k2").spectrum.exact == [Surd(-1), Surd(1)]
    assert build_family("hypercube", m=1).matrix.dim == 8
    assert build_family("c4_tensor_k2").matrix.dim == 8
    assert build_family("star_product", m=2).matrix.dim == 9
    assert build_family("one_way_4").matrix.dim == 4
    with pytest.raises(ValueError):
        build_family("no-such-family")


def _required_parameters(name):
    return [p.name for p in inspect.signature(FAMILIES[name]).parameters.values()
            if p.default is p.empty]


CLOSED_FORMS = ("oriented_k2", "oriented_k3", "upst_circulant", "star_product",
                "looped_path", "one_way_4", "one_way_8")


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_checks_its_parameter_list(name):
    required = _required_parameters(name)
    bundle = build_family(name, **{p: 3 for p in required})
    # the families with an exact spectrum carry it as a labelled closed
    # form, and the looped-path family an unlabelled one with a relation
    # lattice, the only family that carries one
    assert (bundle.spectrum is not None) == (name in CLOSED_FORMS)
    if bundle.spectrum is not None:
        assert (bundle.spectrum.exact is None) == (name == "looped_path")
        assert (bundle.spectrum.lattice is not None) == (name == "looped_path")
    for missing in required:
        params = {p: 3 for p in required if p != missing}
        with pytest.raises(BadFamilyParameters) as err:
            build_family(name, **params)
        assert str(err.value) == f"family {name!r} needs parameter {missing}"
    with pytest.raises(BadFamilyParameters, match="does not take parameter"):
        build_family(name, **{p: 3 for p in required}, no_such_parameter=1)


def test_only_looped_path_carries_a_lattice():
    bundle = build_family("looped-path", m=2)
    circ = upst_circulant(3, 0, 1, 1)
    product = rooted_looped_path_product(circ, 2, math.pi)
    lattice = bundle.spectrum.lattice
    assert (lattice.dim, lattice.generators) == (
        product.spectrum.lattice.dim, product.spectrum.lattice.generators)
    # the trace conditions: rank 2, and every generator kills both
    thetas = [circ.thetas[j] for j in product.branches]
    assert lattice.dim == 6 and len(lattice.generators) == 4
    for g in lattice.generators:
        assert sum(g) == 0 and sum(l * t for l, t in zip(g, thetas)) == 0
    assert bundle.notes == product.notes
    assert "assumed transcendental" in bundle.notes
    # a rational loop weight voids the trace-condition argument
    rational = build_family("looped-path", m=2, param=0.1)
    assert rational.spectrum.lattice is None and "is rational" in rational.notes


@pytest.mark.parametrize("name, params, multiplicities", [
    ("oriented-k2", {}, [1, 1]),
    ("oriented-k3", {}, [1, 1, 1]),
    ("upst-circulant", {"n": 3}, [1] * 3),
    ("upst-circulant", {"n": 5}, [1] * 5),
    ("one-way-4", {}, [1] * 4),
    ("one-way-4", {"param": math.pi}, [1, 2, 1]),
    ("one-way-8", {}, [1] * 8),
    ("one-way-8", {"param": math.pi / 2}, [1, 2, 2, 2, 1]),
    ("star-product", {"m": 1}, [1] * 6),
    ("star-product", {"m": 2}, [1, 1, 1, 3, 1, 1, 1]),
    ("star-product", {"m": 6}, [1, 1, 1, 15, 1, 1, 1]),
    ("looped-path", {"m": 2}, [1] * 6),
    ("star-product", {"m": 27}, [1, 1, 1, 78, 1, 1, 1]),
    ("looped-path", {"m": 4}, [1] * 12),
])
def test_closed_form_matches_the_eigensolver(name, params, multiplicities):
    # a closed form has the eigensolver's multiplicities and eigenvalues,
    # and its exact labels are distinct and ascending
    bundle = build_family(name, **params)
    closed = bundle.decomposition()
    dec = spectral_decomposition(bundle.matrix)
    assert closed.multiplicities == dec.multiplicities == multiplicities
    assert np.max(np.abs(closed.eigenvalues - dec.eigenvalues)) <= 1e-8
    if closed.exact is not None:
        assert len(set(closed.exact)) == len(closed.exact) == len(closed)
        assert all(float(b - a) > 0 for a, b in zip(closed.exact, closed.exact[1:]))
        assert [float(v) for v in closed.exact] == closed.eigenvalues.tolist()


def test_decomposition_is_the_closed_form_when_there_is_one():
    # only the eigensolve clusters: the closed form is returned as built
    star = build_family("star-product", m=2)
    for bundle in (star, build_family("oriented-k3")):
        assert bundle.decomposition() is bundle.spectrum
    # the closed form is validated against the matrix, not trusted: the
    # star product over the reversed triangle is a different matrix
    reversed_k3 = hermitian_from_entries(-build_family("oriented-k3").matrix.array)
    wrong = FamilyBundle(rooted_star_product(reversed_k3, 2), spectrum=star.spectrum)
    with pytest.raises(EigensolverFailure, match="reconstruction error"):
        wrong.decomposition()


def test_closed_form_stacks_equal_labels_as_given():
    # the blocks of columns 0 and 2 share a label: stacked column for
    # column, bit for bit, in ascending label order
    basis = np.array([[1, 0, 1], [0, 1j, 0], [1, 0, -1]]) / np.array([math.sqrt(2), 1, math.sqrt(2)])
    dec = SpectralDecomposition.closed_form([Surd(2), Surd(-1), Surd(2)],
                                            np.hsplit(basis, 3))
    assert dec.exact == [Surd(-1), Surd(2)]
    assert dec.multiplicities == [1, 2]
    assert np.array_equal(dec.vectors, basis[:, [1, 0, 2]])
    dec.validate(dec.matrix())
    # a stacked block that is not orthonormal is not repaired: validate
    # refuses it
    skew = np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=float)
    dec = SpectralDecomposition.closed_form([Surd(2), Surd(-1), Surd(2)],
                                            np.hsplit(skew, 3))
    assert np.array_equal(dec.block(1), skew[:, [0, 2]])
    with pytest.raises(EigensolverFailure, match="eigenvectors are not orthonormal"):
        dec.validate(np.diag([2.0, -1.0, 2.0]))
    # distinct labels that one float cannot tell apart are refused
    one = Surd.symbol(Transcendental("one", 1.0))
    with pytest.raises(ValueError, match="round to one float"):
        SpectralDecomposition.closed_form([Surd(1), one], np.hsplit(np.eye(2), 2))


@pytest.mark.parametrize("dec", [
    build_family("star-product", m=2).spectrum,
    build_family("looped-path", m=2).spectrum,
    spectral_decomposition(np.diag([1.0, 2.0, 2.0])),
], ids=["closed-form", "looped-path", "eigensolve"])
def test_decomposition_arrays_are_read_only(dec):
    for arr in (dec.eigenvalues, dec.offsets, dec.vectors):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_build_family_spec_json():
    bundle = build_family_spec({"family": "upst_circulant", "n": 3,
                                "alpha": "0", "beta": "1", "h": 1,
                                "c": [0, 0, 0]})
    assert bundle.matrix.dim == 3
    assert bundle.spectrum.exact == [Surd(0), Surd(1), Surd(2)]
    looped = build_family_spec({"family": "looped_path", "m": 2, "alpha": "0",
                                "beta": "1", "h": 1, "c": [0, 0, 0]})
    assert looped.matrix.dim == 6
    with pytest.raises(ValueError):
        build_family_spec({"n": 3})
