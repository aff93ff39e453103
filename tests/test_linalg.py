import json
import math

import mpmath
import numpy as np
import pytest

from qwalk.constructions import build_family
from qwalk.linalg import (ClusterAmbiguityWarning, DimensionOverflow,
                          EigensolverFailure, HermitianMatrix, NotHermitian,
                          NotSquare, SpectralDecomposition,
                          hermitian_from_entries, kron,
                          spectral_decomposition, transition_matrix)

K3_MATRIX = [[0, -1j, 1j], [1j, 0, -1j], [-1j, 1j, 0]]


def random_hermitian(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_from_entries((raw + raw.conj().T) / 2)


# --- construction and validation --------------------------------------------

def test_hermitian_from_entries_oriented_k2():
    h = hermitian_from_entries([[0, -1j], [1j, 0]])
    assert h.dim == 2
    assert np.allclose(h.array, [[0, -1j], [1j, 0]])


def test_hermitian_trivial_and_errors():
    assert hermitian_from_entries([[0]]).dim == 1
    with pytest.raises(NotHermitian):
        hermitian_from_entries([[0, 1], [2, 0]])
    with pytest.raises(NotSquare):
        hermitian_from_entries([[0, 1, 2], [1, 0, 1]])
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        hermitian_from_entries([[np.nan, 0], [0, 0]])


def test_hermitian_symmetrizes_and_fixes_diagonal():
    h = hermitian_from_entries([[1e-13j, 1], [1, 0]])
    assert h.array[0, 0].imag == 0.0
    assert np.allclose(h.array, h.array.conj().T)


def symmetrization_reference(a):
    # the former two-expression form of hermitian_from_entries
    a = np.array(a, dtype=complex)
    sym = (a + a.conj().T) / 2
    np.fill_diagonal(sym, sym.diagonal().real)
    return sym


def test_hermitian_from_entries_bitwise_on_seeded_matrices():
    rng = np.random.default_rng(128)
    for trial in range(40):
        n = int(rng.integers(1, 40))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = raw + raw.conj().T
        if trial % 3 == 1:  # near-Hermitian: asymmetry ~1e-13
            a = a + 1e-13 * (rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
        elif trial % 3 == 2:
            a = a.real.copy()
        got = hermitian_from_entries(a).array
        assert got.tobytes() == symmetrization_reference(a).tobytes()
        assert np.all(got.diagonal().imag == 0)


def test_not_hermitian_message_names_the_asymmetry():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 2] = 2e-11
    with pytest.raises(NotHermitian) as err:
        hermitian_from_entries(a)
    assert str(err.value) == "asymmetry 2.000e-11 exceeds tolerance 1.0e-12"


def test_hermitian_from_entries_peak_memory_at_256():
    import tracemalloc
    rng = np.random.default_rng(7)
    n = 256
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = raw + raw.conj().T
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = hermitian_from_entries(a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert h.dim == n
    # the input copy, which becomes the result, and one work matrix: two
    # n x n complex matrices (16 n^2 bytes each) at a time
    assert peak <= 2.5 * 16 * n * n


# --- spectral decomposition --------------------------------------------------

def test_k3_oriented_triangle_rank_one_projectors():
    dec = spectral_decomposition(hermitian_from_entries(K3_MATRIX))
    root3 = math.sqrt(3)
    assert np.allclose(dec.eigenvalues, [-root3, 0.0, root3], atol=1e-9)
    for r in range(len(dec)):
        proj = dec.projector(r)
        assert np.allclose(np.trace(proj), 1.0, atol=1e-9)  # rank one
        assert np.allclose(np.diag(proj), 1 / 3, atol=1e-9)


def test_zero_matrix_single_cluster():
    dec = spectral_decomposition(np.zeros((4, 4)))
    assert list(dec.eigenvalues) == [0.0]
    assert np.allclose(dec.projector(0), np.eye(4))
    assert dec.multiplicities == [4]


def test_quadratic_eigenvalues_high_precision_oracle():
    # roots of t^2 - pi t - 1, computed independently at 50 digits
    mpmath.mp.dps = 50
    disc = mpmath.sqrt(mpmath.pi ** 2 + 4)
    expected = sorted([float((mpmath.pi - disc) / 2),
                       float((mpmath.pi + disc) / 2)])
    dec = spectral_decomposition(hermitian_from_entries(
        [[math.pi, 1], [1, 0]]))
    assert np.allclose(dec.eigenvalues, expected, atol=1e-10)


def test_degenerate_cluster_detected_not_assumed():
    h = hermitian_from_entries(np.diag([1.0, 1.0, 2.0]))
    dec = spectral_decomposition(h)
    assert dec.multiplicities == [2, 1]
    assert len(dec) == 2


def test_cluster_ambiguity_flagged():
    h = hermitian_from_entries(np.diag([0.0, 5e-8, 1.0]))
    with pytest.warns(ClusterAmbiguityWarning):
        spectral_decomposition(h)


def test_projector_algebra_and_reconstruction_random():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        h = random_hermitian(rng, n)
        dec = spectral_decomposition(h)
        d = len(dec.eigenvalues)
        for r in range(d):
            for s in range(d):
                product = dec.projector(r) @ dec.projector(s)
                target = dec.projector(r) if r == s else 0
                assert np.max(np.abs(product - target)) <= 1e-9
        assert np.max(np.abs(sum(dec.projector(r) for r in range(d))
                             - np.eye(n))) <= 1e-9
        assert np.max(np.abs(dec.matrix() - h.array)) <= 1e-8


def test_validate_rejects_non_orthonormal_block():
    h = np.diag([1.0, 2.0])
    dec = SpectralDecomposition([1.0, 2.0], [[1, 1e-6], [0, 1]], [1, 1])
    with pytest.raises(EigensolverFailure, match="orthonormal"):
        dec.validate(h)


def test_validate_rejects_wrong_eigenvalue():
    h = np.diag([1.0, 2.0])
    SpectralDecomposition([1.0, 2.0], np.eye(2), [1, 1]).validate(h)
    dec = SpectralDecomposition([1.0, 2.0 + 1e-6], np.eye(2), [1, 1])
    with pytest.raises(EigensolverFailure, match="reconstruction"):
        dec.validate(h)


def test_validate_rejects_merged_clusters():
    # one block holding two distinct eigenvalues does not reconstruct h
    dec = SpectralDecomposition([0.5], np.eye(2), [2])
    with pytest.raises(EigensolverFailure, match="reconstruction"):
        dec.validate(np.diag([0.0, 1.0]))


def test_equal_floats_in_separate_blocks_stay_separate():
    # a closed form may keep two eigenvalues apart that round to one float:
    # validate checks the algebra, and each block keeps its own entries
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    dec = SpectralDecomposition([1.0, 1.0], rotation, [1, 1])
    dec.validate(np.eye(2))
    assert np.allclose(dec.entries(1, 0), [s * c, -s * c])
    assert np.allclose(dec.support_norms, [[c, s], [s, c]])


def test_multiplicities_on_degenerate_spectra():
    assert spectral_decomposition(np.eye(4)).multiplicities == [4]
    cycle = build_family("oriented-cycle", n=6).matrix
    dec = spectral_decomposition(cycle)
    assert dec.multiplicities == [2, 2, 2]
    for r in range(len(dec)):
        assert abs(np.trace(dec.projector(r)).real - 2) <= 1e-9


def test_random_256_decomposes_in_quadratic_space():
    rng = np.random.default_rng(256)
    n = 256
    h = random_hermitian(rng, n)
    dec = spectral_decomposition(h)  # validates against h
    assert sum(dec.multiplicities) == n
    assert np.max(np.abs(dec.matrix() - h.array)) <= 1e-8
    assert dec.support_norms.shape == (n, len(dec))
    held = sum(v.nbytes for v in vars(dec).values() if isinstance(v, np.ndarray))
    assert held <= 32 * n * n  # V (16 n^2 bytes) and the support norms


def test_spectral_decomposition_peak_memory_at_256():
    import tracemalloc
    rng = np.random.default_rng(7)
    n = 256
    h = random_hermitian(rng, n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dec = spectral_decomposition(h)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sum(dec.multiplicities) == n
    # V and, in validate, either the Gram matrix or the reconstruction's
    # two temporaries: three n x n complex matrices (16 n^2 bytes each)
    assert peak <= 3.25 * 16 * n * n


# --- transition matrices ------------------------------------------------------

def test_transition_identity_at_zero():
    rng = np.random.default_rng(3)
    dec = spectral_decomposition(random_hermitian(rng, 5))
    assert np.allclose(transition_matrix(dec, 0.0), np.eye(5), atol=1e-12)


def test_k3_transfer_time_grid_search_oracle():
    dec = spectral_decomposition(hermitian_from_entries(K3_MATRIX))
    # independent oracle: dense grid search for the first fidelity peak
    grid = np.linspace(0, 3, 300_001)
    amps = np.abs([transition_matrix(dec, float(t))[1, 0] for t in grid[::1000]])
    coarse_best = grid[::1000][int(np.argmax(amps))]
    assert abs(coarse_best - 2 * math.pi / (3 * math.sqrt(3))) < 0.05
    u = transition_matrix(dec, 2 * math.pi / (3 * math.sqrt(3)))
    assert abs(u[1, 0]) >= 1 - 1e-9


def test_k2_closed_form_oracle():
    h = hermitian_from_entries([[0, 1j], [-1j, 0]])
    dec = spectral_decomposition(h)
    for t in (0.3, math.pi / 2, 2.1):
        closed = math.cos(t) * np.eye(2) - 1j * math.sin(t) * h.array
        assert np.max(np.abs(transition_matrix(dec, t) - closed)) < 1e-12
    assert abs(transition_matrix(dec, math.pi / 2)[1, 0]) >= 1 - 1e-9


def test_group_law_and_unitarity_random_times():
    rng = np.random.default_rng(14)
    dec = spectral_decomposition(random_hermitian(rng, 6))
    for _ in range(8):
        t, s = rng.uniform(-10, 10, 2)
        ut = transition_matrix(dec, t)
        us = transition_matrix(dec, s)
        uts = transition_matrix(dec, t + s)
        assert np.max(np.abs(uts - ut @ us)) <= 1e-9
        assert np.max(np.abs(ut @ ut.conj().T - np.eye(6))) <= 1e-9
        assert np.max(np.abs(ut.conj().T - transition_matrix(dec, -t))) <= 1e-9


def test_trace_identity_zero_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        h = random_hermitian(rng, n).array.copy()
        np.fill_diagonal(h, 0)
        dec = spectral_decomposition(hermitian_from_entries(h))
        full = np.concatenate([[ev] * mult for ev, mult
                               in zip(dec.eigenvalues, dec.multiplicities)])
        lhs = sum((a - b) ** 2 for a in full for b in full)
        rhs = 2 * n * np.trace(h @ h).real
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


# --- kron ---------------------------------------------------------------------

def test_kron_basics():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))
    assert np.allclose(kron([[0, 1], [1, 0]], [[2]]), [[0, 2], [2, 0]])
    with pytest.raises(DimensionOverflow):
        kron(np.eye(70), np.eye(70))


def test_tensor_factor_exponential_identity():
    # exp(-it (H_X (x) J4)) == sum_r E_r (x) exp(-it theta_r J4) at t = 0.7
    h_x = hermitian_from_entries([[0, 1j], [-1j, 0]])
    j4 = np.ones((4, 4))
    t = 0.7
    big = spectral_decomposition(kron(h_x.array, j4))
    lhs = transition_matrix(big, t)
    dec_x = spectral_decomposition(h_x)
    dec_j = spectral_decomposition(j4)
    rhs = np.zeros((8, 8), dtype=complex)
    for r, theta in enumerate(dec_x.eigenvalues):
        rhs += np.kron(dec_x.projector(r), transition_matrix(dec_j, t * theta))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


# --- serialization -------------------------------------------------------------

def test_complex_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat = hermitian_from_entries(raw + raw.conj().T)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(mat.to_json()))
    loaded = HermitianMatrix.load(path)
    assert np.array_equal(mat.array, loaded.array)
    payload = json.loads(path.read_text())
    assert set(payload) == {"dim", "re", "im"}
    assert payload["dim"] == 4


def test_hermitian_json_roundtrip():
    h = hermitian_from_entries(K3_MATRIX)
    again = HermitianMatrix.from_json(h.to_json())
    assert np.allclose(h.array, again.array)


def test_hermitian_matrix_array_protocol():
    # np.asarray reads the read-only storage; np.array asks for a copy and
    # gets a writable one, so no caller can write through to the matrix
    h = hermitian_from_entries(K3_MATRIX)
    view = np.asarray(h)
    assert np.shares_memory(view, h.array) and not view.flags.writeable
    copy = np.array(h)
    assert not np.shares_memory(copy, h.array) and copy.flags.writeable
    with pytest.raises(ValueError):
        np.asarray(h, dtype=np.complex64, copy=False)  # would need a copy
    assert np.array_equal(hermitian_from_entries(h).array, h.array)
