"""Hermitian matrices, Hermitian eigendecomposition with eigenvalue
clustering, and spectral-form matrix exponentials.

One complex eigensolve gives orthonormal eigenvectors V, kept as column
blocks V_r, one per eigenvalue cluster.  Projectors E_r = V_r V_r^* are not
stored: entries, columns and support norms ||E_r e_v|| = ||V_r^* e_v|| are
read from the blocks, in O(n^2) space and O(n^3) validation.
"""

from __future__ import annotations

import json
import warnings
from functools import cached_property

import numpy as np

CLUSTER_TOL = 1e-8  # eigensolve: consecutive eigenvalues this close are one
HERMITIAN_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8
MAX_KRON_DIM = 4096


class NotSquare(ValueError):
    pass


class NotHermitian(ValueError):
    pass


class DimensionOverflow(ValueError):
    pass


class EigensolverFailure(RuntimeError):
    pass


class ClusterAmbiguityWarning(UserWarning):
    """Two eigenvalue clusters are separated by less than 10x CLUSTER_TOL."""


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


class HermitianMatrix:
    """Hermitian matrix held as one read-only complex array; construct
    through hermitian_from_entries, from_json or load."""

    def __init__(self, arr: np.ndarray):
        arr.setflags(write=False)
        self._arr = arr

    @property
    def dim(self) -> int:
        return self._arr.shape[0]

    @property
    def array(self) -> np.ndarray:
        return self._arr

    def __array__(self, dtype=None, copy=None):
        return np.array(self._arr, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "re": self._arr.real.tolist(),
                "im": self._arr.imag.tolist()}

    @classmethod
    def from_json(cls, d: dict) -> "HermitianMatrix":
        try:
            re, im = np.array(d["re"], dtype=float), np.array(d["im"], dtype=float)
            dim = d["dim"]
        except (KeyError, TypeError):
            raise ValueError('matrix JSON must be an object with "dim", "re" '
                             'and "im" keys') from None
        if re.shape != (dim, dim) or im.shape != re.shape:
            raise ValueError("re/im blocks do not match declared dim")
        return hermitian_from_entries(re + 1j * im)

    @classmethod
    def load(cls, path) -> "HermitianMatrix":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def hermitian_from_entries(entries) -> HermitianMatrix:
    """Validate near-Hermitian input and return the symmetrization
    (A + A*)/2 with an exactly real diagonal."""
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    # a is this call's own copy and becomes the result; work is the one
    # n x n temporary, row-major like a, so the elementwise passes below run
    # over contiguous memory
    work = np.empty_like(a)
    np.subtract(a, np.conj(a.T, out=work), out=work)
    np.abs(work, out=work)
    asym = float(work.real.max(initial=0.0))
    if asym > HERMITIAN_TOL:
        raise NotHermitian(
            f"asymmetry {asym:.3e} exceeds tolerance {HERMITIAN_TOL:.1e}")
    a += np.conj(a.T, out=work)
    del work
    a /= 2
    np.fill_diagonal(a, a.diagonal().real)
    return HermitianMatrix(a)


class SpectralDecomposition:
    """H = sum_r theta_r E_r with E_r = V_r V_r^*: the distinct eigenvalues
    theta_r, ascending, and the orthonormal eigenvector matrix V whose
    consecutive column blocks V_r have the multiplicities as widths, all
    held as read-only arrays.  exact holds theta_r as an exact value (a
    Surd) for each r when the decomposition was built by closed_form, else
    None.  lattice is None unless the builder passes one: a RelationLattice
    over the theta_r, in this order, that holds every integer relation among
    them (a superset will do)."""

    def __init__(self, eigenvalues, vectors, multiplicities, *, exact=None,
                 lattice=None):
        self.exact = exact
        self.lattice = lattice
        self.eigenvalues = np.array(eigenvalues, dtype=float)
        self.vectors = np.array(vectors, dtype=complex)
        self.offsets = np.cumsum([0, *multiplicities])
        for arr in (self.eigenvalues, self.vectors, self.offsets):
            arr.setflags(write=False)
        if (len(self.offsets) != len(self.eigenvalues) + 1
                or np.any(np.diff(self.offsets) < 1)
                or self.vectors.shape != (self.offsets[-1],) * 2):
            raise ValueError("need a square eigenvector matrix and one "
                             "positive multiplicity per eigenvalue")

    @classmethod
    def closed_form(cls, labels, blocks) -> "SpectralDecomposition":
        """The columns of blocks[k] are eigenvectors for the exact eigenvalue
        labels[k].  Blocks with equal labels are stacked as given, column for
        column, into one block, blocks run in ascending order and theta_r =
        float(label).  validate is what proves them: its orthonormality check
        the stacked columns, its reconstruction check against the matrix the
        labels."""
        merged: dict = {}
        for label, block in zip(labels, blocks):
            merged.setdefault(label, []).append(np.asarray(block, dtype=complex))
        exact = sorted(merged, key=float)
        thetas = [float(label) for label in exact]
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("distinct exact eigenvalues round to one float")
        return cls(thetas, np.hstack([b for v in exact for b in merged[v]]),
                   [sum(b.shape[1] for b in merged[v]) for v in exact],
                   exact=exact)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @property
    def multiplicities(self) -> list[int]:
        return np.diff(self.offsets).tolist()

    def block(self, r: int) -> np.ndarray:
        return self.vectors[:, self.offsets[r]:self.offsets[r + 1]]

    def projector(self, r: int) -> np.ndarray:
        """E_r as a dense n x n matrix; for closed forms and checks only."""
        v = self.block(r)
        return v @ v.conj().T

    def entries(self, b: int, a: int) -> np.ndarray:
        """E_r[b, a] for every r: products of rows b and a of the blocks."""
        return np.add.reduceat(self.vectors[b] * self.vectors[a].conj(),
                               self.offsets[:-1])

    @cached_property
    def support_norms(self) -> np.ndarray:
        """n x d matrix of ||E_r e_v|| = ||V_r^* e_v||, computed once."""
        return np.sqrt(np.add.reduceat(np.abs(self.vectors) ** 2,
                                       self.offsets[:-1], axis=1))

    def matrix(self) -> np.ndarray:
        """V Lambda V^*, as conj(conj(V) Lambda V^T): one n x n temporary."""
        thetas = np.repeat(self.eigenvalues, self.multiplicities)
        m = (self.vectors.conj() * thetas) @ self.vectors.T
        return np.conjugate(m, out=m)

    def validate(self, h) -> None:
        """Check, in O(n^3), that V is orthonormal and that sum_r theta_r E_r
        reconstructs h.  What keeps distinct eigenvalues apart is decided by
        the builder: the eigensolve's clustering or a closed form's proof."""
        gram = self.vectors.conj().T @ self.vectors
        gram[np.diag_indices(self.dim)] -= 1
        err = _max_abs(gram)
        del gram  # freed before matrix() builds the reconstruction
        if err > ORTHONORMALITY_TOL:
            raise EigensolverFailure(
                f"eigenvectors are not orthonormal (error {err:.3e})")
        residual = self.matrix()
        residual -= np.asarray(h)
        err = _max_abs(residual)
        if err > RECONSTRUCTION_TOL:
            raise EigensolverFailure(
                f"reconstruction error {err:.3e} exceeds {RECONSTRUCTION_TOL:.1e}")


def spectral_decomposition(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, clustering sorted eigenvalues with
    consecutive gaps at most CLUSTER_TOL into one block each (multiplicities
    detected, never assumed), and validate the result against the input."""
    herm = h if isinstance(h, HermitianMatrix) else hermitian_from_entries(h)
    a = herm.array
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc

    starts = np.concatenate(([0], np.flatnonzero(np.diff(w) > CLUSTER_TOL) + 1))
    widths = np.diff(np.append(starts, len(w)))
    eigenvalues = np.add.reduceat(w, starts) / widths

    ambiguous = int(np.count_nonzero(np.diff(eigenvalues) < 10 * CLUSTER_TOL))
    if ambiguous:
        warnings.warn(
            f"{ambiguous} eigenvalue gap(s) within 10x CLUSTER_TOL; "
            "clustering may be ambiguous", ClusterAmbiguityWarning)

    dec = SpectralDecomposition(eigenvalues, v, widths)
    del v  # dec holds its own copy; free this one before the O(n^3) checks
    dec.validate(a)
    return dec


def transition_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """U(t) = V exp(-i t Lambda) V^* = sum_r exp(-i t theta_r) E_r."""
    phases = np.exp(-1j * t * np.repeat(dec.eigenvalues, dec.multiplicities))
    return (dec.vectors * phases) @ dec.vectors.conj().T


def check_kron_dim(out_dim: int) -> None:
    """Refuse a Kronecker product of dimension above MAX_KRON_DIM; a
    builder calls it before allocating the factors."""
    if out_dim > MAX_KRON_DIM:
        raise DimensionOverflow(
            f"kron output dimension {out_dim} exceeds limit {MAX_KRON_DIM}")


def kron(a, b) -> np.ndarray:
    """Kronecker product with a guard on the output dimension."""
    aa = np.asarray(a, dtype=complex)
    bb = np.asarray(b, dtype=complex)
    check_kron_dim(aa.shape[0] * bb.shape[0])
    return np.kron(aa, bb)
