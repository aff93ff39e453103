"""Seeded inputs for the three benchmark workloads.

A query workload is a fixed list of 100 CLI argument vectors (one "pass"),
built from the seed and split into two halves of the same make-up: each
stratum's queries alternate between the halves, so both hold one
star-product PST query per m, half of the hypercube queries, and so on.
The benchmark times half-passes, which keeps the run close to its time
limit.  Every stratum has a fixed number of queries and the seed only
picks vertex pairs, matrix entries and the order, all among inputs of
equal cost, so the cost of a pass does not depend on the seed while the
inputs do.  Each query carries what the paper says about its vertex pair,
for the oracle:

  "pst"      perfect state transfer exists (absent-certified is wrong)
  "no-pst"   no perfect state transfer (a PST claim is wrong)
  "pgst"     pretty good state transfer exists (absent-certified is wrong)
  "no-pgst"  no pretty good state transfer (a PGST or PST claim is wrong)
  "reject"   a vertex is out of range: exit code 2 with a one-line message
  None       nothing known beyond what the oracle recomputes itself
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    stratum: str
    source: tuple  # ("family", name, extra args) or ("matrix", path)
    expect: Optional[str] = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _family(cmd: str, name: str, extra: tuple, a: int, b: int,
            stratum: str, expect: Optional[str]) -> Query:
    argv = (cmd, "--family", name) + extra + ("--from", str(a), "--to", str(b))
    return Query(argv, stratum, ("family", name, extra), expect)


def _ordered_pairs(vertices) -> list[tuple[int, int]]:
    return [(a, b) for a in vertices for b in vertices if a != b]


def _pick(rng, items, k: int) -> list:
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[int(i)] for i in idx]


def _halves(rng, out: list[Query]) -> tuple[list[Query], list[Query]]:
    """Deal the queries, listed stratum by stratum, alternately into two
    halves, and shuffle each half."""
    halves = (out[0::2], out[1::2])
    return tuple([h[int(i)] for i in rng.permutation(len(h))] for h in halves)


STAR_MS = (1, 2, 3, 6, 12, 27)
STAR_PGST = {1: True, 2: True, 3: False, 6: True, 12: False, 27: True}
ROOT_PAIRS = _ordered_pairs(range(3))


def certify_queries(seed: int) -> tuple[list[Query], list[Query]]:
    """100 pst-check/pgst-check queries on the families that carry exact
    spectra or closed forms (dimension at most 84), in two halves."""
    rng = np.random.default_rng([seed, 1])
    out: list[Query] = []
    for m in STAR_MS:
        extra = ("--m", str(m))
        for a, b in _pick(rng, ROOT_PAIRS, 2):
            out.append(_family("pst-check", "star-product", extra, a, b,
                               "star-pst", "no-pst"))
        for a, b in _pick(rng, ROOT_PAIRS, 2):
            out.append(_family("pgst-check", "star-product", extra, a, b,
                               "star-pgst", "pgst" if STAR_PGST[m] else "no-pgst"))
        root = int(rng.integers(3))
        leaf = 3 + root * m + int(rng.integers(m))
        out.append(_family("pst-check", "star-product", extra, root, leaf,
                           "star-root-leaf", None))
    for name, extra, dim in (("oriented-k2", (), 2), ("oriented-k3", (), 3),
                             ("upst-circulant", ("--n", "3"), 3)):
        for cmd in ("pst-check", "pgst-check"):
            for a, b in _ordered_pairs(range(dim)):
                out.append(_family(cmd, name, extra, a, b, "universal", "pst"))
    # one-way families: 2 -> 0 (4 vertices) and 0 -> 1, 2, 3 (8 vertices)
    # have PST; the reverse 0 -> 2 has none but is pretty good
    out.append(_family("pst-check", "one-way-4", (), 2, 0, "one-way", "pst"))
    out.append(_family("pst-check", "one-way-4", (), 0, 2, "one-way", "no-pst"))
    out.append(_family("pgst-check", "one-way-4", (), 2, 0, "one-way", "pst"))
    out.append(_family("pgst-check", "one-way-4", (), 0, 2, "one-way", "pgst"))
    for b in (1, 2, 3):
        out.append(_family("pst-check", "one-way-8", (), 0, b, "one-way", "pst"))
    for b in (1, 2):
        out.append(_family("pgst-check", "one-way-8", (), 0, b, "one-way", "pst"))
    for m in (2, 3, 4):
        extra = ("--n", "3", "--m", str(m))
        for cmd, expect in (("pst-check", None), ("pgst-check", "pgst")):
            for a, b in _pick(rng, ROOT_PAIRS, 2):  # first level of the path
                out.append(_family(cmd, "looped-path", extra, a, b,
                                   "looped-path", expect))
    block_pairs = [(4 * h + i, 4 * h + j) for h in range(2)
                   for i, j in _ordered_pairs(range(4))]
    for cmd in ("pst-check", "pgst-check"):
        for a, b in _pick(rng, block_pairs, 4):
            out.append(_family(cmd, "c4-tensor-k2", (), a, b, "c4-tensor", "pst"))
    for n in (4, 6, 8):
        extra = ("--n", str(n))
        antipodal = [(a, (a + n // 2) % n) for a in range(n)]
        other = [p for p in _ordered_pairs(range(n)) if p not in antipodal]
        (a, b), = _pick(rng, antipodal, 1)
        expect = "pst" if n == 4 else None
        out.append(_family("pst-check", "oriented-cycle", extra, a, b, "cycle", expect))
        out.append(_family("pgst-check", "oriented-cycle", extra, a, b, "cycle",
                           "pgst" if n == 4 else None))
        (a, b), = _pick(rng, other, 1)
        out.append(_family("pst-check", "oriented-cycle", extra, a, b, "cycle", None))
    small = (("oriented-k2", (), 2), ("oriented-k3", (), 3),
             ("upst-circulant", ("--n", "3"), 3), ("oriented-cycle", ("--n", "4"), 4))
    for i in range(4):
        name, extra, dim = small[int(rng.integers(len(small)))]
        cmd = ("pst-check", "pgst-check")[i % 2]
        bad = dim + int(rng.integers(6))
        good = int(rng.integers(dim))
        a, b = (good, bad) if i < 2 else (bad, good)
        out.append(_family(cmd, name, extra, a, b, "out-of-range", "reject"))
    assert len(out) == 100, len(out)
    return _halves(rng, out)


def random_hermitian(rng, n: int) -> np.ndarray:
    """Dense complex Hermitian matrix with a simple spectrum (every gap at
    least 1e-6, far above the program's clustering tolerance)."""
    while True:
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (raw + raw.conj().T) / 2
        if float(np.min(np.diff(np.linalg.eigvalsh(h)))) > 1e-6:
            return h


def write_matrix(path: str, h: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump({"dim": h.shape[0], "re": h.real.tolist(),
                   "im": h.imag.tolist()}, fh)


# even counts, so that the two halves of a pass get one of each pair
RANDOM_PST_SIZES = {32: 8, 48: 6, 64: 4, 80: 2, 96: 2}
RANDOM_SWEEP_SIZES = {32: 2, 48: 2, 64: 2}
RANDOM_ANALYZE_SIZES = {32: 2, 48: 2}


def spectral_queries(seed: int, workdir: str) -> tuple[list[Query], list[Query]]:
    """100 pst-check/sweep/analyze queries on dense random Hermitian
    matrices (32..96 vertices, simple spectrum) and on the oriented
    hypercubes of 128 and 512 vertices, in two halves.  Matrix files go to
    workdir."""
    rng = np.random.default_rng([seed, 2])
    out: list[Query] = []
    pool: dict[int, list[str]] = {}
    for n, count in RANDOM_PST_SIZES.items():
        for i in range(count):
            path = os.path.join(workdir, f"random-{n}-{i}.json")
            write_matrix(path, random_hermitian(rng, n))
            pool.setdefault(n, []).append(path)
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            out.append(Query(("pst-check", "--matrix", path, "--from", str(a),
                              "--to", str(b)), "random-pst", ("matrix", path)))
    for sizes, cmd in ((RANDOM_SWEEP_SIZES, "sweep"),
                       (RANDOM_ANALYZE_SIZES, "analyze")):
        for n, count in sizes.items():
            for path in _pick(rng, pool[n], count):
                argv = (cmd, "--matrix", path)
                if cmd == "sweep":
                    a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
                    argv += ("--from", str(a), "--to", str(b))
                out.append(Query(argv, f"random-{cmd}", ("matrix", path)))
    # vertex v of the oriented (2m+1)-cube has PST to its complement at pi/2
    for m, cmd, antipodal, other in ((3, "pst-check", 20, 36), (3, "sweep", 2, 2),
                                     (4, "pst-check", 2, 2), (4, "sweep", 1, 1)):
        dim = 1 << (2 * m + 1)
        extra = ("--m", str(m))
        for i in range(antipodal + other):
            a = int(rng.integers(dim))
            if i < antipodal:
                b, expect = a ^ (dim - 1), "pst"
            else:
                b = a ^ int(rng.integers(1, dim - 1))
                expect = None
            out.append(_family(cmd, "hypercube", extra, a, b,
                               f"hypercube-{cmd}", expect))
    for name, m in (("hypercube", 3), ("c4-tensor-cube", 2)):
        extra = ("--m", str(m))
        out.append(Query(("analyze", "--family", name) + extra, "family-analyze",
                         ("family", name, extra)))
    assert len(out) == 100, len(out)
    return _halves(rng, out)
