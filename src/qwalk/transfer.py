"""State-transfer criteria: eigenvalue support, strong cospectrality and
quarrels, perfect-state-transfer certification, periodicity (ratio
condition), the Kronecker-criterion pretty-good-transfer checker, and
numeric fidelity sweeps.

Exact certification runs on Surd-valued spectra and quarrels that are
rational multiples of 2*pi; anything outside that carrier degrades to
numeric evidence, never to a false certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .linalg import SpectralDecomposition
from .numtheory import RelationLattice, Surd, relation_lattice, solve_congruences

SUPPORT_TOL = 1e-9
PROPORTIONALITY_TOL = 1e-8
PST_FIDELITY_TOL = 1e-8
PEAK_TIE_TOL = 1e-9
ALIGN_TOL = 1e-8
SWEEP_CHUNK_ENTRIES = 1 << 18  # phase-matrix or grid-block entries made at once
REFINE_TOP = 5  # best grid points always refined by a sweep
REFINE_ITERS = 60  # golden-section steps per refined peak
PGST_SWEEP_T_MAX = 200.0  # sweep window of pgst_verdict's numeric fallback
PGST_SWEEP_STEPS = 40_001
QUARREL_MAX_DENOMINATOR = 128
QUARREL_TOL = 1e-9  # radians between a phase and its recognized turn
TWO_PI = 2 * math.pi


class SupportMismatch(ValueError):
    def __init__(self, a, b, support_a, support_b):
        self.a, self.b = a, b
        self.support_a, self.support_b = tuple(support_a), tuple(support_b)
        super().__init__(
            f"vertices {a} and {b} have different eigenvalue supports "
            f"{self.support_a} vs {self.support_b}")


class NotProportional(ValueError):
    def __init__(self, a, b, index, residual):
        self.a, self.b, self.index, self.residual = a, b, index, residual
        super().__init__(
            f"E_{index} columns of vertices {a}, {b} are not unit-phase "
            f"proportional (residual {residual:.3e})")


def eigenvalue_support(dec: SpectralDecomposition, vertex: int) -> tuple[int, ...]:
    """Indices r with ||E_r e_vertex|| above SUPPORT_TOL."""
    if not 0 <= vertex < dec.dim:
        raise IndexError(f"vertex {vertex} out of range for dim {dec.dim}")
    return dec.support(vertex, SUPPORT_TOL)


@dataclass(frozen=True)
class QuarrelSet:
    """Per-eigenvalue phases q_r with E_r e_a = exp(i q_r) E_r e_b.

    phases are floats in [0, 2*pi); rationals holds q_r/(2*pi) as an exact
    Fraction where one was recognized, else None.
    """

    a: int
    b: int
    support: tuple[int, ...]
    phases: tuple[float, ...]
    rationals: tuple[Optional[Fraction], ...]

    @property
    def turns(self) -> Optional[list[Fraction]]:
        """The quarrels as exact fractions of a turn; None unless all are."""
        return None if None in self.rationals else list(self.rationals)


def _recognize_turn(phase: float) -> Optional[Fraction]:
    turn = (phase / TWO_PI) % 1.0
    cand = Fraction(turn).limit_denominator(QUARREL_MAX_DENOMINATOR)
    err = abs(turn - float(cand)) * TWO_PI
    err = min(err, abs(turn - float(cand) - 1.0) * TWO_PI,
              abs(turn - float(cand) + 1.0) * TWO_PI)
    return cand % 1 if err <= QUARREL_TOL else None


def strong_cospectrality(dec: SpectralDecomposition, a: int, b: int) -> QuarrelSet:
    """Quarrels of the pair (a, b), or a refusal naming the first offender.

    Raises SupportMismatch when the eigenvalue supports differ, and
    NotProportional when some projector column pair is not a unit-phase
    multiple entrywise within PROPORTIONALITY_TOL.
    """
    support = eigenvalue_support(dec, a)
    support_b = eigenvalue_support(dec, b)
    if support != support_b:
        raise SupportMismatch(a, b, support, support_b)
    if a == b:
        return QuarrelSet(a, b, support, (0.0,) * len(support),
                          (Fraction(0),) * len(support))
    inner = dec.entries(b, a)  # <E_r e_b, E_r e_a>
    norms = dec.support_norms
    phases, rationals = [], []
    for r in support:
        # an inner product at noise level relative to the column norms has
        # an arbitrary angle; the columns are far from proportional anyway
        if abs(inner[r]) > PROPORTIONALITY_TOL * norms[a, r] * norms[b, r]:
            q = float(np.angle(inner[r])) % TWO_PI
        else:
            q = 0.0
        residual = _column_residual(dec, r, a, b, q)
        if residual > PROPORTIONALITY_TOL:
            raise NotProportional(a, b, r, residual)
        phases.append(q)
        rationals.append(_recognize_turn(q))
    return QuarrelSet(a, b, support, tuple(phases), tuple(rationals))


def _column_residual(dec: SpectralDecomposition, r: int, a: int, b: int,
                     q: float) -> float:
    """max_i |(E_r e_a - exp(i q) E_r e_b)_i|, with the columns formed from
    the block V_r on demand."""
    v = dec.block(r)
    return float(np.max(np.abs(v @ (v[a].conj() - np.exp(1j * q) * v[b].conj()))))


@dataclass
class TransferVerdict:
    """Outcome of a transfer certification.

    kind is one of 'PST-certified', 'PST-numeric', 'PGST-certified',
    'absent-certified', 'numeric-evidence'.  'PST-numeric' is a sweep
    maximum within PST_FIDELITY_TOL of 1: float evidence of PST, not a
    certificate.
    """

    kind: str
    time: Optional[float] = None
    phase: Optional[complex] = None
    fidelity: Optional[float] = None
    witness: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def certified(self) -> bool:
        return self.kind in ("PST-certified", "PGST-certified")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "notes": self.notes}
        if self.time is not None:
            out["time"] = self.time
        if self.phase is not None:
            out["phase"] = {"re": self.phase.real, "im": self.phase.imag}
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        if self.witness:
            out["witness"] = _jsonable(self.witness)
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def pst_verdict(dec: SpectralDecomposition, a: int, b: int,
                exact: Optional[Sequence[Surd]] = None,
                t_max: Optional[float] = None,
                steps: Optional[int] = None) -> TransferVerdict:
    """Decide perfect state transfer from a to b.  exact, the exact
    spectrum in any order, is aligned with dec first; a strong cospectrality
    refusal is certified absence (a necessary condition fails).

    Exact mode (available when the exact spectrum covers the support with
    distinct symbol-free surds and every quarrel is a rational multiple of
    2*pi): solve_pst_congruences decides the phase condition exactly.  No
    solution is certified absence; the minimal solution tau is verified
    numerically against PST_FIDELITY_TOL before it is certified.

    Numeric mode (no exact carrier, or a failed verification): fidelity
    sweep over [0, t_max] with golden-section refinement; a refined maximum
    that clears 1 - PST_FIDELITY_TOL is reported as PST-numeric, anything
    lower as numeric evidence.
    """
    if exact is not None:
        exact = align_exact_spectrum(dec, exact)
    try:
        quarrels = strong_cospectrality(dec, a, b)
    except (SupportMismatch, NotProportional) as exc:
        return _refusal(exc)
    sup, turns = quarrels.support, quarrels.turns
    if len(sup) >= 2 and exact is not None and turns is not None:
        values = [exact[r] for r in sup]
        if (all(isinstance(v, Surd) and not v.has_symbols for v in values)
                and _strictly_ascending(values)):
            x, witness = solve_pst_congruences(values, turns)
            if x is None:
                return TransferVerdict(
                    "absent-certified", witness={"mode": "exact", **witness},
                    notes=f"no common transfer time ({witness['criterion']}, "
                          "decided exactly on rationally recognized quarrels)")
            tau = TWO_PI * float(x) / float(values[1] - values[0])
            fid = abs(transfer_amplitude(dec, a, b)(tau)[0])
            alpha = complex(np.exp(1j * (quarrels.phases[0]
                                         - tau * float(dec.eigenvalues[sup[0]]))))
            if fid >= 1 - PST_FIDELITY_TOL:
                return TransferVerdict(
                    "PST-certified", time=tau, phase=alpha, fidelity=float(fid),
                    witness={"mode": "exact", **witness},
                    notes="exact phase-congruence solution verified numerically")
    # numeric fallback
    if t_max is None:
        spread = float(dec.eigenvalues[-1] - dec.eigenvalues[0]) or 1.0
        t_max = max(50.0, 20 * TWO_PI / spread)
    if steps is None:
        steps = max(2001, int(t_max * 40) + 1)
    sweep = fidelity_sweep(dec, a, b, t_max, steps)
    if sweep.best_fidelity >= 1 - PST_FIDELITY_TOL:
        phase = complex(transfer_amplitude(dec, a, b)(sweep.best_time)[0])
        return TransferVerdict(
            "PST-numeric", time=sweep.best_time, phase=phase,
            fidelity=sweep.best_fidelity,
            witness={"mode": "numeric", "t_max": t_max},
            notes="numeric fidelity maximum at certification tolerance")
    return TransferVerdict(
        "numeric-evidence", time=sweep.best_time, fidelity=sweep.best_fidelity,
        witness={"mode": "numeric", "t_max": t_max},
        notes="no PST found in the sweep window; max fidelity reported")


def _strictly_ascending(values: Sequence[Surd]) -> bool:
    return all(float(w - v) > 0 for v, w in zip(values, values[1:]))


def solve_pst_congruences(values: Sequence[Surd], turns: Sequence[Fraction]):
    """Decide exactly whether the phase condition of perfect state transfer
    has a solution tau > 0, and find the least one.

    values are the support eigenvalues theta_r, strictly ascending, and
    turns the quarrels u_r as fractions of a full turn.  Transfer at tau
    needs tau*theta_r - 2*pi*u_r to agree mod 2*pi on the support, i.e. for
    consecutive differences dtheta_i, du_i and x = tau*dtheta_0/(2*pi):
    x = du_0 (mod 1) and r_i*x = du_i (mod 1) with r_i = dtheta_i/dtheta_0.
    An irrational r_i violates the ratio condition; otherwise
    numtheory.solve_congruences decides the congruences exactly.

    Returns (x, {"windings": [...]}) with the least x > 0, where the
    windings are the integers r_i*x - du_i, or (None, witness) naming the
    violated criterion.
    """
    if len(values) != len(turns) or len(values) < 2:
        raise ValueError("need at least two support values, one turn each")
    if not _strictly_ascending(values):
        raise ValueError("support values must be strictly ascending")
    ratios, witness = _ratio_condition(values)
    if ratios is None:
        return None, {"criterion": "ratio-condition", **witness}
    du = [Fraction(turns[i + 1]) - Fraction(turns[i]) for i in range(len(values) - 1)]
    solution, i = solve_congruences([(1, du[0] % 1)] + list(zip(ratios[1:], du[1:])))
    if solution is None:
        return None, {"criterion": "phase-congruence", "index": i,
                      "ratio": ratios[i], "du_0": du[0], "du_i": du[i],
                      "turns": list(turns)}
    offset, step = solution
    x = offset or step
    return x, {"windings": [int(r * x - d) for r, d in zip(ratios, du)]}


def _refusal(exc: ValueError) -> TransferVerdict:
    """The absent-certified verdict for a pair that strong_cospectrality
    refused with SupportMismatch or NotProportional.  Both are decided on
    floats (SUPPORT_TOL, PROPORTIONALITY_TOL), so the witness says so."""
    if isinstance(exc, SupportMismatch):
        detail = {"support_a": list(exc.support_a), "support_b": list(exc.support_b)}
    else:
        detail = {"eigenvalue_index": exc.index, "residual": exc.residual}
    return TransferVerdict(
        "absent-certified",
        witness={"mode": "numeric", "criterion": "strong-cospectrality", **detail},
        notes=str(exc))


def check_periodicity(support_values: Sequence[Surd]) -> tuple[bool, Optional[dict]]:
    """Ratio condition, decided exactly: all pairwise eigenvalue differences
    must be rational multiples of one another.

    Returns (True, None) or (False, witness) where the witness names a
    quadruple whose ratio is irrational."""
    raw = [v if isinstance(v, Surd) else Surd(v) for v in support_values]
    values = []
    for v in raw:  # the ratio condition lives on the support as a set
        if v not in values:
            values.append(v)
    if len(values) < 2:
        return True, None
    ratios, witness = _ratio_condition(values)
    return ratios is not None, witness


def _ratio_condition(values: Sequence[Surd]):
    """Ratios r_i = (theta_{i+1} - theta_i)/(theta_1 - theta_0) of the
    consecutive differences of distinct values, as (ratios, None), or
    (None, witness) at the first irrational one.

    Every difference theta_j - theta_i is a sum of consecutive ones, so the
    first irrational r_i makes (i + 1, 0) the first pair of an all-pairs
    scan whose difference is not a rational multiple of theta_1 - theta_0;
    the witness names that pair.  Costs one Surd.ratio per difference past
    the first."""
    base = values[1] - values[0]
    ratios = [Fraction(1)]
    for i in range(1, len(values) - 1):
        r = (values[i + 1] - values[i]).ratio(base)
        if r is None:
            return None, {"numerator_pair": (i + 1, 0),
                          "denominator_pair": (1, 0),
                          "numerator": repr(values[i + 1] - values[0]),
                          "denominator": repr(base)}
        ratios.append(r)
    return ratios, None


# ---------------------------------------------------------------------------
# Kronecker criterion for pretty good state transfer
# ---------------------------------------------------------------------------

def solve_phase_congruences(generators: Sequence[Sequence[int]],
                            turns: Sequence[Fraction]):
    """Find rational x = delta/(2*pi) with sum_r g_r*(u_r + x) in Z for every
    generator g, or report the generator that makes the system infeasible.

    Each generator imposes t_g * x = -s_g (mod 1) with t_g = sum(g) and
    s_g = sum g_r u_r, solved jointly by numtheory.solve_congruences.

    Returns (x, None) with x in [0, 1) on success and (None, witness) on
    failure.
    """
    sums = [sum(Fraction(c) * u for c, u in zip(g, turns)) for g in generators]
    solution, i = solve_congruences(
        (sum(g), -s_g) for g, s_g in zip(generators, sums))
    if solution is None:
        g = generators[i]
        violation = (f"s_g = {sums[i]} not an integer" if sum(g) == 0
                     else "incompatible congruence")
        return None, {"generator": list(g), "violation": violation,
                      "previous": [list(p) for p in generators[:i]]}
    return solution[0] % 1, None


def certify_pgst(eigenvalues_exact: Optional[Sequence[Surd]],
                 turns: Sequence[Fraction],
                 lattice: Optional[RelationLattice] = None,
                 notes: str = "") -> TransferVerdict:
    """Kronecker-criterion check for pretty good state transfer.

    turns holds the quarrels as exact fractions of a full turn, aligned
    with eigenvalues_exact (the support values).  The relation lattice is
    computed from the exact eigenvalues unless one is supplied (e.g. a
    superset lattice derived from trace conditions); a criterion that holds
    on a superset of the true lattice is still sufficient.
    """
    turns = [Fraction(u) for u in turns]
    if lattice is None:
        if eigenvalues_exact is None:
            raise ValueError("need exact eigenvalues or an explicit lattice")
        lattice = relation_lattice(list(eigenvalues_exact))
    if lattice.dim != len(turns):
        raise ValueError("lattice dimension does not match quarrel count")
    x, witness = solve_phase_congruences(lattice.generators, turns)
    if x is None:
        return TransferVerdict(
            "absent-certified",
            witness={"mode": "exact", "criterion": "kronecker", **witness,
                     "generators": lattice.generators},
            notes=notes or "incompatible integer relations (Kronecker criterion)")
    delta = TWO_PI * float(x)
    return TransferVerdict(
        "PGST-certified", phase=None, time=None,
        witness={"mode": "exact", "delta_turns": x, "delta": delta,
                 "generators": lattice.generators},
        notes=notes or "Kronecker criterion satisfied on the relation lattice")


def pgst_verdict(dec: SpectralDecomposition, a: int, b: int,
                 exact: Optional[Sequence[Surd]] = None,
                 lattice: Optional[RelationLattice] = None) -> TransferVerdict:
    """Decide pretty good state transfer from a to b: strong cospectrality,
    then the exact Kronecker check (certify_pgst) when the exact spectrum
    (in any order; aligned first) or a relation lattice is given and every
    quarrel is a recognized rational turn, else numeric evidence from a
    sweep over [0, PGST_SWEEP_T_MAX]."""
    if exact is not None:
        exact = align_exact_spectrum(dec, exact)
    try:
        quarrels = strong_cospectrality(dec, a, b)
    except (SupportMismatch, NotProportional) as exc:
        return _refusal(exc)
    turns = quarrels.turns
    if turns is not None and (exact is not None or lattice is not None):
        values = None if exact is None else [exact[r] for r in quarrels.support]
        return certify_pgst(values, turns, lattice)
    reason = ("no exact spectrum supplied" if exact is None and lattice is None
              else f"quarrels of pair ({a}, {b}) are not all recognized "
                   "rational multiples of 2*pi")
    sweep = fidelity_sweep(dec, a, b, PGST_SWEEP_T_MAX, PGST_SWEEP_STEPS)
    return TransferVerdict(
        "numeric-evidence", time=sweep.best_time, fidelity=sweep.best_fidelity,
        witness={"mode": "numeric", "t_max": PGST_SWEEP_T_MAX},
        notes=f"exact PGST check unavailable ({reason}); sweep evidence only")


# ---------------------------------------------------------------------------
# Numeric fidelity oracle
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    times: np.ndarray
    fidelities: np.ndarray
    best_time: float
    best_fidelity: float
    refined: list[tuple[float, float]]  # (t, fidelity) per refined peak

    def to_csv(self, fh) -> None:
        fh.write("t,fidelity\n")
        for t, f in zip(self.times, self.fidelities):
            fh.write(f"{t:.17g},{f:.17g}\n")


def transfer_amplitude(dec: SpectralDecomposition, a: int, b: int):
    """Closure t -> U(t)[b, a] = sum_r exp(-i t theta_r) E_r[b, a]."""
    thetas = np.asarray(dec.eigenvalues)
    coeffs = dec.entries(b, a)

    def amp(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-1j * np.outer(t, thetas)) @ coeffs

    return amp


def fidelity_sweep(dec: SpectralDecomposition, a: int, b: int,
                   t_max: float, steps: int) -> SweepResult:
    """Uniform fidelity grid on [0, t_max], refined by golden-section search
    and reported at the earliest peak that ties the best; deterministic for
    fixed arguments.

    Refined are the REFINE_TOP best grid points and every grid peak within
    slope*spacing/2 of the grid maximum, where slope = sum_r |E_r[b, a]|
    |theta_r - mid| bounds |d/dt U(t)[b, a]| up to a global phase, so no
    lower grid peak can hide the maximum.  The reported time is the earliest
    refined time whose fidelity is within PEAK_TIE_TOL of the best one.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    amp = transfer_amplitude(dec, a, b)
    chunk = max(1, SWEEP_CHUNK_ENTRIES // len(dec))

    def fidelity(t):
        out = np.empty(len(t))
        for lo in range(0, len(t), chunk):
            out[lo:lo + chunk] = np.abs(amp(t[lo:lo + chunk]))
        return out

    times = np.linspace(0.0, t_max, steps)
    spacing = t_max / (steps - 1)
    fid = _grid_fidelities(dec, a, b, spacing, steps)
    thetas = dec.eigenvalues
    slope = float(np.sum(np.abs(dec.entries(b, a))
                         * np.abs(thetas - (thetas[0] + thetas[-1]) / 2)))
    near = fid >= fid.max() - slope * spacing / 2
    near[1:] &= fid[1:] > fid[:-1]
    near[:-1] &= fid[:-1] >= fid[1:]
    top = min(REFINE_TOP, steps)
    near[np.argpartition(fid, steps - top)[steps - top:]] = True
    idx = np.flatnonzero(near)
    t_ref, f_ref = _golden_max(fidelity, np.maximum(times[idx] - spacing, 0.0),
                               np.minimum(times[idx] + spacing, t_max), REFINE_ITERS)
    keep_grid = fid[idx] >= f_ref
    t_ref = np.where(keep_grid, times[idx], t_ref)
    f_ref = np.where(keep_grid, fid[idx], f_ref)
    ties = np.flatnonzero(f_ref >= f_ref.max() - PEAK_TIE_TOL)
    pick = ties[np.argmin(t_ref[ties])]
    return SweepResult(times, fid, float(t_ref[pick]), float(f_ref[pick]),
                       list(zip(t_ref.tolist(), f_ref.tolist())))


def _grid_fidelities(dec: SpectralDecomposition, a: int, b: int,
                     spacing: float, steps: int) -> np.ndarray:
    """|U(k*spacing)[b, a]| for k = 0, ..., steps - 1.

    With K = ceil(sqrt(steps)) and k = j*K + s, U(t_k)[b, a] =
    sum_r (E_r[b, a] exp(-i theta_r j K spacing)) exp(-i theta_r s spacing):
    row j, column s of a (J x d)(d x K) product of two exponential tables,
    so O((J + K) d) exponentials in place of steps*d.  Rows are multiplied
    in blocks of at most SWEEP_CHUNK_ENTRIES entries, each written straight
    into the result.  A phase is off by about |theta_r| t eps in floats,
    as when exp(-i theta_r t_k) is evaluated directly.
    """
    thetas = dec.eigenvalues
    width = math.isqrt(steps - 1) + 1  # K = ceil(sqrt(steps))
    rows = -(-steps // width)
    inner = np.exp(-1j * spacing * np.outer(thetas, np.arange(width)))
    outer = np.exp(-1j * (width * spacing) * np.outer(np.arange(rows), thetas))
    outer *= dec.entries(b, a)
    fid = np.empty((rows, width))
    block = max(1, SWEEP_CHUNK_ENTRIES // width)
    for lo in range(0, rows, block):
        np.abs(outer[lo:lo + block] @ inner, out=fid[lo:lo + block])
    return fid.reshape(-1)[:steps]


def _golden_max(f, lo: np.ndarray, hi: np.ndarray,
                iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization of f on each interval [lo_k, hi_k] at
    once; f maps an array of times to an array of values."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc > fd  # the maximum lies in [a, d]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        kept = np.where(left, fc, fd)
        c, d = (np.where(left, b - invphi * (b - a), d),
                np.where(left, c, a + invphi * (b - a)))
        fx = f(np.where(left, c, d))
        fc, fd = np.where(left, fx, kept), np.where(left, kept, fx)
    mid = (a + b) / 2
    return mid, f(mid)


def align_exact_spectrum(dec: SpectralDecomposition,
                         values: Sequence[Surd]) -> list[Surd]:
    """Match each decomposition eigenvalue to the closest exact value,
    verifying agreement within ALIGN_TOL; the result is indexable by the
    decomposition's eigenvalue index."""
    floats = [float(v) for v in values]
    out = []
    for theta in dec.eigenvalues:
        errs = [abs(float(theta) - f) for f in floats]
        best = min(range(len(floats)), key=errs.__getitem__)
        if errs[best] > ALIGN_TOL:
            raise ValueError(
                f"eigenvalue {theta} has no exact counterpart within {ALIGN_TOL:.1e}")
        out.append(values[best])
    return out

