"""Correctness oracle, independent of ``qwalk.linalg`` and ``qwalk.transfer``.

Transfer amplitudes are recomputed from the benchmark's own complex
``np.linalg.eigh`` of the matrix the program was asked about (a family's
matrix comes from ``qwalk construct``).  Runs outside the timed region.

``check`` returns (failed, wrong, reason): every failure counts against
``failed``; ``wrong`` marks an output that is present but incorrect (a
false certificate, a wrong spectrum), which makes the run incorrect.
"""

from __future__ import annotations

import json
import re

import numpy as np

PST_TOL = 1e-8
RECOMPUTE_TOL = 1e-8
EIGENVALUE_TOL = 1e-8
SWEEP_LINE = re.compile(r"max fidelity (\S+) at t = (\S+)")


class Oracle:
    def __init__(self, run_cli):
        self._run_cli = run_cli
        self._eig: dict[tuple, tuple] = {}

    def _matrix(self, source) -> np.ndarray:
        if source[0] == "matrix":
            with open(source[1]) as fh:
                data = json.load(fh)
        else:
            _, name, extra = source
            outcome = self._run_cli(("construct", "--family", name) + extra)
            if outcome.rc != 0 or outcome.exc:
                raise RuntimeError(f"construct {name} {extra} failed: "
                                   f"{outcome.exc or outcome.stderr}")
            data = json.loads(outcome.stdout)
        return np.array(data["re"]) + 1j * np.array(data["im"])

    def eig(self, source) -> tuple[np.ndarray, np.ndarray]:
        if source not in self._eig:
            self._eig[source] = np.linalg.eigh(self._matrix(source))
        return self._eig[source]

    def amplitude(self, source, a: int, b: int, times) -> np.ndarray:
        """|U(t)[b, a]| for U(t) = exp(-i t H)."""
        w, v = self.eig(source)
        t = np.atleast_1d(np.asarray(times, dtype=float))
        coeffs = v[b, :] * v[a, :].conj()
        return np.abs(np.exp(-1j * np.outer(t, w)) @ coeffs)

    def check(self, query, outcome) -> tuple[bool, bool, str]:
        if query.expect == "reject":
            lines = [ln for ln in outcome.stderr.splitlines() if ln.strip()]
            if outcome.exc is None and outcome.rc == 2 and len(lines) == 1 \
                    and not outcome.stdout.strip():
                return False, False, ""
            return True, False, ("out-of-range vertex not rejected with exit 2 "
                                 f"and one line: {outcome.exc or outcome.rc}")
        if outcome.exc is not None:
            return True, False, f"exception {outcome.exc}"
        if outcome.rc != 0:
            return True, False, f"exit code {outcome.rc}: {outcome.stderr.strip()}"
        check = {"pst-check": self._verdict, "pgst-check": self._verdict,
                 "sweep": self._sweep, "analyze": self._analyze}[query.command]
        try:
            reason = check(query, outcome)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output ({exc!r})"
        return bool(reason), bool(reason), reason

    def _pair(self, query) -> tuple[int, int]:
        argv = query.argv
        return int(argv[argv.index("--from") + 1]), int(argv[argv.index("--to") + 1])

    def _verdict(self, query, outcome) -> str:
        v = json.loads(outcome.stdout)
        kind, expect = v["kind"], query.expect
        a, b = self._pair(query)
        if kind.startswith("PST"):
            if expect in ("no-pst", "no-pgst"):
                return f"{kind} on a pair without PST"
            fid = float(self.amplitude(query.source, a, b, v["time"])[0])
            if fid < 1 - PST_TOL:
                return f"{kind} at t={v['time']} but |U(t)[b,a]| = {fid!r}"
        elif kind == "PGST-certified":
            if expect == "no-pgst":
                return "PGST-certified on a pair without PGST"
        elif kind == "absent-certified":
            if expect in ("pst", "pgst"):
                return "absent-certified on a pair with transfer"
        elif kind == "numeric-evidence":
            if "time" in v and "fidelity" in v:
                fid = float(self.amplitude(query.source, a, b, v["time"])[0])
                if abs(fid - v["fidelity"]) > RECOMPUTE_TOL:
                    return (f"reported fidelity {v['fidelity']!r} at t={v['time']}, "
                            f"recomputed {fid!r}")
        else:
            return f"unknown verdict kind {kind!r}"
        return ""

    def _sweep(self, query, outcome) -> str:
        lines = outcome.stdout.splitlines()
        if lines[0] != "t,fidelity":
            return "sweep CSV header missing"
        grid = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        match = SWEEP_LINE.search(outcome.stderr)
        if match is None:
            return "sweep maximum line missing"
        best_f, best_t = float(match.group(1)), float(match.group(2))
        a, b = self._pair(query)
        recomputed = float(self.amplitude(query.source, a, b, best_t)[0])
        if abs(recomputed - best_f) > RECOMPUTE_TOL:
            return f"sweep maximum {best_f!r} at t={best_t}, recomputed {recomputed!r}"
        if best_f < float(np.max(grid[:, 1])) - RECOMPUTE_TOL:
            return "refined sweep maximum below the grid maximum"
        rows = [0, len(grid) // 2, int(np.argmax(grid[:, 1]))]
        err = np.abs(self.amplitude(query.source, a, b, grid[rows, 0]) - grid[rows, 1])
        if float(np.max(err)) > RECOMPUTE_TOL:
            return f"sweep grid value off by {float(np.max(err)):.3e}"
        return ""

    def _analyze(self, query, outcome) -> str:
        report = json.loads(outcome.stdout)
        w, _ = self.eig(query.source)
        if report["dim"] != len(w) or len(report["supports"]) != len(w):
            return "analyze dimension mismatch"
        full = np.repeat(report["eigenvalues"], report["multiplicities"])
        if full.shape != w.shape:
            return "analyze multiplicities do not add up to the dimension"
        err = float(np.max(np.abs(np.sort(full) - w)))
        if err > EIGENVALUE_TOL:
            return f"analyze eigenvalues off by {err:.3e}"
        if query.source[1] == "hypercube":  # PST pairs are strongly cospectral
            listed = {(p["a"], p["b"]) for p in report["strongly_cospectral_pairs"]}
            n = len(w)
            missing = [v for v in range(n // 2) if (v, v ^ (n - 1)) not in listed]
            if missing:
                return f"antipodal pair of vertex {missing[0]} not strongly cospectral"
        return ""
