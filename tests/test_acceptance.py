"""Acceptance battery: one test per criterion, each printing its pass/fail
line; the same callables back the `qwalk verify-paper` command."""

import dataclasses
import io
import time
from fractions import Fraction

import pytest

import qwalk.verify
from qwalk.verify import CRITERIA, run_battery


@pytest.mark.parametrize("name,criterion,budget",
                         CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, criterion, budget, capsys):
    start = time.perf_counter()
    passed, detail = criterion()
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        tag = "PASS" if passed else "FAIL"
        print(f"[{tag}] {name} ({elapsed:.2f}s) {detail}")
    assert passed, detail
    assert elapsed <= budget, f"runtime {elapsed:.2f}s over the {budget:.0f}s budget"


def test_battery_runner_reports_all():
    stream = io.StringIO()
    status = run_battery(stream)
    text = stream.getvalue()
    assert status == 0
    assert text.count("[PASS]") == len(CRITERIA)
    assert f"{len(CRITERIA)}/{len(CRITERIA)} criteria passed" in text


@pytest.mark.parametrize("level", [1, 2])
def test_looped_path_criterion_checks_every_level(monkeypatch, level):
    # alter the quarrels of one level pair of the m = 2 product (n = 3:
    # vertices 3*(level-1) and 3*(level-1) + 1); the criterion must notice
    real = qwalk.verify.strong_cospectrality
    pair = (3 * (level - 1), 3 * (level - 1) + 1)

    def altered(dec, a, b):
        quarrels = real(dec, a, b)
        if (a, b) != pair or len(dec.eigenvalues) != 6:
            return quarrels
        turns = (quarrels.rationals[0] + Fraction(1, 3),) + quarrels.rationals[1:]
        return dataclasses.replace(quarrels, rationals=turns)

    monkeypatch.setattr(qwalk.verify, "strong_cospectrality", altered)
    passed, detail = qwalk.verify.crit_looped_path_product()
    assert not passed
    assert detail.startswith(f"m=2, level {level}: quarrel turns")
