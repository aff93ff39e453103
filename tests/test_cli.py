import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qwalk.cli import build_parser, main
from qwalk.constructions import FAMILIES
from qwalk.transfer import PST_FIDELITY_TOL


def run_cli(capsys, *argv):
    """main(argv) as (exit code, stdout, stderr); -h's SystemExit gives its code."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pst_check_oriented_k3(capsys):
    code, out, _ = run_cli(capsys, "pst-check", "--family", "oriented-k3",
                           "--from", "0", "--to", "1")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "PST-certified"
    assert abs(verdict["time"] - 1.2091995761561452) < 1e-9
    assert verdict["fidelity"] >= 1 - 1e-8


def test_pst_check_deterministic(capsys):
    _, first, _ = run_cli(capsys, "pst-check", "--family", "oriented-k3",
                          "--from", "1", "--to", "2")
    _, second, _ = run_cli(capsys, "pst-check", "--family", "oriented-k3",
                           "--from", "1", "--to", "2")
    assert first == second


@pytest.mark.parametrize("flags", [
    ("oriented-cycle", "--n", "5", "--from", "0", "--to", "0"),
    ("oriented-cycle", "--n", "7", "--from", "0", "--to", "0"),
])
def test_self_pair_trivial_return_is_not_numeric_pst(capsys, flags):
    # F(0) = 1 for a self pair: a best sweep peak at t = 0 is no transfer,
    # and no refined peak after t = 0 reaches PST_FIDELITY_TOL (n = 5's
    # best is 0.99938)
    code, out, _ = run_cli(capsys, "pst-check", "--family", *flags)
    assert code == 0
    verdict = json.loads(out)
    assert (verdict["kind"], verdict["time"]) == ("numeric-evidence", 0.0)
    assert verdict["notes"].startswith("best sweep peak is the trivial return at t = 0")


def test_periodic_self_pair_is_numeric_pst_at_first_return(capsys):
    # the hypercube m=1 walk returns to vertex 3 at t = pi: the earliest
    # refined peak after the trivial return at t = 0 reaches the tolerance
    code, out, _ = run_cli(capsys, "pst-check", "--family", "hypercube",
                           "--m", "1", "--from", "3", "--to", "3")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "PST-numeric"
    assert verdict["witness"]["mode"] == "numeric"
    assert abs(verdict["time"] - math.pi) <= 1e-9
    assert verdict["fidelity"] >= 1 - PST_FIDELITY_TOL
    assert verdict["notes"].startswith("earliest refined peak after the trivial return")


def test_classify_star_range(capsys):
    code, out, _ = run_cli(capsys, "classify-star", "--m", "1..30")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,case,pgst,s,h,k"
    assert len(lines) == 31
    from qwalk.star import classify_star_m
    for line in lines[1:]:
        m = int(line.split(",")[0])
        want = "true" if classify_star_m(m).pgst else "false"
        assert line.split(",")[2] == want


def test_search_upst_n4(capsys):
    code, out, err = run_cli(capsys, "search-upst", "--n", "4")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 80
    assert all(r["verdict"] != "survives" for r in reports)
    assert "0 survivor(s)" in err


# sha256 of search-upst's stdout and stderr for each n, pinned so that a
# change to the classification pipeline cannot change what it prints
SEARCH_UPST_SHA256 = {
    2: ("2b19f06c59a36f2a0d12fe5336532be07c5517ce1f46670b550fffe3528be72b",
        "9ea9d9d0b7f78c12a9dd947d51829c498840002508169f27d10d6fcfc0ed98f3"),
    3: ("25f5cf45369b9aadaad06643ce13520d1a88db7c51aeb0c809a10140b0cf0a0e",
        "4aca95d2dca331270245fdfe293195e853ac8ac2989ea7d1d38ede15ce68a635"),
    4: ("2b652b439ae3f8c03e810b07edd6c404b8f8650924adfe84f1fe9952d7ccfd7d",
        "1870629197b04c5d8a8575a8515d088148036f933f59c374635badd1d016ec07"),
    5: ("23470edd0a7a860580abe96125c883af928cf3336ef6ec5e37de03901693d0dc",
        "c84ca2701b05f2fa44947e63a077f8437a54a7bd48dc5b07d61b839c111bdc84"),
    6: ("1ffd92624d5046b0d119fadac8421f1a47fe000c0d4bc0a498b36651cc6b9051",
        "cf632156d1eedd6780b750788dab6f218abce79f69fde2fb1522b25847530466"),
    7: ("ca65f56d92d5906c42a2e4d90fd81685358d1e3dd4a1fec70a6e624b06b4e745",
        "fbb6f7982297d5ee581772a7dc1713c94424b4453be483b6f7f4799ab7d26630"),
    8: ("ee5ac1ce2afb606c6937e9dc9e4c8fd9fe543ba4f67abbc5d1b4dc62ab1b9e3e",
        "fbb6f7982297d5ee581772a7dc1713c94424b4453be483b6f7f4799ab7d26630"),
    9: ("608311490510b096e2297fe6ae4b728f9167e8d9b9303cda22f7128c23cebf48",
        "bc21d1580a295fceb3acce40c6fa0a0c324f2855452901668f66113acc8a658a"),
    10: ("03a28d35c4b5a8d730f90d44956d02ef55034ae7b9c7dc74c012fc5dba407d72",
         "bc21d1580a295fceb3acce40c6fa0a0c324f2855452901668f66113acc8a658a"),
    11: ("6d0183f8e9bdbb5769d7d442b5395b753958e03b098234a558cc310229793c53",
         "bc21d1580a295fceb3acce40c6fa0a0c324f2855452901668f66113acc8a658a"),
    12: ("bc9f9c1932e32ff003ff259b90dd31df823c922cffc6ba8c3d1d9d2cb0d0f862",
         "bc21d1580a295fceb3acce40c6fa0a0c324f2855452901668f66113acc8a658a"),
    13: ("e6a7912ab44043c961365821ac0da0958b7c85cf574a5b1d50fead43e5301117",
         "bc21d1580a295fceb3acce40c6fa0a0c324f2855452901668f66113acc8a658a"),
}


@pytest.mark.parametrize("n", sorted(SEARCH_UPST_SHA256))
def test_search_upst_output_pinned(capsys, n):
    code, out, err = run_cli(capsys, "search-upst", "--n", str(n))
    assert code == 0
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (out, err))
    assert digests == SEARCH_UPST_SHA256[n]


def test_construct_star_product_vertex_layout(capsys):
    # position-major: base vertex k is index k and its pendant i = 1..3 is
    # index 3*i + k, so the pendants of vertex 0 are 3, 6 and 9
    code, out, err = run_cli(capsys, "construct", "--family", "star-product", "--m", "3")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    h = np.array(payload["re"]) + 1j * np.array(payload["im"])
    assert payload["dim"] == 12
    assert np.array_equal(h[:3, :3], [[0, -1j, 1j], [1j, 0, -1j], [-1j, 1j, 0]])
    for k in range(3):
        assert np.flatnonzero(h[k, 3:]).tolist() == [k, k + 3, k + 6]
        for i in (1, 2, 3):
            assert np.flatnonzero(h[3 * i + k]).tolist() == [k]
            assert h[3 * i + k, k] == 1


def test_construct_and_reload(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"family": "upst_circulant", "n": 3,
                                "alpha": "0", "beta": "1", "h": 1,
                                "c": [0, 0, 0]}))
    out_path = tmp_path / "matrix.json"
    code, _, _ = run_cli(capsys, "construct", "--spec", str(spec),
                         "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["dim"] == 3
    # feed the written matrix back through analyze
    code, out, _ = run_cli(capsys, "analyze", "--matrix", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 3
    assert np.allclose(report["eigenvalues"], [0, 1, 2], atol=1e-9)
    assert len(report["strongly_cospectral_pairs"]) == 3


def test_analyze_family(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "oriented-k3")
    assert code == 0
    report = json.loads(out)
    assert report["supports"] == {"0": [0, 1, 2], "1": [0, 1, 2],
                                  "2": [0, 1, 2]}


def test_sweep_csv_output(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--family", "oriented-k2",
                           "--from", "0", "--to", "1",
                           "--t-max", "4", "--steps", "401",
                           "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,fidelity"
    assert len(lines) == 402
    assert "max fidelity" in err
    ts, fs = zip(*(map(float, line.split(",")) for line in lines[1:]))
    peak = fs.index(max(fs))
    assert abs(ts[peak] - math.pi / 2) < 0.02


def test_pgst_check_looped_path(capsys):
    code, out, _ = run_cli(capsys, "pgst-check", "--family", "looped_path",
                           "--n", "3", "--m", "2", "--from", "0", "--to", "1")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "PGST-certified"


def _looped_path_pgst(capsys, m, a=0, b=1):
    return run_cli(capsys, "pgst-check", "--family", "looped-path", "--n", "3",
                   "--m", str(m), "--from", str(a), "--to", str(b))


def _assert_looped_path_exact(capsys, m):
    code, out, _ = _looped_path_pgst(capsys, m)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "PGST-certified"
    assert verdict["witness"]["mode"] == "exact"


@pytest.mark.parametrize("m", range(2, 8))
def test_pgst_check_looped_path_exact_up_to_m_7(capsys, m):
    _assert_looped_path_exact(capsys, m)


@pytest.mark.parametrize("m", range(8, 19))
def test_pgst_check_looped_path_exact_from_m_8_to_18(capsys, m):
    # the loop-bound states of different Fourier branches lie 1.2e-7 apart
    # at m = 8 and 1.2e-9 at m = 10: an eigensolve clustered at 1e-8
    # merges them, the family's closed form keeps them apart
    _assert_looped_path_exact(capsys, m)


@pytest.mark.parametrize("m", range(19, 31))
def test_pgst_check_looped_path_level_pairs_never_refused(capsys, m):
    # from m = 19 the cross-branch gaps (about 1e-18) fall below the float
    # spacing and two eigenvalues may round to one float; the closed form
    # keeps them in separate blocks, so every level pair stays exact
    for a, b in ((0, 1), (1, 2), (0, 2)):
        code, out, _ = _looped_path_pgst(capsys, m, a, b)
        assert code == 0
        verdict = json.loads(out)
        assert (verdict["kind"], verdict["witness"]["mode"]) == (
            "PGST-certified", "exact")


def test_pgst_check_looped_path_below_support_threshold_is_numeric(capsys):
    # at m = 31 one root-bound state's amplitude at level 1 is 6.1e-10,
    # below the support threshold: the lattice spans more eigenvalues than
    # the float support, so no exact check is made on part of it
    code, out, _ = _looped_path_pgst(capsys, 31)
    assert code == 0
    verdict = json.loads(out)
    assert (verdict["kind"], verdict["witness"]["mode"]) == (
        "numeric-evidence", "numeric")
    assert verdict["notes"].startswith(
        "exact PGST check unavailable (relation lattice has dimension 93 but "
        "pair (0, 1) has 92 eigenvalues with support norm above 1e-09)")


def test_analyze_looped_path_lists_every_level_pair(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "looped-path",
                           "--n", "3", "--m", "10")
    assert code == 0
    pairs = {(p["a"], p["b"]) for p in json.loads(out)["strongly_cospectral_pairs"]}
    assert pairs == {(3 * level + a, 3 * level + b) for level in range(10)
                     for a, b in ((0, 1), (0, 2), (1, 2))}


@pytest.mark.parametrize("gamma", ["0", "2.5"])
def test_pgst_check_looped_path_rational_loop_weight_is_numeric(capsys, gamma):
    # a rational loop weight breaks the trace-condition superlattice; at
    # gamma = 0 the true relation lattice refuses PGST for this pair
    code, out, _ = run_cli(capsys, "pgst-check", "--family", "looped-path",
                           "--m", "2", "--param", gamma,
                           "--from", "0", "--to", "1")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "numeric-evidence"
    assert verdict["witness"]["mode"] == "numeric"
    assert verdict["notes"] == (
        "exact PGST check unavailable (the decomposition carries neither exact "
        "labels nor a relation lattice); sweep evidence only; loop weight gamma = "
        f"{Fraction(gamma)} is rational: no exact PGST check")


def test_pgst_check_star_product_exact_both_ways(capsys):
    code, out, _ = run_cli(capsys, "pgst-check", "--family", "star-product",
                           "--m", "2", "--from", "0", "--to", "1")
    assert code == 0
    assert json.loads(out)["kind"] == "PGST-certified"
    code, out, _ = run_cli(capsys, "pgst-check", "--family", "star-product",
                           "--m", "3", "--from", "0", "--to", "1")
    assert code == 0
    assert json.loads(out)["kind"] == "absent-certified"


def test_flag_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "pst-check", "--family", "oriented-k3",
                             "--from", "0")
    assert code == 2
    assert out == ""
    assert err == "error: the following arguments are required: --to\n"


def test_missing_input_is_analysis_failure(capsys):
    code, _, err = run_cli(capsys, "analyze", "--matrix", "/nonexistent.json")
    assert code == 1
    assert "error:" in err


def test_warnings_are_one_stderr_line_each(tmp_path, capsys):
    # under pytest's error filter a warning would otherwise raise; a second
    # call in the same process shows it again.  diag(0, 5e-8, 1) is
    # eigensolved into three clusters, the first gap within 10x 1e-8
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"dim": 3, "re": np.diag([0, 5e-8, 1]).tolist(),
                                "im": np.zeros((3, 3)).tolist()}))
    argv = ("pst-check", "--matrix", str(path), "--from", "0", "--to", "1")
    for _ in range(2):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["kind"] == "absent-certified"
        assert err == ("warning: 1 eigenvalue gap(s) within 10x CLUSTER_TOL; "
                       "clustering may be ambiguous\n")


@pytest.mark.parametrize("text, message", [
    ('{"dim": 2}', 'matrix JSON must be an object with "dim", "re" and "im" keys'),
    ('[[0, 1], [1, 0]]', 'matrix JSON must be an object with "dim", "re" and "im" keys'),
    ('{"re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}',
     'matrix JSON must be an object with "dim", "re" and "im" keys'),
    ('{"dim": 3, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}',
     "re/im blocks do not match declared dim"),
])
@pytest.mark.parametrize("command", ["analyze", "pst-check"])
def test_malformed_matrix_file_is_analysis_failure(tmp_path, capsys, text,
                                                   message, command):
    path = tmp_path / "h.json"
    path.write_text(text)
    vertices = ("--from", "0", "--to", "1") if command == "pst-check" else ()
    code, out, err = run_cli(capsys, command, "--matrix", str(path), *vertices)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


REMOVED_FLAG_CASES = (
    [("construct", "--tol", "1e-8")]
    + [(cmd, "--tol", v) for cmd in ("analyze", "pst-check", "pgst-check", "sweep")
       for v in ("0", "-1e-8", "nan", "inf")]
    + [("pst-check", "--t-max", v) for v in ("0", "-1", "nan")]
    + [("pst-check", "--steps", v) for v in ("1", "0", "-5")])


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAG_CASES)
def test_removed_flag_is_unrecognized(capsys, command, flag, value):
    # the eigensolve clusters at a fixed tolerance and pst-check picks its
    # own sweep window: no command takes --tol and pst-check takes neither
    # --t-max nor --steps, whatever the value
    vertices = () if command in ("construct", "analyze") else ("--from", "0", "--to", "1")
    code, out, err = run_cli(capsys, command, "--family", "oriented-k3",
                             *vertices, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: unrecognized arguments: {flag} {value}\n"


@pytest.mark.parametrize("argv", [
    ("pst-check", "--family", "oriented-k3", "--from", "x", "--to", "1"),
    ("no-such-command",),
    (),
])
def test_argparse_errors_are_one_line_flag_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_exits_0_and_lists_every_family(capsys):
    with pytest.raises(SystemExit) as err:
        main(["pst-check", "-h"])
    assert err.value.code == 0
    words = {word.strip(",") for word in capsys.readouterr().out.split()}
    for name in FAMILIES:
        assert name in words


def test_unknown_family_is_flag_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "--family", "mystery")
    assert code == 2
    assert out == ""
    assert err == "error: unknown family 'mystery'\n"


BAD_FAMILY_CASES = {
    "no-source": ([], "need --family or --matrix"),
    "star-product-m0": (["--family", "star-product", "--m", "0"], "m must be at least 1"),
    "oriented-cycle-n2": (["--family", "oriented-cycle", "--n", "2"],
                          "cycle needs at least 3 vertices"),
    "oriented-cycle-no-n": (["--family", "oriented-cycle"],
                            "family 'oriented-cycle' needs parameter n"),
    "star-product-no-m": (["--family", "star-product"],
                          "family 'star-product' needs parameter m"),
    "looped-path-no-m": (["--family", "looped-path"],
                         "family 'looped-path' needs parameter m"),
    "upst-circulant-no-n": (["--family", "upst-circulant"],
                            "family 'upst-circulant' needs parameter n"),
    "upst-circulant-n0": (["--family", "upst-circulant", "--n", "0"],
                          "n must be at least 1"),
    "hypercube-n": (["--family", "hypercube", "--m", "1", "--n", "3"],
                    "family 'hypercube' does not take parameter n"),
    "hypercube-m6": (["--family", "hypercube", "--m", "6"],
                     "hypercube vertex count 2^13 exceeds limit 4096"),
    "star-product-param": (["--family", "star-product", "--m", "2", "--param", "1"],
                           "family 'star-product' does not take parameter param"),
    "matrix-and-family": (["--matrix", "h.json", "--family", "oriented-k3"],
                          "--matrix cannot be combined with --family"),
    "matrix-and-n": (["--matrix", "h.json", "--n", "3"],
                     "--matrix cannot be combined with --n"),
    "matrix-and-m": (["--m", "2", "--matrix", "h.json"],
                     "--matrix cannot be combined with --m"),
    "matrix-and-param": (["--matrix", "h.json", "--param", "1.5"],
                         "--matrix cannot be combined with --param"),
}


@pytest.mark.parametrize("case", sorted(BAD_FAMILY_CASES))
def test_bad_family_flags_are_flag_errors(capsys, case):
    flags, message = BAD_FAMILY_CASES[case]
    code, out, err = run_cli(capsys, "pst-check", *flags, "--from", "0", "--to", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["pst-check", "pgst-check", "sweep"])
@pytest.mark.parametrize("frm, to", [("0", "7"), ("-1", "1")])
def test_out_of_range_vertex_is_flag_error(capsys, command, frm, to):
    code, out, err = run_cli(capsys, command, "--family", "oriented-k3",
                             "--from", frm, "--to", to)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "out of range" in err


NUMBER_FLAG_CASES = (
    [("sweep", "--t-max", v) for v in ("0", "-1", "nan")]
    + [("sweep", "--steps", v) for v in ("1", "0", "-5")]
    + [(cmd, "--param", v) for cmd in ("construct", "pst-check") for v in ("nan", "inf")])


@pytest.mark.parametrize("argv, name", [
    (("construct", "--family", "oriented-k3", "--n", "5"), "n"),
    (("sweep", "--family", "oriented-k3", "--m", "7", "--from", "0", "--to", "1"), "m"),
])
def test_parameter_a_family_does_not_take_is_flag_error(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: family 'oriented-k3' does not take parameter {name}\n"


@pytest.mark.parametrize("flags, dim", [
    (("--family", "looped-path", "--n", "3", "--m", "2"), 6),
    (("--family", "looped-path", "--m", "2", "--param", "2.5"), 6),
    (("--family", "upst-circulant", "--n", "3"), 3),
    (("--family", "hypercube", "--m", "1"), 8),
    (("--family", "c4-tensor-cube", "--m", "1"), 32),
    (("--family", "one-way-4", "--param", "1.5"), 4),
    (("--family", "oriented-cycle", "--n", "5"), 5),
])
def test_parameters_a_family_takes_still_build(capsys, flags, dim):
    code, out, _ = run_cli(capsys, "construct", *flags)
    assert code == 0
    assert json.loads(out)["dim"] == dim


@pytest.mark.parametrize("command, flag, value", NUMBER_FLAG_CASES)
def test_bad_number_flag_is_flag_error(capsys, command, flag, value):
    # every value is checked before any work
    vertices = () if command in ("construct", "analyze") else ("--from", "0", "--to", "1")
    code, out, err = run_cli(capsys, command, "--family", "oriented-k3",
                             *vertices, f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("m_range", ["0..3", "5..3", "x", "2..y", "1.5"])
def test_classify_star_bad_range_writes_nothing(capsys, m_range):
    code, out, err = run_cli(capsys, "classify-star", "--m", m_range)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_module_entry_point():
    import os
    import pathlib
    import subprocess
    import sys
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "qwalk", "classify-star",
                           "--m", "6"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("6,27k^2+27k+6,true")


def test_closed_stdout_is_not_an_analysis_failure():
    # a reader that stops after one line (| head -1); the 1.2 MB the
    # command still has to write exceed any pipe buffer, so its writes fail
    import os
    import pathlib
    import subprocess
    import sys
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, "-m", "qwalk", "classify-star",
                             "--m", "1..50000"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"m,case,pgst,s,h,k\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


MODE_CASES = [
    ("oriented-k2", (), (0, 1)),
    ("oriented-k3", (), (0, 2)),
    ("upst-circulant", ("--n", "3"), (1, 0)),
    ("star-product", ("--m", "3"), (0, 1)),   # Kronecker refusal
    ("star-product", ("--m", "6"), (0, 1)),   # PGST-certified
    ("star-product", ("--m", "2"), (0, 4)),   # root to leaf
    ("looped-path", ("--n", "3", "--m", "2"), (0, 1)),
    ("one-way-4", (), (2, 0)),
    ("one-way-4", (), (0, 2)),
    ("one-way-8", (), (0, 3)),
    ("c4-tensor-k2", (), (0, 3)),
    ("oriented-cycle", ("--n", "4"), (0, 2)),
    ("oriented-cycle", ("--n", "6"), (0, 3)),  # strong-cospectrality refusal
]


@pytest.mark.parametrize("command", ["pst-check", "pgst-check"])
@pytest.mark.parametrize("family, extra, pair", MODE_CASES)
def test_every_verdict_says_its_mode(capsys, command, family, extra, pair):
    code, out, _ = run_cli(capsys, command, "--family", family, *extra,
                           "--from", str(pair[0]), "--to", str(pair[1]))
    assert code == 0
    assert json.loads(out)["witness"]["mode"] in ("exact", "numeric")


def test_pgst_verdicts_from_the_kronecker_engine_are_exact(capsys):
    for m, kind in (("6", "PGST-certified"), ("3", "absent-certified")):
        _, out, _ = run_cli(capsys, "pgst-check", "--family", "star-product",
                            "--m", m, "--from", "0", "--to", "1")
        verdict = json.loads(out)
        assert verdict["kind"] == kind
        assert verdict["witness"]["mode"] == "exact"


BAD_SPECS = {
    "missing-parameter": ('{"family": "oriented_cycle"}',
                          "family 'oriented_cycle' needs parameter n"),
    "no-family-key": ('{"n": 3}', 'construction spec needs a "family" key'),
    "not-an-object": ('[1, 2]', 'construction spec needs a "family" key'),
    "unknown-family": ('{"family": "mystery"}', "unknown family 'mystery'"),
    "bad-parameter": ('{"family": "oriented_cycle", "n": 2}',
                      "cycle needs at least 3 vertices"),
    "bad-rational": ('{"family": "upst_circulant", "n": 3, "alpha": "x"}',
                     "alpha: Invalid literal for Fraction: 'x'"),
    "parameter-of-wrong-type": ('{"family": "oriented_cycle", "n": [3]}', None),
    "parameter-not-taken": ('{"family": "oriented_k3", "size": 9}',
                            "family 'oriented_k3' does not take parameter size"),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_construction_spec_is_flag_error(tmp_path, capsys, case):
    text, message = BAD_SPECS[case]
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out, err = run_cli(capsys, "construct", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if message is not None:
        assert err == f"error: {message}\n"


SPEC_AND_SOURCE_CASES = {
    "family": ["--family", "oriented-k3"],
    "matrix": ["--matrix", "h.json"],
    "n": ["--n", "4"],
    "m": ["--m", "2"],
    "param": ["--param", "1.5"],
}


@pytest.mark.parametrize("key", sorted(SPEC_AND_SOURCE_CASES))
def test_spec_with_another_source_is_flag_error(tmp_path, capsys, key):
    spec = tmp_path / "spec.json"
    spec.write_text('{"family": "oriented_k2"}')
    code, out, err = run_cli(capsys, "construct", "--spec", str(spec),
                             *SPEC_AND_SOURCE_CASES[key])
    assert code == 2
    assert out == ""
    assert err == f"error: --spec cannot be combined with --{key}\n"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_search_upst_small_n_is_flag_error(capsys, n):
    code, out, err = run_cli(capsys, "search-upst", "--n", n)
    assert code == 2
    assert out == ""
    assert err == f"error: --n {n} must be at least 2\n"


@pytest.mark.parametrize("family", ["hypercube", "c4-tensor-cube"])
def test_huge_hypercube_is_refused_before_any_arc(capsys, family):
    # 2^81 vertices: enumerating the arcs would never end
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pst-check", "--family", family, "--m", "40",
                             "--from", "0", "--to", "1")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err == "error: hypercube vertex count 2^81 exceeds limit 4096\n"


@pytest.mark.parametrize("flags, dim", [
    (("star-product", "--m", "1365"), 4098),
    (("star-product", "--m", "10000000"), 30000003),
    (("looped-path", "--n", "3", "--m", "1400"), 4200),
    (("looped-path", "--n", "3", "--m", "5000000"), 15000000),
])
def test_oversize_product_is_refused_before_any_factor(capsys, flags, dim):
    # a dense (m+1)^2 or m^2 factor at the larger m would need hundreds of TiB
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "--family", *flags)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err == f"error: kron output dimension {dim} exceeds limit 4096\n"


@pytest.mark.parametrize("flags, line", [
    (("oriented-cycle", "--n", "5000000"), "cycle vertex count 5000000"),
    (("upst-circulant", "--n", "5000000"), "circulant vertex count 5000000"),
    (("looped-path", "--n", "5000000", "--m", "1"), "circulant vertex count 5000000"),
])
def test_oversize_vertex_count_is_refused_before_any_arc_or_matrix(capsys, flags, line):
    # an n x n matrix at this n would need hundreds of TiB
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "--family", *flags)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err == f"error: {line} exceeds limit 4096\n"


# sha256 of the sweep CSV as the whole-grid sweep wrote it, with the grid
# made in one block or (chunk) in blocks of a few rows
SWEEP_CSV_SHA256 = [
    # 6,000 rows: three CSV_BLOCK_ROWS blocks, small values in exponent
    # form; the oriented-k3 matrix, eigensolved
    (None, ("--matrix", "oriented-k3.json", "--from", "0", "--to", "1",
            "--t-max", "1e-3", "--steps", "6000"),
     "390ae4f5a31bde2dec4116c03b3372ae841ce297569233cf5711113958c64a25"),
    # the default grid, 20,001 points
    (None, ("--family", "hypercube", "--m", "1", "--from", "0", "--to", "7"),
     "ceceb1653ea6b052d04947dbb513532c0b551d8e0432781a4aeeb1049319d2fe"),
    # blocks of 14 rows of 71 points: 6 grid blocks
    (1000, ("--family", "c4-tensor-k2", "--from", "0", "--to", "3", "--t-max",
            "50", "--steps", "5001"),
     "7b78d97055c226bf5d91b3c0249c2fb3d7b730410e3397dd617792a0fde8f39d"),
    # blocks of 12 rows of 317 points: 27 grid blocks, closed-form spectrum
    (4096, ("--family", "looped-path", "--m", "2", "--from", "3", "--to", "4",
            "--t-max", "300", "--steps", "100001"),
     "a733d640fdd57a2b71c906697805629a90c449d55f2b048804b3c6b55ef0a9b0"),
]


@pytest.mark.parametrize("chunk, flags, digest", SWEEP_CSV_SHA256)
def test_sweep_csv_bytes_pinned(capsys, monkeypatch, tmp_path, chunk, flags, digest):
    from qwalk import transfer
    from qwalk.constructions import build_family
    if chunk is not None:
        monkeypatch.setattr(transfer, "SWEEP_CHUNK_ENTRIES", chunk)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "oriented-k3.json").write_text(
        json.dumps(build_family("oriented-k3").matrix.to_json()))
    code, out, err = run_cli(capsys, "sweep", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err.startswith("max fidelity ")


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 14.6 TiB for an array",
     "error: out of memory: Unable to allocate 14.6 TiB for an array\n"),
    ("", "error: out of memory\n"),
])
@pytest.mark.parametrize("argv", [
    ("pst-check", "--from", "0", "--to", "1"),
    ("sweep", "--from", "0", "--to", "1"),
    ("construct",),
])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, message, line, argv):
    # the builder raises as numpy does when an allocation fails; nothing
    # is allocated for real
    def exhausted():
        raise MemoryError(message)

    monkeypatch.setitem(FAMILIES, "oriented_k3", exhausted)
    code, out, err = run_cli(capsys, argv[0], "--family", "oriented-k3", *argv[1:])
    assert code == 1
    assert out == ""
    assert err == line


REUSE_SEQUENCE = [
    ("sweep", "--family", "oriented-k2", "--from", "0", "--to", "1"),
    # numeric path: pst-check's own window, not sweep's defaults
    ("pst-check", "--family", "oriented-cycle", "--n", "4", "--from", "0", "--to", "2"),
    ("pst-check", "--family", "oriented-k3", "--from", "0"),
    ("pgst-check", "--family", "star-product", "--m", "6", "--from", "0", "--to", "1"),
    ("-h",),
    ("-h",),
]


def test_parser_is_built_once_and_answers_as_a_fresh_one(capsys):
    parser = build_parser()
    assert build_parser() is parser
    reused = [run_cli(capsys, *argv) for argv in REUSE_SEQUENCE]
    assert build_parser() is parser
    fresh = []
    for argv in REUSE_SEQUENCE:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
    assert reused[4][1].startswith("usage: qwalk")
