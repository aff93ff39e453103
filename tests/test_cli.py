import json
import math

import numpy as np
import pytest

from qwalk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
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
    assert "is rational" in verdict["notes"]


def test_pgst_check_star_product_exact_both_ways(capsys):
    code, out, _ = run_cli(capsys, "pgst-check", "--family", "star-product",
                           "--m", "2", "--from", "0", "--to", "1")
    assert code == 0
    assert json.loads(out)["kind"] == "PGST-certified"
    code, out, _ = run_cli(capsys, "pgst-check", "--family", "star-product",
                           "--m", "3", "--from", "0", "--to", "1")
    assert code == 0
    assert json.loads(out)["kind"] == "absent-certified"


def test_flag_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["pst-check", "--family", "oriented-k3", "--from", "0"])
    assert err.value.code == 2


def test_missing_input_is_analysis_failure(capsys):
    code, _, err = run_cli(capsys, "analyze", "--matrix", "/nonexistent.json")
    assert code == 1
    assert "error:" in err


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


def test_construct_takes_no_tol(capsys):
    with pytest.raises(SystemExit) as err:
        main(["construct", "--family", "oriented-k3", "--tol", "1e-8"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


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
    [(cmd, "--tol", v) for cmd in ("analyze", "pst-check", "pgst-check", "sweep")
     for v in ("0", "-1e-8", "nan", "inf")]
    + [(cmd, "--t-max", v) for cmd in ("pst-check", "sweep") for v in ("0", "-1", "nan")]
    + [(cmd, "--steps", v) for cmd in ("pst-check", "sweep") for v in ("1", "0", "-5")]
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
    # oriented-k3 is decided on the exact path, which never reads the sweep
    # flags: they are still checked before any work
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
