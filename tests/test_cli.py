import csv
import io
import json

import numpy as np
import pytest

from qcorr import cli, states


def write_state(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def matrix_payload(rho):
    return {"matrix": [[float(v.real), float(v.imag)] for v in rho.reshape(-1)]}


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# classify


def test_classify_classical_state(tmp_path, capsys):
    path = write_state(
        tmp_path, "c.json", {"x": [0, 0, 0], "y": [0, 0, 0], "c": [0.5, 0, 0]}
    )
    code, out, _ = run(["classify", path], capsys)
    record = json.loads(out)
    assert code == cli.EXIT_CLASSICAL == 0
    assert record["verdict"] == "ClassicalCertified"
    assert record["W"] == 0.0
    assert record["matched_form"] == "chi1"


def test_classify_nonclassical_state(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", matrix_payload(states.make_werner(0.6)))
    code, out, _ = run(["classify", path], capsys)
    record = json.loads(out)
    assert code == cli.EXIT_NONCLASSICAL == 1
    assert record["verdict"] == "NonclassicalCertified"
    assert record["W"] == pytest.approx(3 * 0.36, abs=1e-9)


def test_classify_inconclusive_state(tmp_path, capsys):
    rho = states.make_general((0.3, 0, 0), (0, 0, 0), (0.4, 0, 0))
    path = write_state(tmp_path, "m.json", matrix_payload(rho))
    code, out, _ = run(["classify", path], capsys)
    assert code == cli.EXIT_INCONCLUSIVE == 2
    assert json.loads(out)["verdict"] == "Inconclusive"


def test_classify_out_of_class(tmp_path, capsys):
    rho = states.make_werner(0.5).copy()
    rho[0, 1] += 0.01  # cross-block coherence
    rho[1, 0] += 0.01
    path = write_state(tmp_path, "bad.json", matrix_payload(rho))
    code, out, err = run(["classify", path], capsys)
    assert code == cli.EXIT_OUT_OF_CLASS == 66
    assert "diagonal" in err.lower() or "class" in err.lower()


def test_out_of_class_fails_alike_in_classify_and_nmr_verify(tmp_path, capsys):
    rho = states.make_werner(0.5).copy()
    rho[0, 1] += 0.01
    rho[1, 0] += 0.01
    path = write_state(tmp_path, "bad.json", matrix_payload(rho))
    classify = run(["classify", path], capsys)
    assert run(["nmr-verify", path], capsys) == classify
    code, out, err = classify
    assert (code, out) == (cli.EXIT_OUT_OF_CLASS, "")
    assert err.startswith("error: state has off-diagonal correlations up to ")
    assert err.count("\n") == 1


def test_classify_invalid_state(tmp_path, capsys):
    rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    path = write_state(tmp_path, "neg.json", matrix_payload(rho))
    code, _, err = run(["classify", path], capsys)
    assert code == cli.EXIT_INVALID_STATE == 65
    assert err


# entries added to Werner 0.3, and the one stderr line each must give
INVALID_EDITS = {
    "trace_1_1": ([(0, 0, 0.1)], "trace differs from 1 by 1.000e-01"),
    "non_hermitian": ([(0, 1, 1e-6)], "matrix is not Hermitian (defect 1.000e-06)"),
    # rho_00 = 0.175 goes to -0.025
    "negative_eigenvalue": (
        [(0, 0, -0.2), (3, 3, 0.2)],
        "matrix is not positive semidefinite (min eigenvalue -2.500e-02)",
    ),
}


@pytest.mark.parametrize("command", ["classify", "nmr-verify"])
@pytest.mark.parametrize("edit", sorted(INVALID_EDITS))
def test_invalid_state_prints_its_failed_check(tmp_path, capsys, command, edit):
    entries, message = INVALID_EDITS[edit]
    rho = states.make_werner(0.3)
    for i, j, value in entries:
        rho[i, j] += value
    path = write_state(tmp_path, f"{edit}.json", matrix_payload(rho))
    assert run([command, path], capsys) == (65, "", f"error: {message}\n")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_classify_non_finite_state(tmp_path, capsys, bad):
    # json writes these as NaN and Infinity, which json.load reads back
    payload = matrix_payload(states.make_werner(0.5))
    payload["matrix"][5][0] = bad
    path = write_state(tmp_path, "bad.json", payload)
    code, out, err = run(["classify", path], capsys)
    assert code == cli.EXIT_INVALID_STATE == 65
    assert out == ""
    assert "non-finite" in err
    path = write_state(
        tmp_path, "bad-xyc.json", {"x": [0, 0, bad], "y": [0, 0, 0], "c": [0, 0, 0]}
    )
    assert run(["nmr-verify", path], capsys)[0] == cli.EXIT_INVALID_STATE


def test_classify_unreadable_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{not json")
    code, _, err = run(["classify", str(path)], capsys)
    assert code == cli.EXIT_PARSE == 64


def test_classify_missing_file(capsys):
    code, _, err = run(["classify", "/does/not/exist.json"], capsys)
    assert code == cli.EXIT_PARSE == 64


def test_classify_randomized_seeded(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", matrix_payload(states.make_werner(0.4)))
    argv = ["classify", path, "--mode", "randomized", "--trials", "7", "--seed", "3"]
    code_a, out_a, _ = run(argv, capsys)
    code_b, out_b, _ = run(argv, capsys)
    assert code_a == code_b
    assert out_a == out_b
    record = json.loads(out_a)
    assert record["mode"] == "randomized"
    assert record["n_trials"] == 7
    assert record["seed"] == 3


def test_classify_bad_usage(capsys):
    code = cli.main(["classify"])
    capsys.readouterr()
    assert code == cli.EXIT_PARSE


def test_classify_bad_trials(tmp_path, capsys):
    path = write_state(
        tmp_path, "c.json", {"x": [0, 0, 0], "y": [0, 0, 0], "c": [0.5, 0, 0]}
    )
    code, _, err = run(
        ["classify", path, "--mode", "randomized", "--trials", "0"], capsys
    )
    assert code == cli.EXIT_PARSE


def test_unknown_subcommand(capsys):
    code = cli.main(["frobnicate"])
    capsys.readouterr()
    assert code == cli.EXIT_PARSE


# sweep-werner


def test_sweep_csv_format(capsys):
    code, out, err = run(
        ["sweep-werner", "--alphas", "0:1:5", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "W", "discord", "mutual_info", "negativity", "chsh_max"]
    assert len(rows) == 6
    alphas = [float(r[0]) for r in rows[1:]]
    assert alphas == [0.0, 0.25, 0.5, 0.75, 1.0]
    # discord column stays empty unless requested
    assert all(r[2] == "" for r in rows[1:])
    w = [float(r[1]) for r in rows[1:]]
    assert w == pytest.approx([3 * a * a for a in alphas], abs=1e-9)
    neg = [float(r[4]) for r in rows[1:]]
    assert neg == pytest.approx([max(0.0, (3 * a - 1) / 4) for a in alphas], abs=1e-9)
    chsh = [float(r[5]) for r in rows[1:]]
    assert chsh == pytest.approx([2 * np.sqrt(2) * a for a in alphas], abs=1e-9)


def test_sweep_csv_discord_column(capsys):
    code, out, _ = run(
        ["sweep-werner", "--alphas", "0:1:3", "--format", "csv", "--with-discord"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    d = [float(r[2]) for r in rows[1:]]
    assert d[0] == pytest.approx(0.0, abs=1e-6)
    assert d[1] > 1e-4
    assert d[2] == pytest.approx(1.0, abs=1e-6)


def test_sweep_json_format(capsys):
    code, out, err = run(
        ["sweep-werner", "--alphas", "0:1:3", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert len(doc["rows"]) == 3
    assert any("1/sqrt(2)" in note or "0.7071" in note for note in doc["notes"])
    row = doc["rows"][1]
    assert set(row) == {"alpha", "W", "discord", "mutual_info", "negativity", "chsh_max"}
    assert row["discord"] is None
    assert row["W"] == pytest.approx(0.75, abs=1e-9)


def test_sweep_json_notes_mirrored_to_stderr(capsys):
    _, _, err = run(["sweep-werner", "--alphas", "0:1:2", "--format", "json"], capsys)
    assert "1/sqrt(2)" in err or "0.7071" in err


def test_sweep_output_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        ["sweep-werner", "--alphas", "0:0.5:3", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert len(rows) == 4


def test_sweep_reproducible_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["sweep-werner", "--alphas", "0:1:11", "--with-discord"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_bad_alphas(capsys):
    # grids need at least two points and must stay ordered inside [0, 1]
    for grid in ("0:1", "0:1:0", "0.5:0.5:1", "1:0:5", "0:2:5", "-0.1:1:5", "a:b:c"):
        code, _, err = run(["sweep-werner", "--alphas", grid], capsys)
        assert code == cli.EXIT_PARSE, grid


# nmr-verify


def test_nmr_verify_exact(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", matrix_payload(states.make_werner(0.6)))
    code, out, _ = run(["nmr-verify", path], capsys)
    record = json.loads(out)
    assert code == 0
    assert record["shots"] == "exact"
    assert max(record["residuals"]) <= 1e-12
    assert record["m_eta"] == pytest.approx(-0.6, abs=1e-9)
    assert set(record) == {"m_eta", "m_zeta", "m_xi", "residuals", "shots", "seed"}


def test_nmr_verify_sampled(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", matrix_payload(states.make_werner(0.6)))
    code, out, _ = run(["nmr-verify", path, "--shots", "100000", "--seed", "7"], capsys)
    record = json.loads(out)
    assert code == 0
    assert record["shots"] == 100000
    assert record["seed"] == 7
    assert len(record["stderrs"]) == 3
    assert all(err >= 0 for err in record["stderrs"])
    for m in (record["m_eta"], record["m_zeta"], record["m_xi"]):
        assert abs(m - (-0.6)) < 0.02


def test_nmr_verify_sampled_reproducible(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", matrix_payload(states.make_werner(0.3)))
    argv = ["nmr-verify", path, "--shots", "5000", "--seed", "9"]
    _, out_a, _ = run(argv, capsys)
    _, out_b, _ = run(argv, capsys)
    assert out_a == out_b


def test_nmr_verify_out_of_class(tmp_path, capsys):
    rho = states.make_product((0.5, 0, 0), (0, 0.5, 0))
    path = write_state(tmp_path, "p.json", matrix_payload(rho))
    code, _, err = run(["nmr-verify", path], capsys)
    assert code == cli.EXIT_OUT_OF_CLASS


def test_nmr_verify_invalid(tmp_path, capsys):
    rho = np.diag([1.2, 0.2, -0.2, -0.2]).astype(complex)
    path = write_state(tmp_path, "bad.json", matrix_payload(rho))
    code, _, _ = run(["nmr-verify", path], capsys)
    assert code == cli.EXIT_INVALID_STATE


def test_nmr_verify_bad_shots(tmp_path, capsys):
    path = write_state(
        tmp_path, "c.json", {"x": [0, 0, 0], "y": [0, 0, 0], "c": [0.5, 0, 0]}
    )
    code, _, _ = run(["nmr-verify", path, "--shots", "-5"], capsys)
    assert code == cli.EXIT_PARSE


# formatting contract


def test_round_trip_precision(tmp_path, capsys):
    # twelve significant digits survive the JSON round trip
    path = write_state(
        tmp_path, "w.json", matrix_payload(states.make_werner(1 / 3))
    )
    _, out, _ = run(["classify", path], capsys)
    record = json.loads(out)
    assert record["W"] == pytest.approx(3 * (1 / 3) ** 2, rel=1e-11)


def test_python_dash_m_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "qcorr", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout
    assert "sweep-werner" in proc.stdout
    assert "nmr-verify" in proc.stdout
