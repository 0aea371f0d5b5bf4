import json
import os
import subprocess
import sys

import numpy as np
import pytest

from theta_forge.cli import main
from theta_forge.symplectic import SiegelPoint


@pytest.fixture
def tau_file(tmp_path):
    path = tmp_path / "tau_i.json"
    path.write_text(json.dumps(SiegelPoint(np.array([[1j]])).to_json()))
    return str(path)


@pytest.fixture
def tau_file_g2(tmp_path, rng):
    from theta_forge.symplectic import sample_siegel_point

    path = tmp_path / "tau_g2.json"
    path.write_text(json.dumps(sample_siegel_point(2, rng).to_json()))
    return str(path)


# ---------------------------------------------------------------------------
# eval


def test_eval_reference_value(tau_file, capsys):
    code = main(["eval", "T[0|0]", "--tau", tau_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"]["re"] == pytest.approx(1.0864348112133080, abs=1e-12)
    assert payload["value"]["im"] == pytest.approx(0.0, abs=1e-13)


def test_eval_product_and_deriv(tau_file_g2, capsys):
    code = main(["eval", "S[0,0]*S[1,1]", "--tau", tau_file_g2, "--deriv"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    deriv = payload["deriv"]
    assert len(deriv) == 2 and len(deriv[0]) == 2
    assert deriv[0][1] == deriv[1][0]  # derivative matrix is symmetric


def test_eval_parse_error_with_caret(tau_file, capsys):
    code = main(["eval", "T[0|]", "--tau", tau_file])
    assert code == 3
    err = capsys.readouterr().err
    assert "^" in err


def test_eval_odd_constant_is_math_error(tau_file, capsys):
    assert main(["eval", "T[1|1]", "--tau", tau_file]) == 4


def test_eval_genus_mismatch(tau_file, capsys):
    assert main(["eval", "S[0,0]", "--tau", tau_file]) == 4


def test_eval_missing_tau_file(capsys):
    assert main(["eval", "T[0|0]", "--tau", "/nonexistent/tau.json"]) == 2


def test_eval_invalid_tau(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"g": 1, "re": [[0.0]], "im": [[-1.0]]}))
    assert main(["eval", "T[0|0]", "--tau", str(bad)]) == 4


def test_eval_random_tau(capsys):
    code = main(["eval", "S[0,0]", "--g", "2", "--seed", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["genus"] == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_genus_out_of_range(capsys):
    assert main(["verify", "--g", "5"]) == 3


def test_verify_filter_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--g", "1", "--seed", "42", "--filter", "gsm_*", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "theta-forge/report/2"
    assert payload["all_passed"] is True
    assert payload["config"]["genus"] == 1
    names = {r["identity_name"] for r in payload["reports"]}
    assert names == {"gsm_forward", "gsm_backward"}
    assert all(r["runtime_ms"] == 0.0 for r in payload["reports"])


def test_verify_unwritable_output(capsys):
    assert main(["verify", "--g", "1", "--filter", "gsm_*",
                 "--out", "/nonexistent-dir/report.json"]) == 2


def test_verify_rejects_uncertifiable_series_tol(tmp_path, capsys):
    # below 16 machine epsilons rounding alone exceeds the tolerance
    out = tmp_path / "report.json"
    code = main(["verify", "--g", "2", "--series-tol", "1e-15", "--out", str(out)])
    assert code == 3
    assert not out.exists()
    assert "target_tol" in capsys.readouterr().err
    assert main(["eval", "S[0,0]", "--g", "2", "--series-tol", "1e-15"]) == 3
    assert main(["audit", "--form", "W:n1", "--group", "gamma2", "--g", "2",
                 "--series-tol", "1e-15"]) == 3


def test_verify_series_tol_near_floor(tmp_path):
    # just above the floor the rounding-aware refinement check certifies
    # every evaluation, so no family turns into an error row
    out = tmp_path / "report.json"
    code = main(["verify", "--g", "2", "--series-tol", "4e-15", "--out", str(out)])
    payload = json.loads(out.read_text())
    names = [r["identity_name"] for r in payload["reports"]]
    assert not [n for n in names if n.endswith("_error")]
    assert max(r["residual"] for r in payload["reports"]) < 1e-6
    assert code == 0


def test_verify_timings_flag(tmp_path):
    out = tmp_path / "timed.json"
    code = main(
        ["verify", "--g", "1", "--seed", "1", "--filter", "jacobi",
         "--timings", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert any(r["runtime_ms"] > 0 for r in payload["reports"])


# ---------------------------------------------------------------------------
# audit


def test_audit_w_form(tmp_path):
    out = tmp_path / "audit.json"
    code = main(
        ["audit", "--form", "W:n1,n2", "--group", "gamma2", "--words", "3",
         "--g", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert payload["words"] == 3
    assert all(r["residual"] < 1e-7 for r in payload["results"])


def test_audit_astar_form(tmp_path):
    out = tmp_path / "audit_a.json"
    code = main(
        ["audit", "--form", "A:00,10;00,01", "--group", "gamma24", "--words", "2",
         "--g", "2", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True


def test_audit_char_literals(tmp_path):
    out = tmp_path / "audit_lit.json"
    code = main(
        ["audit", "--form", "W:10|11,01|11", "--group", "gamma2", "--words", "2",
         "--g", "2", "--seed", "11", "--out", str(out)]
    )
    assert code == 0


def test_audit_zero_words(capsys):
    code = main(["audit", "--form", "W:n1", "--group", "gamma2", "--words", "0",
                 "--g", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"] == []


def test_audit_bad_group(capsys):
    assert main(["audit", "--form", "W:n1", "--group", "gamma3", "--g", "2"]) == 3


def test_audit_bad_form(capsys):
    assert main(["audit", "--form", "X:n1", "--group", "gamma2", "--g", "2"]) == 3
    assert main(["audit", "--form", "W:n99", "--group", "gamma2", "--g", "2"]) == 4


# ---------------------------------------------------------------------------
# determinism through the real entry point


def test_verify_byte_identical_subprocess(tmp_path, package_root):
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    outs = []
    for run in (1, 2):
        out = tmp_path / f"det{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "theta_forge.cli", "verify", "--g", "1",
             "--seed", "7", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
