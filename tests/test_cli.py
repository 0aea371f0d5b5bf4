import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from theta_forge import cli
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


@pytest.mark.parametrize("re", [1e14, 1e300])
def test_eval_reduces_a_large_real_part_exactly(tmp_path, capsys, re):
    # theta(1e14 + i) = theta(i): the period reduction is exact, where
    # summing at the unreduced tau rounds the exponent by far more than eps
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"re": [[re]], "im": [[1.0]]}))
    assert main(["eval", "T[0|0]", "--tau", str(path)]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert abs(complex(value["re"], value["im"]) - 1.0864348112133080) <= 1e-12


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


def test_eval_genus_outside_1_to_4_exits_3(capsys):
    # refused before any sum, as verify and audit refuse it
    assert main(["eval", "T[0,0,0,0,0|0,0,0,0,0]", "--g", "5"]) == 3
    assert capsys.readouterr().err == "error: genus 5 outside 1..4\n"


@pytest.mark.parametrize(
    "content, code",
    [
        (None, 2),  # a directory
        ("[1, 2]", 4),  # JSON that is not an object
        (json.dumps(SiegelPoint(1j * np.eye(5)).to_json()), 4),  # genus 5
    ],
    ids=["directory", "list", "genus-5"],
)
def test_eval_unusable_tau_file(tmp_path, capsys, content, code):
    # one error line and the documented exit code, no traceback
    path = tmp_path
    if content is not None:
        path = tmp_path / "tau.json"
        path.write_text(content)
    out = tmp_path / "out.json"
    assert main(["eval", "T[0,0,0,0,0|0,0,0,0,0]", "--tau", str(path), "--out", str(out)]) == code
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "part, entry",
    [("re", float("nan")), ("im", float("nan")), ("im", float("inf"))],
    ids=["nan-re", "nan-im", "inf-im"],
)
def test_eval_non_finite_tau_exits_4(tmp_path, capsys, part, entry):
    # refused when the point is built, before any bound or sum sees it
    data = SiegelPoint(1j * np.eye(2)).to_json()
    data[part][0][0] = entry
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(data))  # NaN and Infinity literals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "T[0,0|0,0]", "--tau", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid tau input: tau has an entry that is not finite\n"


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
    assert payload["schema"] == "theta-forge/report/3"
    assert payload["config"]["truncation"] == {"target_tol": 1e-12}
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


_COMMANDS = {
    "verify": ["verify", "--g", "2"],
    "eval": ["eval", "S[0,0]", "--g", "2"],
    "audit": ["audit", "--form", "W:n1", "--group", "gamma2", "--g", "2"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize(
    "option",
    [
        ["--seed", "-1"],
        ["--tol", "nan"],
        ["--tol", "-1"],
        ["--tol", "0"],
        ["--tol", "inf"],
        ["--g", "0"],
        ["--g", "5"],
        ["--series-tol", "inf"],
        ["--series-tol", "nan"],
    ],
    ids="=".join,
)
def test_unusable_options_exit_3(tmp_path, capsys, command, option):
    # rejected before any work: no report, no traceback, one error line
    out = tmp_path / "out.json"
    assert main(_COMMANDS[command] + option + ["--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize(
    "option", [["--radius", "3"], ["--radius", "25"], ["--no-adaptive"]], ids="=".join
)
def test_removed_truncation_options_exit_3(tmp_path, capsys, command, option):
    # the truncation policy is its tolerance: no radius floor, no second path
    out = tmp_path / "out.json"
    assert main(_COMMANDS[command] + option + ["--out", str(out)]) == 3
    assert not out.exists()
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


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


def test_audit_astar_form_over_gamma48(capsys):
    # Gamma(4,8) lies inside Gamma(2,4), so the A-form law applies there
    assert main(["audit", "--form", "A:00,10;00,01", "--group", "gamma48", "--words", "0",
                 "--g", "2"]) == 0


# the arguments (the test adds --g 2 after the command) and what the error line must name
_REFUSED = [
    (["audit", "--form", "W:x|1,01|11", "--group", "gamma2"], "'x'"),
    (["audit", "--form", "A:0x,10", "--group", "gamma24"], "'0x'"),
    (["audit", "--form", "W:", "--group", "gamma2"], "'W:'"),
    (["audit", "--form", "A:00", "--group", "gamma24"], "'00'"),
    (["audit", "--form", "W:n1", "--group", "gamma2", "--words", "-3"], "-3"),
    (["audit", "--form", "A:00,10;00,01", "--group", "gamma2", "--words", "1"], "Gamma(2,4)"),
    (["verify", "--filter", "jacobi", "--g", "3"], "'jacobi' matches no identity at genus 3"),
    (["verify", "--filter", "nonexistent*"], "'nonexistent*' matches no identity at genus 2"),
]


@pytest.mark.parametrize("argv, named", _REFUSED, ids=[" ".join(a) for a, _ in _REFUSED])
def test_unusable_input_exits_3_before_any_word(tmp_path, capsys, monkeypatch, argv, named):
    # rejected with one error line, no report and no traceback; audits sample no word
    def no_words(*args, **kwargs):
        raise AssertionError("a word was sampled")

    monkeypatch.setattr(cli, "conditioned_words", no_words)
    out = tmp_path / "out.json"
    assert main(argv[:1] + ["--g", "2"] + argv[1:] + ["--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("words", ["0", "1"])
@pytest.mark.parametrize(
    "g, form, group",
    [
        ("2", "W:00|00", "gamma2"),  # an even characteristic
        ("2", "W:n1,n1", "gamma2"),  # a repeated factor
        ("2", "W:n1,n2,n3", "gamma2"),  # more factors than the genus
        ("3", "W:10|11", "gamma2"),  # a genus-2 characteristic at genus 3
        ("2", "A:00,10;00,01;00,11", "gamma24"),  # level above the ambient dimension
    ],
)
def test_audit_unusable_form_exits_4_before_any_word(tmp_path, capsys, monkeypatch, g, form,
                                                     group, words):
    # the form is evaluated once at the base point, so the outcome does not
    # depend on --words and no word is sampled
    def no_words(*args, **kwargs):
        raise AssertionError("a word was sampled")

    monkeypatch.setattr(cli, "conditioned_words", no_words)
    out = tmp_path / "out.json"
    argv = ["audit", "--form", form, "--group", group, "--g", g, "--words", words]
    assert main(argv + ["--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
