import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from jordanflow import algebra, cli, weights
from jordanflow.algebra import act, dump_tensor, load_tensor
from jordanflow.catalog import builtin
from jordanflow.sampling import random_symmetric_tensor
from jordanflow.stratify import stratum_of

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moment_subcommand(capsys):
    code, out, _ = run_cli(capsys, "moment", "--catalog", "A_2_3")
    assert code == 0
    assert out.startswith("# jordan-flow ")
    assert "seed" not in out
    assert "[-2, 0]" in out and "[0, 1]" in out
    assert "energy           5" in out
    assert "(1<2;1,1)" in out


def test_moment_json_golden(capsys):
    code, out, _ = run_cli(capsys, "moment", "--catalog", "A_2_3", "--json")
    assert code == 0
    assert out == (DATA / "moment_a_2_3.json").read_text()
    payload = json.loads(out)
    assert payload["soliton_type"]["beta"] == ["-2", "1"]


def test_moment_checks_a_soliton_once(tmp_path, capsys, monkeypatch):
    # the type, M and the sl residual read the soliton kernel stored on the loaded tensor
    path = tmp_path / "a_3_7.json"
    path.write_text(dump_tensor(builtin("A_3_7").tensor))
    runs = []
    kernel = algebra._soliton_table

    def counting(t):
        runs.append(t.shape[0])
        return kernel(t)

    monkeypatch.setattr(algebra, "_soliton_table", counting)
    code, out, _ = run_cli(capsys, "moment", str(path), "--json")
    assert code == 0
    assert json.loads(out)["soliton_type"] is not None
    assert runs == [3]


def test_invariants_forms_the_power_chain_once(capsys, monkeypatch):
    # nilpotency is read off the chain the command already formed
    calls = []
    chain = algebra.power_dims

    def counting(mu):
        calls.append(mu.dim)
        return chain(mu)

    monkeypatch.setattr(cli, "power_dims", counting)
    monkeypatch.setattr(algebra, "power_dims", counting)
    code, out, _ = run_cli(capsys, "invariants", "--catalog", "A_4_20", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["power_dims"] == [3] and payload["is_nilpotent"] is False
    assert calls == [4]


def test_stratify_json_golden(capsys):
    code, out, _ = run_cli(capsys, "stratify", "--catalog", "A_3_7", "--json")
    assert code == 0
    assert out == (DATA / "stratify_a_3_7.json").read_text()
    payload = json.loads(out)
    assert payload["beta"] == ["-5/6", "-1/3", "1/6"]
    assert payload["energy"] == "5/6"
    assert payload["certificate_gap"] >= -1e-10


def test_validate_rejects_bad_triangle(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"dim": 2, "products": [{"i": 2, "j": 1, "k": 1, "re": 1.0, "im": 0.0}]}))
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "i <= j" in err


def test_validate_accepts_good_file(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(dump_tensor(builtin("A_2_3").tensor))
    code, out, _ = run_cli(capsys, "validate", str(good))
    assert code == 0
    assert "is_jordan     True" in out


@pytest.mark.parametrize("doc", [
    '{"dim": 2, "products": [{"i": 1, "k": 2, "re": 1.0}]}',
    '{"dim": 2, "products": [{"i": 1, "j": 1, "k": 2, "re": NaN}]}',
    '{"dim": 100000, "products": []}',
])
def test_bad_tensor_file_is_one_line_usage_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, out, err = run_cli(capsys, "invariants", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _two_term(scale: float) -> str:
    """{(1,1,1), (1,2,2)} at dim 2, every coefficient `scale`: a soliton of energy 1."""
    return json.dumps({"dim": 2, "products": [{"i": 1, "j": 1, "k": 1, "re": scale},
                                              {"i": 1, "j": 2, "k": 2, "re": scale}]})


EVERY_TENSOR_COMMAND = (["validate"], ["invariants"], ["moment"], ["moment", "--json"], ["flow"],
                        ["stratify"], ["stratify", "--flow"])


@pytest.mark.parametrize("scale", [1e80, 1e-80, 1e140, 1e200, 1e60, 1e-60])
def test_extreme_coefficients_are_one_line_usage_errors(tmp_path, capsys, scale):
    # read at these scales, moment and flow raise OverflowError or
    # ZeroDivisionError, print NaN tokens, or read a non-soliton as a soliton
    doc = tmp_path / "extreme.json"
    doc.write_text(_two_term(scale))
    for argv in EVERY_TENSOR_COMMAND:
        code, out, err = run_cli(capsys, *argv, str(doc))
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: largest coefficient magnitude") and err.count("\n") == 1, argv


@pytest.mark.parametrize("scale", [algebra.MAX_COEFFICIENT_SCALE, 1 / algebra.MAX_COEFFICIENT_SCALE])
def test_coefficients_at_the_scale_bound_give_scale_free_results(tmp_path, capsys, scale):
    unit, scaled = tmp_path / "unit.json", tmp_path / "scaled.json"
    unit.write_text(_two_term(1.0))
    scaled.write_text(_two_term(scale))
    keys = {"moment": ("energy", "is_soliton", "soliton_residual", "sl_residual", "soliton_type"),
            "flow": ("steps", "stop_reason", "terminal_energy", "terminal_type"),
            "stratify": ("beta", "certificate_gap", "stratum")}
    for command, fields in keys.items():
        extra = ["--flow"] if command == "stratify" else []
        results = []
        for path in (unit, scaled):
            code, out, _ = run_cli(capsys, command, str(path), "--json", *extra)
            assert code == 0 and "Infinity" not in out and "NaN" not in out, command
            results.append(json.loads(out))
        for key in fields:
            unit_value, scaled_value = (result[key] for result in results)
            if isinstance(unit_value, float):   # the same up to roundoff
                assert scaled_value == pytest.approx(unit_value, rel=1e-12, abs=1e-15), key
            else:
                assert scaled_value == unit_value, key
    # a non-soliton keeps its verdict and relative residual: neither overflows
    # to inf nor underflows to 0 at the bound
    mu = random_symmetric_tensor(np.random.default_rng(3), 4)
    table = mu.table / np.max(np.abs(np.stack([mu.table.real, mu.table.imag])))
    residuals = []
    for factor in (1.0, scale):
        scaled.write_text(dump_tensor(algebra.StructureTensor(table * factor)))
        code, out, _ = run_cli(capsys, "moment", str(scaled), "--json")
        report = json.loads(out)
        assert code == 0 and report["is_soliton"] is False
        residuals.append(report["soliton_residual"])
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-9)


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "invariants", "/nonexistent/mu.json")
    assert code == 2
    assert "error:" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_invariants_subcommand(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--catalog", "A_4_63")
    assert code == 0
    assert "power_dims       [2, 1, 0]" in out
    assert "is_nilpotent     True" in out


def torus_start_file(tmp_path) -> str:
    """A torus start of A_4_26: it takes 36 steps to the certificate."""
    start = act(np.diag([1.3, 0.8, 1.1, 0.6]).astype(complex), builtin("A_4_26").tensor)
    path = tmp_path / "torus.json"
    path.write_text(dump_tensor(start))
    return str(path)


def test_flow_subcommand_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "flow", torus_start_file(tmp_path), "--trace", str(trace))
    assert code == 0
    assert "steps            36" in out
    assert "terminal energy  0.454545454545" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,energy,grad_norm"
    assert len(lines) == 36 + 2
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert energies == sorted(energies, reverse=True)


def test_flow_certifies_a_4_63_by_its_witness(capsys):
    code, out, _ = run_cli(capsys, "flow", "--catalog", "A_4_63")
    assert code == 0
    assert "steps            0" in out
    assert "converged        True (certificate)" in out
    assert "terminal energy  1.5\n" in out
    assert "(1<2<3<4;1,1,1,1)" in out


def test_flow_reports_its_certificate(tmp_path, capsys):
    path = torus_start_file(tmp_path)
    code, out, _ = run_cli(capsys, "flow", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stop_reason"] == "certificate"
    assert payload["lower_bound"] == pytest.approx(5 / 11, abs=1e-12)
    assert payload["terminal_energy"] - payload["lower_bound"] <= 1e-12
    code, out, _ = run_cli(capsys, "flow", path)
    assert code == 0
    assert "converged        True (certificate)" in out
    assert "lower bound      0.454545454545" in out
    code, out, _ = run_cli(capsys, "flow", "--catalog", "A_2_3")
    assert "lower bound      5\n" in out   # read at the start, which is critical


def test_flow_nonconvergence_is_compute_error(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "flow", torus_start_file(tmp_path), "--max-steps", "3")
    assert code == 1
    assert "steps            3" in out
    assert "converged        False (max_steps)" in out


@pytest.mark.parametrize("argv", [["flow"], ["stratify", "--flow"]])
@pytest.mark.parametrize("bad", [["--max-steps", "-1"], ["--tol", "0"]])
def test_bad_flow_options_are_usage_errors(capsys, argv, bad):
    # A_2_3 is critical and A_4_63 certifies at step 0, so neither flow would
    # ever read a bad step budget; the A_4_26 torus start would
    for name in ("A_2_3", "A_4_63"):
        code, out, err = run_cli(capsys, *argv, "--catalog", name, *bad)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


# the same rule for the commands whose --tol is not a flow option; kept beside
# the test above so that its parametrized cases keep their ids
@pytest.mark.parametrize("command", ["moment", "validate"])
@pytest.mark.parametrize("tol", ["-1", "nan", "0"])
def test_bad_tolerances_are_usage_errors(tmp_path, capsys, command, tol):
    path = tmp_path / "a_2_3.json"
    path.write_text(dump_tensor(builtin("A_2_3").tensor))
    code, out, err = run_cli(capsys, command, str(path), "--tol", tol)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_flow_that_leaves_its_orbit_is_compute_error(tmp_path, capsys):
    # criterion 3's start 29 (A_3_18, stratum energy 3) reads L = 3, then
    # roundoff carries it below: it stops after 32 steps at E = 0.336
    from conftest import criterion_3_starts

    entry, start = next(itertools.islice(criterion_3_starts(), 29, None))
    assert entry.name == "A_3_18"
    path = tmp_path / "fall.json"
    path.write_text(dump_tensor(start))
    code, out, _ = run_cli(capsys, "flow", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["stop_reason"] == "left_orbit"
    assert payload["converged"] is False
    assert payload["terminal_energy"] < payload["lower_bound"] - 1e-12
    assert payload["lower_bound"] == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(RuntimeError, match="left_orbit"):
        stratum_of(start)


def test_catalog_list_and_export_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "catalog", "list", "--dim", "2")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("A_2_")]) == 5

    out_file = tmp_path / "a37.json"
    code, _, _ = run_cli(capsys, "catalog", "export", "--name", "A_3_7", "--out", str(out_file))
    assert code == 0
    again = load_tensor(out_file.read_text())
    assert np.array_equal(again.table, builtin("A_3_7").tensor.table)


def test_reproduce_dim_one(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--dim", "1")
    assert code == 0
    assert "1 rows, 0 failures" in out


def test_reproduce_dim_three_has_19_rows(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--dim", "3", "--format", "md")
    assert code == 0
    assert out.count("| pass |") == 19


def test_reproduce_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--dim", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["strata_by_dim"] == {"2": 3}


def test_stratify_with_flow_label(capsys):
    code, out, _ = run_cli(capsys, "stratify", "--catalog", "A_4_63", "--flow")
    assert code == 0
    assert "beta_mu          (-1, -1/2, 0, 1/2)" in out
    assert "stratum (flow)   (-1, -1/2, 0, 1/2)" in out


def test_stratify_prints_the_exact_beta_and_fails_without_a_certificate(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "stratify", "--catalog", "A_4_68", "--json")
    assert code == 0
    assert json.loads(out)["beta"] == ["-1", "-1", "1/2", "1/2"]

    def uncertified(*args):
        raise cli.RationalSnapError("no certified label")

    monkeypatch.setattr(weights.Face, "label", uncertified)
    code, _, err = run_cli(capsys, "stratify", "--catalog", "A_4_68")
    assert code == 1
    assert err == "error: no certified label\n"
