import json
from pathlib import Path

import numpy as np
import pytest

from jordanflow import cli
from jordanflow.algebra import dump_tensor, load_tensor
from jordanflow.catalog import builtin

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moment_subcommand(capsys):
    code, out, _ = run_cli(capsys, "moment", "--catalog", "A_2_3")
    assert code == 0
    assert "seed=0" in out
    assert "[-2, 0]" in out and "[0, 1]" in out
    assert "energy           5" in out
    assert "(1<2;1,1)" in out


def test_moment_json_golden(capsys):
    code, out, _ = run_cli(capsys, "moment", "--catalog", "A_2_3", "--json")
    assert code == 0
    assert out == (DATA / "moment_a_2_3.json").read_text()
    payload = json.loads(out)
    assert payload["soliton_type"]["beta"] == ["-2", "1"]


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
])
def test_bad_tensor_file_is_one_line_usage_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, out, err = run_cli(capsys, "invariants", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_flow_subcommand_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "flow", "--catalog", "A_4_63", "--trace", str(trace))
    assert code == 0
    assert "terminal energy  1.5" in out
    assert "(1<2<3<4;1,1,1,1)" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,energy,grad_norm"
    assert len(lines) > 100


def test_flow_nonconvergence_is_compute_error(capsys):
    code, out, _ = run_cli(capsys, "flow", "--catalog", "A_4_63", "--max-steps", "3")
    assert code == 1
    assert "converged        False" in out


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
