"""End-to-end CLI tests driving heigen.cli.main with real files."""

import json

import pytest

from heigen import Hypergraph, cli, hypergraph as hg
from heigen.canon import SearchBudgetExceeded
from heigen.cli import main
from heigen.hypergraph import is_hypertree


def run(*argv):
    return main(list(argv))


def test_generate_hyperstar(tmp_path):
    path = str(tmp_path / "star.json")
    assert run("generate", "hyperstar", "3", "4", "--out", path) == 0
    g = hg.load(path)
    assert g.n == 10 and g.m == 3 and g.k == 4
    assert is_hypertree(g)
    assert g.degree(0) == 3


def test_generate_complete(tmp_path):
    path = str(tmp_path / "k54.json")
    assert run("generate", "complete", "5", "4", "--out", path) == 0
    g = hg.load(path)
    assert g.n == 5 and g.m == 5


def test_generate_power_tree_and_blowup(tmp_path):
    path = str(tmp_path / "g.json")
    assert run("generate", "power-tree", "0-1,1-2", "4", "--out", path) == 0
    assert hg.load(path).n == 7
    assert run("generate", "blowup", "0-1,1-2,2-0", "4", "--out", path) == 0
    g = hg.load(path)
    assert g.n == 6 and g.m == 3


def test_generate_rejects_bad_input(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    assert run("generate", "hyperstar", "0", "4", "--out", path) == 2
    assert run("generate", "power-tree", "0-1,2-3", "4", "--out", path) == 2
    assert run("generate", "hyperstar", "3", "--out", path) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_round_trips_bytes(tmp_path):
    path = tmp_path / "star.json"
    run("generate", "hyperstar", "2", "4", "--out", str(path))
    assert hg.dumps(hg.load(str(path))) == path.read_text()


def test_lambda_min_human_output(tmp_path, capsys):
    path = str(tmp_path / "edge.json")
    run("generate", "complete", "4", "4", "--out", path)
    assert run("lambda-min", path) == 0
    out = capsys.readouterr().out
    assert "lambda_min = -1.000000" in out
    assert "converged = yes" in out


def test_lambda_min_json_payload(tmp_path):
    src = str(tmp_path / "star.json")
    out = str(tmp_path / "result.json")
    run("generate", "hyperstar", "2", "4", "--out", src)
    assert run("lambda-min", src, "--json", "--out", out) == 0
    payload = json.loads(open(out).read())
    assert payload["schema"] == "heigen-eigen/1"
    assert abs(payload["lambda"] + 2.0 ** 0.25) <= 1e-6
    assert payload["manifest"]["inputs"][src] == hg.file_sha256(src)
    assert payload["manifest"]["version"]


def test_rho_command(tmp_path, capsys):
    path = str(tmp_path / "star.json")
    run("generate", "hyperstar", "4", "4", "--out", path)
    assert run("rho", path) == 0
    assert "rho = 1.414214" in capsys.readouterr().out


def test_odd_uniformity_exits_3(tmp_path):
    path = str(tmp_path / "odd.json")
    hg.save(Hypergraph(3, 3, ((0, 1, 2),)), path)
    assert run("lambda-min", path) == 3
    assert run("rho", path) == 3


def test_bad_solver_flags_exit_2(tmp_path):
    path = str(tmp_path / "edge.json")
    run("generate", "complete", "4", "4", "--out", path)
    assert run("lambda-min", path, "--max-iters", "-1") == 2
    assert run("lambda-min", path, "--restarts", "0") == 2


def test_missing_file_exits_2(tmp_path):
    assert run("lambda-min", str(tmp_path / "absent.json")) == 2


def test_malformed_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "hypergraph/1", "k": 4}')
    assert run("lambda-min", str(path)) == 2
    path.write_text("not json")
    assert run("lambda-min", str(path)) == 2


def test_no_subcommand_exits_2(capsys):
    assert run() == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_suite_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("verify", "telepathy")
    assert info.value.code == 2


def test_verify_minimizer_exit_codes(tmp_path, capsys):
    assert run("verify", "minimizer", "--family", "hypertrees:m=2,k=4") == 0
    out = capsys.readouterr().out
    assert "minimizer" in out and "summary: 1 pass" in out
    assert run("verify", "minimizer") == 2


def test_search_budget_exceeded_is_inconclusive(monkeypatch, capsys):
    """Exit code 1 means a violation; a canonical search that gives up is not one."""
    def give_up(spec):
        raise SearchBudgetExceeded("canonical search exceeded 10 nodes")

    monkeypatch.setattr(cli, "family_from_spec", give_up)
    assert run("verify", "minimizer", "--family", "hypertrees:m=2,k=4") == 2
    assert "error: canonical search exceeded" in capsys.readouterr().err


def test_verify_identity_suite_json(tmp_path):
    out = str(tmp_path / "identity.json")
    code = run(
        "verify", "odd-bipartite-identity", "--family", "hypertrees:m=2,k=4",
        "--json", "--out", out, "--restarts", "8",
    )
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["schema"] == "heigen-verify/1"
    assert payload["summary"] == {"pass": 1, "violation": 0, "inconclusive": 0}
    assert payload["records"][0]["has_witness"] is True


def test_verify_json_bytes_identical_across_out_paths(tmp_path):
    a = str(tmp_path / "a.json")
    sub = tmp_path / "sub"
    sub.mkdir()
    b = str(sub / "b.json")
    args = ["verify", "coalescence", "--trials", "2", "--restarts", "8", "--json"]
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_verify_csv_output(tmp_path):
    csv_path = tmp_path / "rows.csv"
    out = str(tmp_path / "r.json")
    code = run(
        "verify", "relocation", "--trials", "2", "--restarts", "8",
        "--json", "--out", out, "--csv", str(csv_path),
    )
    assert code == 0
    text = csv_path.read_text()
    assert text.startswith("# heigen-csv/1\n")
    assert "lambda_before" in text.splitlines()[1]
    assert len(text.splitlines()) == 4


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run("--version")
    assert info.value.code == 0
    assert "heigen" in capsys.readouterr().out
