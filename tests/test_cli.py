"""End-to-end CLI tests driving heigen.cli.main with real files."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from heigen import Hypergraph, cli, hypergraph as hg
from heigen.analysis import CoalescenceRecord, IdentityRecord, RelocationRecord
from heigen.canon import SearchBudgetExceeded
from heigen.cli import main
from heigen.hypergraph import is_hypertree
from heigen.spectral import EIGENVALUE_TOLERANCE, SolverConfig


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


@pytest.mark.parametrize(
    "flag", [("--seed", "1"), ("--restarts", "1"), ("--max-iters", "1"), ("--json",)]
)
def test_generate_takes_only_out(tmp_path, flag):
    with pytest.raises(SystemExit) as info:
        run("generate", "hyperstar", "2", "4", *flag, "--out", str(tmp_path / "g.json"))
    assert info.value.code == 2


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
    assert "iterations = " in out and "restarts_used" not in out


def test_lambda_min_json_payload(tmp_path):
    src = str(tmp_path / "star.json")
    out = str(tmp_path / "result.json")
    run("generate", "hyperstar", "2", "4", "--out", src)
    assert run("lambda-min", src, "--json", "--out", out) == 0
    payload = json.loads(open(out).read())
    assert payload["schema"] == "heigen-eigen/1"
    assert abs(payload["lambda"] + 2.0 ** 0.25) <= 1e-6
    assert 1 <= payload["iterations"] <= 2000 and "restarts_used" not in payload
    assert payload["manifest"]["inputs"][src] == hg.file_sha256(src)
    assert payload["manifest"]["version"]


def test_eigen_output_names_the_method(tmp_path, capsys):
    star, k54, out = (str(tmp_path / name) for name in ("star.json", "k54.json", "out.json"))
    run("generate", "hyperstar", "2", "4", "--out", star)
    run("generate", "complete", "5", "4", "--out", k54)
    assert run("lambda-min", star) == 0
    assert "method = power" in capsys.readouterr().out
    assert run("lambda-min", k54) == 0
    assert "method = descent" in capsys.readouterr().out
    assert run("rho", k54, "--json", "--out", out) == 0
    assert json.loads(open(out).read())["method"] == "power"


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


def test_oracle_finds_the_minimum_on_a_hard_seed(capsys):
    """From 8 starts the oracle settled at -2.516832 on this seed, above the
    solver's -2.525900, and the suite called the family inconclusive."""
    assert run("verify", "minimizer", "--family", "Tm:complete:5:4,m=1", "--seed", "596836679") == 0
    assert "lambda=-2.525900" in capsys.readouterr().out


def test_verify_minimizer_certifies_k2_trees(capsys):
    # every tree is odd-bipartite, so each solve gets the signed Perron vector
    assert run("verify", "minimizer", "--family", "hypertrees:m=4,k=2") == 0
    assert "converged=no" not in capsys.readouterr().out


def test_low_iteration_cap_is_no_violation(capsys):
    """A capped solve must not pass a non-least eigenpair off as the least
    one and report a counterexample to the relocation bound."""
    code = run("verify", "relocation", "--trials", "2", "--max-iters", "2")
    out = capsys.readouterr().out
    assert code != 1 and "violation:" not in out


def test_search_budget_exceeded_is_inconclusive(monkeypatch, capsys):
    """Exit code 1 means a violation; a canonical search that gives up is not one."""
    def give_up(spec):
        raise SearchBudgetExceeded("canonical search exceeded 10 nodes")

    monkeypatch.setattr(cli, "family_from_spec", give_up)
    assert run("verify", "minimizer", "--family", "hypertrees:m=2,k=4") == 2
    assert "error: canonical search exceeded" in capsys.readouterr().err


def test_unexpected_error_exits_2(tmp_path, capsys):
    """Exit code 1 means a violation; an error outside the expected ones is
    reported as one line and exits 2, not as a traceback with status 1."""
    path = tmp_path / "huge.json"
    path.write_text(
        '{"edges": [[0, 1, 2, 3]], "format": "hypergraph/1", "k": 4, "n": 9223372036854775808}'
    )
    assert run("rho", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_unexpected_exception_type_exits_2(monkeypatch, capsys):
    def broken(spec):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli, "family_from_spec", broken)
    assert run("verify", "minimizer", "--family", "hypertrees:m=2,k=4") == 2
    assert "error: invariant broken" in capsys.readouterr().err


def _stub_campaigns(monkeypatch) -> list:
    """Replace both campaigns by stubs that record the trial count asked for."""
    asked = []

    def campaign(trials, seed, cfg, tol):
        asked.append(trials)
        return []

    monkeypatch.setattr(cli, "relocation_campaign", campaign)
    monkeypatch.setattr(cli, "coalescence_campaign", campaign)
    return asked


@pytest.mark.parametrize(
    "argv",
    [
        ("relocation", "--trials", "0"),
        ("relocation", "--trials", "-1"),
        ("coalescence", "--trials", "1", "--tolerance", "nan"),
        ("coalescence", "--trials", "1", "--tolerance", "inf"),
        ("coalescence", "--trials", "1", "--tolerance", "-0.5"),
    ],
)
def test_bad_verify_flags_are_usage_errors(monkeypatch, argv):
    asked = _stub_campaigns(monkeypatch)
    with pytest.raises(SystemExit) as info:
        run("verify", *argv)
    assert info.value.code == 2
    assert asked == []


@pytest.mark.parametrize(
    "argv",
    [
        ("minimizer", "--family", "hypertrees:m=3,k=4", "--trials", "5"),
        ("odd-bipartite-identity", "--trials", "5"),
        ("relocation", "--family", "hypertrees:m=3,k=4"),
        ("coalescence", "--trials", "1", "--family", "hypertrees:m=3,k=4"),
    ],
)
def test_misplaced_verify_flags_are_usage_errors(monkeypatch, capsys, argv):
    """--trials is read only by relocation and coalescence, --family only by
    minimizer and odd-bipartite-identity; elsewhere they exit 2 before any
    solve instead of being ignored."""
    asked = _stub_campaigns(monkeypatch)

    def must_not_run(*args, **kwargs):
        asked.append(args)
        return []

    for name in ("family_from_spec", "find_minimizer", "identity_corpus", "verify_odd_bipartite_identities"):
        monkeypatch.setattr(cli, name, must_not_run)
    assert run("verify", *argv) == 2
    assert asked == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --")


def test_solver_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    for argv in (["lambda-min", "g.json"], ["rho", "g.json"], ["verify", "relocation"]):
        args = parser.parse_args(argv)
        solver = {"seed": args.seed, "restarts": args.restarts, "max_iters": args.max_iters}
        assert solver == dataclasses.asdict(SolverConfig())
    assert args.tolerance == EIGENVALUE_TOLERANCE


def test_trials_default_per_suite(monkeypatch):
    asked = _stub_campaigns(monkeypatch)
    assert run("verify", "relocation") == 0
    assert run("verify", "coalescence") == 0
    assert run("verify", "coalescence", "--trials", "1", "--tolerance", "0") == 0
    assert asked == [30, 20, 1]


# Per suite: extra flags, the CSV header, the first text line, the record type.
VERIFY_SHAPES = {
    "relocation": (
        ("--trials", "1"),
        "index,status,case,lambda_before,lambda_after,transported_value",
        r"\[00\] pass: case=\S+ lambda_before=\S+ lambda_after=\S+ transported=\S+",
        RelocationRecord,
    ),
    "coalescence": (
        ("--trials", "1"),
        "index,status,lambda_host,lambda_merged,root_value,branch_root_sum",
        r"\[00\] pass: lambda_host=\S+ lambda_merged=\S+ root_value=\S+ branch_root_sum=\S+",
        CoalescenceRecord,
    ),
    "minimizer": (
        ("--family", "hypertrees:m=2,k=4"),
        "index,n,m,lambda,residual,converged,minimizer",
        r"\[00\] n=7 m=2 lambda=\S+ converged=yes <- minimizer",
        None,
    ),
    "odd-bipartite-identity": (
        ("--family", "hypertrees:m=2,k=4"),
        "index,status,n,m,has_witness,lambda_min,rho,gap",
        r"\[00\] pass: n=7 m=2 witness=yes lambda_min=\S+ rho=\S+",
        IdentityRecord,
    ),
}


@pytest.mark.parametrize("suite", list(VERIFY_SHAPES))
def test_verify_output_shape(tmp_path, capsys, suite):
    extra, header, first_line, record_type = VERIFY_SHAPES[suite]
    argv = ["verify", suite, "--restarts", "8", *extra]
    csv_path = tmp_path / "rows.csv"
    assert run(*argv, "--csv", str(csv_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(first_line, lines[0])
    assert lines[-1] == "summary: 1 pass, 0 violation, 0 inconclusive"
    assert csv_path.read_text().splitlines()[:2] == ["# heigen-csv/1", header]

    out = tmp_path / "report.json"
    assert run(*argv, "--json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    solver_fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(payload["manifest"]["solver"]) == solver_fields
    if record_type is None:
        assert set(payload) >= {"report", "status", "detail"} and "records" not in payload
        assert set(payload["report"]["solver"]) == solver_fields
        for entry in payload["report"]["entries"]:
            assert set(entry) == {
                "n", "k", "m", "edges", "lambda", "residual", "converged", "oracle_gap"
            }
    else:
        fields = {f.name for f in dataclasses.fields(record_type)}
        assert payload["records"]
        for record in payload["records"]:
            assert set(record) == fields


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


def test_output_paths_stay_out_of_reports_however_spelled(tmp_path):
    star = str(tmp_path / "star.json")
    run("generate", "hyperstar", "2", "4", "--out", star)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("rho", star, "--json", f"--out={a}") == 0
    assert run("rho", star, "--json", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    args = ["verify", "coalescence", "--trials", "1", "--restarts", "8", "--json"]
    assert run(*args, "--out", str(a), f"--csv={tmp_path / 'a.csv'}") == 0
    assert run(*args, "--out", str(b), "--csv", str(tmp_path / "b.csv")) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # an abbreviated flag would record the path it is given
    with pytest.raises(SystemExit) as info:
        run("rho", star, "--json", "--ou", str(a))
    assert info.value.code == 2


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("heigen ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.func is not None, line


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
