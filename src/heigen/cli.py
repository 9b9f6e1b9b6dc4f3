"""Command-line interface: generate hypergraph files, compute eigenvalues,
run verification suites.

Exit codes: 0 success / all checks pass; 1 a verification suite found a
violation; 2 non-convergence, inconclusive results, usage errors, or any
other error; 3 odd uniformity where even is required.  All randomness
flows from --seed.  Every JSON report embeds a manifest (command, seed,
solver config, input digests, version); identical manifests give
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from . import __version__
from . import hypergraph as hg
from .constructions import blowup_power, complete_hypergraph, hyperstar, kth_power_of_graph
from .spectral import (
    EIGENVALUE_TOLERANCE,
    SolverConfig,
    UnsupportedUniformityError,
    least_h_eigenvalue,
    spectral_radius,
)
from .analysis import (
    check_minimizer_structure,
    coalescence_campaign,
    family_from_spec,
    find_minimizer,
    identity_corpus,
    relocation_campaign,
    verify_odd_bipartite_identities,
)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)


def _manifest(args, inputs: dict[str, str]) -> dict:
    # output destinations do not affect the computation, so the recorded
    # command omits them and equal runs stay byte-identical wherever written
    command = []
    skip = False
    for word in args.raw_argv:
        if skip:
            skip = False
            continue
        if word in ("--out", "--csv"):
            skip = True
        elif not word.startswith(("--out=", "--csv=")):
            command.append(word)
    return {
        "command": command,
        "seed": args.seed,
        "solver": dataclasses.asdict(_solver_config(args)),
        "inputs": inputs,
        "version": __version__,
    }


def _write_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def _parse_graph_edges(text: str) -> list[tuple[int, int]]:
    """Edge-list syntax for simple graphs: '0-1,1-2,2-3'."""
    edges = []
    for piece in text.split(","):
        piece = piece.strip()
        a, sep, b = piece.partition("-")
        if not sep or not a.isdigit() or not b.isdigit():
            raise ValueError(f"bad graph edge {piece!r}, expected like '0-1'")
        edges.append((int(a), int(b)))
    if not edges:
        raise ValueError("empty graph edge list")
    return edges


def cmd_generate(args) -> int:
    kind = args.kind
    params = args.params
    if kind == "hyperstar":
        if len(params) != 2:
            raise ValueError("generate hyperstar needs: m k")
        m, k = int(params[0]), int(params[1])
        if m < 1:
            raise ValueError("hyperstar needs at least one edge")
        g = hyperstar(m, k).graph
    elif kind == "complete":
        if len(params) != 2:
            raise ValueError("generate complete needs: n k")
        g = complete_hypergraph(int(params[0]), int(params[1]))
    elif kind == "power-tree":
        if len(params) != 2:
            raise ValueError("generate power-tree needs: <tree-edges> k")
        edges = _parse_graph_edges(params[0])
        g = kth_power_of_graph(edges, int(params[1]))
        if not hg.is_hypertree(g):
            raise ValueError(f"{params[0]!r} is not a tree on vertices 0..{len(edges)}")
    elif kind == "blowup":
        if len(params) != 2:
            raise ValueError("generate blowup needs: <graph-edges> k")
        g = blowup_power(_parse_graph_edges(params[0]), int(params[1]))
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    _write_text(hg.dumps(g), args.out)
    return 0


def _eigen_command(args, runner, label: str) -> int:
    g = hg.load(args.file)
    result = runner(g, _solver_config(args))
    if args.json or args.out:
        payload = {
            "schema": "heigen-eigen/1",
            "manifest": _manifest(args, {args.file: hg.file_sha256(args.file)}),
            **result.to_json_dict(),
        }
        _emit_json(payload, args.out)
    else:
        print(f"{label} = {result.eigenvalue:.6f}")
        print(f"residual = {result.residual:.3e}")
        print(f"converged = {'yes' if result.converged else 'no'}")
        print(f"iterations = {result.iterations}")
        print(f"method = {result.method}")
    return 0 if result.converged else 2


def cmd_lambda_min(args) -> int:
    return _eigen_command(args, least_h_eigenvalue, "lambda_min")


def cmd_rho(args) -> int:
    return _eigen_command(args, spectral_radius, "rho")


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write("# heigen-csv/1\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def _trials(args, default: int) -> int:
    return default if args.trials is None else args.trials


def _identity_records(args, cfg: SolverConfig) -> list:
    graphs = family_from_spec(args.family)[1] if args.family else identity_corpus()
    return verify_odd_bipartite_identities(graphs, cfg, args.tolerance)


# Suites that report one record per instance: the campaign, the record
# fields the CSV shows after ``index``, and the text line after the status.
RECORD_SUITES = {
    "relocation": (
        lambda args, cfg: relocation_campaign(_trials(args, 30), args.seed, cfg, args.tolerance),
        ("status", "case", "lambda_before", "lambda_after", "transported_value"),
        lambda r: (
            f"case={r.case} lambda_before={_fmt(r.lambda_before)} "
            f"lambda_after={_fmt(r.lambda_after)} transported={_fmt(r.transported_value)}"
        ),
    ),
    "coalescence": (
        lambda args, cfg: coalescence_campaign(_trials(args, 20), args.seed, cfg, args.tolerance),
        ("status", "lambda_host", "lambda_merged", "root_value", "branch_root_sum"),
        lambda r: (
            f"lambda_host={_fmt(r.lambda_host)} lambda_merged={_fmt(r.lambda_merged)} "
            f"root_value={_fmt(r.root_value)} branch_root_sum={_fmt(r.branch_root_sum)}"
        ),
    ),
    "odd-bipartite-identity": (
        _identity_records,
        ("status", "n", "m", "has_witness", "lambda_min", "rho", "gap"),
        lambda r: (
            f"n={r.n} m={r.m} witness={'yes' if r.has_witness else 'no'} "
            f"lambda_min={_fmt(r.lambda_min)} rho={_fmt(r.rho)}"
        ),
    ),
}
# The minimizer suite's CSV: these fields of each report entry, between
# ``index`` and the ``minimizer`` mark.
MINIMIZER_COLUMNS = ("n", "m", "lambda", "residual", "converged")


def _verify_minimizer(args, cfg: SolverConfig, payload: dict) -> tuple[list[str], list[dict], list[str]]:
    """One family search: the report, its status and detail go into the
    payload; returns the text lines, the CSV rows and the status."""
    if not args.family:
        raise ValueError("verify minimizer requires --family")
    name, family, refs = family_from_spec(args.family)
    report = find_minimizer(family, cfg, args.tolerance, family_name=name)
    status, detail = check_minimizer_structure(report, refs)
    payload["report"] = report.to_json_dict()
    payload["status"] = status
    payload["detail"] = detail
    lines: list[str] = []
    csv_rows: list[dict] = []
    for i, e in enumerate(payload["report"]["entries"]):
        best = i in report.minimizer_indices
        lines.append(
            f"[{i:02d}] n={e['n']} m={e['m']} lambda={_fmt(e['lambda'])}"
            f" converged={'yes' if e['converged'] else 'no'}{' <- minimizer' if best else ''}"
        )
        csv_rows.append({"index": i, **{c: e[c] for c in MINIMIZER_COLUMNS}, "minimizer": best})
    lines.append(f"{status}{': ' + detail if detail else ''}")
    return lines, csv_rows, [status]


def cmd_verify(args) -> int:
    # a flag the suite does not read is a usage error, not silently ignored
    if args.trials is not None and args.suite not in ("relocation", "coalescence"):
        raise ValueError(f"--trials does not apply to verify {args.suite}")
    if args.family is not None and args.suite not in ("minimizer", "odd-bipartite-identity"):
        raise ValueError(f"--family does not apply to verify {args.suite}")
    cfg = _solver_config(args)
    payload: dict = {
        "schema": "heigen-verify/1",
        "manifest": _manifest(args, {}),
        "suite": args.suite,
        "tolerance": args.tolerance,
    }
    if args.suite == "minimizer":
        lines, csv_rows, statuses = _verify_minimizer(args, cfg, payload)
    else:
        campaign, columns, line = RECORD_SUITES[args.suite]
        records = campaign(args, cfg)
        payload["records"] = [dataclasses.asdict(r) for r in records]
        lines = [f"[{i:02d}] {r.status}: {line(r)}" for i, r in enumerate(records)]
        csv_rows = [
            {"index": i, **{c: d[c] for c in columns}} for i, d in enumerate(payload["records"])
        ]
        statuses = [r.status for r in records]

    violations = sum(s == "violation" for s in statuses)
    inconclusive = sum(s not in ("pass", "violation") for s in statuses)
    passes = sum(s == "pass" for s in statuses)
    payload["summary"] = {"pass": passes, "violation": violations, "inconclusive": inconclusive}
    if args.csv:
        _write_text(_csv_text(csv_rows), args.csv)
    if args.json or args.out:
        _emit_json(payload, args.out)
    else:
        for line in lines:
            print(line)
        print(f"summary: {passes} pass, {violations} violation, {inconclusive} inconclusive")
    if violations:
        return 1
    if inconclusive:
        return 2
    return 0


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _finite_nonnegative(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    parser.add_argument("--seed", type=int, default=defaults.seed, help="seed for all randomness")
    parser.add_argument("--restarts", type=int, default=defaults.restarts, help="descent restarts")
    parser.add_argument("--max-iters", type=int, default=defaults.max_iters, help="iteration cap per restart")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--out", help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heigen",
        allow_abbrev=False,
        description="Least H-eigenvalues of even-uniform hypergraph adjacency tensors.",
    )
    parser.add_argument("--version", action="version", version=f"heigen {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("generate", allow_abbrev=False, help="write a hypergraph file for a named family")
    p.add_argument("kind", choices=["hyperstar", "complete", "power-tree", "blowup"])
    p.add_argument("params", nargs="*", help="family parameters, e.g. 'hyperstar 3 4'")
    p.add_argument("--out", help="write output to this path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("lambda-min", allow_abbrev=False, help="least H-eigenvalue of a hypergraph file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_lambda_min)

    p = sub.add_parser("rho", allow_abbrev=False, help="spectral radius of a connected hypergraph file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("verify", allow_abbrev=False, help="run a verification suite")
    p.add_argument(
        "suite", choices=["relocation", "coalescence", "minimizer", "odd-bipartite-identity"]
    )
    p.add_argument("--family", help="family spec, e.g. hypertrees:m=3,k=4 or Tm:complete:5:4,m=2")
    p.add_argument("--trials", type=_at_least_one, help="instance count for randomized suites")
    p.add_argument(
        "--tolerance", type=_finite_nonnegative, default=EIGENVALUE_TOLERANCE, help="eigenvalue comparison tolerance"
    )
    p.add_argument("--csv", help="also write an eigenvalue table to this path")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    args.raw_argv = argv
    try:
        return args.func(args)
    except UnsupportedUniformityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit 1 is reserved for a violation found
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
