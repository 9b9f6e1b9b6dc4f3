"""Command-line interface: generate hypergraph files, compute eigenvalues,
run verification suites.

Exit codes: 0 success / all checks pass; 1 a verification suite found a
violation; 2 non-convergence, inconclusive results, or usage errors; 3
odd uniformity where even is required.  All randomness flows from --seed.
Every JSON report embeds a manifest (command, seed, solver config, input
digests, version); identical manifests give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from . import hypergraph as hg
from .canon import SearchBudgetExceeded
from .constructions import blowup_power, complete_hypergraph, hyperstar, kth_power_of_graph
from .spectral import (
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
    verify_odd_bipartite_identity,
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
            continue
        command.append(word)
    return {
        "command": command,
        "seed": args.seed,
        "solver": _solver_config(args).to_json_dict(),
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


def _is_tree(edges: list[tuple[int, int]]) -> bool:
    verts = {v for e in edges for v in e}
    if verts != set(range(len(verts))) or len(edges) != len(verts) - 1:
        return False
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


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
        if not _is_tree(edges):
            raise ValueError(f"{params[0]!r} is not a tree on vertices 0..{len(edges)}")
        g = kth_power_of_graph(edges, int(params[1]))
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


def cmd_verify(args) -> int:
    cfg = _solver_config(args)
    tol = args.tolerance
    payload: dict = {
        "schema": "heigen-verify/1",
        "manifest": _manifest(args, {}),
        "suite": args.suite,
        "tolerance": tol,
    }
    lines: list[str] = []
    csv_rows: list[dict] = []
    if args.suite == "relocation":
        records = relocation_campaign(args.trials or 30, args.seed, cfg, tol)
        payload["records"] = [r.to_json_dict() for r in records]
        for i, r in enumerate(records):
            lines.append(
                f"[{i:02d}] {r.status}: case={r.case} lambda_before={_fmt(r.lambda_before)} "
                f"lambda_after={_fmt(r.lambda_after)} transported={_fmt(r.transported_value)}"
            )
            csv_rows.append(
                {
                    "index": i,
                    "status": r.status,
                    "case": r.case,
                    "lambda_before": r.lambda_before,
                    "lambda_after": r.lambda_after,
                    "transported_value": r.transported_value,
                }
            )
        statuses = [r.status for r in records]
    elif args.suite == "coalescence":
        records = coalescence_campaign(args.trials or 20, args.seed, cfg, tol)
        payload["records"] = [r.to_json_dict() for r in records]
        for i, r in enumerate(records):
            lines.append(
                f"[{i:02d}] {r.status}: lambda_host={_fmt(r.lambda_host)} "
                f"lambda_merged={_fmt(r.lambda_merged)} root_value={_fmt(r.root_value)} "
                f"branch_root_sum={_fmt(r.branch_root_sum)}"
            )
            csv_rows.append(
                {
                    "index": i,
                    "status": r.status,
                    "lambda_host": r.lambda_host,
                    "lambda_merged": r.lambda_merged,
                    "root_value": r.root_value,
                    "branch_root_sum": r.branch_root_sum,
                }
            )
        statuses = [r.status for r in records]
    elif args.suite == "minimizer":
        if not args.family:
            raise ValueError("verify minimizer requires --family")
        name, family, refs = family_from_spec(args.family)
        report = find_minimizer(family, cfg, tol, family_name=name)
        status, detail = check_minimizer_structure(report, refs)
        payload["report"] = report.to_json_dict()
        payload["status"] = status
        payload["detail"] = detail
        for i, e in enumerate(report.entries):
            marker = " <- minimizer" if i in report.minimizer_indices else ""
            lines.append(
                f"[{i:02d}] n={e.graph.n} m={e.graph.m} lambda={_fmt(e.eigenvalue)}"
                f" converged={'yes' if e.converged else 'no'}{marker}"
            )
            csv_rows.append(
                {
                    "index": i,
                    "n": e.graph.n,
                    "m": e.graph.m,
                    "lambda": e.eigenvalue,
                    "residual": e.residual,
                    "converged": e.converged,
                    "minimizer": i in report.minimizer_indices,
                }
            )
        lines.append(f"{status}{': ' + detail if detail else ''}")
        statuses = [status]
    elif args.suite == "odd-bipartite-identity":
        if args.family:
            _, graphs, _ = family_from_spec(args.family)
        else:
            graphs = identity_corpus()
        records = [verify_odd_bipartite_identity(g, cfg, tol) for g in graphs]
        payload["records"] = [r.to_json_dict() for r in records]
        for i, r in enumerate(records):
            lines.append(
                f"[{i:02d}] {r.status}: n={r.n} m={r.m} witness={'yes' if r.has_witness else 'no'}"
                f" lambda_min={_fmt(r.lambda_min)} rho={_fmt(r.rho)}"
            )
            csv_rows.append(
                {
                    "index": i,
                    "status": r.status,
                    "n": r.n,
                    "m": r.m,
                    "has_witness": r.has_witness,
                    "lambda_min": r.lambda_min,
                    "rho": r.rho,
                    "gap": r.gap,
                }
            )
        statuses = [r.status for r in records]
    else:
        raise ValueError(f"unknown suite {args.suite!r}")

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


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--restarts", type=int, default=32, help="descent restarts")
    parser.add_argument("--max-iters", type=int, default=2000, help="iteration cap per restart")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--out", help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heigen",
        description="Least H-eigenvalues of even-uniform hypergraph adjacency tensors.",
    )
    parser.add_argument("--version", action="version", version=f"heigen {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("generate", help="write a hypergraph file for a named family")
    p.add_argument("kind", choices=["hyperstar", "complete", "power-tree", "blowup"])
    p.add_argument("params", nargs="*", help="family parameters, e.g. 'hyperstar 3 4'")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("lambda-min", help="least H-eigenvalue of a hypergraph file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_lambda_min)

    p = sub.add_parser("rho", help="spectral radius of a connected hypergraph file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite", choices=["relocation", "coalescence", "minimizer", "odd-bipartite-identity"]
    )
    p.add_argument("--family", help="family spec, e.g. hypertrees:m=3,k=4 or Tm:complete:5:4,m=2")
    p.add_argument("--trials", type=int, help="instance count for randomized suites")
    p.add_argument("--tolerance", type=float, default=1e-6, help="eigenvalue comparison tolerance")
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
    except (ValueError, OSError, json.JSONDecodeError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
