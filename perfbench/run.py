"""heigen's benchmark: one closed-loop caller, one process, one operation at
a time.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads are ``verify``, ``solve-large`` and ``enumerate`` (see
``workloads.py`` and the README next to this file).  The run builds the
workload's inputs from ``--seed``, repeats whole rounds of its operations
for about ``--seconds`` seconds, then checks every output against values
computed without heigen.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from spans
around heigen's public functions) with ``--trace 1``.  The line before it
records the machine, the thread pinning and figures not in the result.
"""

import os

# One thread for BLAS and OpenMP, set before numpy is first imported; the
# setup probes inherit it through the environment.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(HERE, "_runs")
SETUP_PROBES = 7

# Per-layer metrics of the traced run: "<function>.<field>" for each field
# of each function's span totals; README.md says what each should move.
LAYER_FIELDS = (
    ("spectral.least_h_eigenvalue", ("calls", "s", "self_s")),
    ("spectral.tensor_apply", ("calls", "s")),
    ("spectral.rayleigh", ("calls", "s")),
    ("spectral.residual", ("calls", "s")),
    ("spectral.spectral_radius", ("calls", "s")),
    ("hypergraph.find_odd_bipartition", ("calls", "s")),
    ("spectral.brute_force_min", ("calls", "s", "self_s")),
    ("canon.canonical_form", ("calls", "s")),
    ("canon.are_isomorphic", ("calls", "s")),
    ("analysis.enumerate_hypertrees", ("calls", "self_s")),
    ("analysis.enumerate_family", ("calls", "self_s")),
    ("analysis.find_minimizer", ("calls", "self_s")),
    ("constructions.relocate", ("calls", "s")),
    ("constructions.coalesce", ("calls", "s")),
    ("cli.main", ("calls", "s", "self_s")),
    ("cli.cmd_verify", ("self_s",)),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["verify", "solve-large", "enumerate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import heigen from the checkout's src directory, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import heigen
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import heigen from {src}: {exc}")
    if not os.path.abspath(heigen.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: heigen was imported from {heigen.__file__}, not from {src}")


def setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import heigen and build the
    workload's inputs, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in PINNED},
    }


def run_rounds(wl, seconds, tracer=None):
    """Whole rounds of the workload's operations, one at a time, until
    another round would likely end past ``seconds``.  Returns the outputs
    per round, every operation's latency and the elapsed time."""
    outputs, latencies = [], []
    start = time.perf_counter()
    last = 0.0
    while not outputs or time.perf_counter() - start + last <= seconds:
        t_round = time.perf_counter()
        outs = []
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = len(outputs) * len(wl.ops) + i
            t0 = time.perf_counter()
            try:
                out = op.run(f"{len(outputs)}-{i}")
            except Exception as exc:  # an operation's failure is counted, not fatal
                print(f"perfbench: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                out = exc
            latencies.append(time.perf_counter() - t0)
            outs.append(out)
        outputs.append(outs)
        last = time.perf_counter() - t_round
    return outputs, latencies, time.perf_counter() - start


def tail_ms(latencies):
    """The highest percentile with at least ten samples beyond it, from at
    least 40 samples; None below that."""
    n = len(latencies)
    if n < 40:
        return None
    return 100.0 * (n - 10) / n, 1000.0 * sorted(latencies)[n - 11]


def layer_metrics(tracer, wl, rounds: int, elapsed: float, passed: int) -> dict:
    """Per-layer figures per round of the workload."""
    totals = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "converged": 0}
    metrics = {}
    for fn, fields in LAYER_FIELDS:
        row = totals.get(fn, zero)
        for field in fields:
            metrics[f"{fn}.{field}"] = {"value": row[field] / rounds, "unit": UNITS[field]}
    solves = totals.get("spectral.least_h_eigenvalue", zero)
    metrics["spectral.least_h_eigenvalue.converged_ratio"] = {
        "value": solves["converged"] / solves["calls"] if solves["calls"] else 0.0, "unit": "ratio"}
    records = sum(op.kind == "relocation" for op in wl.ops) * rounds
    attempts = totals.get("analysis.verify_relocation", zero)["calls"]
    metrics["analysis.relocation.attempts_per_record"] = {
        "value": attempts / records if records else 0.0, "unit": "ratio"}
    metrics["trace.spans"] = {"value": len(tracer.names) / rounds, "unit": "count"}
    metrics["trace.ops_per_s"] = {"value": passed / elapsed, "unit": "1/s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
            workload(args.seed, tmp)
        return 0
    os.makedirs(RUNS_DIR, exist_ok=True)
    setups = setup_seconds(args)
    info = machine_info()
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        wl = workload(args.seed, tmp)
        tracer = restore = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
        try:
            outputs, latencies, elapsed = run_rounds(wl, args.seconds, tracer)
        finally:
            if restore is not None:
                restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        wl.references()
        verdicts = [wl.check(i, outs) for outs in outputs for i in range(len(outs))]
        repeat_ok = wl.repeat() if hasattr(wl, "repeat") else True
    ran = wl.ops * len(outputs)  # parallel to verdicts and latencies
    attempted = len(verdicts)
    failed = sum(v != workloads.PASS for v in verdicts)
    passed = attempted - failed
    correct = workloads.WRONG not in verdicts and repeat_ok

    if args.trace:
        metrics = layer_metrics(tracer, wl, len(outputs), elapsed, passed)
        tracer.write(os.path.join(RUNS_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": passed / elapsed, "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    tail = tail_ms(latencies)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": info,
        "rounds": len(outputs),
        "ops_per_round": len(wl.ops),
        "elapsed_s": elapsed,
        "setup_samples_s": setups,
        "op_ms_by_kind": {kind: 1000.0 * statistics.median(
            lat for op, lat in zip(ran, latencies) if op.kind == kind)
            for kind in sorted({op.kind for op in wl.ops})},
        "op_tail_ms": None if tail is None else {"percentile": tail[0], "value": tail[1], "unit": "ms",
                                                 "samples": len(latencies)},
        "failed_ops": sorted({op.label for op, v in zip(ran, verdicts) if v == workloads.FAIL}),
        "wrong_ops": sorted({op.label for op, v in zip(ran, verdicts) if v == workloads.WRONG}),
        "byte_identical_repeat": repeat_ok,
    }
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
