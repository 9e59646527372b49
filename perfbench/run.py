"""whakit benchmark: seeded CLI-shaped workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced passes and passes with spans around whakit's
public functions, and prints the per-layer metrics; the spans are written to
``.bench_out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (environment, sample counts, recorded flags, per-rung rows).
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_SAMPLES = 5

# Each run makes whole passes over the ladder, at least MIN_PASSES of them,
# so that every rung is sampled equally.  The tail percentile is fixed per
# workload as the highest whole percentile that leaves at least ten samples
# beyond it at MIN_PASSES passes; longer runs only add samples beyond it.
MIN_PASSES = {"analyze-ladder": 7, "crossprod-ladder": 3, "file-gate": 4}
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s", "job_s_p50": "s", "job_s_tail": "s", "peak_rss_mib": "MiB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "whafile.loads.self_s": "s", "whafile.schema_check.self_s": "s", "whafile.dumps.self_s": "s",
    "wha.validate_wba.self_s": "s", "wha.validate_wba.calls": "count",
    "wha.solve_antipode.self_s": "s", "wha.solve_antipode.calls": "count",
    "wha.validate_star.calls": "count", "wha.dual_wha.calls": "count",
    "algebra.block_decomposition.self_s": "s", "algebra.block_decomposition.calls": "count",
    "algebra.FinDimAlgebra.validate.self_s": "s",
    "algebra.FinDimAlgebra.mul.self_s": "s", "algebra.FinDimAlgebra.mul.calls": "count",
    "algebra.FinDimAlgebra.center.self_s": "s", "algebra.FinDimAlgebra.trace_form.self_s": "s",
    "algebra.inclusion_matrix.self_s": "s", "algebra.watatani_index.self_s": "s",
    "linalg.orth.calls": "count", "linalg.kernel.calls": "count", "linalg.lstsq.calls": "count",
    "linalg.self_s": "s", "linalg.input_mib": "MiB",
    "integrals.haar_integral.self_s": "s", "integrals.haar_integral.calls": "count",
    "integrals.integral_spaces.calls": "count",
    "integrals.canonical_grouplike.self_s": "s", "integrals.canonical_grouplike.calls": "count",
    "integrals.haar_expectations.self_s": "s",
    "reptheory.sector_dimensions.self_s": "s", "reptheory.sector_dimensions.calls": "count",
    "reptheory.markov_index.self_s": "s", "reptheory.standard_solutions.self_s": "s",
    "reptheory.monoidal_product.calls": "count", "reptheory.intertwiner_space.self_s": "s",
    "actions.crossed_product.self_s": "s", "actions.crossed_product.peak_mib": "MiB",
    "actions.smash_product.self_s": "s", "actions.dual_regular_action.self_s": "s",
    "actions.is_regular.self_s": "s", "actions.galois_map.self_s": "s",
    "cli.analyze_wha.self_s": "s",
    "job.other_s": "s", "trace.overhead_ratio": "ratio",
}
# ROADMAP item 1's baseline rows: (row name, span, workload, rung)
BASELINE_ROWS = (
    ("p4.smash_product", "actions.smash_product", "crossprod-ladder", "p4"),
    ("m23.smash_product", "actions.smash_product", "crossprod-ladder", "m23"),
    ("p4.markov_index", "reptheory.markov_index", "analyze-ladder", "p4"),
    ("p4.analyze_wha", "cli.analyze_wha", "analyze-ladder", "p4"),
    ("m23.analyze_wha", "cli.analyze_wha", "analyze-ladder", "m23"),
)


def pin_threads() -> None:
    """Fix the BLAS/OpenMP pool size; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source() -> None:
    if not (SRC / "whakit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no whakit source at {SRC.relative_to(ROOT)}/whakit; run from a full checkout")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int):
    """Import whakit and build the workload's inputs; returns (seconds, passes)."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and whakit

    passes = workloads.make_passes(workload, seed, MIN_PASSES[workload])
    return time.perf_counter() - t0, passes


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time of fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-sample", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(jobs, order_rng, records: list, tracer=None) -> float:
    """One closed-loop pass over ``jobs`` in shuffled order; returns the client wait.

    Appends ``(job, latency, problems, flags)`` to ``records``; a job failed
    when ``problems`` is not empty.
    """
    import workloads

    spent = 0.0
    for k in order_rng.permutation(len(jobs)):
        job = jobs[k]
        if tracer is not None:
            tracer.job = len(records)
        t0 = time.perf_counter()
        try:
            result = tracer.span("job", workloads.run_job, job) if tracer else workloads.run_job(job)
        except Exception as exc:  # a job failure is a measured outcome
            latency = time.perf_counter() - t0
            problems, flags = [f"{job.rung}: {type(exc).__name__}: {exc}"], {}
        else:
            latency = time.perf_counter() - t0
            outcome = workloads.check(job, result)
            problems, flags = outcome.problems, outcome.flags
        spent += latency
        records.append((job, latency, problems, flags))
    return spent


def run_passes(passes, seed: int, seconds: float, min_passes: int):
    """Whole passes until ``seconds`` elapse; pass ``k`` runs ``passes[k % len(passes)]``."""
    import numpy as np

    order_rng = np.random.default_rng(seed)
    records, pass_times = [], []
    t_start = time.perf_counter()
    while len(pass_times) < min_passes or time.perf_counter() - t_start < seconds:
        pass_times.append(run_pass(passes[len(pass_times) % len(passes)], order_rng, records))
    return records, pass_times


def summarize(records):
    """(failure messages, failed job count, recorded flags by rung)."""
    failures = [msg for r in records for msg in r[2]]
    failed = sum(1 for r in records if r[2])
    flags = {r[0].rung: r[3] for r in records if r[3]}
    return failures, failed, flags


def tail(latencies: list[float], n_min: int):
    """(value, percentile, samples beyond) at the percentile fixed by ``n_min`` jobs."""
    q = (100 * (n_min - TAIL_BEYOND)) // n_min
    ordered = sorted(latencies)
    rank = -(-q * len(ordered) // 100)  # nearest rank, ceil(q n / 100)
    return ordered[rank - 1], q, len(ordered) - rank


def per_rung(records) -> dict[str, list[float]]:
    """Job latencies by rung, in run order."""
    lat: dict[str, list[float]] = {}
    for job, latency, _, _ in records:
        lat.setdefault(job.rung, []).append(latency)
    return dict(sorted(lat.items()))


def throughput(records, pass_times) -> float:
    """Jobs completed per second of client wait over the run's passes."""
    return len(records) / sum(pass_times)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def emit(detail: dict, records, metrics: dict, units: dict) -> None:
    failures, failed, flags = summarize(records)
    detail.update(
        fail_ratio={"value": failed / len(records), "unit": "ratio"},
        failures=failures[:20],
        recorded_flags=flags,
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def end_to_end(args) -> None:
    samples = setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
    own, passes = setup(args.workload, args.seed)
    samples.append(own)
    import workloads

    workloads.run_job(passes[0][0])  # smallest rung; fills lazy caches (schema text, einsum paths)
    records, pass_times = run_passes(passes, args.seed, args.seconds, MIN_PASSES[args.workload])
    latencies = [r[1] for r in records]
    tail_s, q, beyond = tail(latencies, MIN_PASSES[args.workload] * len(passes[0]))
    metrics = {
        "jobs_per_s": throughput(records, pass_times),
        "job_s_p50": statistics.median(latencies),
        "job_s_tail": tail_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(samples),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "mode": "end-to-end",
        "environment": environment(),
        "jobs": len(records), "passes": len(pass_times), "pass_s": pass_times,
        "job_s_tail": {"percentile": q, "samples_beyond": beyond, "samples": len(records)},
        "setup_samples_s": samples,
        "rung_latency_s": per_rung(records),
    }
    emit(detail, records, metrics, END_TO_END_UNITS)


def traced(args) -> None:
    """Alternate untraced and traced passes over the same inputs until ``--seconds`` elapse."""
    import numpy as np

    _, passes = setup(args.workload, args.seed)
    import workloads
    from tracer import Tracer

    workloads.run_job(passes[0][0])
    order_rng = np.random.default_rng(args.seed)
    tracer = Tracer()
    plain, plain_times, records, pass_times = [], [], [], []
    t_start = time.perf_counter()
    while not pass_times or time.perf_counter() - t_start < args.seconds:
        jobs = passes[len(pass_times) % len(passes)]
        plain_times.append(run_pass(jobs, order_rng, plain))
        tracer.install()
        try:
            pass_times.append(run_pass(jobs, order_rng, records, tracer))
        finally:
            tracer.uninstall()
    layer = tracer.layer_metrics(len(records))
    layer["actions.crossed_product.peak_mib"] = tracer.max_peak_mib("actions.crossed_product")
    layer["trace.overhead_ratio"] = throughput(plain, plain_times) / throughput(records, pass_times)
    metrics = {name: float(layer.get(name, 0.0)) for name in PER_LAYER_UNITS}

    rung_of_job = {i: r[0].rung for i, r in enumerate(records)}
    baseline = {
        row: tracer.rung_rows(rung_of_job, span).get(rung)
        for row, span, workload, rung in BASELINE_ROWS
        if workload == args.workload
    }
    m23_jobs = {i for i, r in enumerate(records) if r[0].rung == "m23" and r[0].kind == "analyze"}
    out_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    detail = {
        "workload": args.workload, "seed": args.seed, "mode": "traced",
        "environment": environment(),
        "jobs": len(records), "untraced_jobs": len(plain), "passes": len(pass_times),
        "baseline_rows": baseline,
        "m23_analyze_wha_calls": tracer.calls_under("cli.analyze_wha", m23_jobs) if m23_jobs else None,
        "units_note": "*.calls are counts per job; linalg.input_mib is computed from array sizes",
        "spans_file": str(out_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    tracer.dump(out_path, {k: detail[k] for k in ("workload", "seed", "environment")})
    emit(detail, plain + records, metrics, PER_LAYER_UNITS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    use_checkout_source()
    if args.setup_sample:
        print(setup(args.workload, args.seed)[0])
    elif args.trace:
        traced(args)
    else:
        end_to_end(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
