"""rotorsense benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload rotor_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from its `src/`
and the workloads and metrics are read from `BENCHMARK.json`. Set-up runs
several times and its median is reported; then ops run in a closed loop
(the next starts when the previous ends), at least two, and more while
another op of median length still ends within `--seconds`; op time is
reported as the 10th percentile over the ops. `--trace 1` instead sets up once,
runs one untraced and one traced op, and reports per-layer metrics. A
summary goes to stdout; the last line is one JSON object with keys
correct, attempted, failed and metrics. Results and spans are kept under
`.perfbench/` in the checkout. The exit code is 1 when an output check
fails and 2 when the package is missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
MIN_OPS = 2
# Op time is reported as this low quantile of the run's ops, not their
# median: the vCPUs of the shared host switch between a fast state and one
# about 1.4x slower every few seconds, whatever the program does. The
# fastest ops show the program's cost; a regression slows them as well.
OP_QUANTILE = 10  # percent

# Reported in the summary and results file, not in the last line: each
# exists on some workloads only, or is zero when all is well.
QUALITY_UNITS = {"rmae_pct": "%", "cmd_acc": "ratio", "loc_err_m": "m", "gps_err_m": "m"}
# per-layer names that differ from the tracer's `<span>_s`/`_self_s`/`_calls` keys
SPAN_KEYS = {"pipeline.self_s": "pipeline.run_self_s"}
SETUP_LAYERS = ("commands.train_s", "sim.propellers_s", "sim.flight_s", "sim.events")


def git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, naming the code that was measured."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "rotorsense")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": have_numba,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
    }


def run_op(wl, ledger, out_dir: str, tracer=None) -> dict:
    """One timed op, then its output and determinism checks (untimed)."""
    import checks

    start, cpu_start = time.perf_counter(), time.process_time()
    if tracer is None:
        return_codes = wl.run_op(out_dir)
    else:
        with tracer.span("op"):
            return_codes = wl.run_op(out_dir, tracer)
    seconds = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    quality, problems = wl.check(out_dir, return_codes)
    if not problems:
        problems = ledger.check(checks.manifest_hashes(wl.manifests(out_dir)))
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"seconds": seconds, "cpu_s": cpu_s, "return_codes": return_codes, "quality": quality, "problems": problems}


def measure(wl_cls, seed: int, seconds: float, work: str, ledger, import_s: float) -> tuple[dict, dict]:
    setup_times, digests, wl = [], [], None
    for i in range(SETUP_REPEATS):
        candidate = wl_cls(seed, os.path.join(work, f"setup{i}"))
        start = time.perf_counter()
        candidate.setup()
        setup_times.append(time.perf_counter() - start)
        digests.append(candidate.input_digest())
        if wl is not None:
            shutil.rmtree(wl.work_dir)
        wl = candidate
    ops = []
    start = time.perf_counter()
    # at least MIN_OPS; past that, start another op only if one of median
    # length still ends within the run length
    while len(ops) < MIN_OPS or time.perf_counter() - start + statistics.median(o["seconds"] for o in ops) <= seconds:
        ops.append(run_op(wl, ledger, os.path.join(work, f"op{len(ops)}")))
        if len(ops) == MIN_OPS:
            # read here, so the figure does not depend on how many ops fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_s = statistics.quantiles([op["seconds"] for op in ops], n=100, method="inclusive")[OP_QUANTILE - 1]
    metrics = {
        "job_s": job_s,
        "events_per_s": wl.inputs.n_events / job_s,
        "realtime_x": wl.inputs.covered_s / job_s,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "ops": ops,
        "setup_times_s": setup_times,
        "median_op_s": statistics.median(op["seconds"] for op in ops),
        "import_s": import_s,
        "setup_problems": [] if len(set(digests)) == 1 else ["set-up inputs differ between repeats of one seed"],
        "n_events": wl.inputs.n_events,
        "covered_s": wl.inputs.covered_s,
    }
    return metrics, detail


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def trace(wl_cls, seed: int, work: str, ledger, spans_path: str, names: list[str]) -> tuple[dict, dict]:
    from tracer import Tracer, installed, wrapped_targets

    tracer = Tracer()
    wl = wl_cls(seed, os.path.join(work, "setup0"))
    with installed(tracer):
        wl.setup()
    plain = run_op(wl, ledger, os.path.join(work, "op0"))
    tracer.op = "traced"
    with installed(tracer):
        traced = run_op(wl, ledger, os.path.join(work, "op1"), tracer)
    tracer.dump(spans_path)
    op, setup = tracer.totals("traced"), tracer.totals("setup")

    def ratio(num: str, den: str) -> float:
        return op[num] / op[den] if op[den] else 0.0

    metrics = {}
    for name in names:
        source = setup if name in SETUP_LAYERS else op
        metrics[name] = float(source.get(SPAN_KEYS.get(name, name), 0.0))
    metrics.update({
        "events.read_share": ratio("events.read_s", "op_s"),
        "preprocess.kept_frac": ratio("preprocess.filter_out", "preprocess.filter_in"),
        "batching.bundles_per_batch": ratio("batching.bundles", "batching.grow_calls"),
        "batching.kept_frac": ratio("batching.downsample_out", "batching.downsample_in"),
        "trace.job_s": traced["seconds"],
        "trace.untraced_job_s": plain["seconds"],
        "trace.overhead_s": traced["seconds"] - plain["seconds"],
        "trace.spans": float(sum(1 for s in tracer.spans if s.op == "traced")),
    })
    for key, value in traced["quality"].items():
        if f"check.{key}" in metrics:
            metrics[f"check.{key}"] = value
    left = wrapped_targets()
    detail = {
        "ops": [plain, traced],
        "setup_problems": [f"wrapper left installed: {name}" for name in left],
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, detail


def summary_lines(name: str, seed: int, metrics: dict, detail: dict, spec_metrics: list[dict], traced: bool) -> list[str]:
    ops = detail["ops"]
    lines = [f"{name} seed={seed} {'traced' if traced else 'end-to-end'} run, {len(ops)} ops"]
    n_samples = {"setup_s": f"median of {SETUP_REPEATS}", "peak_rss_mb": "1 sample"}
    for m in spec_metrics:
        n = "" if traced else n_samples.get(m["name"], f"p{OP_QUANTILE} of {len(ops)} ops") + "; "
        lines.append(f"  {m['name']:28s} {metrics[m['name']]:.6g} {m['unit']} ({n}{m['better']} is better)")
    if not traced:
        lines.append(f"  {'median op time':28s} {detail['median_op_s']:.6g} s (median of {len(ops)} ops)")
    failed = sum(1 for op in ops if op["problems"])
    lines.append(f"  {'fail_frac':28s} {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops failed)")
    for key, unit in QUALITY_UNITS.items():
        if key in ops[-1]["quality"]:
            lines.append(f"  {key:28s} {ops[-1]['quality'][key]:.6g} {unit} (deterministic per seed)")
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            lines.append(f"  FAILED op {i}: {problem}")
    for problem in detail["setup_problems"]:
        lines.append(f"  FAILED set-up: {problem}")
    return lines


def run_one(args, spec: dict) -> int:
    if not os.path.isfile(os.path.join(SRC, "rotorsense", "__init__.py")):
        print(f"error: no rotorsense package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import checks
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl_cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    for sub in ("results", "ledger", "spans"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    ledger = checks.HashLedger(os.path.join(OUT, "ledger", f"{tag}-{source_digest()[:16]}.json"))
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            spans_path = os.path.join(OUT, "spans", f"{tag}-{os.getpid()}.jsonl.gz")
            metrics, detail = trace(wl_cls, args.seed, work, ledger, spans_path, [m["name"] for m in spec_metrics])
        else:
            metrics, detail = measure(wl_cls, args.seed, args.seconds, work, ledger, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = detail["ops"]
    failed = sum(1 for op in ops if op["problems"])
    correct = failed == 0 and not detail["setup_problems"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "correct": correct, "metrics": metrics, **detail,
    }
    results_path = os.path.join(OUT, "results", f"{tag}-trace{args.trace}-{os.getpid()}.json")
    with open(results_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("\n".join(summary_lines(args.workload, args.seed, metrics, detail, spec_metrics, args.trace)))
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"  results -> {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }))
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        results[name]["exit_code"] = proc.returncode
    correct = all(r["correct"] and r["exit_code"] == 0 for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items() for key, value in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    # names outside BENCHMARK.json (scene_noisy_csv) run by name only
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(names)}, another workload by name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args, names) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
