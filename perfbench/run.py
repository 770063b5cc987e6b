#!/usr/bin/env python3
"""volfit benchmark: cold CLI, batch fitting and artifact rendering.

Usage, from the repository root::

    python3 perfbench/run.py --workload {cold-cli,fit-batch,render,all} \\
        --seed N --seconds S --trace {0,1}

Builds its inputs from ``--seed``, sets up, then runs a closed loop for
``--seconds`` and checks every op's outputs.  With ``--trace 0`` it reports
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs
half the time untraced and half traced (spans around volfit's public
functions, see ``tracer.py``) and reports the per-layer metrics.  Human
readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``BENCHMARK.json`` gates fit-batch and render.  cold-cli (fresh
``python -m volfit`` processes) runs with ``--workload cold-cli`` or
``all``; its round times swing by a fifth from run to run on a shared
2-vCPU VM, too much for a regression bound, so the gated workloads carry
the cold numbers as per-layer metrics instead: each traced run also times
one untraced and one traced round of cold commands.

volfit is imported from ``src/`` of the checkout this file lives in; the
run stops with an error when that tree, the bundled data or the data
generator script is missing.  Scratch files go to ``.perfbench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = ("BENCHMARK.json", "src/volfit/__init__.py", "data/synthetic_vix.csv",
            "scripts/make_synthetic_vix.py")
WORKLOAD_NAMES = ("cold-cli", "fit-batch", "render")
# set-up runs this many times per run (this process plus fresh probes)
SETUP_SAMPLES = 3
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset (library default)")
                         for v in BLAS_THREAD_VARIABLES},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(values):
    """(value, percentile): highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def setup_probe(args) -> float:
    """Set-up time of a fresh process doing this run's set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_times() -> dict:
    """import.* from ``-X importtime`` of ``import volfit`` in a fresh process."""
    import workloads

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import volfit"],
                          cwd=ROOT, env=workloads.child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    self_us, cumulative_us = Counter(), {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        self_us[name.split(".")[0]] += int(own)
        cumulative_us[name] = int(cumulative)
    return {"import.volfit_s": cumulative_us["volfit"] / 1e6,
            "import.scipy_s": self_us["scipy"] / 1e6,
            "import.numpy_s": self_us["numpy"] / 1e6}


def cold_metrics(m) -> dict:
    """cold_<command>_s: median wall time of each cold command."""
    return {f"cold_{command.replace('-', '_')}_s": statistics.median(times)
            for command, times in m.commands.items()}


def end_to_end(m, setup_samples, peak_rss_mb) -> tuple[dict, dict]:
    tail_s, percentile = tail(m.op_s)
    rates = [r / t for r, t, ok in zip(m.rows, m.op_s, m.ok) if ok]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": statistics.median(m.op_s),
        "op_s_tail": tail_s,
        "rows_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"tail_percentile": percentile, "setup_samples": setup_samples}


def merge_cold_spans(spans_dir: Path, trace_path: Path):
    """Sum the dumps of traced cold processes; also time each command's work.

    Returns (self_time, calls, counters, post_import) and writes all spans
    to ``trace_path``.  ``cli.post_import_s.<command>`` is what an import
    cut leaves behind: the ``cli.main`` span after ``import volfit``, timed
    in the same process.
    """
    import tracer
    import workloads

    self_time, calls, counters = Counter(), Counter(), Counter()
    post_import = {c: [] for c in workloads.ColdCli.COMMANDS if c != "import"}
    with open(trace_path, "w", encoding="utf-8") as merged:
        for path in sorted(spans_dir.glob("*.jsonl")):
            spans, file_counters = tracer.load(path)
            st, c = tracer.summarize(spans)
            self_time.update(st)
            calls.update(c)
            counters.update(file_counters)
            command = path.stem.split("-", 1)[1]
            if command in post_import:
                post_import[command] += [end - start for name, start, end, _, _
                                         in spans if name == "cli.main"]
            merged.write(path.read_text(encoding="utf-8"))
    shutil.rmtree(spans_dir, ignore_errors=True)
    return self_time, calls, counters, {f"cli.post_import_s.{c}": statistics.median(t)
                                        for c, t in post_import.items()}


def traced_layers(w, seconds: float):
    """Per-layer metrics: half the time untraced, half traced, plus cold processes.

    In-process workloads also run one untraced and one traced round of cold
    commands, so every trace reports the cold_* and post-import numbers.
    Returns (metrics, loops whose outcomes count, number of workload ops).
    """
    import tracer
    import workloads

    half = seconds / 2.0
    spans_dir = OUT / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    untraced = w.loop(half)
    if isinstance(w, workloads.ColdCli):
        traced = w.loop(half, spans_dir=spans_dir, start=len(untraced.op_s))
        self_time, calls, counters, layers = merge_cold_spans(
            spans_dir, OUT / f"trace-{w.name}.jsonl")
        layers.update(cold_metrics(untraced))
        loops = [untraced, traced]
    else:
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = w.loop(half, tracer=tr, start=len(untraced.op_s))
        finally:
            tr.uninstall()
        tr.dump(OUT / f"trace-{w.name}.jsonl")
        self_time, calls = tracer.summarize(tr.spans)
        counters = tr.counters
        cold = workloads.ColdCli(w.seed, OUT)
        cold.setup()
        cold.warm()
        cold_untraced = cold.loop(0.0)
        cold_traced = cold.loop(0.0, spans_dir=spans_dir, start=1)
        *_, layers = merge_cold_spans(spans_dir, OUT / f"trace-{w.name}-cold.jsonl")
        layers.update(cold_metrics(cold_untraced))
        loops = [untraced, traced, cold_untraced, cold_traced]
    layers.update(tracer.layer_metrics(self_time, calls, counters, len(traced.op_s)))
    layers["trace.overhead_ratio"] = (statistics.median(traced.op_s)
                                      / statistics.median(untraced.op_s))
    layers.update(import_times())
    return layers, loops, len(untraced.op_s) + len(traced.op_s)


def result_line(declared, values: dict, attempted: int, failed: int) -> str:
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for declared metrics {missing}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                    for d in declared},
    })


def run_workload(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import volfit

    if Path(volfit.__file__).resolve().parent != ROOT / "src" / "volfit":
        print(f"perfbench: imported volfit from {volfit.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, OUT)
    w.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        setup_samples = [setup_s] + [setup_probe(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
    w.warm()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = {}
    if args.trace:
        values, loops, ops = traced_layers(w, args.seconds)
        declared = spec["per_layer"]
    else:
        m = w.loop(args.seconds)
        peak = (m.peak_rss_mb if isinstance(w, workloads.ColdCli)
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        values, info = end_to_end(m, setup_samples, peak)
        if isinstance(w, workloads.ColdCli):
            values.update(cold_metrics(m))
        declared = spec["end_to_end"]
        loops, ops = [m], len(m.op_s)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    errors = [e for loop in loops for e in loop.errors]
    info.update(ops=ops, error_rate=failed / attempted if attempted else 1.0)

    units = {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:40s} {value:16.6f} {units.get(name, 's')}")
    print(f"  {'error_rate':40s} {info['error_rate']:16.6f} failed/attempted "
          f"({failed}/{attempted})")
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"info": {"environment": environment(args), **info, **w.info()}}))
    print(result_line(declared, values, attempted, failed))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined result."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a volfit checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
