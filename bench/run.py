"""Benchmark of the apermimo command line, one workload per run.

    python3 bench/run.py --workload rlos-simulate-16x8 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs one ``python -m apermimo.cli`` process at a
time (a closed loop: the next operation starts only after the previous
one has exited) until ``--seconds`` have passed, and reports the
end-to-end metrics of BENCHMARK.json: median wall, CPU and peak memory per
operation, realizations per second, and the median cold start of
``apermimo --version``. With ``--trace 1`` it calls ``apermimo.cli.main``
in this process at one worker, alternating an untraced operation with a
traced one, and reports the per-layer metrics of BENCHMARK.json (see
spans.py). Every operation passes through the correctness gate in
gate.py. ``--workload all`` runs every workload in turn.

Human-readable lines go to standard output first; the last line is one
JSON object with the keys correct, attempted, failed and metrics. A
record of the run (machine, versions, BLAS pin, seed, per-operation
samples, failures) is written to bench/results/.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from gate import check_operation, output_digests
from spans import Tracer, expected_spans, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Every operation runs with single-threaded BLAS, so that the worker count
# bounds the number of busy threads.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PER_ROUND = 6


@dataclass(frozen=True)
class Workload:
    command: str
    args: tuple  # CLI arguments other than --seed, --workers and --out
    workers: int
    realizations: int  # evaluation plus synthesis-reference realizations per operation


# Why each workload exists is in bench/NOTES.md.
WORKLOADS = {
    "rlos-simulate-16x8": Workload(
        "simulate",
        ("--M", "16", "--K", "8", "--waves-per-ue", "1", "--link", "uplink",
         "--realizations", "40960"),
        workers=1,
        realizations=40960,
    ),
    "rimp-compare-16x2": Workload(
        "compare",
        ("--M", "16", "--K", "2", "--waves-per-ue", "20", "--link", "downlink",
         "--realizations", "16384", "--synthesis-realizations", "16384"),
        workers=2,
        realizations=16384 + 16384,
    ),
    "rlos-synthesize-64x19": Workload(
        "synthesize",
        ("--M", "64", "--K", "19", "--waves-per-ue", "1", "--synthesis-realizations", "12288"),
        workers=1,
        realizations=12288,
    ),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _argv(wl: Workload, seed: int, workers: int, out: Path) -> list:
    return [wl.command, *wl.args, "--seed", str(seed), "--workers", str(workers),
            "--out", str(out)]


def _child_env() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **BLAS_PIN, "PYTHONPATH": path}


def run_process(cli_args, log) -> dict:
    """One ``python -m apermimo.cli`` process: exit code, wall, CPU and peak RSS.

    CPU and memory come from the rusage that wait4 returns, which includes
    the worker processes the operation forked and reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "apermimo.cli", *cli_args],
        env=_child_env(), cwd=ROOT, stdout=log, stderr=log,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def _call_main(cli_args, log) -> int:
    """``apermimo.cli.main`` in this process; an escaping exception is a failure."""
    from apermimo import cli

    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return cli.main(cli_args)
        except Exception:  # the operation failed; keep benchmarking and count it
            traceback.print_exc(file=log)
            return 1


class Tally:
    """Scratch directories, log and operation tally of one benchmark run."""

    def __init__(self, work: Path):
        self.work = work
        self.log = open(work / "operations.log", "w")
        self.attempted = 0
        self.failures = []
        self._count = 0

    def fresh_dir(self) -> Path:
        self._count += 1
        return self.work / f"op{self._count:03d}"

    def judge(self, label, out, exit_code, command) -> dict:
        """Gate one operation's outputs, tally it, and return their digests."""
        self.attempted += 1
        reasons = check_operation(out, exit_code, command)
        if reasons:
            self.failures.append({"operation": label, "reasons": reasons})
            return {}
        return output_digests(out)

    def mismatch(self, label, digests, reference):
        differing = sorted(n for n in set(digests) | set(reference)
                           if digests.get(n) != reference.get(n))
        if digests and reference and differing:
            self.failures.append({
                "operation": label,
                "reasons": [f"differs from the workers=1 output in {', '.join(differing)}"],
            })


def cold_starts(n, log) -> list:
    """Wall times of ``apermimo --version``: interpreter, numpy, package, parser."""
    samples = []
    for _ in range(n):
        r = run_process(["--version"], log)
        if r["exit"] != 0:
            raise BenchmarkError(f"apermimo --version exited with {r['exit']}")
        samples.append(r["wall_s"])
    return samples


def end_to_end(name, wl, seed, seconds, tally) -> tuple:
    """Closed loop of CLI processes for ``seconds``; returns (metrics, samples).

    Cold starts are taken in rounds before each operation and after the
    last, so that they sample the same stretch of time as the operations.
    """
    cold_starts(1, tally.log)  # the first start may write bytecode caches
    setup = []
    ops = []
    digests = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        setup += cold_starts(SETUP_PER_ROUND, tally.log)
        out = tally.fresh_dir()
        r = run_process(_argv(wl, seed, wl.workers, out), tally.log)
        digests.append(tally.judge(f"{name}#{len(ops)}", out, r["exit"], wl.command))
        shutil.rmtree(out, ignore_errors=True)
        ops.append(r)
    setup += cold_starts(SETUP_PER_ROUND, tally.log)
    if wl.workers > 1:
        # reports must be byte-identical for any worker count
        out = tally.fresh_dir()
        r = run_process(_argv(wl, seed, 1, out), tally.log)
        reference = tally.judge(f"{name}#reference", out, r["exit"], wl.command)
        for i, d in enumerate(digests):
            tally.mismatch(f"{name}#{i}", d, reference)
    metrics = {k: statistics.median(op[k] for op in ops) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["realizations_per_s"] = statistics.median(wl.realizations / op["wall_s"] for op in ops)
    metrics["setup_s"] = statistics.median(setup)
    note = f"medians of {len(ops)} operations, set-up of {len(setup)} starts"
    return metrics, {"note": note, "operations": ops, "setup_s": setup}


def _import_program():
    sys.path.insert(0, str(SRC))
    import apermimo.cli

    if SRC not in Path(apermimo.cli.__file__).resolve().parents:
        raise BenchmarkError(f"imported apermimo from {apermimo.cli.__file__}, not {SRC}")


def _median(values):
    # a count is the same in every pair; keep it an exact integer
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def traced(name, wl, seed, seconds, tally) -> tuple:
    """Untraced/traced pairs of in-process operations at one worker."""
    _import_program()
    pairs = []
    first_digests = None
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        out = tally.fresh_dir()
        t0 = time.perf_counter()
        code = _call_main(_argv(wl, seed, 1, out), tally.log)
        untraced_wall = time.perf_counter() - t0
        tally.judge(f"{name}#untraced{len(pairs)}", out, code, wl.command)
        shutil.rmtree(out, ignore_errors=True)

        tracer = Tracer()
        tracer.install()
        out = tally.fresh_dir()
        try:
            t0 = time.perf_counter()
            code = _call_main(_argv(wl, seed, 1, out), tally.log)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tracer.check_fired(expected_spans(wl.command))
        digests = tally.judge(f"{name}#traced{len(pairs)}", out, code, wl.command)
        shutil.rmtree(out, ignore_errors=True)
        if first_digests is None:
            first_digests = digests
        m = layer_metrics(tracer.spans, traced_wall)
        m["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        pairs.append(m)
    if wl.workers > 1:
        # the traced run at one worker is the reference for the pooled run
        out = tally.fresh_dir()
        r = run_process(_argv(wl, seed, wl.workers, out), tally.log)
        d = tally.judge(f"{name}#workers{wl.workers}", out, r["exit"], wl.command)
        tally.mismatch(f"{name}#workers{wl.workers}", d, first_digests)
    metrics = {k: _median([p[k] for p in pairs]) for k in pairs[0]}
    note = f"medians of {len(pairs)} untraced/traced pairs"
    return metrics, {"note": note, "pairs": pairs}


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; source_sha256 identifies the code
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def run_record(name, seed, seconds, trace) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_pin": BLAS_PIN,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def run_workload(name, seed, seconds, trace, spec) -> dict:
    wl = WORKLOADS[name]
    wanted = spec["per_layer" if trace else "end_to_end"]
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    tally = Tally(work)
    try:
        measure = traced if trace else end_to_end
        values, samples = measure(name, wl, seed, seconds, tally)
    finally:
        tally.log.close()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"no value for metrics: {', '.join(missing)}")
    shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {"record": run_record(name, seed, seconds, trace), "result": result,
              "failures": tally.failures, "samples": samples}
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed, "
          f"fail_ratio {result['failed'] / result['attempted']:.4g}; {samples['note']}")
    for f in tally.failures:
        print(f"   FAILED {f['operation']}: {'; '.join(f['reasons'])}")
    for metric, v in result["metrics"].items():
        print(f"   {metric:<30} {v['value']:>14.6g} {v['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    os.environ.update(BLAS_PIN)  # before numpy is imported into this process
    if not (SRC / "apermimo" / "cli.py").is_file():
        print(f"error: no apermimo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        raise BenchmarkError(f"workloads missing from BENCHMARK.json: {sorted(unknown)}")
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
