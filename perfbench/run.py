"""rieszbounds benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ulb-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1 --out FILE

Each run is single-client and closed-loop: one op at a time, the next one
only after the previous one returns.  The ops run in fresh child processes
(``worker.py``, or one ``python -m rieszbounds.cli`` per op for cli-cold),
so every module-level cache in the library starts as cold as in a user's
process.  Children get ``PYTHONPATH=src`` and no ``RIESZBOUNDS_CACHE``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run is made twice on the same inputs, untraced and
then traced, and the last line carries the per-layer metrics, including
the tracing overhead between the two.  Outputs are checked outside the
timed region; ``failed`` counts ops that raised on a valid input, refused
an input uncleanly or returned a wrong output, and ``correct`` is false
when any output was wrong.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
RUN_BUDGET_S = 165.0          # every run exits well inside 180 s
SETUP_SAMPLES = 10

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # an inherited disk zero cache would warm asd-cold and cli-cold
    env.pop("RIESZBOUNDS_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Spawns children one at a time and keeps a workload's run inside its
    budget."""

    def __init__(self) -> None:
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        signal.signal(signal.SIGALRM, _on_alarm)

    def spawn(self, argv: list[str], stdin: bytes = b"") -> dict:
        """Run argv to completion: exit code, output, wall seconds, peak RSS."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        with tempfile.TemporaryFile(dir=OUT_DIR) as fin, \
                tempfile.TemporaryFile(dir=OUT_DIR) as fout, \
                tempfile.TemporaryFile(dir=OUT_DIR) as ferr:
            fin.write(stdin)
            fin.seek(0)
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                    env=self.env, cwd=ROOT)
            try:
                signal.setitimer(signal.ITIMER_REAL, remaining)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except BaseException as exc:  # over budget, or the run was stopped
                proc.kill()
                try:
                    os.wait4(proc.pid, 0)
                except ChildProcessError:
                    pass
                proc.returncode = -9
                if isinstance(exc, _Alarm):
                    raise BenchError(f"child exceeded the run budget: {argv[:4]}") from None
                raise
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            fout.seek(0)
            ferr.seek(0)
            return {"rc": proc.returncode,
                    "stdout": fout.read().decode("utf-8", "replace"),
                    "stderr": ferr.read().decode("utf-8", "replace"),
                    "t": seconds, "rss_kb": usage.ru_maxrss}

    def python(self, args: list[str], stdin: bytes = b"") -> dict:
        return self.spawn([sys.executable, *args], stdin)


# ---------------------------------------------------------------------------
# measured parts
# ---------------------------------------------------------------------------


def measure_setup(runner: Runner, samples: int) -> list[float]:
    """Wall time from spawning an interpreter until ``import rieszbounds``
    returns (and the interpreter exits)."""
    times = []
    for _ in range(samples):
        res = runner.python(["-c", "import rieszbounds"])
        if res["rc"] != 0:
            raise BenchError(f"import rieszbounds failed: {res['stderr'].strip()[-300:]}")
        times.append(res["t"])
    return times


def check(runner: Runner, workload: str, ops: list[dict]) -> dict:
    """Output checks, in a child process (see checks.py)."""
    request = json.dumps({"workload": workload, "ops": ops}).encode()
    res = runner.python([str(HERE / "checks.py")], request)
    if res["rc"] != 0:
        raise BenchError(f"checks failed to run: {res['stderr'].strip()[-500:]}")
    report = json.loads(res["stdout"])
    report["failed"] = set(report["failed"])
    return report


def _worker(runner: Runner, request: dict) -> dict:
    res = runner.python([str(HERE / "worker.py")], json.dumps(request).encode())
    if res["rc"] != 0:
        raise BenchError(f"worker failed: {res['stderr'].strip()[-500:]}")
    out = json.loads(res["stdout"])
    out["rss_kb"] = res["rss_kb"]
    return out


def run_inprocess(runner: Runner, workload: str, seed: int, batches: list[int],
                  trace: bool = False) -> dict:
    """ulb-sweep and fs-curve run in one worker; asd-cold starts a fresh
    worker per batch so that every batch is cold."""
    request = {"workload": workload, "seed": seed, "batches": batches,
               "trace": trace, "spans_path": None}
    if trace:
        request["spans_path"] = str(OUT_DIR / f"spans-{workload}.jsonl")
    if workload != "asd-cold":
        out = _worker(runner, request)
        out["rss_kb"] = [out["rss_kb"]]
        return out
    total = {"ops": [], "batch_times": [], "rss_kb": [], "trace": {}}
    for r in batches:
        if trace:
            request["spans_path"] = str(OUT_DIR / f"spans-{workload}-r{r}.jsonl")
        out = _worker(runner, dict(request, batches=[r]))
        total["ops"] += out["ops"]
        total["batch_times"] += out["batch_times"]
        total["rss_kb"].append(out["rss_kb"])
        tracer.merge(total["trace"], out.get("trace", {}))
    return total


def run_cli(runner: Runner, seed: int, batches: list[int], trace: bool = False) -> dict:
    """One fresh ``python -m rieszbounds.cli`` per op, timed spawn to exit."""
    gen = workloads.Rounds("cli-cold", seed, workloads.load_pool())
    total = {"ops": [], "batch_times": [], "rss_kb": [], "trace": {}}
    span_dir = OUT_DIR / "spans-cli-cold"
    if trace:
        # files of an earlier run must not be read as this run's
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir()

    for r in batches:
        batch = gen.batch(r)
        t0 = time.perf_counter()
        for op in batch:
            k = len(total["ops"])
            summary = span_dir / f"summary-{k}.json"
            if trace:
                argv = [str(HERE / "cli_launcher.py"), str(summary),
                        str(span_dir / f"op-{k}.jsonl"), *op["args"]]
            else:
                argv = ["-m", "rieszbounds.cli", *op["args"]]
            res = runner.python(argv)
            op.update(t=res["t"], ok=True, err=None, round=r,
                      out={"rc": res["rc"], "stdout": res["stdout"], "stderr": res["stderr"]})
            total["ops"].append(op)
            total["rss_kb"].append(res["rss_kb"])
            if trace:
                # a launcher that died before writing its summary leaves
                # only the op time; the output check fails the op
                if summary.is_file():
                    with open(summary, encoding="utf-8") as fh:
                        tracer.merge(total["trace"], json.load(fh))
                tracer.merge(total["trace"], {"op_time": res["t"], "op_time:cli": res["t"]})
                if op["kind"] in workloads.CLI_INVALID_KINDS:
                    tracer.merge(total["trace"], {"op_time:refusal": res["t"], "ops:refusal": 1})
        total["batch_times"].append(time.perf_counter() - t0)
    return total


def measure(runner: Runner, workload: str, seed: int, batches: list[int],
            trace: bool = False) -> dict:
    if workload == "cli-cold":
        return run_cli(runner, seed, batches, trace)
    return run_inprocess(runner, workload, seed, batches, trace)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _ops_per_s(run: dict, failed: set[int]) -> float:
    return (len(run["ops"]) - len(failed)) / sum(run["batch_times"])


def end_to_end(workload: str, run: dict, failed: set[int],
               setup: list[float]) -> tuple[dict, dict]:
    latencies = [op["t"] for op in run["ops"]]
    p = workloads.TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(latencies, p)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": _ops_per_s(run, failed),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": max(run["rss_kb"]) / 1024.0,
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return metrics, {"percentile": p, "ops_beyond": beyond, "ops": len(latencies)}


def per_layer(untraced: dict, untraced_failed: set[int], traced: dict,
              traced_failed: set[int]) -> dict:
    values = tracer.metrics(traced["trace"])
    values["trace.overhead"] = (
        1.0 - _ops_per_s(traced, traced_failed) / _ops_per_s(untraced, untraced_failed), "ratio")
    values["fail_rate"] = (len(traced_failed) / len(traced["ops"]), "ratio")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_workload(runner: Runner, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    # half of the set-up samples before the measured part and half after
    # it, so that their median spans the run; one spawn first warms the
    # byte-code cache
    measure_setup(runner, 1)
    setup = measure_setup(runner, SETUP_SAMPLES // 2)
    batches = workloads.plan(workload, seconds)
    run = measure(runner, workload, seed, batches)
    setup += measure_setup(runner, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    report = check(runner, workload, run["ops"])
    metrics, tail_info = end_to_end(workload, run, report["failed"], setup)
    record = {
        "attempted": len(run["ops"]), "failed": len(report["failed"]),
        "correct": report["correct"], "batches": batches,
        "batch_times_s": run["batch_times"], "setup_samples_s": setup,
        "end_to_end": metrics, "tail": tail_info,
        "failures": report["failures"], "notes": report["notes"],
    }
    if trace:
        traced = measure(runner, workload, seed, batches, trace=True)
        treport = check(runner, workload, traced["ops"])
        record["per_layer"] = per_layer(run, report["failed"], traced, treport["failed"])
        record["traced"] = {"attempted": len(traced["ops"]), "failed": len(treport["failed"]),
                            "correct": treport["correct"], "failures": treport["failures"]}
        record["correct"] = report["correct"] and treport["correct"]
    return record


def _print_summary(workload: str, record: dict, trace: bool) -> None:
    err = sys.stderr
    t = record["tail"]
    print(f"[{workload}] attempted {record['attempted']}, failed {record['failed']} "
          f"(fail_rate {record['failed'] / record['attempted']:.4f}), "
          f"correct {record['correct']}, batches {record['batches']}", file=err)
    for name, m in record["end_to_end"].items():
        extra = (f"  (p{t['percentile']:g}, {t['ops_beyond']} of {t['ops']} ops beyond)"
                 if name == "op_tail_ms" else "")
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}{extra}", file=err)
    for f in record["failures"][:20]:
        print(f"  failed: {f}", file=err)
    if trace:
        for name, m in record["per_layer"].items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record as JSON")
    args = parser.parse_args(argv)

    # a stopped run still kills and waits for its current child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "rieszbounds" / "__init__.py").is_file():
        print(f"perfbench: no rieszbounds package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        records = {}
        for name in names:
            records[name] = run_workload(Runner(), name, args.seed, args.seconds,
                                         bool(args.trace))
            _print_summary(name, records[name], bool(args.trace))
        env = environment(args.seed)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "seconds": args.seconds, "trace": args.trace,
                       "workloads": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    key = "per_layer" if args.trace else "end_to_end"
    prefix = len(names) > 1
    metrics = {(f"{n}:{m}" if prefix else m): v
               for n, rec in records.items() for m, v in rec[key].items()}
    print("# environment " + json.dumps(env))
    for n, rec in records.items():
        print(f"# {n} tail " + json.dumps(rec["tail"]))
    print(json.dumps({
        "correct": all(rec["correct"] for rec in records.values()),
        "attempted": sum(rec["attempted"] for rec in records.values()),
        "failed": sum(rec["failed"] for rec in records.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
