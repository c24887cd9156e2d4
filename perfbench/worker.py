"""Child process that runs in-process benchmark ops one at a time.

Reads a JSON request on stdin and writes one JSON result on stdout:

    {"workload": ..., "seed": ..., "batches": [r, ...], "trace": bool,
     "spans_path": path | null}

It runs the given batches in order (``workloads.ANCHOR`` or a round
number).  A batch's inputs are generated before its timer starts.
Outputs are returned, not checked: ``checks.py`` checks them afterwards,
outside the timed region.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def call_op(kind: str, args: dict, rb):
    if kind == "ulb":
        return rb.ulb_energy(args["d"], args["N"], rb.parse_potential(args["h"]))
    if kind == "lev":
        return rb.lev_function(args["d"], args["s"])
    if kind == "asd":
        a = rb.asd_bound(args["d"], args["s"])
        return [a.value, a.terms_used, a.tail_bound]
    if kind == "point":
        d, s = args["d"], args["s"]
        a = rb.asd_bound(d, s)
        return [rb.theta_bound(d, s), rb.xi_bound(d, s), a.value, a.tail_bound,
                rb.c_tilde(d, s)]
    raise ValueError(f"unknown op kind {kind!r}")


def run(request: dict, run_op) -> dict:
    """Closed loop over the batches; run_op(op, op_id) -> (seconds, ok, output, error)."""
    gen = workloads.Rounds(request["workload"], request["seed"], workloads.load_pool())
    ops: list[dict] = []
    batch_times: list[float] = []
    for r in request["batches"]:
        batch = gen.batch(r)
        t0 = time.perf_counter()
        for op in batch:
            op["t"], op["ok"], op["out"], op["err"] = run_op(op, len(ops))
            op["round"] = r
            ops.append(op)
        batch_times.append(time.perf_counter() - t0)
    return {"ops": ops, "batch_times": batch_times}


def main() -> int:
    request = json.load(sys.stdin)
    import rieszbounds as rb
    rec = None
    if request.get("trace"):
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)

    def run_op(op: dict, op_id: int):
        if rec is not None:
            rec.op = op_id
        kind, args = op["kind"], op["args"]
        t = time.perf_counter()
        try:
            out = call_op(kind, args, rb)
            dt = time.perf_counter() - t
            return dt, True, out, None
        except Exception as exc:  # a raise on a valid input is a counted failure
            dt = time.perf_counter() - t
            return dt, False, None, f"{type(exc).__name__}: {exc}"
        finally:
            if rec is not None:
                rec.op = None

    result = run(request, run_op)
    if rec is not None:
        result["trace"] = tracer.summarize(rec.spans, result["ops"])
        if request.get("spans_path"):
            rec.dump(request["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
