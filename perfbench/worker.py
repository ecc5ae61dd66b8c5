"""One workload in one fresh process: set up, run ops, print the record.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE --work DIR

Modes:

- ``setup``: time the import reference kernel, import the package, build
  the inputs, print ``ready``, time the kernel again and exit.  The parent
  times launch-to-``ready`` and divides it by the kernel's time to get
  ``setup_s``.
- ``measure``: a closed loop of checked ops for S seconds (op i uses seed
  + i), then the workload's once-per-run check.
- ``trace``: the same loop untraced for S/2 seconds, then traced for S/2
  seconds; prints per-op call counts and self times.  The span list is
  written to ``spans.jsonl`` in the work directory, and the parent moves
  it to the results directory.

Before each op, every cache in the package is emptied outside the timed
span, so each op starts as cold as a fresh command does.

The last line of standard output is one JSON record.  The parent puts
``src`` on the path and pins the numeric libraries to one thread.
"""

from __future__ import annotations

import argparse
import json
import marshal
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Only the standard library is imported above: the set-up launch runs the
# import reference kernel before numpy and the package are imported.

MIN_OPS = 21  # op_tail_ref needs ten ops beyond it, and should lie above the median
COUNT_OPS = 5  # per-op counts are medians over the first traced ops (same seeds every run)
IMPORT_REF_REPEATS = 5

_UNIFORM4 = [0.25, 0.25, 0.25, 0.25]
_IMPORT_REF_SOURCE = "".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a * b[0] + k for k in range(b[0]) if k % 3]\n"
    for i in range(150)
)


def import_reference_s() -> float:
    """Median wall time of a fixed kernel shaped like an import: compile a
    synthetic module, round-trip its code through marshal and execute the
    module body.  It uses only the standard library and shares no code
    with the package; set-up times divided by it cancel most of the drift
    in CPU speed that shared hosts show."""
    times = []
    for _ in range(IMPORT_REF_REPEATS):
        t0 = time.perf_counter()
        code = compile(_IMPORT_REF_SOURCE, "<reference>", "exec")
        for _ in range(3):
            exec(marshal.loads(marshal.dumps(code)), {})
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_s() -> float:
    """Wall time of a fixed kernel shaped like the package's hot paths:
    small Kronecker products and einsum contractions, and scalar draws
    from a numpy generator, driven by an interpreter loop.  It shares no
    code with the package, so no change to the package moves it; op times
    divided by it cancel most of the drift in CPU speed that shared hosts
    show."""
    import numpy as np

    rotation = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    rho = np.eye(4, dtype=complex) / 4.0
    total = 0.0
    for _ in range(150):
        u = np.kron(rotation, rotation)
        rho = np.einsum("ij,jk,lk->il", u, rho, u.conj())
        total += float(np.real(np.trace(rho))) + rng.random()
        rng.choice(4, p=_UNIFORM4)
    return time.perf_counter() - t0


def clear_caches() -> None:
    """Empty every cache of the package: each callable with a
    ``cache_clear`` method found in an ``uplinksim`` module or in a class
    defined there, also behind wrappers (``__wrapped__``), so that caches
    added later are cleared too."""
    for name, module in list(sys.modules.items()):
        if name != "uplinksim" and not name.startswith("uplinksim."):
            continue
        values = list(vars(module).values())
        for cls in list(values):
            if isinstance(cls, type) and cls.__module__ == name:
                values.extend(vars(cls).values())
        for value in values:
            while value is not None:
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
                value = getattr(value, "__wrapped__", None)


def run_op(workload, i: int, seed: int, call) -> dict:
    """Time one op and check its output; failures are recorded, not raised."""
    record = {"op": i, "seed": seed}
    try:
        t0 = time.perf_counter()
        out = call(i, seed)
        record["op_s"] = time.perf_counter() - t0
        record["work"] = workload.check(out)
    except Exception as err:  # every failure is counted and the loop goes on
        record["error"] = f"{type(err).__name__}: {err}"
        record["traceback"] = traceback.format_exc(limit=4)
    return record


def run_loop(workload, seed: int, seconds: float, min_ops: int, call=None) -> dict:
    """Closed loop of checked ops, op i on seed + i; one record per op.

    The reference kernel runs between ops; each op's ``ref_s`` is the mean
    of the runs just before and just after it.
    """
    call = call or (lambda i, s: workload.op(s))
    ops = []
    start = time.perf_counter()
    before = reference_s()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        clear_caches()
        record = run_op(workload, len(ops), seed + len(ops), call)
        after = reference_s()
        record["ref_s"] = (before + after) / 2.0
        before = after
        ops.append(record)
    return {"ops": ops, "wall_s": time.perf_counter() - start}


def _final_check(workload, seed: int) -> dict:
    record = {"op": "final", "seed": seed}
    clear_caches()
    try:
        workload.final_check(seed)
    except Exception as err:
        record["error"] = f"{type(err).__name__}: {err}"
    return record


def _exposure_hits():
    from uplinksim import experiment

    info = experiment._exposure.cache_info()
    return info.hits, info.misses


def traced_loop(workload, seed: int, seconds: float, work: Path) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    exposure = {}

    def call(i, s):
        hits0, misses0 = _exposure_hits()
        try:
            return tracer.run_op(i, workload.op, s)
        finally:
            hits1, misses1 = _exposure_hits()
            exposure[i] = (hits1 - hits0, misses1 - misses0)

    tracer.install()
    try:
        loop = run_loop(workload, seed, seconds, COUNT_OPS, call)
    finally:
        tracer.uninstall()

    per_op = tracer.per_op()
    for record in loop["ops"]:
        i = record["op"]
        record["spans"] = per_op.get(i, {})
        keys = tracer.event_model_keys.get(i, [])
        record["event_model_calls"] = len(keys)
        record["event_model_distinct"] = len(set(keys))
        record["exposure_hits"], record["exposure_misses"] = exposure[i]
    with open(work / "spans.jsonl", "w", encoding="ascii") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    loop["count_ops"] = COUNT_OPS
    return loop


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    if args.mode == "setup":
        t0 = time.perf_counter()
        ref_before = import_reference_s()
        kernel_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    args.work.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, args.work)
    print("ready", flush=True)

    if args.mode == "setup":
        # The parent subtracts the first kernel's time from launch-to-ready.
        ref_after = import_reference_s()
        record = {"kernel_s": kernel_s, "ref_s": (ref_before + ref_after) / 2.0}
    else:
        workload.prepare()
        if args.mode == "measure":
            record = run_loop(workload, args.seed, args.seconds, MIN_OPS)
            if workload.final_check is not None:
                record["final"] = _final_check(workload, args.seed)
        else:
            untraced = run_loop(workload, args.seed, args.seconds / 2.0, COUNT_OPS)
            traced = traced_loop(workload, args.seed, args.seconds / 2.0, args.work)
            record = {"untraced": untraced, "traced": traced}

    import uplinksim

    record["uplinksim_file"] = uplinksim.__file__
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
