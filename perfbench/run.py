"""Benchmark of uplinksim, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the package is taken from ``src/`` of the checkout this
file sits in.  Each workload runs in fresh worker processes with one
thread (``worker.py``): one closed-loop client, every op checked.

``--trace 0`` prints the end-to-end metrics: op times from the timed
loop, in units of a reference kernel timed around each op, and
``setup_s``, the median over ``SETUP_LAUNCHES`` fresh interpreters of the
time from launch to ready, scaled by an import-shaped reference kernel
timed in the same interpreter.  ``--trace 1`` prints the per-layer metrics:
the import breakdown from ``python -X importtime``, and call counts and
self times from a run whose first half is untraced and second half traced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with provenance and every failure message, is written to
``.perfbench_work/results/``.  Metric definitions are in ``METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("campaign-default", "campaign-dense", "calibrate", "tags")

SETUP_LAUNCHES = 9
IMPORTTIME_LAUNCHES = 3
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops beyond it
CHILD_TIMEOUT_S = 150.0

# setup_s is launch-to-ready time scaled to a host on which the import
# reference kernel (worker.import_reference_s) takes this long; on a 2-core
# Intel Xeon host with Python 3.11 it takes about this long at a quiet
# moment.  The scaling cancels most of the drift in CPU speed between runs
# on a shared host.  The raw seconds go to the results file.
IMPORT_REF_NOMINAL_S = 0.0125

# Op times are reported in units of the reference kernel's time, measured
# around each op in the same process (see worker.reference_s): on a shared
# host the CPU speed drifts by up to 2x within a minute, and the ratio
# cancels most of it.  Raw seconds go to the results file.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}

# Span name -> per-layer metrics taken from it ("calls": median per-op call
# count; "s": median per-op self time in seconds).
SPAN_METRICS = {
    "cli.main": ("s",),
    "config.load_campaign_config": ("s",),
    "experiment.run_campaign": ("s",),
    "experiment.run_orbit": ("calls", "s"),
    "experiment.build_event_model": ("calls", "s"),
    "experiment.analytic_mean_fidelity": ("calls", "s"),
    "experiment.error_budget": ("s",),
    "experiment.calibrate": ("s",),
    "bsm.bsm_apply": ("calls", "s"),
    "qstate.condition": ("calls", "s"),
    "qstate.tensor": ("calls", "s"),
    "photonsrc.werner_pair": ("calls", "s"),
    "linkgeom.loss_profile": ("calls", "s"),
    "linkgeom.link_loss_db": ("calls",),
    "linkgeom.polarization_distortion": ("calls", "s"),
    "timesync.generate_streams": ("s",),
    "timesync.fit_clock": ("s",),
    "timesync.match_coincidences": ("s",),
    "timesync.accidental_rate": ("calls",),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch_worker(workload: str, seed: int, seconds: float, mode: str, work: Path) -> tuple[float, dict]:
    """Run one worker process; return (launch-to-ready seconds, its record)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--mode", mode, "--work", str(work),
    ]
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "stderr.txt", "w") as err:
        start = time.perf_counter()
        # Unbuffered, so that communicate() sees everything after the first line.
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=err, bufsize=0)
        try:
            first = proc.stdout.readline().decode()
            ready_s = time.perf_counter() - start
            rest = proc.communicate(timeout=CHILD_TIMEOUT_S)[0].decode()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    lines = (first + rest).strip().splitlines()
    if proc.returncode != 0 or first.strip() != "ready" or len(lines) < 2:
        tail = (work / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"{mode} worker for {workload} failed (exit {proc.returncode}):\n{tail}")
    record = json.loads(lines[-1])
    if not Path(record["uplinksim_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported uplinksim from {record['uplinksim_file']}, not {SRC}")
    return ready_s, record


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds of uplinksim, scipy and numpy, from
    ``python -X importtime -c "import uplinksim"`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import uplinksim"],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import uplinksim failed:\n{proc.stderr[-2000:]}")
    # Lines are printed when an import finishes, children before parents;
    # the indent of the name gives the nesting depth.
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")
    entries = []  # (depth, name, cumulative us, ancestors' names filled in later)
    for line in proc.stderr.splitlines():
        m = pattern.match(line)
        if m:
            entries.append([len(m.group(3)) // 2, m.group(4), int(m.group(2)), None])
    # Walk backwards: a line's parent is the nearest later line one level up.
    ancestors: list[str] = []
    for entry in reversed(entries):
        depth = entry[0]
        del ancestors[depth:]
        entry[3] = list(ancestors)
        ancestors.append(entry[1])

    def top_level(package: str) -> float:
        def inside(name):
            return name == package or name.startswith(package + ".")

        return sum(
            cum for _, name, cum, parents in entries
            if inside(name) and not any(inside(p) for p in parents)
        ) / 1e6

    return {
        "cli.import_s": top_level("uplinksim"),
        "cli.import_scipy_s": top_level("scipy"),
        "cli.import_numpy_s": top_level("numpy"),
    }


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
    }


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _passed(ops: list[dict]) -> list[dict]:
    return [o for o in ops if "error" not in o]


def _throughput(ops: list[dict], key: str) -> float:
    """Work units per second of op time, over ops that passed."""
    ok = _passed(ops)
    busy = sum(o["op_s"] for o in ok)
    return sum(o["work"].get(key, 0) for o in ok) / busy if busy else 0.0


def _ratio(op: dict) -> float:
    return op["op_s"] / op["ref_s"]


def loop_metrics(loop: dict) -> dict:
    ok = _passed(loop["ops"])
    n = len(ok)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} ops passed; op_tail_ref needs more than {TAIL_BEYOND}")
    times = sorted(o["op_s"] for o in ok)
    ratios = sorted(_ratio(o) for o in ok)
    return {
        "op_p50_ref": _median(ratios),
        "op_tail_ref": ratios[n - TAIL_BEYOND - 1],
        "op_tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "ops_timed": n,
        "op_p50_s": _median(times),
        "op_tail_s": times[n - TAIL_BEYOND - 1],
        "ref_p50_s": _median(o["ref_s"] for o in ok),
        "ops_per_s": n / loop["wall_s"],
        "events_per_s": _throughput(loop["ops"], "events"),
        "tags_per_s": _throughput(loop["ops"], "tags"),
    }


def layer_metrics(traced: dict) -> dict[str, float]:
    """Per-layer metrics from the traced loop: counts over its first
    ``count_ops`` ops, times over all of them."""
    ok = _passed(traced["ops"])
    counted = ok[:traced["count_ops"]]
    out: dict[str, float] = {}

    def calls(o, name):
        return o["spans"].get(name, {}).get("calls", 0)

    def self_s(o, name):
        return o["spans"].get(name, {}).get("self_s", 0.0)

    for name, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            out[f"{name}.calls"] = _median(calls(o, name) for o in counted)
        if "s" in kinds:
            out[f"{name}_s"] = _median(self_s(o, name) for o in ok)

    def ratio(num, den):
        return num / den if den else 0.0

    events = {o["op"]: o["work"].get("events", 0) for o in ok}
    out["experiment.run_orbit.us_per_event"] = _median(
        ratio(1e6 * o["spans"].get("experiment.run_orbit", {}).get("total_s", 0.0), events[o["op"]])
        for o in ok
    )
    out["experiment.build_event_model.distinct_frac"] = _median(
        ratio(o["event_model_distinct"], o["event_model_calls"]) for o in counted
    )
    out["experiment.exposure.hit_frac"] = _median(
        ratio(o["exposure_hits"], o["exposure_hits"] + o["exposure_misses"]) for o in counted
    )
    out["timesync.match_coincidences.tags_per_s"] = _median(
        ratio(o["work"].get("tags", 0), self_s(o, "timesync.match_coincidences")) for o in ok
    )
    out["timesync.match_coincidences.matched_frac"] = _median(
        ratio(o["work"].get("matched", 0), o["work"].get("satellite_tags", 0)) for o in counted
    )
    return out


def failures(ops: list[dict]) -> list[str]:
    return [f"op {o['op']} (seed {o['seed']}): {o['error']}" for o in ops if "error" in o]


def run_workload(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    """Run one workload; return its full record (metrics, counts, failures)."""
    record = {"provenance": provenance(workload, seed, seconds, trace)}
    if trace == 0:
        _, measured = launch_worker(workload, seed, seconds, "measure", work / "measure")
        ops = measured["ops"] + ([measured["final"]] if "final" in measured else [])
        setups = [
            launch_worker(workload, seed, 0.0, "setup", work / f"setup{k}")
            for k in range(SETUP_LAUNCHES)
        ]
        loop = loop_metrics(measured)
        loop["setup_raw_s"] = [ready - launch["kernel_s"] for ready, launch in setups]
        loop["setup_ref_s"] = [launch["ref_s"] for _, launch in setups]
        loop["setup_raw_p50_s"] = _median(loop["setup_raw_s"])
        metrics = {
            "setup_s": _median(
                raw / ref * IMPORT_REF_NOMINAL_S for raw, ref in zip(loop["setup_raw_s"], loop["setup_ref_s"])
            ),
            "op_p50_ref": loop["op_p50_ref"],
            "op_tail_ref": loop["op_tail_ref"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = END_TO_END
        record["loop"] = loop
    else:
        breakdowns = [import_breakdown() for _ in range(IMPORTTIME_LAUNCHES)]
        _, measured = launch_worker(workload, seed, seconds, "trace", work / "trace")
        untraced, traced = measured["untraced"], measured["traced"]
        if not _passed(untraced["ops"]) or not _passed(traced["ops"]):
            raise BenchError("no op passed its check in one of the two phases")
        metrics = {key: _median(b[key] for b in breakdowns) for key in breakdowns[0]}
        metrics.update(layer_metrics(traced))
        untraced_ratio = _median(_ratio(o) for o in _passed(untraced["ops"]))
        traced_ratio = _median(_ratio(o) for o in _passed(traced["ops"]))
        metrics["trace.overhead_frac"] = traced_ratio / untraced_ratio - 1.0
        metrics["trace.ref_s"] = _median(o["ref_s"] for o in _passed(traced["ops"]))
        metrics["op_p50_s"] = _median(o["op_s"] for o in _passed(untraced["ops"]))
        metrics["ops_per_s"] = len(_passed(untraced["ops"])) / untraced["wall_s"]
        metrics["events_per_s"] = _throughput(untraced["ops"], "events")
        metrics["tags_per_s"] = _throughput(untraced["ops"], "tags")
        units = PER_LAYER
        ops = untraced["ops"] + traced["ops"]
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    record["attempted"] = len(ops)
    record["failures"] = failures(ops)
    record["failed"] = len(record["failures"])
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def _per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s", "cli.import_scipy_s": "s", "cli.import_numpy_s": "s"}
    for name, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            units[f"{name}.calls"] = "count"
        if "s" in kinds:
            units[f"{name}_s"] = "s"
    units.update({
        "experiment.run_orbit.us_per_event": "us",
        "experiment.build_event_model.distinct_frac": "ratio",
        "experiment.exposure.hit_frac": "ratio",
        "timesync.match_coincidences.tags_per_s": "1/s",
        "timesync.match_coincidences.matched_frac": "ratio",
        "trace.overhead_frac": "ratio",
        "trace.ref_s": "s",
        "op_p50_s": "s",
        "ops_per_s": "1/s",
        "events_per_s": "1/s",
        "tags_per_s": "1/s",
    })
    return units


PER_LAYER = _per_layer_units()

# Raw figures of a --trace 0 run, printed and stored beside the metrics.
RAW_UNITS = {
    "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s", "events_per_s": "1/s",
    "tags_per_s": "1/s", "ref_p50_s": "s", "op_tail_percentile": "%",
    "ops_timed": "count", "setup_raw_p50_s": "s",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "uplinksim" / "__init__.py").is_file():
        print(f"error: no uplinksim package under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    records = {}
    for name in names:
        work = WORK / f"{name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, work)
            spans = work / "trace" / "spans.jsonl"
            if spans.exists():
                spans.replace(results / f"{work.name}.spans.jsonl")
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        (results / f"{work.name}.json").write_text(json.dumps(record, indent=2) + "\n")
        records[name] = record
        print(f"# {name}: {json.dumps(record['provenance'])}")
        for message in record["failures"]:
            print(f"# {name} FAILED {message}")
        print_table(name, record)

    if args.workload == "all":
        metrics = {
            f"{name}.{key}": value for name, r in records.items() for key, value in r["metrics"].items()
        }
    else:
        metrics = records[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0


def print_table(name: str, record: dict) -> None:
    rows = [(k, v["value"], v["unit"]) for k, v in record["metrics"].items()]
    if "loop" in record:
        for key in RAW_UNITS:
            value = record["loop"][key]
            rows.append((key, value or "-", RAW_UNITS[key]))
    rows.append(("failed_frac", record["failed_frac"], "ratio"))
    for key, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:17s} {key:45s} {shown:>14s} {unit}")


if __name__ == "__main__":
    sys.exit(main())
