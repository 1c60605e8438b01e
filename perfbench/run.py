"""odfault benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload transient-weight --seed 1 --seconds 30 --trace 0

Each campaign runs ``odfault.cli.main`` with ``workers=1`` in a fresh
interpreter (``perfbench/child.py``), repeated until ``--seconds`` are
used up; every repeat's outputs are checked against ``reference.json``.
Before timing starts, the run builds the workload's inputs from the seed
and measures set-up, the time a fresh interpreter takes to import
``odfault.cli`` and build the model and its shape catalogue, five times.

``--trace 0`` reports the end-to-end metrics (medians over the repeats).
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of the traced ones (see ``spans.py``) plus the tracing
overhead. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with host facts and every repeat, goes to
``.perfbench_work/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

SETUP_REPEATS = 5
SETUP_SNIPPET = (
    "import odfault.cli\n"
    "from odfault.detector import reference_model, shape_catalog\n"
    "shape_catalog(reference_model())\n"
)
# every process of a run ends within this many seconds of its start
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def host_facts() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(timeout: float) -> float:
    """Median wall time of fresh interpreters doing the set-up snippet."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=timeout, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def campaign(argv, out_dir, work_dir, timeout, spans_path=None) -> dict:
    """One campaign in a fresh interpreter; returns the child's result."""
    shutil.rmtree(out_dir, ignore_errors=True)
    spec_path = os.path.join(work_dir, "spec.json")
    result_path = os.path.join(work_dir, "result.json")
    for path in (result_path, spans_path):
        if path and os.path.exists(path):
            os.remove(path)
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"argv": [*argv, "--out", out_dir], "result": result_path,
                   "spans": spans_path}, handle)
    try:
        proc = subprocess.run([sys.executable, CHILD, spec_path], env=_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"exit_code": "timeout", "wall_s": None, "peak_rss_mb": None}
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return {"exit_code": proc.returncode or "no result", "wall_s": None, "peak_rss_mb": None}
    with open(result_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    if result["exit_code"] != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return result


def _bytes_in(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "odfault", "cli.py")):
        print(f"no odfault sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import reference
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    in_seed = workloads.input_seed(args.workload, args.seed)
    ref = reference.load(args.workload, in_seed)
    rows = reference.n_rows(ref)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli_args, input_facts = workloads.prepare(args.workload, in_seed,
                                                  os.path.join(work, "inputs"))
        setup_s = measure_setup(timeout=60)

        repeats = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(repeats) % 2 == 1
            spans_path = os.path.join(work, "spans.json") if traced else None
            out_dir = os.path.join(work, "out")
            remaining = DEADLINE_S - (time.perf_counter() - began)
            result = campaign(cli_args, out_dir, work, timeout=max(1.0, remaining),
                              spans_path=spans_path)
            repeat = {"traced": traced, **result}
            if result["exit_code"] == 0:
                repeat["failed"], repeat["bad_files"] = reference.compare(
                    ref, reference.digest(out_dir))
            else:
                repeat["failed"], repeat["bad_files"] = rows, ["<campaign failed>"]
            if traced and result["exit_code"] == 0:
                with open(spans_path, "r", encoding="utf-8") as handle:
                    recorded = json.load(handle)
                repeat["layers"] = spans.layer_metrics(recorded, _bytes_in(out_dir))
            repeats.append(repeat)

            elapsed = time.perf_counter() - start
            per_repeat = elapsed / len(repeats)
            enough = len(repeats) >= (2 if args.trace else 1)
            if enough and elapsed + per_repeat / 2 > args.seconds:
                break
            if time.perf_counter() - began + per_repeat > DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = rows * len(repeats)
    failed = sum(r["failed"] for r in repeats)
    plain = [r for r in repeats if not r["traced"] and r["wall_s"] is not None]
    wall_s = statistics.median(r["wall_s"] for r in plain) if plain else float("nan")
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "items_per_s": (rows / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain)
                        if plain else float("nan"), "MB"),
    }
    error_rate = failed / attempted

    per_layer = {}
    traced_ok = [r for r in repeats if r.get("layers")]
    if traced_ok:
        for name, (_, unit) in traced_ok[0]["layers"].items():
            per_layer[name] = (statistics.median(r["layers"][name][0] for r in traced_ok), unit)
        traced_wall = statistics.median(r["wall_s"] for r in traced_ok)
        per_layer["trace.overhead_ratio"] = (traced_wall / wall_s - 1.0, "ratio")

    host = host_facts()
    print(f"workload {args.workload} seed {args.seed} (input seed {in_seed}), "
          f"{len(repeats)} repeats of {rows} rows, trace {args.trace}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    if input_facts:
        print("inputs " + " ".join(f"{k}={v}" for k, v in input_facts.items()))
    for name, (value, unit) in {**end_to_end, "error_rate": (error_rate, "ratio"),
                                **per_layer}.items():
        print(f"{name} {value:.6g} {unit}")
    for r in repeats:
        if r["failed"]:
            print(f"repeat failed {r['failed']} rows; differing files: {r['bad_files']}")

    record = {"workload": args.workload, "seed": args.seed, "input_seed": in_seed,
              "trace": args.trace, "host": host, "inputs": input_facts,
              "end_to_end": end_to_end, "error_rate": error_rate, "per_layer": per_layer,
              "repeats": [{k: v for k, v in r.items() if k != "layers"} for r in repeats]}
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    with open(os.path.join(WORK_ROOT, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
