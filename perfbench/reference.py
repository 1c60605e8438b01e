"""Reference outputs: per-file and per-row digests of every campaign output.

``reference.json`` holds, for each workload and input seed, the SHA-256
prefix of every output file and one 8-hex digest per row of the row file
(``injections.csv`` or ``images.csv``). A row's digest also covers the
other outputs that belong to its injection: its ``occupancy_series.csv``
rows and its PGM masks. The file was recorded with the seed version of
``odfault``; a run whose outputs differ from it is not correct.

Record it again with ``python3 perfbench/reference.py`` (about four
minutes on two cores); that must only happen together with a deliberate
change of the outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
ROW_FILES = ("injections.csv", "images.csv")
ROW_DIGEST = 8
_MASK = re.compile(r"fp_mask_inj(\d+)_frame\d+\.pgm$")


def _is_item_output(name: str) -> bool:
    return name in ROW_FILES or name == "occupancy_series.csv" or bool(_MASK.match(name))


def _data_lines(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines()[1:]


def digest(out_dir: str) -> dict:
    """Digests of every file in ``out_dir`` and of every row of its row file."""
    names = sorted(os.listdir(out_dir))
    files = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as handle:
            files[name] = hashlib.sha256(handle.read()).hexdigest()[:16]

    row_file = next((name for name in ROW_FILES if name in files), None)
    rows = _data_lines(os.path.join(out_dir, row_file)) if row_file else []
    extra: dict[bytes, list[bytes]] = {}
    if "occupancy_series.csv" in files:
        for line in _data_lines(os.path.join(out_dir, "occupancy_series.csv")):
            extra.setdefault(line.split(b",", 1)[0], []).append(line)
    for name in names:
        match = _MASK.match(name)
        if match:
            with open(os.path.join(out_dir, name), "rb") as handle:
                extra.setdefault(match.group(1).encode(), []).append(handle.read())

    items = []
    for row in rows:
        h = hashlib.sha256(row)
        key = row.split(b",", 1)[0]
        for part in extra.get(key, []) if key else []:
            h.update(b"\0" + part)
        items.append(h.hexdigest()[:ROW_DIGEST])
    return {"files": files, "items": "".join(items)}


def n_rows(ref: dict) -> int:
    return len(ref["items"]) // ROW_DIGEST


def compare(ref: dict, got: dict) -> tuple[int, list[str]]:
    """Rows that differ from the reference, and the files that differ.

    A differing summary file (``report.json``, ``bit_averages.csv``) is
    derived from every row, so it fails them all.
    """
    if got["files"] == ref["files"]:
        return 0, []
    names = set(ref["files"]) | set(got["files"])
    bad = sorted(n for n in names if ref["files"].get(n) != got["files"].get(n))
    total = n_rows(ref)
    if not all(_is_item_output(name) for name in bad):
        return total, bad
    want, have = ref["items"], got["items"]
    failed = sum(
        1 for i in range(total)
        if have[i * ROW_DIGEST:(i + 1) * ROW_DIGEST] != want[i * ROW_DIGEST:(i + 1) * ROW_DIGEST]
    )
    return max(failed, 1), bad


def load(workload: str, input_seed: int) -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload][str(input_seed)]


def record() -> None:
    """Run every workload once per input seed and store the digests."""
    import run
    import workloads

    work = os.path.join(run.WORK_ROOT, "reference")
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for seed in workloads.INPUT_SEEDS[workload]:
            argv, _ = workloads.prepare(workload, seed, os.path.join(work, "inputs"))
            out_dir = os.path.join(work, "out")
            result = run.campaign(argv, out_dir, work, timeout=600)
            if result["exit_code"] != 0:
                raise SystemExit(f"{workload} seed {seed}: exit code {result['exit_code']}")
            table[workload][str(seed)] = digest(out_dir)
            print(workload, seed, f"{result['wall_s']:.2f} s", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"host": run.host_facts(), "workloads": table}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    record()
