"""Run one campaign through ``odfault.cli.main`` in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json``. The spec holds the CLI
arguments (``argv``), the result path (``result``), and for a traced run
the span path (``spans``). The result records the CLI exit code, the
campaign wall time measured around ``main`` (imports excluded) and the
peak resident memory of this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)

    import odfault
    import odfault.cli

    recorder = None
    if spec.get("spans"):
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    start = time.perf_counter()
    try:
        code = odfault.cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    wall_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if recorder is not None:
        recorder.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "wall_s": wall_s, "peak_rss_mb": peak_kib / 1024.0,
                   "package": odfault.__file__}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
