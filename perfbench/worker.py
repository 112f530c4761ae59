"""The workload process: import heraldsim, run CLI commands, report.

Usage: python3 worker.py SPEC_JSON RESULT_JSON SPAWNED_AT

SPEC_JSON names the ``src`` directory to import heraldsim from, the config
file, the commands (argv lists for ``heraldsim.cli.main``) and whether to
trace.  SPAWNED_AT is the parent's ``time.monotonic()`` just before it
started this process.  Set-up is the time from then until heraldsim is
imported and the config loaded.  The commands run one after another in
this process; a command that fails ends the iteration.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run(argv: list[str], cli) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI would die with a traceback and exit 1
        traceback.print_exc()
        code = 1
    return {
        "argv": argv,
        "exit": code,
        "stdout": buf.getvalue(),
        "wall_s": time.perf_counter() - t0,
    }


def main(spec_path: str, result_path: str, spawned_at: float) -> None:
    spec = json.loads(Path(spec_path).read_text())
    src = str(Path(spec["src"]).resolve())
    sys.path.insert(0, src)
    import numpy
    import scipy

    import heraldsim
    from heraldsim import cli, experiments

    experiments.load_config(spec["config"])
    ready = time.monotonic()
    if not Path(heraldsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"heraldsim imported from {heraldsim.__file__}, not {src}")

    tracer = None
    absent: list[str] = []
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        absent, _ = tracing.install(tracer)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    commands = []
    for argv in spec["commands"]:
        commands.append(_run(argv, cli))
        if commands[-1]["exit"] != 0:
            break
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    result = {
        "setup_s": ready - spawned_at,
        "wall_s": wall,
        "cpu_s": cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "heraldsim": heraldsim.__version__,
        },
    }
    if tracer is not None:
        totals, top = tracing.layer_totals(tracer.spans)
        result["trace"] = {
            "self_s": totals,
            "top_level_s": top,
            "counters": tracer.counters,
            "spans": len(tracer.spans),
            "absent": absent + sorted(f"counter {name}" for name in tracer.broken),
        }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
