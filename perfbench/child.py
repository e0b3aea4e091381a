"""One benchmark op: a fresh process that imports casemix and runs its CLI.

    python3 child.py RESULT_JSON SPAWN_TIME OP_ID TRACE SRC_DIR -- CASEMIX_ARGS...

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process; set-up time runs from then until `casemix.cli` is imported.
The op's wall and CPU time run from just before `casemix.cli.main` is called
until it returns. With TRACE=1 the span tracer is installed between the two,
so its installation is timed by neither. The result (and, when traced, the
spans) is written to RESULT_JSON; the exit code is the CLI's.
"""

import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _blas_threads() -> list:
    """Thread count of each OpenBLAS loaded in this process, asked from the
    library itself (the way threadpoolctl does it)."""
    import ctypes
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name:
                paths.add(path)
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out.append({"library": os.path.basename(path), "threads": int(fn())})
                break
    return out


def main(argv) -> int:
    result_path, spawn, op_id, trace, src_dir, sep = argv[:6]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT SPAWN OP_ID TRACE SRC_DIR -- ARGS...")
    cli_args = argv[6:]
    spawn = float(spawn)

    import casemix.cli
    imported = _now()
    src = os.path.realpath(src_dir)
    if not os.path.realpath(casemix.cli.__file__).startswith(src + os.sep):
        print(f"casemix imported from {casemix.cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace == "1":
        from spantrace import Tracer
        tracer = Tracer(int(op_id))
        tracer.install()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = _now()
    code = casemix.cli.main(cli_args)
    t1 = _now()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    import numpy
    import scipy
    result = {
        "exit_code": code,
        "setup_s": imported - spawn,
        "wall_s": t1 - t0,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": self1.ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_threads(),
        "casemix_file": casemix.cli.__file__,
    }
    if tracer is not None:
        result["missed_bindings"] = tracer.missed_bindings()
        result["trace"] = tracer.record()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
