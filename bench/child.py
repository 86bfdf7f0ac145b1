"""One benchmark call: a fresh interpreter that imports kflab, runs one
experiment through ``kflab.cli.run`` and writes a JSON result file.

Usage (run.py starts it; it is not meant to be run by hand):
    python3 bench/child.py RESULT_JSON [--trace | --setup-only] -- KFLAB_ARGV...

The result holds the wall clock at which set-up ended (kflab imported
and argv parsed), the time spent in cli.run, the exit code or the
traceback, the peak RSS, the BLAS facts of this process and, when
traced, the span list.
"""

import sys
import time


def _blas_info() -> dict:
    """OpenBLAS version string and thread count in force, read from the
    library numpy loaded; empty when that library cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                config.restype = ctypes.c_char_p
                return {
                    "library": path,
                    "config": config().decode(),
                    "threads": int(threads()),
                }
    return {}


def main(argv) -> int:
    import json
    import os
    import resource

    import kflab.cli

    result_path, mode = argv[0], argv[1]
    kflab_argv = argv[argv.index("--") + 1:]
    result = {"setup_end": time.time(), "kflab_file": kflab.__file__}
    if mode != "--setup-only":
        import traceback

        import numpy
        import scipy

        from kflab import propagator

        tracer = None
        if mode == "--trace":
            from tracer import Tracer

            tracer = Tracer().install()
        t0 = time.perf_counter()
        try:
            result["exit_code"] = kflab.cli.run(kflab_argv)
        except Exception:
            result["exit_code"] = None
            result["traceback"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        info = propagator._nv_dot.cache_info()
        result.update(
            peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            nv_dot_hits=info.hits,
            nv_dot_misses=info.misses,
            numpy=numpy.__version__,
            scipy=scipy.__version__,
            blas=_blas_info(),
        )
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
            result["missing_targets"] = tracer.missing
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
