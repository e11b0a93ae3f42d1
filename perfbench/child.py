"""Child processes of the benchmark; one per measurement, started fresh.

    python child.py probe
        print the BLAS thread count in effect, numpy and BLAS versions as JSON
    python child.py setup CONFIG
        the grid-independent set-up every run pays: import pfnegf, load the
        configuration, build K_v, K_0, K_D and both ladder families, and the
        Gibbs state of K_0
    python child.py traced SPANS SPAWN_TIME ARGS...
        install the layer tracer, run ``pfnegf.cli.main(ARGS)`` and write the
        spans to SPANS; the root span starts at SPAWN_TIME, the parent's
        ``time.monotonic()`` reading taken just before it started this process

The benchmark puts the checkout's ``src`` directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import ctypes
import json
import sys


def blas_info() -> dict:
    """OpenBLAS thread count and version, read from the library numpy loaded."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = int(getter())
                return info
    return info


def setup(config_path: str) -> None:
    import pfnegf  # noqa: F401
    from pfnegf.config import load_config
    from pfnegf.thermal import gibbs

    config = load_config(config_path)
    model = config.model
    model.K_v, model.K_0, model.K_D, model.creation_family, model.dressed_creation_family
    gibbs(model.K_0, config.thermal, model.N_total, label="pf")


def traced(spans_path: str, spawn_time: float, argv: list) -> int:
    import tracer

    rec = tracer.Tracer(spawn_time)
    tracer.install(rec)
    from pfnegf import cli

    code = cli.main(argv)
    rec.close(0)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": rec.spans}, fh)
    return code


def main(argv) -> int:
    command = argv[0]
    if command == "probe":
        print(json.dumps(blas_info()))
        return 0
    if command == "setup":
        setup(argv[1])
        return 0
    if command == "traced":
        return traced(argv[1], float(argv[2]), argv[3:])
    raise SystemExit(f"unknown child command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
