import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from typing import NamedTuple

import pytest

import pfnegf
from pfnegf.cli import main
from pfnegf.config import parse_config, reference_config
from pfnegf.grid import TimeGrid
from pfnegf.negf import KernelEngine
from pfnegf.thermal import gibbs

import numpy as np  # after pfnegf, which sets the BLAS thread count numpy reads


# the directory holding the pfnegf package this process imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pfnegf.__file__)))

# Python child processes that run_child started in this session
CHILD_PROCESSES = 0


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str

    def error(self) -> dict:
        """The ``error`` object of the JSON record on the last stderr line."""
        return json.loads(self.stderr.strip().splitlines()[-1])["error"]


def run_cli(args, cwd) -> CliResult:
    """``pfnegf.cli.main(ARGS)`` in this process, in the working directory ``cwd``.

    Only ``SystemExit`` (usage errors and ``-h``) is caught: any other
    exception fails the test, and so does a RuntimeWarning of the package,
    under pyproject's warning filter.
    """
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return CliResult(code, out.getvalue(), err.getvalue())


def run_child(argv, cwd, env=None) -> subprocess.CompletedProcess:
    """``python ARGV`` in a child process in ``cwd``, for a test of the process itself.

    ``env`` defaults to this process's environment with NEGF_NUM_THREADS=1.
    PACKAGE_ROOT goes in front of the child's PYTHONPATH, so the child imports
    the same package whatever ``cwd`` is and however the parent found it.
    """
    global CHILD_PROCESSES
    env = dict(os.environ, NEGF_NUM_THREADS="1") if env is None else dict(env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    CHILD_PROCESSES += 1
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=env)


def pytest_terminal_summary(terminalreporter):
    # CI fails a Tier-1 run that starts more children than the tests of the process itself need
    terminalreporter.write_line(f"pfnegf child processes: {CHILD_PROCESSES}")


def dimer_config():
    """1-site sample + 1-site lead, noninteracting, unbiased: h = [[0, tau], [tau, 0]]."""
    return {
        "sample": {"sites": ["s0"], "hoppings": [], "w": [], "xi": 0.0},
        "leads": [
            {"sites": ["l0"], "hoppings": [], "coupling": {"d": 0.7, "f": [1.0], "g": [1.0]}}
        ],
        "bias": [0.0],
        "thermal": {"beta": 1.0, "mu": 0.0},
        "grid": {"T": 3.0, "steps": 30},
        "tasks": ["g0"],
    }


def trimer_config():
    """2-site interacting sample + one 1-site lead: the cheapest interacting model."""
    return {
        "sample": {
            "sites": ["s0", "s1"],
            "hoppings": [["s0", "s1", 1.0]],
            "w": [["s0", "s1", 1.0]],
            "xi": 0.7,
        },
        "leads": [
            {"sites": ["l0"], "hoppings": [], "coupling": {"d": 0.6, "f": [1.0], "g": [1.0, 0.0]}}
        ],
        "bias": [0.3],
        "thermal": {"beta": 1.0, "mu": 0.2},
        "grid": {"T": 3.0, "steps": 24},
        "tasks": ["verify"],
    }


@pytest.fixture(scope="session")
def reference_run():
    return parse_config(reference_config())


@pytest.fixture(scope="session")
def reference_rho(reference_run):
    model = reference_run.model
    return gibbs(model.K_0, reference_run.thermal, model.N_total, label="pf")


def _engine(run, steps):
    return KernelEngine(run.model, run.thermal, TimeGrid(run.horizon, steps))


@pytest.fixture(scope="session")
def ref_engine_25(reference_run):
    return _engine(reference_run, 25)


@pytest.fixture(scope="session")
def ref_engine_50(reference_run):
    return _engine(reference_run, 50)


@pytest.fixture(scope="session")
def ref_engine_100(reference_run):
    return _engine(reference_run, 100)


@pytest.fixture(scope="session")
def trimer_run():
    return parse_config(trimer_config())


@pytest.fixture(scope="session")
def trimer_engine(trimer_run):
    return KernelEngine(trimer_run.model, trimer_run.thermal, trimer_run.grid())


@pytest.fixture()
def dimer_dict():
    return copy.deepcopy(dimer_config())


@pytest.fixture()
def trimer_dict():
    return copy.deepcopy(trimer_config())


DUMP_DAMAGES = (
    "truncated", "extended", "repeated-row", "missing-row", "partial-instantaneous", "flag-mismatch", "old-csv",
)


def damage_dump(data, damage):
    """A binary kernel dump broken in one way ``load_kernel`` must refuse.

    ``truncated`` keeps the first third of the body and ``extended`` appends
    one entry.  ``repeated-row`` writes a memory node row twice and
    ``missing-row`` leaves one out.  ``partial-instantaneous`` drops one
    instantaneous block or, in a dump without them, adds one, and
    ``flag-mismatch`` flips the header's ``instantaneous`` flag.  ``old-csv``
    is the same kernel as the CSV text dump of earlier versions.
    """
    head, body = data.split(b"\n", 1)
    header = json.loads(head)
    p, n, has_inst = header["p"], header["N_t"] + 1, header["instantaneous"]
    block = 16 * p * p
    rows = [body[block * k * (k + 1) // 2 : block * (k + 1) * (k + 2) // 2] for k in range(n)]
    inst = body[block * n * (n + 1) // 2 :]
    if damage == "truncated":
        body = body[: len(body) // 3]
    elif damage == "extended":
        body += bytes(16)
    elif damage == "repeated-row":
        body = b"".join(rows[:2] + rows[1:]) + inst
    elif damage == "missing-row":
        body = b"".join(rows[: n // 2] + rows[n // 2 + 1 :]) + inst
    elif damage == "partial-instantaneous":
        body = b"".join(rows) + (inst[block:] if has_inst else bytes(block))
    elif damage == "flag-mismatch":
        head = json.dumps(header | {"instantaneous": not has_inst}).encode()
    elif damage == "old-csv":
        # six fields (k, l, i, j, re, im) per causal memory entry, five (k, i, j, re, im) per instantaneous one
        old = {key: value for key, value in header.items() if key != "instantaneous"}
        lines = [json.dumps(old)]
        for k, row in enumerate(rows):
            for (l, i, j), v in np.ndenumerate(np.frombuffer(row, dtype="<c16").reshape(k + 1, p, p)):
                lines.append(f"{k},{l},{i},{j},{float(v.real)!r},{float(v.imag)!r}")
        for (k, i, j), v in np.ndenumerate(np.frombuffer(inst, dtype="<c16").reshape(-1, p, p)):
            lines.append(f"{k},{i},{j},{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines).encode() + b"\n"
    else:
        raise ValueError(damage)
    return head + b"\n" + body
