"""Golden sha256 manifest of `morphfit fit --subject 0` at the default config.

`golden/fit.sha256` holds the sha256 of `fit.csv`, of every OBJ and of the
stdout of `gen-data` then `fit --subject 0` at seeds 0 and 1, together with
the numpy version, the OpenBLAS build and core, the machine and the thread
environment they were made under. The test reruns both commands in a fresh
process under that thread environment and compares. Bytes depend on the
BLAS kernels, so on a machine whose numpy, OpenBLAS or architecture differs
the test skips and names the difference.

After a deliberate re-baseline, rewrite the manifest and review its diff:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "fit.sha256")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
SEEDS = (0, 1)
THREAD_ENV = {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1"}


def blas_config() -> str:
    """The configuration string of the OpenBLAS numpy loaded, which names
    the core it picked for this CPU; "unknown" when it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                       "openblas_get_config"):
            get_config = getattr(lib, symbol, None)
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                return " ".join(get_config().decode().split())
    return "unknown"


def machine_lines() -> list[str]:
    return [f"# numpy {np.__version__}", f"# blas {blas_config()}",
            f"# machine {platform.machine()}"]


def env_line() -> str:
    return "# env " + " ".join(f"{k}={v}" for k, v in sorted(THREAD_ENV.items()))


def emit(root: str) -> list[str]:
    """The manifest lines; run in the child process."""
    from morphfit.cli import cli

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli(argv)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
        return out.getvalue().encode("utf-8")

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    lines = []
    for seed in SEEDS:
        data, out = os.path.join(root, f"data{seed}"), os.path.join(root, f"fit{seed}")
        run(["gen-data", "--seed", str(seed), "--out", data])
        stdout = run(["fit", "--data", os.path.join(data, "dataset.mfd"),
                      "--subject", "0", "--seed", str(seed), "--out", out])
        files = {"stdout": stdout}
        for name in sorted(os.listdir(out)):
            if name == "fit.csv" or name.endswith(".obj"):
                with open(os.path.join(out, name), "rb") as handle:
                    files[name] = handle.read()
        lines += [f"{sha(files[name])}  seed{seed}/{name}" for name in sorted(files)]
    return lines


def run_fits() -> list[str]:
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as root:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", root],
                              env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_fit_matches_golden_manifest():
    with open(GOLDEN, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    recorded = [line for line in lines if line.startswith("# ")
                and line.split()[1] in ("numpy", "blas", "machine")]
    here = machine_lines()
    if recorded != here:
        pytest.skip(f"golden hashes were made under {recorded}; this machine "
                    f"has {here}")
    assert env_line() in lines
    assert run_fits() == [line for line in lines if not line.startswith("#")]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--emit"]:
        print("\n".join(emit(sys.argv[2])))
    elif sys.argv[1:] == ["--write"]:
        text = "\n".join([
            "# sha256 of fit.csv, every OBJ and stdout of `morphfit fit --subject 0`",
            "# at the default config, seeds 0 and 1 (see tests/test_golden.py)",
            *machine_lines(), env_line(), *run_fits()]) + "\n"
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        raise SystemExit(__doc__)
