"""Golden sha256 manifests of the pipeline at the default config.

`golden/fit.sha256` holds the sha256 of `fit.csv`, of every OBJ and of the
stdout of `fit --subject 0`, and of `fit` of every subject of the
`gen_fit_noisy40` dataset (40 subjects, landmark noise 0.01);
`golden/pipeline.sha256` holds the sha256 of
every file and the stdout of `gen-data`, `train`, `eval --baseline` and
`export-bases`, of the stdout of `check-grad`, and of the benchmark's
datasets: `gen-data` at the `gen_fit_noisy40` inputs, `gen-data` at 80
subjects and `eval --baseline` of the trained checkpoints on that 80-subject
set, the `eval_heldout200` shape.
Both cover seeds 0 and 1, and each records the numpy
version, the OpenBLAS build and core, the machine and the thread environment
its hashes were made under. A test reruns the commands in a fresh process
under that thread environment, with paths relative to a temporary directory
so that the echoed `config.txt` does not name it, and compares. Bytes depend
on the BLAS kernels, so on a machine whose numpy, OpenBLAS or architecture
differs the test skips and names the difference.

After a deliberate re-baseline, rewrite the manifests and review their diff:

    PYTHONPATH=src python tests/test_golden.py --write

A failing comparison names the entries that changed, appeared or vanished.
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

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
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


def manifest_path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.sha256")


DESCRIPTIONS = {
    "fit": ["# sha256 of fit.csv, every OBJ and stdout of `morphfit fit --subject 0`",
            "# at the default config, seeds 0 and 1 (see tests/test_golden.py)",
            "# plus the same of `fit` of every subject of `gen-data` with",
            "# n_subjects=40 and landmark_noise_sigma=0.01"],
    "pipeline": ["# sha256 of every file and stdout of `morphfit gen-data`, `train`,",
                 "# `eval --baseline` and `export-bases` at the default config,",
                 "# seeds 0 and 1 (see tests/test_golden.py)",
                 "# plus, at the benchmark's inputs, `gen-data` with n_subjects=40",
                 "# and landmark_noise_sigma=0.01, `gen-data` with n_subjects=80 and",
                 "# `eval --baseline` of the seed's checkpoints on the latter",
                 "# and the stdout of `check-grad` at the default config"],
}

# The benchmark-scale datasets of the pipeline manifest: gen_fit_noisy40's
# and eval_heldout200's held-out set (bench/workloads.py).
BENCH_DATASETS = {"gen-data-fit40": ["n_subjects=40", "landmark_noise_sigma=0.01"],
                  "gen-data-heldout80": ["n_subjects=80"]}


def emit(name: str, root: str) -> list[str]:
    """The lines of manifest `name`; run in the child process."""
    from morphfit.cli import cli

    os.chdir(root)

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli(argv)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
        return out.getvalue().encode("utf-8")

    def files_in(directory: str, prefix: str = "", keep=lambda name: True) -> dict:
        files = {}
        for entry in sorted(os.listdir(directory)):
            if keep(entry):
                with open(os.path.join(directory, entry), "rb") as handle:
                    files[prefix + entry] = handle.read()
        return files

    def fit_output(entry: str) -> bool:
        return entry == "fit.csv" or entry.endswith(".obj")

    def gen_bench_data(key: str, tag: list) -> bytes:
        overrides = [arg for item in BENCH_DATASETS[key] for arg in ("--set", item)]
        return run(["gen-data", *overrides, *tag, "--out", f"{key}{tag[-1]}"])

    lines = []
    for seed in SEEDS:
        tag = ["--seed", str(seed)]
        data, train = f"gen-data{seed}", f"train{seed}"
        gen_stdout = run(["gen-data", *tag, "--out", data])
        dataset = f"{data}/dataset.mfd"
        if name == "fit":
            files = {"stdout": run(["fit", "--data", dataset, "--subject", "0", *tag,
                                    "--out", f"fit{seed}"])}
            files.update(files_in(f"fit{seed}", keep=fit_output))
            gen_bench_data("gen-data-fit40", tag)
            for subject in range(40):
                key, out = f"fit40/s{subject:02d}/", f"fit40-{seed}/s{subject:02d}"
                files[key + "stdout"] = run(["fit", "--data",
                                             f"gen-data-fit40{seed}/dataset.mfd",
                                             "--subject", str(subject), *tag, "--out", out])
                files.update(files_in(out, key, keep=fit_output))
        else:
            files = {"gen-data/stdout": gen_stdout, **files_in(data, "gen-data/")}
            for command, args in (
                    ("train", ["--data", dataset]),
                    ("eval", ["--data", dataset, "--checkpoint", f"{train}/phase3.ckpt",
                              "--baseline", f"{train}/phase2.ckpt"]),
                    ("export-bases", ["--data", dataset,
                                      "--checkpoint", f"{train}/phase3.ckpt"])):
                out = f"{command}{seed}"
                files[f"{command}/stdout"] = run([command, *args, *tag, "--out", out])
                files.update(files_in(out, f"{command}/"))
            files["check-grad/stdout"] = run(["check-grad", *tag, "--out", f"check-grad{seed}"])
            for key in BENCH_DATASETS:
                files[f"{key}/stdout"] = gen_bench_data(key, tag)
                files.update(files_in(f"{key}{seed}", f"{key}/"))
            files["eval-heldout80/stdout"] = run([
                "eval", "--data", f"gen-data-heldout80{seed}/dataset.mfd",
                "--checkpoint", f"{train}/phase3.ckpt",
                "--baseline", f"{train}/phase2.ckpt", *tag, "--out", f"eval-heldout80{seed}"])
            files.update(files_in(f"eval-heldout80{seed}", "eval-heldout80/"))
        lines += [f"{hashlib.sha256(files[key]).hexdigest()}  seed{seed}/{key}"
                  for key in sorted(files)]
    return lines


def run_emit(name: str) -> list[str]:
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as root:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit",
                               name, root],
                              env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def manifest_diff(want: list[str], got: list[str]) -> str:
    """The entries of two lists of `hash  entry` lines that changed, appeared
    or vanished, by name."""
    old, new = ({entry: digest for digest, entry in (line.split("  ", 1) for line in lines)}
                for lines in (want, got))
    changed = sorted(entry for entry in old.keys() & new.keys() if old[entry] != new[entry])
    return "; ".join(f"{what} ({len(entries)}): {', '.join(entries)}" for what, entries in (
        ("changed", changed), ("appeared", sorted(new.keys() - old.keys())),
        ("vanished", sorted(old.keys() - new.keys()))) if entries) or "entries reordered"


def check_manifest(name: str) -> None:
    with open(manifest_path(name), encoding="ascii") as handle:
        lines = handle.read().splitlines()
    recorded = [line for line in lines if line.startswith("# ")
                and line.split()[1] in ("numpy", "blas", "machine")]
    here = machine_lines()
    if recorded != here:
        pytest.skip(f"golden hashes were made under {recorded}; this machine "
                    f"has {here}")
    assert env_line() in lines
    want, got = [line for line in lines if not line.startswith("#")], run_emit(name)
    assert got == want, manifest_diff(want, got)


def test_manifest_diff_names_entries():
    want = ["aa  seed0/gen-data/dataset.mfd", "bb  seed0/train/phase1.ckpt",
            "cc  seed0/fit.csv"]
    got = ["ab  seed0/gen-data/dataset.mfd", "bb  seed0/train/phase1.ckpt",
           "dd  seed0/full_00.obj"]
    assert manifest_diff(want, got) == ("changed (1): seed0/gen-data/dataset.mfd; "
                                        "appeared (1): seed0/full_00.obj; "
                                        "vanished (1): seed0/fit.csv")
    assert manifest_diff(want, want[::-1]) == "entries reordered"


def test_fit_matches_golden_manifest():
    check_manifest("fit")


def test_pipeline_matches_golden_manifest():
    check_manifest("pipeline")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--emit"]:
        print("\n".join(emit(sys.argv[2], sys.argv[3])))
    elif sys.argv[1:] == ["--write"]:
        os.makedirs(GOLDEN, exist_ok=True)
        for name, description in DESCRIPTIONS.items():
            text = "\n".join([*description, *machine_lines(), env_line(),
                              *run_emit(name)]) + "\n"
            with open(manifest_path(name), "w", encoding="ascii") as handle:
                handle.write(text)
    else:
        raise SystemExit(__doc__)
