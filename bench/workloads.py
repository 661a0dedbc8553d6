"""The benchmark's workloads: the CLI calls of set-up and of one pass.

Every call is a `morphfit` argv list run through `morphfit.cli.cli` in the
worker process. Paths are relative: set-up runs inside its own directory and
a pass inside the pass directory, with the set-up outputs reachable as
`inputs/`, so the echoed `config.txt` is the same in every repeat and the
artifacts of two repeats can be compared byte for byte. Why each workload
exists is written down in README.md next to this file.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

# Dataset sizes at full scale and under --tiny (the harness smoke test).
FULL = {"train_subjects": 20, "eval_subjects": 80, "fit_subjects": 40}
TINY = {"train_subjects": 4, "eval_subjects": 24, "fit_subjects": 3}
TINY_SETS = ("images_per_subject=5", "epochs=1")
FIT_NOISE = 0.01


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    out: str      # directory the call writes, relative to where it runs

    @property
    def command(self) -> str:
        return self.argv[0]


def _call(command: str, seed: int, out: str, tiny: bool, sets=(), args=()):
    argv = [command, *args, "--seed", str(seed), "--out", out]
    for item in (*sets, *(TINY_SETS if tiny else ())):
        argv += ["--set", item]
    return Call(tuple(argv), out)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def setup_calls(self, seed: int, tiny: bool) -> list[Call]:
        size = TINY if tiny else FULL
        if self.name == "train_default":
            return [_call("gen-data", seed, "data", tiny,
                          [f"n_subjects={size['train_subjects']}"])]
        if self.name == "eval_heldout200":
            return [
                _call("gen-data", seed, "data", tiny,
                      [f"n_subjects={size['train_subjects']}"]),
                _call("train", seed, "train", tiny,
                      args=["--data", "data/dataset.mfd"]),
                _call("gen-data", seed, "heldout", tiny,
                      [f"n_subjects={size['eval_subjects']}"]),
            ]
        return []

    def pass_calls(self, seed: int, tiny: bool) -> list[Call]:
        size = TINY if tiny else FULL
        if self.name == "train_default":
            return [_call("train", seed, "train", tiny,
                          args=["--data", "inputs/data/dataset.mfd"])]
        if self.name == "eval_heldout200":
            return [_call("eval", seed, "eval", tiny, args=[
                "--data", "inputs/heldout/dataset.mfd",
                "--checkpoint", "inputs/train/phase3.ckpt",
                "--baseline", "inputs/train/phase2.ckpt"])]
        n = size["fit_subjects"]
        calls = [_call("gen-data", seed, "data", tiny,
                       [f"n_subjects={n}", f"landmark_noise_sigma={FIT_NOISE}"])]
        calls += [_call("fit", seed, f"fit/s{k:02d}", tiny,
                        args=["--data", "data/dataset.mfd",
                              "--subject", str(k)])
                  for k in range(n)]
        return calls

    def results(self, pass_dir: str) -> dict[str, float]:
        """The result guards, parsed from the CSVs a pass wrote."""
        def row(*parts, last=False):
            with open(os.path.join(pass_dir, *parts), newline="") as handle:
                rows = list(csv.DictReader(handle))
            return rows[-1] if last else rows[0]

        if self.name == "train_default":
            return {"phase3_loss": float(
                row("train", "phase3_trace.csv", last=True)["total"])}
        if self.name == "eval_heldout200":
            verification = row("eval", "verification.csv")
            return {"auc": float(verification["auc"]),
                    "rank1": float(verification["rank1"]),
                    "rmse_paper": float(
                        row("eval", "reconstruction.csv")["rmse_paper"])}
        fits = [row("fit", name, "fit.csv")
                for name in sorted(os.listdir(os.path.join(pass_dir, "fit")))]
        return {"fit_objective_mean": sum(float(f["final_objective"])
                                          for f in fits) / len(fits)}


WORKLOADS = {w.name: w for w in (
    Workload("train_default",
             "morphfit train at the default config; the network layer and "
             "its Adam steps do nearly all the work"),
    Workload("eval_heldout200",
             "morphfit eval --baseline on 200 held-out images (19,900 pairs); "
             "the evaluation layer's quadratic fold search dominates"),
    Workload("gen_fit_noisy40",
             "gen-data for 40 subjects with landmark noise, then one fit call "
             "per subject; serialization, fitting and synthetic only"),
)}
