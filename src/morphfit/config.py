"""Flat key = value run configuration shared by the CLI pipeline stages.

One file drives every stage: the generator, the fitter, the trainers and the
evaluation pass all read their knobs from a RunConfig, so a run is fully
described by its config plus the master seed. The canonical echo written next
to every output directory re-parses to an equal RunConfig, which is what makes
a pipeline reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ParseError
from .fitting import FitConfig
from .network import TrainConfig
from .synthetic import POSE_PARAMS, DatasetSpec, PoseRanges, SyntheticModelSpec

# Bump when a field is added, removed or reinterpreted.
CONFIG_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Every pipeline default in one flat record.

    Field names are the config file keys. Stage seeds all derive from the one
    master seed (they equal it; the stages already decorrelate their streams
    internally), so changing `seed` reseeds the whole pipeline coherently.
    `epochs` is phase I's epoch count; phase III always runs
    `DEFAULT_PHASE3_STAGES` (lambda_r 0.5 for 10 epochs, then 1.0 for 20), and
    `lambda_r` is only the reconstruction weight of `check-grad`.
    """

    # synthetic model
    n_vertices: int = 600
    k_id: int = 20
    k_exp: int = 8
    smoothness: float = 0.5
    # dataset
    n_subjects: int = 20
    images_per_subject: int = 10
    landmark_noise_sigma: float = 0.0
    image_resolution: int = 32
    yaw_lo: float = -0.015
    yaw_hi: float = 0.015
    pitch_lo: float = -0.025
    pitch_hi: float = 0.025
    roll_lo: float = -0.015
    roll_hi: float = 0.015
    scale_lo: float = 0.99
    scale_hi: float = 1.01
    tx_lo: float = -0.01
    tx_hi: float = 0.01
    ty_lo: float = -0.01
    ty_hi: float = 0.01
    tz_lo: float = -0.01
    tz_hi: float = 0.01
    # fitting
    max_iterations: int = 20
    rel_tol: float = 1e-6
    reg_id: float = 0.0
    reg_exp: float = 0.0
    # training
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 16
    epochs: int = 25
    lambda_r: float = 0.5
    phase2_pairs: int = 96
    phase3_learning_rate: float = 2e-4
    head_scale: float = 16.0
    # evaluation
    crop_radius: float = 0.95
    n_folds: int = 10
    # run plumbing
    seed: int = 0
    output_dir: str = "out"

    def model_spec(self) -> SyntheticModelSpec:
        return SyntheticModelSpec(n_vertices=self.n_vertices, k_id=self.k_id,
                                  k_exp=self.k_exp, smoothness=self.smoothness,
                                  seed=self.seed)

    def dataset_spec(self) -> DatasetSpec:
        ranges = PoseRanges(**{name: (getattr(self, f"{name}_lo"),
                                      getattr(self, f"{name}_hi"))
                               for name in POSE_PARAMS})
        return DatasetSpec(n_subjects=self.n_subjects,
                           images_per_subject=self.images_per_subject,
                           landmark_noise_sigma=self.landmark_noise_sigma,
                           pose_ranges=ranges,
                           image_resolution=self.image_resolution,
                           seed=self.seed)

    def fit_config(self) -> FitConfig:
        return FitConfig(max_iterations=self.max_iterations, rel_tol=self.rel_tol,
                         reg_id=self.reg_id, reg_exp=self.reg_exp)

    def train_config(self, phase: str) -> TrainConfig:
        lr = self.phase3_learning_rate if phase == "III" else self.learning_rate
        return TrainConfig(learning_rate=lr, beta1=self.beta1,
                           beta2=self.beta2, epsilon=self.epsilon,
                           batch_size=self.batch_size, epochs=self.epochs,
                           seed=self.seed)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _parse_value(key: str, text: str, target_type: type, line: int):
    try:
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except ValueError:
        raise ParseError(f"key '{key}' expects {target_type.__name__}, "
                         f"got '{text}'", line) from None


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse `key = value` lines into a RunConfig over `base` (or defaults).

    Blank lines and `#` comments are ignored; inline comments are not
    supported (a `#` inside a value is part of the value). Unknown keys and
    repeated keys are rejected so a typo cannot silently fall back to a
    default. Validation of cross-field invariants happens when the config is
    turned into the per-module spec objects.
    """
    known = {f.name: f.type for f in fields(RunConfig)}
    # dataclass field .type may be a string under future annotations
    types = {name: {"int": int, "float": float, "str": str}[t]
             for name, t in known.items()}
    values = (base or RunConfig()).to_dict()
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got '{raw.strip()}'", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ParseError(f"unknown config key '{key}'", line_no)
        if key in seen:
            raise ParseError(f"repeated config key '{key}'", line_no)
        seen.add(key)
        values[key] = _parse_value(key, value, types[key], line_no)
    return RunConfig(**values)


def format_config(config: RunConfig) -> str:
    """Canonical echo: one `key = value` line per field, declaration order.

    repr() keeps every float exact, so parse_config(format_config(c)) == c.
    """
    lines = [f"# run configuration (version {CONFIG_VERSION})"]
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config(text, base)
