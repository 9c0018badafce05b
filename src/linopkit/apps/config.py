"""Benchmark run configuration: defaults, config files, flag overrides.

A config file is flat ``key=value`` text; keys are the long flag names with
the dashes removed (``maxiters``, ``reductionfactor``, and so on).  Values
given on the command line win over the file, which wins over the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigurationError, ParseError
from ..executor import executor_from_name
from ..facade import SolverOptions, _validate_options
from ..solver import DEFAULT_RESTART

#: What file text must spell for a numeric field, by the type of its default.
_NUMBERS = {int: "an integer", float: "a number"}


@dataclass
class RunConfig:
    backend: str = "reference"
    matrix: str | None = None
    solver: str = "cg"
    preconditioner: str = SolverOptions.preconditioner
    max_iters: int = SolverOptions.max_iters
    reduction_factor: float = SolverOptions.reduction_factor
    restart: int = DEFAULT_RESTART
    rhs: str = "ones"
    output: str | None = None

    def solver_options(self) -> SolverOptions:
        return SolverOptions(self.solver, self.max_iters, self.reduction_factor,
                             preconditioner=self.preconditioner)


#: config-file key -> RunConfig field
FILE_KEYS = {f.name.replace("_", ""): f.name for f in fields(RunConfig)}


def load_config_file(path) -> dict:
    """Read a key=value file into a field dict, rejecting unknown keys."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"expected key=value, got '{stripped}'", line_number=lineno)
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in FILE_KEYS:
                raise ConfigurationError(f"unknown config key '{key}'")
            raw[FILE_KEYS[key]] = value.strip()
    return raw


def build_run_config(flags: dict, config_path=None) -> RunConfig:
    """Merge defaults, an optional config file, and explicit flags.

    ``flags`` maps RunConfig field names to values, with None meaning the
    flag was not given.
    """
    cfg = RunConfig()
    merged = {}
    if config_path is not None:
        merged.update(load_config_file(config_path))
    for field, value in flags.items():
        if value is not None:
            merged[field] = value
    for field, value in merged.items():
        kind = type(getattr(cfg, field))
        if kind in _NUMBERS and not isinstance(value, kind):
            try:
                value = kind(value)
            except ValueError:
                raise ConfigurationError(f"{field} must be {_NUMBERS[kind]}, got '{value}'")
        setattr(cfg, field, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """The layers that own the backend and solver options check them; the CLI's own
    rules: a matrix, ``max_iters >= 1``, ``restart >= 1`` and a valid rhs spec."""
    executor_from_name(cfg.backend)
    _validate_options(cfg.solver_options())
    if cfg.matrix is None:
        raise ConfigurationError("no matrix file given (use --matrix or a config file)")
    if cfg.max_iters < 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {cfg.max_iters}")
    if cfg.restart < 1:
        raise ConfigurationError(f"restart must be >= 1, got {cfg.restart}")
    parse_rhs_spec(cfg.rhs)


def parse_rhs_spec(spec: str):
    """Split an rhs spec into its kind: ones | random(seed) | file path."""
    if spec == "ones":
        return ("ones", None)
    if spec.startswith("random(") and spec.endswith(")"):
        inner = spec[len("random(") : -1]
        try:
            seed = int(inner)
        except ValueError:
            raise ConfigurationError(f"rhs random() needs an integer seed, got '{inner}'")
        return ("random", seed)
    if spec.startswith("random"):
        raise ConfigurationError(f"malformed rhs spec '{spec}'; use random(<seed>)")
    return ("file", spec)


# 64-bit linear congruential generator used for rhs "random(seed)".  Chosen
# for bit-exact reproducibility across platforms and trivial reimplementation:
#   state_{j+1} = (6364136223846793005 * state_j + 1442695040888963407) mod 2^64
# starting from state_0 = seed; draw j is (state_{j+1} >> 11) / 2^53 in [0, 1).
LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


def lcg_uniform(seed: int, count: int) -> np.ndarray:
    """``count`` draws of the generator above, all states computed at once.

    Unrolling the recurrence gives state_j = a^j s_0 + c (1 + a + ... + a^(j-1)).
    Prefix products and sums in uint64 wrap mod 2^64 exactly as the
    recurrence does, so the draws are bit for bit the step-by-step ones.
    """
    powers = np.cumprod(np.full(count, LCG_MULTIPLIER, dtype=np.uint64))  # a^1 .. a^count
    sums = np.cumsum(powers) - powers + np.uint64(1)  # 1 + a + ... + a^(j-1)
    states = powers * np.uint64(seed & _MASK64) + sums * np.uint64(LCG_INCREMENT)
    return (states >> np.uint64(11)) * 2.0**-53
