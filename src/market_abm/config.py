"""Run configuration: every model parameter plus the seed.

The kernels read their parameters from the SimConfig itself, so each
parameter's default and check live here and nowhere else.

Configs are read from a flat `key = value` text format whose keys match the
SimConfig field names exactly, so experiment files stay greppable and
diffable.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

SWITCH_MODES = ("all_agents", "off")  # every agent reconsiders its opinion each step, or none


@dataclass
class SimConfig:
    n_agents: int = 500
    steps: int = 1_000_000
    steps_per_period: int = 100  # steps per unit of time; one step is dt = 1 / steps_per_period
    sigma_eps: float = 0.005
    k_scale: float = 0.1
    tick: float = 0.0005
    p0: float = 300.0
    pf0: float = 300.0
    gamma_f: float = 1.0
    gamma_c: float = 0.1
    horizon_f: int = 300
    horizon_c: int = 100
    v1: float = 2.0
    v2: float = 0.6
    alpha1: float = 0.6
    alpha2: float = 1.5
    alpha3: float = 1.0
    big_r: float = 0.0004
    s: float = 0.75
    band: float = 0.15
    init_frac_f: float = 0.5
    init_frac_opt: float = 0.25
    init_cash: float = 10_000.0
    init_shares: int = 10
    switch_mode: str = "all_agents"  # one of SWITCH_MODES
    seed: int = 0

    @property
    def dt(self) -> float:
        return 1.0 / self.steps_per_period

    def validate(self) -> None:
        for name, kind in _FIELDS.items():
            # NaN passes every comparison check below, and inf most of them
            if kind == "float" and not math.isfinite(getattr(self, name)):
                raise ValueError(f"config field {name} must be finite")
        positive = [
            "n_agents", "steps_per_period", "k_scale", "tick", "p0", "pf0",
            "gamma_f", "gamma_c", "horizon_f", "horizon_c", "v1", "v2", "alpha1",
            "alpha2", "alpha3", "big_r", "s", "band", "init_cash",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be > 0")
        if self.band >= 1.0:
            raise ValueError("band must be < 1: a band of 1 or more has no lower price limit")
        if self.steps < 0 or self.init_shares < 0 or self.sigma_eps < 0:
            raise ValueError("steps, init_shares and sigma_eps must be >= 0")
        if self.seed < 0:
            raise ValueError("config field seed must be >= 0")
        # the run keeps holdings, and checks their totals, in int64
        cash_ticks = self.init_cash / self.tick
        if cash_ticks >= 2**63 or self.n_agents * round(cash_ticks) >= 2**63:
            raise ValueError("config field init_cash: the total endowment, "
                             "n_agents * round(init_cash / tick) ticks, reaches 2**63")
        if self.n_agents * self.init_shares >= 2**63:
            raise ValueError("config field init_shares: the total endowment, "
                             "n_agents * init_shares shares, reaches 2**63")
        # the run holds quotes and reservations as tick counts in float64 columns
        for name in ("p0", "pf0"):
            if getattr(self, name) / self.tick >= 2**53:
                raise ValueError(f"config field {name}: {name} / tick reaches 2**53, "
                                 "past which a float64 holds no exact tick count")
        if not (self.gamma_f > self.gamma_c):
            raise ValueError("gamma_f must exceed gamma_c")
        if self.init_frac_f < 0 or self.init_frac_opt < 0 or self.init_frac_f + self.init_frac_opt > 1.0 + 1e-12:
            raise ValueError("initial composition fractions must be >= 0 and sum to <= 1")
        if self.switch_mode not in SWITCH_MODES:
            raise ValueError(f"switch_mode must be {' or '.join(map(repr, SWITCH_MODES))}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(SimConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            pass
        try:  # scientific notation like 1e5 for step counts
            value = float(raw)
            if value == int(value):
                return int(value)
        except (ValueError, OverflowError):  # not a number, NaN or ±inf
            pass
        raise ValueError(f"config key {key!r}: {raw!r} is not an integer")
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"config key {key!r}: {raw!r} is not a number") from None
    if kind == "str":
        return raw
    raise ValueError(f"config key {key!r} has unsupported type {kind}")


def _parse_pair(text: str, where: str, malformed: str) -> tuple[str, object]:
    """Split `key = value` text and parse the value by the field's type. The
    `malformed` message (text without '='), an unknown key's message and a
    value's parse error are prefixed with `where`."""
    if "=" not in text:
        raise ValueError(where + malformed)
    key, raw = text.split("=", 1)
    key = key.strip()
    if key not in _FIELDS:
        raise ValueError(f"{where}unknown config key {key!r}")
    try:
        return key, _parse_value(key, raw)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


def parse_overrides(pairs: list[str]) -> dict:
    """Parse repeated `key=value` strings, rejecting unknown keys by name."""
    return dict(_parse_pair(pair, "", f"override {pair!r} is not of the form key=value")
                for pair in pairs)


def load_config(path: str | Path | None, overrides: dict | None = None) -> SimConfig:
    """Read a `key = value` config file, or take the defaults when `path` is
    None, apply overrides on top and validate."""
    values = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, value = _parse_pair(stripped, f"{path}:{lineno}: ",
                                     f"expected key = value, got {line!r}")
            values[key] = value
    if overrides:
        values.update(overrides)
    cfg = SimConfig(**values)
    cfg.validate()
    return cfg
