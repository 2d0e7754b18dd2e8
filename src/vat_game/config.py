"""Run configuration: named presets, key=value config files, overrides.

Precedence, lowest to highest: preset, config file, command-line
overrides. Every parameter must be pinned by one of the three sources;
unknown keys are rejected.
"""

from __future__ import annotations

from pathlib import Path

from .model import TaxPolicy, TransactionEndowments

POLICY_KEYS = ("t_s", "t_b", "v", "delta", "theta", "s_v", "s_ys")
ENDOWMENT_KEYS = ("x_o", "x_i", "y_s", "y_b")
ALL_KEYS = POLICY_KEYS + ENDOWMENT_KEYS


class ConfigError(ValueError):
    """Invalid, incomplete or unknown configuration input."""


#: Largest admissible (x_o + x_i + y_s + y_b) * (2 + s_v + s_ys). No payoff
#: stream of the engine exceeds it in magnitude: the audited evader pays
#: x_o*(1 + v*(1 + s_v)) or x_o*(1 + t_s*(1 + s_ys)) on top of an income
#: share. A coalition margin, two sums of up to three streams subtracted,
#: then stays below 6e307, under the largest double (1.8e308).
MAX_PAYOFF_SCALE = 1e307


#: Parameter presets. "appendix" is the worked spreadsheet example;
#: "section6" the coalition-frontier example (incomes are immaterial for
#: the frontiers and fixed at round values).
PRESETS: dict[str, dict[str, float]] = {
    "appendix": {
        "t_s": 0.24,
        "t_b": 0.33,
        "v": 0.22,
        "delta": 1.0,
        "theta": 0.10,
        "s_v": 0.3,
        "s_ys": 0.3,
        "x_o": 10_000.0,
        "x_i": 5_000.0,
        "y_s": 10_000.0,
        "y_b": 20_000.0,
    },
    "section6": {
        "t_s": 0.24,
        "t_b": 0.33,
        "v": 0.22,
        "delta": 1.0,
        "theta": 0.10,
        "s_v": 0.3,
        "s_ys": 0.3,
        "x_o": 100.0,
        "x_i": 50.0,
        "y_s": 200.0,
        "y_b": 400.0,
    },
}


def parse_config_file(path: str | Path) -> dict[str, float]:
    """Parse a flat key=value file; '#' starts a comment, blank lines skipped."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = _parse_value(key.strip(), value.strip(), f"{path}:{lineno}")
    return values


def parse_overrides(pairs: list[str]) -> dict[str, float]:
    """Parse repeated --set key=value command-line overrides."""
    values: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        values[key.strip()] = _parse_value(key.strip(), value.strip(), "--set")
    return values


def _parse_value(key: str, text: str, where: str) -> float:
    if key not in ALL_KEYS:
        raise ConfigError(f"{where}: unknown parameter {key!r} (known: {', '.join(ALL_KEYS)})")
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {key}={text!r} as a number") from exc


def build_parameters(
    preset: str | None,
    config_file: str | Path | None,
    overrides: list[str] | None,
) -> tuple[TaxPolicy, TransactionEndowments]:
    """Merge the three sources and construct validated parameter objects."""
    merged: dict[str, float] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (known: {', '.join(PRESETS)})")
        merged.update(PRESETS[preset])
    if config_file is not None:
        merged.update(parse_config_file(config_file))
    if overrides:
        merged.update(parse_overrides(overrides))

    missing = [k for k in ALL_KEYS if k not in merged]
    if missing:
        raise ConfigError(f"missing parameters: {', '.join(missing)}")
    try:
        policy = TaxPolicy(**{k: merged[k] for k in POLICY_KEYS})
        te = TransactionEndowments(**{k: merged[k] for k in ENDOWMENT_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scale = (te.x_o + te.x_i + te.y_s + te.y_b) * (2.0 + policy.s_v + policy.s_ys)
    if scale > MAX_PAYOFF_SCALE:
        raise ConfigError(
            f"payoffs could overflow: (x_o + x_i + y_s + y_b) * (2 + s_v + s_ys) = "
            f"{scale:.3g} exceeds {MAX_PAYOFF_SCALE:.0e}"
        )
    return policy, te
