"""Line-oriented experiment configuration.

The format is deliberately tiny: one ``section.key = value`` assignment
per line, ``#`` comments, blank lines ignored.  Unknown keys, duplicate
keys, keys the kind does not read, and malformed values are hard errors
carrying the line number, so a typo can never silently change an experiment.
"""

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

# kind -> (rank of the fields it picks, or None; whether it plants in them)
KINDS = {
    "pure-noise-2d": (2, False),
    "pure-noise-3d": (3, False),
    "planted-2d": (2, True),
    "planted-3d": (3, True),
    "threshold-sweep": (None, False),
    "halfmap-fsc": (3, False),
    "complexity-scan": (None, False),
    "oracle-check": (None, False),
}

# the kinds that read a key: every kind, those that fit EM (all but the oracle
# table), pick fields, plant in them, or build templates (``build_templates``)
_EVERY = frozenset(KINDS)
_FITS = _EVERY - {"oracle-check"}
_PICKS = frozenset(kind for kind, (rank, _) in KINDS.items() if rank)
_PLANTS = frozenset(kind for kind, (_, planted) in KINDS.items() if planted)
_TEMPLATES = _PICKS | {"threshold-sweep"}

ALGORITHMS = ("iid", "micrograph", "random")

TEMPLATE_VARIANTS = ("matched", "mismatched")


def _parse_int(text):
    return int(text, 10)


def _parse_float(text):
    value = float(text)
    if value != value:
        raise ValueError("nan is not a valid value")
    return value


def _parse_str(text):
    if not text:
        raise ValueError("empty string")
    return text


def _parse_dims(text):
    dims = tuple(int(part, 10) for part in text.lower().split("x"))
    if len(dims) not in (2, 3) or any(d < 1 for d in dims):
        raise ValueError("dims must be 2 or 3 positive sizes joined by 'x'")
    return dims


def _parse_int_list(text):
    values = tuple(int(part.strip(), 10) for part in text.split(","))
    if not values:
        raise ValueError("empty list")
    return values


def _parse_float_list(text):
    values = tuple(float(part.strip()) for part in text.split(","))
    if not values or not all(map(math.isfinite, values)):
        raise ValueError("list values must be finite numbers")
    return values


def _choice(options):
    def parse(text):
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return text

    return parse


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings; every field has a value."""

    kind: str
    seed: int
    out: str = "artifacts"
    canvas: tuple = (256, 256)
    patch_side: int = 16
    template_count: int = 5
    sample_target: int = 20000
    field_count: int = 8
    sigma: float = 1.0
    snr: float = 0.0
    plant_count: int = 0
    threshold: float = 5.0
    algorithm: str = "micrograph"
    em_sigma: float = 1.0
    em_max_iters: int = 200
    em_restarts: int = 3
    em_rel_tol: float = 1e-8
    sweep_thresholds: tuple = (1.0, 2.0, 3.0, 4.0, 5.0)
    scan_samples: tuple = (1000, 10000, 100000)
    scan_sides: tuple = (8, 16, 32)
    oracle_thresholds: tuple = (-2.0, 0.0, 1.0, 3.0, 5.0, 8.0, 20.0, 30.0)
    lowpass: float = 1.0
    template_variant: str = "matched"


# a key's own bound on each of its values: (what a value must do, its test)
_AT_LEAST_0 = ("be at least 0", lambda value: value >= 0)
_AT_LEAST_1 = ("be at least 1", lambda value: value >= 1)
_FINITE = ("be finite", math.isfinite)
_POSITIVE = ("be positive and finite", lambda value: 0.0 < value < math.inf)
_UNIT = ("lie in (0, 1]", lambda value: 0.0 < value <= 1.0)

# key -> (attribute, value parser, kinds that read it, bound or None);
# defaults live on the dataclass.
SCHEMA = {
    "experiment.kind": ("kind", _choice(KINDS), _EVERY, None),
    "experiment.seed": ("seed", _parse_int, _EVERY, None),
    "experiment.out": ("out", _parse_str, _EVERY, None),
    "geometry.canvas": ("canvas", _parse_dims, _PICKS, None),
    "geometry.patch_side": ("patch_side", _parse_int, _FITS, _AT_LEAST_1),
    "geometry.template_count": ("template_count", _parse_int, _FITS, _AT_LEAST_1),
    "geometry.sample_target": ("sample_target", _parse_int, _FITS, _AT_LEAST_1),
    "geometry.field_count": ("field_count", _parse_int, _PICKS, _AT_LEAST_1),
    "noise.sigma": ("sigma", _parse_float, _EVERY, _POSITIVE),
    "noise.snr": ("snr", _parse_float, _PLANTS, None),
    "noise.plant_count": ("plant_count", _parse_int, _PLANTS, _AT_LEAST_0),
    "picker.threshold": ("threshold", _parse_float, _PICKS | {"complexity-scan"}, _FINITE),
    "picker.algorithm": ("algorithm", _choice(ALGORITHMS), _PICKS, None),
    "em.sigma": ("em_sigma", _parse_float, _FITS, None),
    "em.max_iters": ("em_max_iters", _parse_int, _FITS, None),
    "em.restarts": ("em_restarts", _parse_int, _FITS, None),
    "em.rel_tol": ("em_rel_tol", _parse_float, _FITS, None),
    "sweep.thresholds": ("sweep_thresholds", _parse_float_list, {"threshold-sweep"}, None),
    "scan.samples": ("scan_samples", _parse_int_list, {"complexity-scan"}, None),
    "scan.sides": ("scan_sides", _parse_int_list, {"complexity-scan"}, _AT_LEAST_1),
    "oracle.thresholds": ("oracle_thresholds", _parse_float_list, {"oracle-check"}, None),
    "templates.lowpass": ("lowpass", _parse_float, _TEMPLATES, _UNIT),
    "templates.variant": ("template_variant", _choice(TEMPLATE_VARIANTS), _TEMPLATES, None),
}

# kind -> the keys it reads, in schema order
READS = {kind: tuple(key for key, (*_, readers, _) in SCHEMA.items() if kind in readers) for kind in KINDS}

_REQUIRED_KEYS = ("experiment.kind", "experiment.seed")


def parse_config_text(text, origin="<config>"):
    """Parse ``section.key = value`` lines into an ExperimentConfig."""
    values = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{origin}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = lineno
        attr, parse, _, _ = SCHEMA[key]
        try:
            values[attr] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key}: {exc}") from exc
    for key in _REQUIRED_KEYS:
        attr, *_ = SCHEMA[key]
        if attr not in values:
            raise ConfigError(f"{origin}: missing required key {key}")
    kind = values["kind"]
    for key, lineno in seen.items():
        if key not in READS[kind]:
            raise ConfigError(f"{origin}:{lineno}: {kind} does not read {key}")
    return ExperimentConfig(**values)


def parse_config(path):
    """Read and parse a configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def format_value(value):
    """Canonical string form used in manifests, inverse of the parsers."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def resolved_items(config):
    """Sorted ``(section.key, canonical value)`` pairs of the keys the
    config's kind reads."""
    items = []
    for key in READS[config.kind]:
        value = getattr(config, SCHEMA[key][0])
        text = "x".join(map(str, value)) if key == "geometry.canvas" else format_value(value)
        items.append((key, text))
    return sorted(items)
