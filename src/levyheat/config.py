"""Flat, typed key/value experiment configuration with dotted sections.

Format: one `key = value` per line, `#` comments, keys like `model.alpha`.
Unknown keys and type mismatches fail with the offending key path; a parsed
config serializes back canonically (sorted keys).  The config hash embedded
in every emitted artifact is the sha256 of the resolved configuration (every
key with a value, set or default) and the package version, so two configs
that build the same experiment hash alike and a changed default does not.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields

from . import __version__
from .analytics import ConstantsConfig, ModelSpec, SigmaSpec, U0Spec
from .errors import ValidationError
from .estimator import AGGREGATORS
from .kernel import KernelParams
from .noise import LevyMeasureSpec
from .solver import GridSpec


def _parse_float_list(s):
    return tuple(float(tok) for tok in s.replace(";", ",").split(",") if tok.strip())


def _parse_atoms(s):
    out = []
    for tok in s.split(","):
        tok = tok.strip()
        if not tok:
            continue
        z, _, m = tok.partition(":")
        out.append((float(z), float(m)))
    return tuple(out)


def _parse_aggregator(s):
    if s not in AGGREGATORS:
        raise ValueError(f"expected one of {', '.join(AGGREGATORS)}")
    return s


def _parse_int_at_least(low):
    def parse(s):
        v = int(s)
        if v < low:
            raise ValueError(f"must be at least {low}")
        return v
    return parse


def _parse_positive(s):
    v = float(s)
    if not 0.0 < v < float("inf"):
        raise ValueError("must be positive and finite")
    return v


def _parse_radius_exponent(s):
    """`subexp` or a number, kept as text so the config hash sees the text."""
    if s != "subexp":
        float(s)
    return s


def _parse_weight(s):
    """`model`, a CSV path or `exp:<amp>,<rate>` (amp finite and >= 0, rate
    finite), kept as text so the config hash sees the text."""
    if s.startswith("exp:"):
        vals = [float(v) for v in s[4:].split(",")]
        if len(vals) != 2:
            raise ValueError("expected exp:<amp>,<rate>")
        if not (0.0 <= vals[0] < math.inf and math.isfinite(vals[1])):
            raise ValueError("amp must be finite and >= 0, rate finite")
    return s


# key -> (parser, default); defaults of None mean "absent unless set"
SCHEMA = {
    "model.d": (int, 1),
    "model.alpha": (float, 1.5),
    "model.rho": (float, 0.0),
    "levy.kind": (str, "atoms"),
    "levy.atoms": (_parse_atoms, ((1.0, 1.0), (-1.0, 1.0))),
    "levy.gamma": (float, 0.5),
    "levy.delta_in": (float, 0.1),
    "levy.outer": (float, 1.0),
    "levy.amplitude": (float, 1.0),
    "sigma.kind": (str, "linear"),
    "sigma.slope": (float, 1.0),
    "sigma.intercept": (float, 0.0),
    "sigma.table_x": (_parse_float_list, ()),
    "sigma.table_y": (_parse_float_list, ()),
    "u0.kind": (str, "constant"),
    "u0.value": (float, 1.0),
    "u0.c0": (float, 1.0),
    "u0.decay_c": (float, 0.0),
    "grid.L": (float, 32.0),
    "grid.nx": (int, 256),
    "grid.T": (float, 5.0),
    "grid.nt": (int, 500),
    "run.p": (_parse_float_list, (2.0,)),
    "run.replicas": (int, 100),
    "run.seed": (int, 12345),
    "run.blocks": (_parse_int_at_least(2), 16),   # SE uses ddof=1
    "run.aggregator": (_parse_aggregator, "auto"),
    "run.jobs": (_parse_int_at_least(1), 1),
    "run.outdir": (str, "."),
    "bounds.c": (float, 0.0),
    "scan.eta": (_parse_float_list, (0.1, 0.2, 0.4, 0.8)),
    "scan.r": (_parse_radius_exponent, "1.0"),
    "renewal.eps": (float, 1.0),
    "renewal.delta": (float, 0.5),
    "renewal.c3": (float, None),
    "renewal.c4": (float, None),
    "renewal.T": (_parse_positive, 10.0),
    "renewal.dt": (_parse_positive, 1e-3),
    "renewal.weight": (_parse_weight, "model"),
    **{f"constants.{f.name}": (float, f.default)
       for f in fields(ConstantsConfig)},
}


def _parse(key: str, text: str):
    """The value of `key` parsed from `text`; errors name the key."""
    if key not in SCHEMA:
        raise ValidationError(key, "unknown configuration key")
    parser, _ = SCHEMA[key]
    try:
        return parser(text)
    except (ValueError, TypeError) as exc:
        raise ValidationError(key, f"cannot parse {text!r}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Validated configuration; builds the model/grid/constants objects."""

    values: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        values = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"line {ln}", f"expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            values[key] = _parse(key, val)
        cfg = cls(values=values)
        cfg.build_model()       # fail fast on semantic violations
        cfg.build_grid()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_text(fh.read())

    def get(self, key: str):
        if key not in SCHEMA:
            raise ValidationError(key, "unknown configuration key")
        _, default = SCHEMA[key]
        return self.values.get(key, default)

    def set(self, key: str, text: str) -> None:
        """Apply the config line `key = text`."""
        self.values[key] = _parse(key, text)

    # -- construction -------------------------------------------------------

    def build_levy(self) -> LevyMeasureSpec:
        kind = self.get("levy.kind")
        if kind == "atoms":
            return LevyMeasureSpec(variant="atoms", atoms=self.get("levy.atoms"))
        if kind == "truncated_power":
            return LevyMeasureSpec(variant="truncated_power",
                                   gamma_exp=self.get("levy.gamma"),
                                   delta_in=self.get("levy.delta_in"),
                                   outer_cut=self.get("levy.outer"),
                                   amplitude=self.get("levy.amplitude"))
        raise ValidationError("levy.kind", f"unknown kind {kind!r}")

    def build_sigma(self) -> SigmaSpec:
        return SigmaSpec(kind=self.get("sigma.kind"),
                         slope=self.get("sigma.slope"),
                         intercept=self.get("sigma.intercept"),
                         table_x=self.get("sigma.table_x"),
                         table_y=self.get("sigma.table_y"))

    def build_u0(self) -> U0Spec:
        return U0Spec(kind=self.get("u0.kind"), value=self.get("u0.value"),
                      c0=self.get("u0.c0"), decay_c=self.get("u0.decay_c"))

    def build_model(self) -> ModelSpec:
        try:
            kp = KernelParams(d=self.get("model.d"), alpha=self.get("model.alpha"))
            return ModelSpec(kp=kp, rho=self.get("model.rho"),
                             levy=self.build_levy(), sigma=self.build_sigma(),
                             u0=self.build_u0())
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError("model", str(exc)) from exc

    def build_grid(self) -> GridSpec:
        return GridSpec(half_width=self.get("grid.L"), n_x=self.get("grid.nx"),
                        horizon=self.get("grid.T"), n_t=self.get("grid.nt"))

    def build_constants(self) -> ConstantsConfig:
        return ConstantsConfig(**{f.name: self.get(f"constants.{f.name}")
                                  for f in fields(ConstantsConfig)})

    # -- serialization -------------------------------------------------------

    def canonical_text(self) -> str:
        return _canonical(self.values)

    def config_hash(self) -> str:
        """Hash of the resolved configuration, unset keys without a default
        left out, and of the package version."""
        resolved = {k: self.get(k) for k in SCHEMA if self.get(k) is not None}
        text = f"levyheat = {__version__}\n" + _canonical(resolved)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canonical(values: dict) -> str:
    """`key = value` lines in sorted key order; floats with 17 digits."""
    lines = []
    for key in sorted(values):
        val = values[key]
        if isinstance(val, tuple) and val and isinstance(val[0], tuple):
            txt = ", ".join(f"{z:.17g}:{m:.17g}" for z, m in val)
        elif isinstance(val, tuple):
            txt = ", ".join(f"{v:.17g}" for v in val)
        elif isinstance(val, float):
            txt = f"{val:.17g}"
        else:
            txt = str(val)
        lines.append(f"{key} = {txt}")
    return "\n".join(lines) + "\n"
