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
from .estimator import AGGREGATORS, MOM_BLOCKS
from .kernel import KernelParams
from .noise import LevyMeasureSpec
from .solver import GridSpec


def _parse_finite(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _parse_float_list(s, parse=_parse_finite):
    return tuple(parse(tok) for tok in s.replace(";", ",").split(",")
                 if tok.strip())


def _parse_nonempty_list(s, parse=_parse_finite):
    vals = _parse_float_list(s, parse)
    if not vals:
        raise ValueError("needs at least one value")
    return vals


def _parse_atoms(s):
    out = []
    for tok in s.split(","):
        tok = tok.strip()
        if not tok:
            continue
        z, _, m = tok.partition(":")
        out.append((_parse_finite(z), _parse_finite(m)))
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


def _parse_orders(s):
    """Moment orders: one or more, each positive and finite."""
    return _parse_nonempty_list(s, _parse_positive)


def _parse_radius_exponent(s):
    """`subexp` or a number, kept as text so the config hash sees the text."""
    if s != "subexp":
        _parse_finite(s)
    return s


def exp_weight(text: str):
    """(amp, rate) of `exp:<amp>,<rate>`, amp finite and >= 0 and rate
    finite (else ValueError); None for any other text."""
    if not text.startswith("exp:"):
        return None
    vals = [float(v) for v in text[4:].split(",")]
    if len(vals) != 2:
        raise ValueError("expected exp:<amp>,<rate>")
    if not (0.0 <= vals[0] < math.inf and math.isfinite(vals[1])):
        raise ValueError("amp must be finite and >= 0, rate finite")
    return tuple(vals)


def _parse_weight(s):
    """`model`, a CSV path or `exp:<amp>,<rate>` (see `exp_weight`), kept as
    text so the config hash sees the text."""
    exp_weight(s)
    return s


# key -> (parser, dataclass, field) for every key a dataclass field backs
_FIELDS = {
    "model.d": (int, KernelParams, "d"),
    "model.alpha": (_parse_finite, KernelParams, "alpha"),
    "model.rho": (_parse_finite, ModelSpec, "rho"),
    "levy.kind": (str, LevyMeasureSpec, "variant"),
    "levy.atoms": (_parse_atoms, LevyMeasureSpec, "atoms"),
    "levy.gamma": (_parse_finite, LevyMeasureSpec, "gamma_exp"),
    "levy.delta_in": (_parse_finite, LevyMeasureSpec, "delta_in"),
    "levy.outer": (_parse_finite, LevyMeasureSpec, "outer_cut"),
    "levy.amplitude": (_parse_finite, LevyMeasureSpec, "amplitude"),
    "sigma.kind": (str, SigmaSpec, "kind"),
    "sigma.slope": (_parse_finite, SigmaSpec, "slope"),
    "sigma.intercept": (_parse_finite, SigmaSpec, "intercept"),
    "sigma.table_x": (_parse_float_list, SigmaSpec, "table_x"),
    "sigma.table_y": (_parse_float_list, SigmaSpec, "table_y"),
    "u0.kind": (str, U0Spec, "kind"),
    "u0.value": (_parse_finite, U0Spec, "value"),
    "u0.c0": (_parse_finite, U0Spec, "c0"),
    "u0.decay_c": (_parse_finite, U0Spec, "decay_c"),
    "grid.L": (_parse_finite, GridSpec, "half_width"),
    "grid.nx": (int, GridSpec, "n_x"),
    "grid.T": (_parse_finite, GridSpec, "horizon"),
    "grid.nt": (int, GridSpec, "n_t"),
    **{f"constants.{f.name}": (_parse_finite, ConstantsConfig, f.name)
       for f in fields(ConstantsConfig)},
}

# key -> (parser, default); defaults of None mean "absent unless set"
SCHEMA = {
    **{key: (parser, {f.name: f.default for f in fields(cls)}[name])
       for key, (parser, cls, name) in _FIELDS.items()},
    "run.p": (_parse_orders, (2.0,)),
    "run.replicas": (int, 100),
    "run.seed": (int, 12345),
    "run.blocks": (_parse_int_at_least(2), MOM_BLOCKS),   # SE uses ddof=1
    "run.aggregator": (_parse_aggregator, "auto"),
    "run.jobs": (_parse_int_at_least(1), 1),
    "run.outdir": (str, "."),
    "bounds.c": (_parse_finite, 0.0),
    "scan.eta": (_parse_nonempty_list, (0.1, 0.2, 0.4, 0.8)),
    "scan.r": (_parse_radius_exponent, "1.0"),
    "renewal.eps": (_parse_finite, 1.0),
    "renewal.delta": (_parse_finite, 0.5),
    "renewal.c3": (_parse_finite, None),
    "renewal.c4": (_parse_finite, None),
    "renewal.T": (_parse_positive, 10.0),
    "renewal.dt": (_parse_positive, 1e-3),
    "renewal.weight": (_parse_weight, "model"),
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
        cfg.build_constants()
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

    def _build(self, cls, **parts):
        """`cls` with each field the table maps set from its key, and
        `parts`.  A ValidationError naming a field of `cls` or of a part is
        raised again under that field's key."""
        keys = {name: key for key, (_, owner, name) in _FIELDS.items()
                if owner is cls}
        try:
            return cls(**{name: self.get(key) for name, key in keys.items()},
                       **parts)
        except ValidationError as exc:
            owners = {cls, *map(type, parts.values())}
            named = {name: key for key, (_, owner, name) in _FIELDS.items()
                     if owner in owners}
            raise ValidationError(named.get(exc.key_path, exc.key_path),
                                  exc.message) from exc

    def build_model(self) -> ModelSpec:
        return self._build(ModelSpec, kp=self._build(KernelParams),
                           levy=self._build(LevyMeasureSpec),
                           sigma=self._build(SigmaSpec), u0=self._build(U0Spec))

    def build_grid(self) -> GridSpec:
        return self._build(GridSpec)

    def build_constants(self) -> ConstantsConfig:
        return self._build(ConstantsConfig)

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
