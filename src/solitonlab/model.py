"""Nonlinearity, external potential and run configuration.

Two nonlinearity families are supported, both with beta'(0) = 0 and
analytic derivatives:

  power:      beta'(s) = c * s**sigma          (beta(s) = c*s**(sigma+1)/(sigma+1))
  saturable:  beta'(s) = c * s / (1 + s)       (beta(s) = c*(s - log(1+s)))

Potentials are finite sums of Gaussians, so they are Schwartz-class by
construction and carry exact analytic gradients.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ConfigError",
    "NonlinearityModel",
    "PotentialTerm",
    "PotentialModel",
    "SimulationConfig",
    "validate_config",
    "load_config",
    "config_hash",
]


class ConfigError(ValueError):
    """Raised by validate_config; carries the full list of violations."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class NonlinearityModel:
    kind: str = "power"          # "power" or "saturable"
    sigma: float = 1.0           # power exponent (ignored for saturable)
    c: float = 2.0               # coupling coefficient > 0

    def __post_init__(self):
        if self.kind not in ("power", "saturable"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.c <= 0:
            raise ValueError("coupling coefficient must be positive")
        if self.kind == "power" and not 0 < self.sigma < 2:
            raise ValueError("power exponent must satisfy 0 < sigma < 2")

    def beta(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "power":
            return self.c * s ** (self.sigma + 1.0) / (self.sigma + 1.0)
        return self.c * (s - np.log1p(s))

    def beta_prime(self, s, out=None):
        """beta'(s).  With `out` (a float array; `s` itself is allowed) the
        result is written there, bit for bit the value returned without it."""
        if out is None:
            s = np.asarray(s, dtype=float)
            if self.kind == "power":
                return self.c * s**self.sigma
            return self.c * s / (1.0 + s)
        if out is not s:
            np.copyto(out, s)
        if self.kind == "power":
            if self.sigma != 1.0:         # s**1 is s: skip a full pass
                out **= self.sigma        # the fast paths of s**sigma
            out *= self.c
        else:
            d = 1.0 + out
            out *= self.c
            out /= d
        return out

    def beta_second(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                out = self.c * self.sigma * s ** (self.sigma - 1.0)
            if self.sigma < 1.0:
                out = np.where(s == 0.0, np.inf, out)
            return out
        return self.c / (1.0 + s) ** 2


@dataclass(frozen=True)
class PotentialTerm:
    amplitude: float
    center: tuple          # length dim
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("Gaussian width must be positive")


@dataclass(frozen=True)
class PotentialModel:
    terms: tuple = ()
    axis: int = 0           # declared symmetry axis (index)

    @staticmethod
    def gaussians(spec, axis: int = 0) -> "PotentialModel":
        """Build from a list of (amplitude, center, width) triples."""
        terms = []
        for a, x0, w in spec:
            c = tuple(float(v) for v in np.atleast_1d(x0))
            terms.append(PotentialTerm(float(a), c, float(w)))
        return PotentialModel(tuple(terms), axis=axis)

    @property
    def dim(self) -> int:
        return len(self.terms[0].center) if self.terms else 0

    def is_axisymmetric(self) -> bool:
        """True iff every center lies on the declared axis (widths are
        isotropic by construction)."""
        for t in self.terms:
            for j, cj in enumerate(t.center):
                if j != self.axis and cj != 0.0:
                    return False
        return True

    def __call__(self, *coords):
        """V evaluated on broadcastable coordinate arrays, one per axis."""
        v = 0.0
        for t in self.terms:
            r2 = 0.0
            for x, c in zip(coords, t.center):
                r2 = r2 + (np.asarray(x, dtype=float) - c) ** 2
            v = v + t.amplitude * np.exp(-r2 / (2.0 * t.width**2))
        if not self.terms:
            shape = np.broadcast(*[np.asarray(c) for c in coords]).shape if coords else ()
            return np.zeros(shape)
        return v

    def gradient(self, *coords):
        """Analytic gradient, list of arrays (one per axis)."""
        gs = [0.0] * len(coords)
        for t in self.terms:
            r2 = 0.0
            for x, c in zip(coords, t.center):
                r2 = r2 + (np.asarray(x, dtype=float) - c) ** 2
            g = t.amplitude * np.exp(-r2 / (2.0 * t.width**2))
            for j, (x, c) in enumerate(zip(coords, t.center)):
                gs[j] = gs[j] - (np.asarray(x, dtype=float) - c) / t.width**2 * g
        if not self.terms:
            shape = np.broadcast(*[np.asarray(c) for c in coords]).shape if coords else ()
            return [np.zeros(shape) for _ in coords]
        return [np.asarray(g) for g in gs]


# -- run configuration --------------------------------------------------------

def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SimulationConfig:
    model: NonlinearityModel = field(default_factory=NonlinearityModel)
    potential: PotentialModel = field(default_factory=PotentialModel)
    dim: int = 1
    grid_points: int = 256               # per axis, power of two
    box_length: float = 40.0 * math.pi   # per axis
    reference_energy: float = 1.0        # soliton energy parameter at p = 0
    reference_mass: float | None = None  # alternative to reference_energy
    epsilon: float = 0.0
    dt: float = 1e-3
    t_final: float = 1.0
    extraction_cadence: int = 50         # steps between coordinate extractions
    newton_tol: float = 1e-10
    newton_max_iter: int = 40
    boundary_mass_warn: float = 1e-3     # radiation-at-the-edge warning level
    critical_margin_min: float = 0.05    # H_mech/eps distance from critical values
    p_init: tuple = (0.0, 0.0, 0.0, 0.0)
    q_init: tuple = (0.0, 0.0, 0.0, 0.0)
    perturb_amplitude: float = 0.0       # H1 size is amplitude * sqrt(epsilon)
    perturb_kmax: float = 2.0
    seed: int = 0
    stability_threshold: float = math.pi  # reporting bound on dt*(pi N / L)^2
    strichartz_pairs: tuple = ()
    output_dir: str = "out"
    snapshot_cadence: int = 0            # 0 disables field snapshots

    @property
    def mu(self) -> float:
        """Derived scale epsilon**(1/4); never stored independently."""
        return self.epsilon**0.25

    @property
    def spacing(self) -> float:
        return self.box_length / self.grid_points

    @property
    def stability_metric(self) -> float:
        return self.dt * (math.pi * self.grid_points / self.box_length) ** 2

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


def validate_config(cfg: SimulationConfig) -> SimulationConfig:
    """Check all invariants; raise ConfigError listing every violation."""
    errors = []
    if cfg.dim not in (1, 3):
        errors.append("dim must be 1 or 3")
    if not _is_power_of_two(cfg.grid_points):
        errors.append("grid_points not power of two")
    if cfg.box_length <= 0:
        errors.append("box_length not positive")
    if cfg.epsilon < 0:
        errors.append("epsilon negative")
    if cfg.dt <= 0:
        errors.append("dt not positive")
    if cfg.t_final < 0:
        errors.append("t_final negative")
    if cfg.reference_energy <= 0:
        errors.append("reference_energy not positive")
    if cfg.reference_mass is not None and cfg.reference_mass <= 0:
        errors.append("reference_mass not positive")
    if cfg.extraction_cadence < 1:
        errors.append("extraction_cadence must be >= 1")
    if cfg.newton_tol <= 0:
        errors.append("newton_tol not positive")
    if len(cfg.p_init) != 4 or len(cfg.q_init) != 4:
        errors.append("p_init/q_init must have 4 components")
    if not 0 <= cfg.potential.axis < cfg.dim:
        errors.append("potential axis not an axis of the grid")
    if cfg.perturb_amplitude < 0:
        errors.append("perturb_amplitude negative")
    if cfg.model.kind == "power" and cfg.dim == 3 and cfg.model.sigma >= 2.0 / 3.0:
        # not an error: mass-curve slope turns negative for these exponents
        pass
    if errors:
        raise ConfigError(errors)
    return cfg


# -- INI-style config files ----------------------------------------------------

_RUN_FLOATS = {
    "reference_energy", "reference_mass", "epsilon", "dt", "t_final",
    "newton_tol", "perturb_amplitude", "perturb_kmax", "stability_threshold",
    "boundary_mass_warn", "critical_margin_min",
}
_RUN_INTS = {"extraction_cadence", "newton_max_iter", "seed"}


def load_config(path) -> SimulationConfig:
    """Read the flat key=value config file ([model]/[potential]/[grid]/[run]/[output]).
    A value that does not parse or that a model rejects is a ConfigError too."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError([f"config file not found: {path}"])
    try:
        return validate_config(SimulationConfig(**_config_kwargs(cp)))
    except ValueError as e:             # ConfigError keeps its own list
        raise ConfigError(getattr(e, "errors", [str(e)])) from e


def _config_kwargs(cp: configparser.ConfigParser) -> dict:
    kw = {}

    if cp.has_section("model"):
        m = cp["model"]
        kw["model"] = NonlinearityModel(
            kind=m.get("kind", "power"),
            sigma=m.getfloat("sigma", 1.0),
            c=m.getfloat("c", 2.0),
        )
    if cp.has_section("grid"):
        g = cp["grid"]
        kw["dim"] = g.getint("dim", 1)
        kw["grid_points"] = g.getint("n", 256)
        kw["box_length"] = g.getfloat("box_length", 40.0 * math.pi)
    if cp.has_section("potential"):
        p = cp["potential"]
        amps = [float(v) for v in p.get("amplitudes", "").split()] if p.get("amplitudes", "") else []
        wids = [float(v) for v in p.get("widths", "").split()] if p.get("widths", "") else []
        cents = []
        raw = p.get("centers", "").strip()
        if raw:
            for chunk in raw.split(";"):
                cents.append([float(v) for v in chunk.split()])
        if not len(amps) == len(wids) == len(cents):
            raise ConfigError(["potential amplitudes/centers/widths length mismatch"])
        kw["potential"] = PotentialModel.gaussians(
            list(zip(amps, cents, wids)), axis=p.getint("axis", 0))
    if cp.has_section("run"):
        r = cp["run"]
        for key in r:
            if key in _RUN_FLOATS:
                kw[key] = r.getfloat(key)
            elif key in _RUN_INTS:
                kw[key] = r.getint(key)
            elif key in ("p_init", "q_init"):
                kw[key] = tuple(float(v) for v in r.get(key).split())
            elif key == "strichartz_pairs":
                pairs = []
                for chunk in r.get(key).split(";"):
                    if chunk.strip():
                        a, b = chunk.split()
                        pairs.append((math.inf if a == "inf" else float(a), float(b)))
                kw[key] = tuple(pairs)
            else:
                raise ConfigError([f"unknown [run] key: {key}"])
    if cp.has_section("output"):
        o = cp["output"]
        kw["output_dir"] = o.get("dir", "out")
        kw["snapshot_cadence"] = o.getint("snapshot_cadence", 0)
    return kw


def config_hash(cfg: SimulationConfig) -> str:
    """Deterministic provenance hash of a configuration."""
    def enc(obj):
        if isinstance(obj, float):
            return format(obj, ".17g")
        if isinstance(obj, (list, tuple)):
            return [enc(v) for v in obj]
        if isinstance(obj, dict):
            return {k: enc(v) for k, v in sorted(obj.items())}
        if hasattr(obj, "__dataclass_fields__"):
            return {k: enc(getattr(obj, k)) for k in sorted(obj.__dataclass_fields__)}
        return obj
    blob = json.dumps(enc(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def with_updates(cfg: SimulationConfig, **kw) -> SimulationConfig:
    return validate_config(replace(cfg, **kw))
