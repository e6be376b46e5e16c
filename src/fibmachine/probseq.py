"""Probability-sequence descriptors p = (p_i)_{i>=1} with values in (0, 1].

The stochastic machine, its classification, and the spectral escape tests all
consume a sequence of per-rung success probabilities.  Rather than a bare
list, each sequence is a small descriptor whose tail behaviour is known, so
convergence questions (products, sums, weighted sums) and the infimum delta
can be answered symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidProbability, TailUndefined, UnsupportedVariant

#: Lower clamp applied by the derived families so values stay inside (0, 1].
PROB_FLOOR = 1e-12


def _check_prob(value: float, what: str) -> float:
    value = float(value)
    if not (0.0 < value <= 1.0) or math.isnan(value):
        raise InvalidProbability(f"{what} must lie in (0, 1], got {value!r}")
    return value


class ProbSeq:
    """Base class: an accessor p(i) for i >= 1 plus tail diagnostics."""

    def p(self, i: int) -> float:
        raise NotImplementedError

    def delta_lower_bound(self) -> float:
        """Infimum of the sequence (0.0 when the infimum is zero or unknown)."""
        raise NotImplementedError

    def first(self, count: int) -> list[float]:
        return [self.p(i) for i in range(1, count + 1)]

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Explicit(ProbSeq):
    """Finitely many listed values, then a constant tail (or no tail rule).

    tail=None means the sequence is undefined beyond the prefix; accessing it
    raises, and classification refuses the descriptor.
    """

    values: tuple[float, ...]
    tail: float | None = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(_check_prob(v, "prefix entry") for v in self.values)
        )
        if self.tail is not None:
            object.__setattr__(self, "tail", _check_prob(self.tail, "tail value"))

    def p(self, i: int) -> float:
        if i < 1:
            raise ValueError("probability index starts at 1")
        if i <= len(self.values):
            return self.values[i - 1]
        if self.tail is None:
            raise TailUndefined(f"p_{i} requested but only {len(self.values)} values given")
        return self.tail

    def delta_lower_bound(self) -> float:
        if self.tail is None:
            return 0.0
        return min(self.values + (self.tail,)) if self.values else self.tail

    def describe(self) -> str:
        tail = "unspecified" if self.tail is None else f"{self.tail:g}"
        return f"explicit prefix of {len(self.values)} values, tail {tail}"


@dataclass(frozen=True)
class ConstantTail(ProbSeq):
    """A finite prefix followed by a constant value forever."""

    prefix: tuple[float, ...] = ()
    tail: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "prefix", tuple(_check_prob(v, "prefix entry") for v in self.prefix)
        )
        object.__setattr__(self, "tail", _check_prob(self.tail, "tail value"))

    def p(self, i: int) -> float:
        if i < 1:
            raise ValueError("probability index starts at 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.tail

    def delta_lower_bound(self) -> float:
        return min(self.prefix + (self.tail,)) if self.prefix else self.tail

    def describe(self) -> str:
        return f"prefix of {len(self.prefix)} values, constant tail {self.tail:g}"


def all_ones() -> ConstantTail:
    """The deterministic machine: every carry succeeds."""
    return ConstantTail((), 1.0)


@dataclass(frozen=True)
class PowerLawComplement(ProbSeq):
    """p_i = 1 - c * i^(-alpha), clamped into (0, 1]."""

    c: float
    alpha: float

    def __post_init__(self):
        if not (self.c > 0):
            raise InvalidProbability("c must be positive")
        if not (self.alpha > 0):
            raise InvalidProbability("alpha must be positive")

    def p(self, i: int) -> float:
        if i < 1:
            raise ValueError("probability index starts at 1")
        return min(1.0, max(PROB_FLOOR, 1.0 - self.c * i ** (-self.alpha)))

    def delta_lower_bound(self) -> float:
        # the sequence increases in i, so the first term is the infimum
        return self.p(1)

    def describe(self) -> str:
        return f"p_i = 1 - {self.c:g} * i^(-{self.alpha:g})"


@dataclass(frozen=True)
class GeometricDecay(ProbSeq):
    """p_i = c * rho^i, clamped into (0, 1].  Infimum is 0."""

    c: float
    rho: float

    def __post_init__(self):
        if not (self.c > 0):
            raise InvalidProbability("c must be positive")
        if not (0.0 < self.rho < 1.0):
            raise InvalidProbability("rho must lie in (0, 1)")

    def p(self, i: int) -> float:
        if i < 1:
            raise ValueError("probability index starts at 1")
        try:
            v = self.c * self.rho**i
        except OverflowError:  # rho**i underflow handled below; this is for c huge
            v = 0.0
        return min(1.0, max(5e-324, v))

    def delta_lower_bound(self) -> float:
        return 0.0

    def describe(self) -> str:
        return f"p_i = {self.c:g} * {self.rho:g}^i"


def json_number(value: object, what: str) -> float:
    """A JSON number as a float; a bool, a string or any other type is refused, naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is out of the float range, got {value!r}") from None


#: The param keys of the two parametric families, in constructor order.
_FAMILY_PARAMS = {
    "power_law_complement": (PowerLawComplement, ("c", "alpha")),
    "geometric_decay": (GeometricDecay, ("c", "rho")),
}


def from_config(cfg: dict) -> ProbSeq:
    """Build a descriptor from its JSON form {"variant", "prefix", "param"}."""
    if not isinstance(cfg, dict) or "variant" not in cfg:
        raise UnsupportedVariant("probability sequence config needs a 'variant' key")
    variant = str(cfg["variant"]).lower()
    prefix = cfg.get("prefix", [])
    if not isinstance(prefix, (list, tuple)):
        raise ConfigError(f"prob_seq prefix must be a list, got {prefix!r}")
    prefix = tuple(json_number(v, "prob_seq prefix entry") for v in prefix)
    param = cfg.get("param")
    if variant in ("explicit", "constant_tail"):
        tail = None if param is None else json_number(param, "prob_seq param")
        if variant == "explicit":
            return Explicit(prefix, tail)
        return ConstantTail(prefix, 1.0 if tail is None else tail)
    if variant not in _FAMILY_PARAMS:
        raise UnsupportedVariant(f"unknown probability sequence variant {variant!r}")
    if prefix:
        raise ConfigError(f"{variant} takes no prob_seq prefix, got {list(prefix)!r}")
    family, keys = _FAMILY_PARAMS[variant]
    if not isinstance(param, dict) or set(param) != set(keys):
        raise UnsupportedVariant(
            f"{variant} needs param {{'c':..., '{keys[1]}':...}}, got {param!r}"
        )
    return family(*(json_number(param[k], f"prob_seq param {k}") for k in keys))


def to_config(p: ProbSeq) -> dict:
    """Inverse of from_config for the four JSON-serializable variants."""
    if isinstance(p, Explicit):
        return {"variant": "explicit", "prefix": list(p.values), "param": p.tail}
    if isinstance(p, ConstantTail):
        return {"variant": "constant_tail", "prefix": list(p.prefix), "param": p.tail}
    if isinstance(p, PowerLawComplement):
        return {
            "variant": "power_law_complement",
            "prefix": [],
            "param": {"c": p.c, "alpha": p.alpha},
        }
    if isinstance(p, GeometricDecay):
        return {"variant": "geometric_decay", "prefix": [], "param": {"c": p.c, "rho": p.rho}}
    raise UnsupportedVariant(f"{type(p).__name__} has no JSON form")
