"""Probability-sequence descriptors p = (p_i)_{i>=1} with values in (0, 1].

The stochastic machine, its classification, and the spectral escape tests all
consume a sequence of per-rung success probabilities.  Rather than a bare
list, each sequence is a small descriptor whose tail behaviour is known, so
convergence questions (products, sums, weighted sums) and the infimum delta
can be answered symbolically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError, InvalidProbability, TailUndefined, UnsupportedVariant

#: Lower clamp applied by the derived families so values stay inside (0, 1].
PROB_FLOOR = 1e-12


def _finite(value: object, what: str) -> float:
    """`value` as a float; a bool, a non-real or a non-finite value is refused, naming `what`."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer past the float range
        pass
    raise InvalidProbability(f"{what} must be a finite real number, got {value!r}")


def _check_prob(value: object, what: str) -> float:
    value = _finite(value, what)
    if not (0.0 < value <= 1.0):
        raise InvalidProbability(f"{what} must lie in (0, 1], got {value!r}")
    return value


class ProbSeq:
    """Base class: an accessor p(i) for i >= 1 plus tail diagnostics.

    p(i) must depend on i alone, and give the same value, or raise, on every
    call: the package asks each index once per descriptor, keeps the values
    in a table on the descriptor (chain.Coefficients) and reads them from
    there.  A request that raises is not kept, and is asked again.
    """

    def p(self, i: int) -> float:
        raise NotImplementedError

    def delta_lower_bound(self) -> float:
        """Infimum of the sequence (0.0 when the infimum is zero or unknown)."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ConstantTail(ProbSeq):
    """A finite prefix followed by a constant value forever, or by no tail rule.

    tail=None means the sequence is undefined beyond the prefix; accessing it
    raises, and classification refuses the descriptor.
    """

    prefix: tuple[float, ...] = ()
    tail: float | None = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "prefix", tuple(_check_prob(v, "prefix entry") for v in self.prefix)
        )
        if self.tail is not None:
            object.__setattr__(self, "tail", _check_prob(self.tail, "tail value"))

    def p(self, i: int) -> float:
        if i < 1:
            raise ValueError("probability index starts at 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if self.tail is None:
            raise TailUndefined(f"p_{i} requested but only {len(self.prefix)} values given")
        return self.tail

    def delta_lower_bound(self) -> float:
        return 0.0 if self.tail is None else min(self.prefix + (self.tail,))

    def describe(self) -> str:
        tail = "tail unspecified" if self.tail is None else f"constant tail {self.tail:g}"
        return f"prefix of {len(self.prefix)} values, {tail}"


def all_ones() -> ConstantTail:
    """The deterministic machine: every carry succeeds."""
    return ConstantTail((), 1.0)


@dataclass(frozen=True)
class PowerLawComplement(ProbSeq):
    """p_i = 1 - c * i^(-alpha), clamped into (0, 1]."""

    c: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "c", _finite(self.c, "c"))
        object.__setattr__(self, "alpha", _finite(self.alpha, "alpha"))
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
        object.__setattr__(self, "c", _finite(self.c, "c"))
        object.__setattr__(self, "rho", _finite(self.rho, "rho"))
        if not (self.c > 0):
            raise InvalidProbability("c must be positive")
        if not (0.0 < self.rho < 1.0):
            raise InvalidProbability("rho must lie in (0, 1)")

    def p(self, i: int) -> float:
        if i < 1:
            raise ValueError("probability index starts at 1")
        # c is a finite float and 0 < rho < 1, so the product neither raises nor overflows
        return min(1.0, max(5e-324, self.c * self.rho**i))

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
        if param is not None:
            return ConstantTail(prefix, json_number(param, "prob_seq param"))
        return ConstantTail(prefix, None if variant == "explicit" else 1.0)
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
    if isinstance(p, ConstantTail):
        variant = "explicit" if p.tail is None else "constant_tail"
        return {"variant": variant, "prefix": list(p.prefix), "param": p.tail}
    if isinstance(p, PowerLawComplement):
        return {
            "variant": "power_law_complement",
            "prefix": [],
            "param": {"c": p.c, "alpha": p.alpha},
        }
    if isinstance(p, GeometricDecay):
        return {"variant": "geometric_decay", "prefix": [], "param": {"c": p.c, "rho": p.rho}}
    raise UnsupportedVariant(f"{type(p).__name__} has no JSON form")
