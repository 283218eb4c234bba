"""Physical parameters of the PT-symmetric two-level sensor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

__all__ = ["PtParams"]


@dataclass(frozen=True)
class PtParams:
    """Coupling rate omega and gain-loss rate gamma (rad/s).

    The unbroken phase gamma/omega <= 1 is enforced; the exceptional point
    gamma = omega is allowed (closed-form evaluators are regular there), the
    broken phase is rejected.  kappa = sqrt(omega^2 - gamma^2) is derived.
    """

    omega: float = 1.0
    gamma: float = 0.0
    #: sqrt(omega^2 - gamma^2), zero exactly at the exceptional point; set once per instance.
    kappa: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and math.isfinite(self.gamma)):
            raise ValueError("parameters must be finite")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        if self.gamma > self.omega:
            raise ValueError(
                f"broken phase rejected: gamma/omega = {self.gamma / self.omega:.6g} > 1"
            )
        object.__setattr__(self, "kappa", math.sqrt(max((self.omega - self.gamma) * (self.omega + self.gamma), 0.0)))

    def with_omega(self, omega: float) -> "PtParams":
        """The same gamma at coupling omega."""
        return replace(self, omega=omega)


class PointParams:
    """Per-point parameters of a row stacking entries: entries[k] holds at sizes[k] consecutive points.  omega, gamma
    and kappa hold one value per point; a kernel derives any other scalar per entry (per_entry)."""

    def __init__(self, entries, sizes) -> None:
        self.entries, self.sizes = tuple(entries), tuple(sizes)
        self.omega, self.gamma, self.kappa = (self.each(attrgetter(f)) for f in ("omega", "gamma", "kappa"))

    def each(self, fn) -> np.ndarray:
        """fn of each entry's PtParams, repeated over the entry's points."""
        return np.repeat(np.array([fn(p) for p in self.entries], dtype=float), self.sizes)


def per_entry(p, fn):
    """fn(p) for one PtParams; for PointParams, fn of each entry repeated over its points.  For the scalars
    that Python and numpy need not round alike (x ** 2, math.sqrt)."""
    return p.each(fn) if isinstance(p, PointParams) else fn(p)
