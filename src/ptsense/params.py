"""Physical parameters of the PT-symmetric two-level sensor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
