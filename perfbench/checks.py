"""Output checks of the benchmark: every failure found here counts in error_frac.

The tolerances are the program's documented contracts, fixed before any
baseline was measured:

- p_suc + p_fail = 1 and zeta^2 + xi = 1 to 1e-12;
- populations in [0, 1] summing to 1 within 1e-10, the program's own
  tolerance for eigenvalues and for 3- and 4-level traces (`states.EIG_TOL`);
- QFI >= 0, and i_subs = i_suc + i_fail to 1e-12 relative;
- the three QFI forms agree to 1e-6 relative, or within 1e-9 absolute, the
  roundoff allowance below which `metrology` clips a negative QFI to 0.

xi rows that break the resource-metric contract are counted apart, in
xi_bad_rows: they are a known defect of the finite-difference derivative
near the EP and for off-axis probes, not a failure of a check.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = "tau,t,gamma_ratio,delta_ratio,quantity,value,scheme,probe"

RATE_TOL = 1e-12
POP_TOL = 1e-10
SUM_RTOL = 1e-12
QFI_RTOL = 1e-6
QFI_ATOL = 1e-9
GAP_TOL = 1e-8  # qfi_spectral's default gap_tol
XI_PERIODIC_TOL = 1e-3
XI_FLOOR = -1e-2

_POP = ("population_1", "population_2", "population_3", "population_4")

#: Rows of one grid point per (quantity, scheme), from the dataset schema.  A
#: quantity that raised at that point is the single row "<quantity>_undefined".
ROW_NAMES = {
    ("population", "pt"): _POP[:2],
    ("population", "dilation"): _POP,
    ("population", "lindblad"): _POP[:3] + ("population_eff_1", "population_artificial_1"),
    ("postselect_rates", "dilation"): ("p_suc", "p_fail", "rho_pt_11", "rho_a_11"),
    ("postselect_rates", "lindblad"): ("p_suc", "p_fail", "rho_pt_11"),
    ("population_shift", "pt"): ("population_shift_1",),
    ("population_shift", "dilation"): ("population_shift_1",),
    ("population_shift", "lindblad"): ("population_shift_1",),
    ("susceptibility", "pt"): ("susceptibility_pt", "susceptibility_a"),
    ("susceptibility", "dilation"): ("susceptibility_4d_pt", "susceptibility_4d_a"),
    ("susceptibility", "lindblad"): ("susceptibility_eff",),
    ("qfi_single", "pt"): ("qfi_pt",),
    ("qfi_single", "dilation"): ("qfi_pt", "qfi_a", "qfi_4d"),
    ("qfi_single", "lindblad"): ("qfi_eff", "qfi_conditioned"),
    ("qfi_weighted", "dilation"): ("i_suc", "i_fail", "i_subs", "i_4d"),
    ("qfi_weighted", "lindblad"): ("i_eff",),
    ("sensitivity_bound", "pt"): ("delta_omega_pt",),
    ("sensitivity_bound", "dilation"): ("delta_omega_subs", "delta_omega_4d"),
    ("sensitivity_bound", "lindblad"): ("delta_omega_eff", "delta_omega_eff_single"),
    ("resources", "dilation"): ("xi", "zeta"),
}

NONNEGATIVE = ("qfi_pt", "qfi_a", "qfi_4d", "qfi_eff", "qfi_conditioned",
               "i_suc", "i_fail", "i_subs", "i_4d", "i_eff")

_POPULATION = re.compile(r"population_\d+$")


@dataclass
class DatasetReport:
    """What one written dataset holds and which checks it failed."""

    sha256: str
    bytes: int
    rows: int = 0
    undefined: int = 0
    xi_bad: int = 0
    failures: Counter = field(default_factory=Counter)


def _value(text: str) -> float | None:
    return None if text == "undefined" else float(text)


def parse_dataset(data: bytes, fmt: str) -> list[tuple]:
    """Rows (tau, gamma, delta, quantity, value, scheme, probe); undefined is None.

    Raises ValueError on anything that is not the documented CSV or JSON form.
    """
    rows = []
    if fmt == "csv":
        lines = data.decode("utf-8").split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            raise ValueError("CSV header or final newline missing")
        for line in lines[1:-1]:
            parts = line.split(",", 7)  # a custom probe label holds commas
            if len(parts) != 8:
                raise ValueError(f"CSV row has {len(parts)} fields")
            tau, _, g, d, q, v, s, probe = parts
            rows.append((float(tau), float(g), float(d), q, _value(v), s, probe))
        return rows
    for item in json.loads(data):
        v = item["value"]
        rows.append((float(item["tau"]), float(item["gamma_ratio"]), float(item["delta_ratio"]),
                     item["quantity"], _value(v) if isinstance(v, str) else float(v),
                     item["scheme"], item["probe"]))
    return rows


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _on_tau_grid(tau: float, grid) -> bool:
    step = grid.tau_max / (grid.tau_steps - 1)
    i = round(tau / step)
    return 0 <= i < grid.tau_steps and abs(tau - i * step) <= 1e-12 * grid.tau_max


def _at_period(tau: float) -> bool:
    n = round(tau / (2.0 * math.pi))
    return n >= 1 and abs(tau - 2.0 * math.pi * n) <= 1e-9


def check_point(names: dict, tau: float, plus_y: bool, report: DatasetReport) -> None:
    """The invariants of one grid point's {quantity: value} rows."""
    fails = report.failures
    p_suc, p_fail = names.get("p_suc"), names.get("p_fail")
    if _finite(p_suc, p_fail) and abs(p_suc + p_fail - 1.0) > RATE_TOL:
        fails["p_suc+p_fail=1"] += 1
    pops = [v for k, v in names.items() if _POPULATION.match(k)]
    if pops and _finite(*pops):
        if any(not -POP_TOL <= v <= 1.0 + POP_TOL for v in pops) or abs(sum(pops) - 1.0) > POP_TOL:
            fails["populations"] += 1
    xi, zeta = names.get("xi"), names.get("zeta")
    if _finite(xi, zeta) and abs(zeta * zeta + xi - 1.0) > RATE_TOL:
        fails["zeta^2+xi=1"] += 1
    if xi is not None and (xi < XI_FLOOR or (plus_y and _at_period(tau) and abs(xi) > XI_PERIODIC_TOL)):
        report.xi_bad += 1
    if any(names.get(k) is not None and names[k] < 0.0 for k in NONNEGATIVE):
        fails["qfi>=0"] += 1
    parts = names.get("i_subs"), names.get("i_suc"), names.get("i_fail")
    if _finite(*parts) and not math.isclose(parts[0], parts[1] + parts[2], rel_tol=SUM_RTOL):
        fails["i_subs=i_suc+i_fail"] += 1


def check_dataset(data: bytes, fmt: str, grid) -> DatasetReport:
    """Parse one dataset and run every check on it against its grid."""
    report = DatasetReport(sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
    try:
        rows = parse_dataset(data, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        report.failures[f"parse: {exc}"] += 1
        return report
    report.rows = len(rows)
    report.undefined = sum(1 for r in rows if r[4] is None)

    points = defaultdict(dict)
    for tau, g, d, q, v, s, probe in rows:
        names = points[(g, d, tau, s)]
        if q in names:
            report.failures["duplicate row"] += 1
        names[q] = v
    if len(points) != grid.points():
        report.failures["grid points"] += 1
    for (g, d, tau, s), names in points.items():
        if (g not in grid.gamma_ratios or d not in grid.delta_ratios or s not in grid.schemes
                or not _on_tau_grid(tau, grid)):
            report.failures["off-grid point"] += 1
            continue
        expected = []
        for q in grid.quantities:
            undefined = f"{q}_undefined"
            expected += [undefined] if undefined in names else ROW_NAMES[(q, s)]
        if sorted(expected) != sorted(names):
            report.failures["rows per point"] += 1
        check_point(names, tau, grid.plus_y, report)
    return report


class DigestLog:
    """sha256 of every write of each dataset; a rewrite must be byte-identical."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}
        self.writes: Counter = Counter()
        self.mismatches: Counter = Counter()

    def record(self, name: str, sha256: str) -> bool:
        """Log one write; False when it differs from the first write of `name`."""
        self.writes[name] += 1
        same = self.first.setdefault(name, sha256) == sha256
        if not same:
            self.mismatches[name] += 1
        return same


# -- library-calls -----------------------------------------------------------

#: Generic Hermitian generator of the tangent used for the QFI-form check.
_GENERATOR = np.array([[0.2, 0.5 - 0.3j], [0.5 + 0.3j, -0.2]], dtype=complex)


def qfi_forms_agree(rho: np.ndarray, drho: np.ndarray, forms) -> bool | None:
    """True when every QFI form gives the same value; None below the eigenvalue gap."""
    eps = np.linalg.eigvalsh(rho)
    if np.min(np.diff(eps)) <= GAP_TOL:
        return None
    values = [form(rho, drho) for form in forms]
    return all(math.isclose(values[0], v, rel_tol=QFI_RTOL, abs_tol=QFI_ATOL) for v in values[1:])


def branch_tangent(rho: np.ndarray) -> np.ndarray:
    """d(rho)/d(theta) under exp(-i theta G): an exact tangent at any state."""
    return -1j * (_GENERATOR @ rho - rho @ _GENERATOR)


def check_request(out: dict, forms) -> Counter:
    """Invariants of whatever outputs one library request produced.

    `forms` are (qfi_sld, qfi_spectral, qfi_two_level); they are compared on
    the request's post-selected branch states.
    """
    fails = Counter()
    rho = out.get("rho")
    if rho is not None and not -POP_TOL <= rho.population <= 1.0 + POP_TOL:
        fails["populations"] += 1
    branches = out.get("branches")
    if branches is not None:
        if abs(branches.p_suc + branches.p_fail - 1.0) > RATE_TOL:
            fails["p_suc+p_fail=1"] += 1
        for state in (branches.rho_pt, branches.rho_a):
            if state is not None:
                m = state.matrix
                if qfi_forms_agree(m, branch_tangent(m), forms) is False:
                    fails["qfi forms agree"] += 1
    r1 = out.get("scheme1")
    if r1 is not None:
        if abs(r1.p_suc + r1.p_fail - 1.0) > RATE_TOL:
            fails["p_suc+p_fail=1"] += 1
        if min(r1.f_suc, r1.f_fail, r1.f_total, r1.i_suc, r1.i_fail, r1.i_total) < 0.0:
            fails["qfi>=0"] += 1
        if not math.isclose(r1.i_subs, r1.i_suc + r1.i_fail, rel_tol=SUM_RTOL):
            fails["i_subs=i_suc+i_fail"] += 1
    res = out.get("resources")
    if res is not None and _finite(res.xi, res.zeta) and abs(res.zeta ** 2 + res.xi - 1.0) > RATE_TOL:
        fails["zeta^2+xi=1"] += 1
    r2 = out.get("scheme2")
    if r2 is not None and min(r2.f_suc, r2.f_total, r2.i_total) < 0.0:
        fails["qfi>=0"] += 1
    return fails


def request_xi_bad(out: dict) -> bool:
    """Library points are off the tau = 2*pi*n grid, so only the floor applies."""
    res = out.get("resources")
    return res is not None and res.xi < XI_FLOOR


def request_digest(out: dict, error: str | None) -> str:
    """Every number a request returned, for the within-run determinism check."""
    parts = [error or ""]
    for key in ("rho", "branches", "scheme1", "resources", "scheme2"):
        value = out.get(key)
        if key == "rho" and value is not None:
            value = value.matrix.tobytes()
        elif key == "branches" and value is not None:
            value = (value.p_suc, value.p_fail, value.rho_pt.matrix.tobytes())
        elif value is not None:
            value = tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(value).values())
        parts.append(repr(value))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()
