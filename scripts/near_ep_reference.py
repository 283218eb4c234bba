"""Near-exceptional-point reference QFIs and susceptibilities in 60-digit arithmetic.

    python scripts/near_ep_reference.py          # rewrite tests/near_ep_reference.json

Evaluates, with mpmath and without ptsense, the QFIs that ptsense reports near
the EP: scheme 1's f_suc, f_fail and f_total (for |+>_y and one custom Bloch
probe), qfi_pt, and scheme 2's f_suc and f_total (|+>_y), on gamma/omega in
{1-1e-4, 1-1e-6} x tau in {0.5, 2, 2pi, 4pi} at omega = 1; and for |+>_y the
four susceptibilities of fig5 (pt, a, the enlarged pair and eff).  fig5's
near-EP column, gamma/omega = 1-1e-5 at tau in {2, 2pi, 4pi}, adds three
|+>_y points with every quantity.  "populations" holds, for |+>_y on
gamma/omega in {0.5, 1-1e-5} x tau in {2, 2pi, 4pi}, fig3's five lindblad
population rows (population_1..3 of the three-level state, population_eff_1 of
the effective state and population_artificial_1 of the amplified one) and the
two rows of population/pt.  Propagators are
mpmath matrix exponentials and omega-derivatives are fourth-order central
differences with step 1e-20, so the route shares no formula with the closed
forms it checks.  The inputs (gamma, t and the probe amplitudes) are the
doubles ptsense itself uses, converted exactly.  tests/test_near_ep_reference.py
reads only the committed numbers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp

OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "near_ep_reference.json"
DPS = 60
STEP = mp.mpf("1e-20")
GAMMA_RATIOS = (1.0 - 1e-4, 1.0 - 1e-6)
TAUS = (0.5, 2.0, 2.0 * math.pi, 4.0 * math.pi)
#: probe label -> (theta, phi) of cos(theta/2)|1> + e^{i phi} sin(theta/2)|2>; None is |+>_y.
PROBES = {"plus_y": None, "custom(1.1,0.7)": (1.1, 0.7)}
#: (gamma/omega, tau) of fig5's near-EP column, evaluated for |+>_y only.
FIG5_NEAR_EP = tuple((1.0 - 1e-5, tau) for tau in (2.0, 2.0 * math.pi, 4.0 * math.pi))
#: (gamma/omega, tau) of the population references: an interior and fig3's near-EP gamma.
POPULATION_POINTS = tuple((g, tau) for g in (0.5, 1.0 - 1e-5) for tau in (2.0, 2.0 * math.pi, 4.0 * math.pi))


def probe_amplitudes(angles) -> list[complex]:
    """The double-precision amplitudes ptsense builds for the probe."""
    if angles is None:
        return [1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)]
    theta, phi = angles
    return [complex(math.cos(theta / 2.0)), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)]


SX = mp.matrix([[0, 1], [1, 0]])
SY = mp.matrix([[0, -1j], [1j, 0]])
SZ = mp.matrix([[1, 0], [0, -1]])
I2 = mp.eye(2)


def kappa(w, g):
    return mp.sqrt(w * w - g * g)


def h_pt(w, g):
    return (w / 2) * SX + (1j * g / 2) * SZ


def eta(w, g):
    return (w * I2 + g * SY) / kappa(w, g)


def h_4d(w, g):
    """(kappa/2 omega) [[X, Y], [-Y, X]] with X = H eta^-1 + eta H and Y = H - H^dag."""
    h, e = h_pt(w, g), eta(w, g)
    x = h * mp.inverse(e) + e * h
    y = h - h.H
    f = kappa(w, g) / (2 * w)
    out = mp.matrix(4, 4)
    for i in range(2):
        for j in range(2):
            out[i, j] = out[i + 2, j + 2] = f * x[i, j]
            out[i, j + 2] = f * y[i, j]
            out[i + 2, j] = -f * y[i, j]
    return (out + out.H) / 2


def derivative(family, w):
    """Fourth-order central difference of a vector or scalar family at w."""
    f1, f2 = family(w + STEP) - family(w - STEP), family(w + 2 * STEP) - family(w - 2 * STEP)
    return (8 * f1 - f2) / (12 * STEP)


def population(family, i):
    """|u_i|^2/|u|^2 of a vector family u(w), as a family."""

    def of(w):
        u = family(w)
        return abs(u[i]) ** 2 / (u.H * u)[0].real

    return of


def qfi(family, w):
    """QFI of the normalized family v(w)/|v(w)|: 4(<dv|dv>/n - |<v|dv>|^2/n^2)."""
    v, dv = family(w), derivative(family, w)
    n = (v.H * v)[0].real
    return 4 * ((dv.H * dv)[0].real / n - abs((v.H * dv)[0]) ** 2 / (n * n))


def point(g: float, tau: float, label: str) -> dict:
    t_double = tau / math.sqrt(max((1.0 - g) * (1.0 + g), 0.0))  # PtParams.kappa at omega = 1
    w0, gm, t = mp.mpf(1), mp.mpf(g), mp.mpf(t_double)
    psi0 = mp.matrix([mp.mpc(a.real, a.imag) for a in probe_amplitudes(PROBES[label])])

    def pt(w):
        return mp.expm(-1j * t * h_pt(w, gm)) * psi0

    def fail(w):
        return eta(w, gm) * pt(w)

    raw4 = mp.matrix([psi0[0], psi0[1]] + list(eta(w0, gm) * psi0))  # frozen at omega0
    psi4 = raw4 / mp.sqrt((raw4.H * raw4)[0].real)

    def channel(w):
        return mp.expm(-1j * t * h_4d(w, gm)) * psi4

    f_suc = qfi(pt, w0)
    out = {"gamma_ratio": g, "tau": tau, "t": t_double, "probe": label,
           "f_suc": f_suc, "f_fail": qfi(fail, w0), "f_total": qfi(channel, w0), "qfi_pt": f_suc}
    if label == "plus_y":
        def p_suc(w):
            v = pt(w)
            return mp.exp(-gm * t) * (v.H * v)[0].real

        p, dp = p_suc(w0), (8 * (p_suc(w0 + STEP) - p_suc(w0 - STEP))
                             - (p_suc(w0 + 2 * STEP) - p_suc(w0 - 2 * STEP))) / (12 * STEP)
        out.update(scheme2_p_suc=p, scheme2_f_suc=f_suc, scheme2_f_total=dp * dp / (p * (1 - p)) + p * f_suc)

        def enlarged(w):  # (v, eta v), the physical enlarged family that evolve_enlarged normalizes
            return mp.matrix(list(pt(w)) + list(fail(w)))

        out.update(
            susceptibility_pt=derivative(population(pt, 0), w0),
            susceptibility_a=derivative(population(fail, 0), w0),
            susceptibility_4d_pt=derivative(population(enlarged, 0), w0),
            susceptibility_4d_a=derivative(population(enlarged, 2), w0),
            susceptibility_eff=derivative(lambda w: mp.exp(-gm * t) * abs(pt(w)[0]) ** 2, w0),
        )
    return {k: (mp.nstr(v, 20) if isinstance(v, mp.mpf) else v) for k, v in out.items()}


def populations(g: float, tau: float) -> dict:
    """The lindblad and pt population rows at one point, probe |+>_y, omega = 1."""
    t_double = tau / math.sqrt(max((1.0 - g) * (1.0 + g), 0.0))
    gm, t = mp.mpf(g), mp.mpf(t_double)
    psi0 = mp.matrix([mp.mpc(a.real, a.imag) for a in probe_amplitudes(None)])
    v = mp.expm(-1j * t * h_pt(mp.mpf(1), gm)) * psi0
    norm2 = abs(v[0]) ** 2 + abs(v[1]) ** 2
    decay = mp.exp(-gm * t)  # |phi_i|^2 = e^{-gamma t} |v_i|^2
    out = {"gamma_ratio": g, "tau": tau, "t": t_double, "probe": "plus_y",
           "population_1": decay * abs(v[0]) ** 2, "population_2": decay * abs(v[1]) ** 2,
           "population_3": 1 - decay * norm2, "population_eff_1": decay * abs(v[0]) ** 2,
           "population_artificial_1": abs(v[0]) ** 2,
           "pt_population_1": abs(v[0]) ** 2 / norm2, "pt_population_2": abs(v[1]) ** 2 / norm2}
    return {k: (mp.nstr(v, 20) if isinstance(v, mp.mpf) else v) for k, v in out.items()}


def main() -> None:
    mp.mp.dps = DPS
    points = [point(g, tau, label) for g in GAMMA_RATIOS for tau in TAUS for label in PROBES]
    points += [point(g, tau, "plus_y") for g, tau in FIG5_NEAR_EP]
    rows = [populations(g, tau) for g, tau in POPULATION_POINTS]
    OUTPUT.write_text(json.dumps({"dps": DPS, "points": points, "populations": rows}, indent=1) + "\n")
    print(f"wrote {OUTPUT} ({len(points)} points, {len(rows)} population points)")


if __name__ == "__main__":
    main()
