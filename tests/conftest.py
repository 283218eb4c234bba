"""Shared fixtures and independent oracles.

The closed-form element formulas below are transcribed directly (scalar by
scalar) and deliberately do NOT reuse the package's propagator-based
evaluators, so each test compares two independent routes to the same value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest


def kappa(omega: float, gamma: float) -> float:
    return math.sqrt((omega - gamma) * (omega + gamma))


# -- two-level closed forms (probe (|1> + i|2>)/sqrt(2)); gamma < omega ------

def oracle_rho_pt(omega: float, gamma: float, t: float) -> np.ndarray:
    k = kappa(omega, gamma)
    c = 1.0 / (omega - gamma * math.cos(k * t))
    r11 = (1.0 + c * k * math.sin(k * t)) / 2.0
    r12 = 1.0j * c * (gamma - omega * math.cos(k * t)) / 2.0
    return np.array([[r11, r12], [np.conj(r12), 1.0 - r11]])


def oracle_drho_pt(omega: float, gamma: float, t: float) -> np.ndarray:
    """d(oracle_rho_pt)/d(omega) at fixed t, differentiated by hand (d kappa = omega/kappa)."""
    k = kappa(omega, gamma)
    th, d_th, d_k = k * t, omega * t / k, omega / k
    den = omega - gamma * math.cos(th)
    c = 1.0 / den
    d_c = -(1.0 + gamma * math.sin(th) * d_th) / den ** 2
    d11 = (d_c * k * math.sin(th) + c * d_k * math.sin(th) + c * k * math.cos(th) * d_th) / 2.0
    d12 = 1.0j * (d_c * (gamma - omega * math.cos(th)) + c * (-math.cos(th) + omega * math.sin(th) * d_th)) / 2.0
    return np.array([[d11, d12], [np.conj(d12), -d11]])


def oracle_rho_a(omega: float, gamma: float, t: float) -> np.ndarray:
    k = kappa(omega, gamma)
    c = 1.0 / (omega + gamma * math.cos(k * t))
    r11 = (1.0 + c * k * math.sin(k * t)) / 2.0
    r12 = -1.0j * c * (gamma + omega * math.cos(k * t)) / 2.0
    return np.array([[r11, r12], [np.conj(r12), 1.0 - r11]])


# -- enlarged-system closed forms (all 16 elements) ---------------------------

def oracle_rho_4d(omega: float, gamma: float, t: float) -> np.ndarray:
    w, g = omega, gamma
    k = kappa(w, g)
    ck, sk = math.cos(k * t), math.sin(k * t)
    m = np.empty((4, 4), dtype=complex)
    m[0, 0] = (w - g * ck + k * sk) / (4 * w)
    m[1, 1] = (w - g * ck - k * sk) / (4 * w)
    m[2, 2] = (w + g * ck + k * sk) / (4 * w)
    m[3, 3] = (w + g * ck - k * sk) / (4 * w)
    m[0, 1] = 1j * (g - w * ck) / (4 * w)
    m[0, 2] = (k + w * sk) / (4 * w)
    m[0, 3] = -1j * (k * ck + g * sk) / (4 * w)
    m[1, 2] = 1j * (k * ck - g * sk) / (4 * w)
    m[1, 3] = (k - w * sk) / (4 * w)
    m[2, 3] = -1j * (g + w * ck) / (4 * w)
    for i in range(4):
        for j in range(i):
            m[i, j] = np.conj(m[j, i])
    return m


def oracle_psi_4d(omega: float, gamma: float, t: float) -> np.ndarray:
    """Wave-function elements of the enlarged system (gamma < omega)."""
    w, g = omega, gamma
    k = kappa(w, g)
    c, s = math.cos(k * t / 2), math.sin(k * t / 2)
    cp = 1.0 / math.sqrt(4 * w * (w + g))
    cm = 1.0 / math.sqrt(4 * w * (w - g))
    return np.array([
        cp * (k * c + (w + g) * s),
        1j * cm * ((w - g) * c - k * s),
        cp * ((w + g) * c + k * s),
        1j * cm * (k * c - (w - g) * s),
    ])


# -- three-level closed forms -------------------------------------------------

def oracle_rho_3l(omega: float, gamma: float, t: float) -> np.ndarray:
    w, g = omega, gamma
    k = kappa(w, g)
    c3 = math.exp(-g * t) / (2 * (w - g))
    ck, sk = math.cos(k * t), math.sin(k * t)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = c3 * (w - g * ck + k * sk)
    m[1, 1] = c3 * (w - g * ck - k * sk)
    m[0, 1] = 1j * c3 * (g - w * ck)
    m[1, 0] = np.conj(m[0, 1])
    m[2, 2] = 1.0 - 2 * c3 * (w - g * ck)
    return m


def oracle_p_suc_eff(omega: float, gamma: float, t: float) -> float:
    k = kappa(omega, gamma)
    return math.exp(-gamma * t) * (omega - gamma * math.cos(k * t)) / (omega - gamma)


# -- analytic QFI of the post-selected branches -------------------------------
# Derivative of the closed-form Bloch angle of the (pure) branch states with
# respect to omega at fixed t; see test_metrology for the derivation check
# against finite differences.

def oracle_qfi_pt(omega: float, gamma: float, t: float) -> float:
    k = kappa(omega, gamma)
    th = k * t
    return ((omega * t - (gamma / k) * math.sin(th)) / (omega - gamma * math.cos(th))) ** 2


def oracle_qfi_a(omega: float, gamma: float, t: float) -> float:
    k = kappa(omega, gamma)
    th = k * t
    return ((omega * t + (gamma / k) * math.sin(th)) / (omega + gamma * math.cos(th))) ** 2


# -- random mixed states for QFI form agreement -------------------------------

def random_mixed_pair(rng: np.random.Generator, dim: int = 2):
    """Well-conditioned density matrix and a Hermitian traceless derivative."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    eigs = rng.uniform(0.1, 0.9, size=dim)
    eigs = eigs / eigs.sum()
    rho = q @ np.diag(eigs) @ q.conj().T
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    drho = b + b.conj().T
    drho -= np.trace(drho) * np.eye(dim) / dim
    return 0.5 * (rho + rho.conj().T), drho


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
