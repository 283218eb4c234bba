"""Matrix-algebra core: the closed-form propagators against the Taylor
reference exponential of tests/oracles.py, that reference itself, and the
cos/sinc kernel against np.cos and np.sinc bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expm
from ptsense import PtParams, hamiltonian_pt, propagator_pt
from ptsense.linalg import _EYE, _cos_sinc, su2_like_pair, su2_like_propagator
from ptsense.lindblad import liouvillian_matrix


def test_expm_zero_matrix_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    out = expm(np.diag([0.3 + 0.1j, -1.2]), 1.0)
    expected = np.diag(np.exp([0.3 + 0.1j, -1.2]))
    assert np.max(np.abs(out - expected)) < 1e-14


def test_expm_matches_analytic_su2_form():
    p = PtParams(omega=1.0, gamma=0.6)
    t = np.pi / 1.6
    general = expm(hamiltonian_pt(p), scale=-1j * t)
    assert np.max(np.abs(general - propagator_pt(p, t))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_expm_inverse_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    norm = np.linalg.norm(m)
    if norm > 5.0:
        m *= 5.0 / norm
    product = expm(m) @ expm(m, scale=-1.0)
    assert np.max(np.abs(product - np.eye(dim))) < 1e-10


def test_su2_half_rabi_period():
    h = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)  # (omega/2) sigma_x, omega=1
    out = su2_like_propagator(h, 0.25, np.pi)
    assert np.max(np.abs(out - (-1j) * np.array([[0, 1], [1, 0]]))) < 1e-14


def test_su2_exceptional_point_limit():
    # at gamma = omega the propagator is exactly I - i t H (H^2 = 0)
    p = PtParams(omega=1.0, gamma=1.0)
    h = hamiltonian_pt(p)
    out = propagator_pt(p, 2.0)
    expected = np.eye(2) - 2j * h
    assert np.max(np.abs(out - expected)) < 1e-14
    general = expm(h, scale=-2j)
    assert np.max(np.abs(out - general)) < 1e-12


def test_su2_generic_cos_sin_form():
    p = PtParams(omega=1.0, gamma=0.6)
    t = np.pi / 1.6  # kappa t / 2 = pi/4
    out = propagator_pt(p, t)
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    expected = c * np.eye(2) - 1j * (2.0 / 0.8) * s * hamiltonian_pt(p)
    assert np.max(np.abs(out - expected)) < 1e-14


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.6, 0.9, 1.0 - 1e-6])
def test_su2_matches_general_expm_over_grid(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    h = hamiltonian_pt(p)
    for t in np.linspace(0.0, 8 * np.pi, 17):
        assert np.max(np.abs(propagator_pt(p, t) - expm(h, scale=-1j * t))) <= 1e-10


def test_eig_liouvillian_spot_values():
    _, values = liouvillian_matrix(PtParams(omega=1.0, gamma=0.6))
    got = sorted(values, key=lambda z: (round(z.imag, 9), round(z.real, 9)))
    expected = [-0.6 - 0.8j, -0.6, -0.6, -0.6 + 0.8j]
    assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-10


def test_dagger_is_involutive():
    from ptsense import dagger

    m = np.array([[1 + 2j, 3 - 1j], [0.5j, -2.0]])
    assert np.array_equal(dagger(dagger(m)), m)


#: Zero, the smallest subnormal, a tiny normal, the 1e-2 switch of sinc_slope's series, a large
#: phase and 0.1, whose round trip pi * (0.1 / pi) is not 0.1; each with its negative.
PHASES = [0.0, 5e-324, 1e-300, 1e-2, 1e3, 0.1, 2.0, np.pi]
PHASES += [-x for x in PHASES]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("phase", PHASES)
def test_cos_sinc_equals_numpy_on_scalars(phase):
    for x in (phase, np.float64(phase)):
        cos, sinc = _cos_sinc(x)
        assert type(cos) is type(np.cos(x)) and type(sinc) is type(np.sinc(x / np.pi))
        assert _bits(cos) == _bits(np.cos(x))
        assert _bits(sinc) == _bits(np.sinc(x / np.pi))


def test_cos_sinc_equals_numpy_on_arrays():
    rng = np.random.default_rng(5)
    for x in (np.array(PHASES), rng.uniform(-50.0, 50.0, 1000), np.array([0.0]), np.array([])):
        cos, sinc = _cos_sinc(x)
        assert cos.shape == sinc.shape == x.shape
        assert _bits(cos) == _bits(np.cos(x))
        assert _bits(sinc) == _bits(np.sinc(x / np.pi))
    assert np.pi * (0.1 / np.pi) != 0.1  # why the round trip is kept: sinc reads the round-tripped phase


def test_cos_sinc_is_nan_at_infinity():
    with np.errstate(invalid="ignore"):
        for x in (np.inf, -np.inf):
            assert all(np.isnan(v) for v in _cos_sinc(x))
            assert np.isnan(np.cos(x)) and np.isnan(np.sinc(x / np.pi))
            assert np.isnan(_cos_sinc(np.array([x, 1.0]))[1][0])


def test_identities_are_read_only_and_propagators_keep_their_values():
    for n, eye in _EYE.items():
        assert np.array_equal(eye, np.eye(n)) and not eye.flags.writeable
    h = hamiltonian_pt(PtParams(omega=1.0, gamma=0.6))
    t = np.array([0.0, 0.5, 3.0, 40.0])
    u, du = su2_like_pair(h, 0.5 * np.eye(2)[::-1], 0.16, 0.5, t)
    phase = 0.4 * t
    cos, sinc = np.cos(phase)[:, None, None], np.sinc(phase / np.pi)[:, None, None]
    assert np.array_equal(u, cos * np.eye(2) - 1j * t[:, None, None] * sinc * h)
    assert np.array_equal(su2_like_propagator(h, 0.16, t), u)
