"""Randomized sweep of the Helmholtz verifier's contracts.

Each draw is a 1-D Helmholtz problem: n in [5, 400) with h = 1/n, omega
log-uniform in [0.5, 80], either boundary, 1 to 6 receivers at distinct
rows, any covariance kind for each weight, and m = 0.25 (1 + 0.2 U(-1, 1)).
The contract is a correct number or a package error: a draw may raise an
``XfwiError``, but a value it returns must lie within its bound. Each draw
also runs a stack of 2 to 5 perturbations of its medium through the reduced
pass, whose blocks must be the media's own passes bit for bit, and checks
``phi_reduced`` after ``grad_phi`` bit for bit against a fresh ``Problem``.

The module runs at one BLAS thread: its dense weights of order up to 399
otherwise keep idle OpenBLAS threads spinning, for 3-4 times the CPU time.
"""

import ctypes
import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import joint_state
from xfwi import (
    HelmholtzModel1D,
    XfwiError,
    grad_phi,
    helmholtz_problem,
    phi_reduced,
    verify_equivalence,
)
from xfwi.cli import COVARIANCE_KINDS, random_covariance
from xfwi.formulations import _reduced


def openblas_thread_controls():
    """``(get, set)`` thread-count functions of each loaded OpenBLAS.

    numpy and scipy each load their own library; both are found in the
    process's memory map by file name, as ``bench/child.py`` finds them.
    """
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


@pytest.fixture(scope="module", autouse=True)
def one_blas_thread():
    controls = openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    yield
    for (_, put), count in zip(controls, previous):
        put(count)


@st.composite
def helmholtz_draws(draw):
    n = draw(st.integers(5, 399))
    omega = float(np.exp(draw(st.floats(np.log(0.5), np.log(80.0)))))
    boundary = draw(st.sampled_from(["dirichlet", "sommerfeld"]))
    receivers = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
    kind_m, kind_p = (draw(st.sampled_from(COVARIANCE_KINDS)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = HelmholtzModel1D(n=n, h=1.0 / n, omega=omega, boundary=boundary)
    m = 0.25 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, n))
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = len(receivers)
    d = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    sigma_m = random_covariance(kind_m, k, 1.0, rng)
    sigma_p = random_covariance(kind_p, n, 1.0, rng)
    stack = m * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, (int(rng.integers(2, 6)), n)))
    return helmholtz_problem(model, receivers, q, d, sigma_m, sigma_p), m, stack


def reduced_bytes(prob, media):
    """Value, residual and weighted residual of each block of ``media``'s pass, as bytes."""
    reports = _reduced(prob, prob.A_builder(media), len(media) if media.ndim == 2 else 1)[0]
    return [[rep.value.hex(), rep.residual.tobytes(), rep.weighted_residual.tobytes()]
            for rep in reports]


def own_passes(prob, stack):
    """Each medium's own one-block pass as bytes, or None where it raises."""
    passes = []
    for medium in stack:
        try:
            passes += reduced_bytes(prob, medium)
        except XfwiError:
            passes.append(None)
    return passes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(draw=helmholtz_draws())
def test_reduced_side_matches_the_joint_side(draw):
    prob, m, stack = draw
    own = own_passes(prob, stack)
    try:
        assert reduced_bytes(prob, stack) == own
    except XfwiError:
        assert None in own  # a stack fails only where one of its media does
    try:
        rel_gap = verify_equivalence(prob, m).rel_gap
        g = grad_phi(prob, m)
        kept = phi_reduced(prob, m)  # from the pass that grad_phi reused
        lam, _, u = joint_state(prob, m)
    except XfwiError as exc:
        event(f"raised {type(exc).__name__}")
        return
    fresh = phi_reduced(dataclasses.replace(prob), m)  # a Problem that keeps nothing
    assert [kept.value.hex(), kept.residual.tobytes(), kept.weighted_residual.tobytes()] == [
        fresh.value.hex(), fresh.residual.tobytes(), fresh.weighted_residual.tobytes()]
    assert rel_gap <= 1e-9
    # the joint objective is stationary in u, so its gradient is the envelope
    # -2 Re <lam, (dA/dm_k) u> at the joint optimum
    envelope = -2.0 * prob.dA_contract(lam, u)
    assert np.max(np.abs(envelope - g)) <= 1e-9 * np.max(np.abs(g))
