"""Shared fixtures: the reference scattering problem, random-context and
random-grating draws."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import strategies as st

from gratpml import (
    GratingProfile,
    Mesh,
    ResonanceError,
    build_mode_table,
    calibrate,
    derive_context,
    flat_profile,
    generate_initial,
    sharp_profile,
)
from gratpml.meshing import bisect

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

# Compressional wave at 30 degrees on a unit-period grating; the setting of
# configs/flat.cfg and configs/sharp.cfg.
REFERENCE = dict(
    omega=2.0 * np.pi,
    lam=1.0,
    mu=2.0,
    theta=np.pi / 6.0,
    period=1.0,
    gamma_height=1.0,
)


@pytest.fixture(scope="session")
def ctx1():
    return derive_context(**REFERENCE)


@pytest.fixture(scope="session")
def modes1(ctx1):
    return build_mode_table(ctx1, 20)


@pytest.fixture(scope="session")
def profile1(ctx1, modes1):
    return calibrate(ctx1, modes1)


@pytest.fixture(scope="session")
def flat_mesh1(ctx1, profile1):
    return generate_initial(flat_profile(ctx1.period), ctx1, profile1, h0=0.25)


@pytest.fixture(scope="session")
def refined_mesh(ctx1, profile1):
    """A sharp mesh bisected three times: midpoint nodes out of spatial
    order, slaves, Dirichlet corners and layer elements."""
    mesh = generate_initial(sharp_profile(1.0), ctx1, profile1, h0=0.25)
    for step in range(3):
        mesh, _ = bisect(mesh, np.arange(step, mesh.n_tris, 7))
    return mesh


def rebuilt(mesh, nodes=None, keep=None):
    """New mesh from ``mesh`` with other node coordinates or fewer triangles.

    ``keep`` selects the triangles that remain (boolean mask or indices).
    Everything a mesh derives is derived afresh from the result.
    """
    nodes = mesh.nodes if nodes is None else nodes
    keep = slice(None) if keep is None else keep
    return Mesh(
        nodes, mesh.tris[keep], mesh.ref_edge[keep], mesh.period, mesh.b, mesh.top
    )


def draw_context(
    rng: np.random.Generator, n_max: int = 50, period: float | None = None
):
    """One random admissible wave context (resonant draws are rejected).

    A given ``period`` replaces the drawn one; the random stream is the same
    either way.
    """
    while True:
        omega = rng.uniform(0.5, 8.0)
        mu = rng.uniform(0.3, 4.0)
        lam = rng.uniform(-0.9 * mu, 4.0)
        theta = rng.uniform(-1.3, 1.3)
        drawn_period = rng.uniform(0.4, 3.0)
        try:
            ctx = derive_context(
                omega=omega,
                lam=lam,
                mu=mu,
                theta=theta,
                period=drawn_period if period is None else period,
                gamma_height=1.0,
            )
            build_mode_table(ctx, n_max)
        except ResonanceError:
            continue
        return ctx


@st.composite
def gratings(draw, period: float = 1.0):
    """Admissible profiles on one period: 3-6 vertices on a grid of
    period/20 in x, heights in [-0.3, 0.55] (below 0.6 b for b = 1),
    periodic closure."""
    k = draw(st.integers(3, 6))
    inner = draw(st.lists(st.integers(1, 19), min_size=k - 2, max_size=k - 2,
                          unique=True))
    heights = draw(st.lists(st.integers(-6, 11), min_size=k - 1, max_size=k - 1))
    x = [0.0] + sorted(i / 20 for i in inner) + [1.0]
    y = [h / 20 for h in heights] + [heights[0] / 20]
    return GratingProfile(np.column_stack([np.multiply(x, period), y]))
