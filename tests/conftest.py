"""Shared fixtures: the reference scattering problem and random-context draws."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from gratpml import (
    Mesh,
    ResonanceError,
    build_mode_table,
    calibrate,
    derive_context,
    flat_profile,
    generate_initial,
)

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


def draw_context(rng: np.random.Generator, n_max: int = 50):
    """One random admissible wave context (resonant draws are rejected)."""
    while True:
        omega = rng.uniform(0.5, 8.0)
        mu = rng.uniform(0.3, 4.0)
        lam = rng.uniform(-0.9 * mu, 4.0)
        theta = rng.uniform(-1.3, 1.3)
        period = rng.uniform(0.4, 3.0)
        try:
            ctx = derive_context(
                omega=omega,
                lam=lam,
                mu=mu,
                theta=theta,
                period=period,
                gamma_height=1.0,
            )
            build_mode_table(ctx, n_max)
        except ResonanceError:
            continue
        return ctx
