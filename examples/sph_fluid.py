"""SPH fluid density loop on RTNN range search.

Smoothed-particle hydrodynamics is the motivating workload for
cuNSearch (the SPlisHSPlasH fluid simulator): every timestep, each
particle needs all neighbors within the smoothing length ``h`` to
evaluate the density kernel. This example runs a miniature dam-break —
a block of particles collapsing under gravity in a box — where the
neighbor lists come from RTNN's fixed-radius search each step. The
acceleration structures a held ``SearchSession`` caches are *refitted*
between frames (``session.update_points``) and rebuilt only when the
tree quality decays, exactly how per-frame engines amortize
construction; density follows the standard poly6 kernel.

Run:  python examples/sph_fluid.py
"""

import numpy as np

from repro import SearchSession

# --- simulation parameters -----------------------------------------------
N_SIDE = 12                 # particles per block edge (12^3 = 1728)
H = 0.08                    # smoothing length (= search radius)
DT = 0.004
STEPS = 10
MASS = 1.0
REST_DENSITY = 1200.0
STIFFNESS = 60.0
GRAVITY = np.array([0.0, 0.0, -9.81])
MAX_NEIGHBORS = 64

POLY6 = 315.0 / (64.0 * np.pi * H**9)


def poly6(d2):
    """The SPH poly6 density kernel, vectorized over squared distances."""
    w = np.clip(H * H - d2, 0.0, None)
    return POLY6 * w**3


def main():
    # A block of fluid in the corner of the unit box.
    grid = np.linspace(0.05, 0.05 + (N_SIDE - 1) * H * 0.6, N_SIDE)
    x, y, z = np.meshgrid(grid, grid, grid + 0.3, indexing="ij")
    pos = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    vel = np.zeros_like(pos)
    n = len(pos)
    print(f"simulating {n} particles, h={H}, {STEPS} steps")

    total_modeled = 0.0
    session = SearchSession(pos)
    for step in range(STEPS):
        # Neighbor search: the per-step hot loop SPH engines optimize.
        # The refit cost is charged to this search's bvh category,
        # beside any rebuild the tree-quality watchdog triggered.
        refit_s = session.update_points(pos)
        res = session.range_search(pos, radius=H, k=MAX_NEIGHBORS)
        total_modeled += res.report.modeled_time

        # Density via the poly6 kernel over the neighbor lists. Padding
        # slots are set to d2 = h^2 where the kernel vanishes.
        valid = res.indices >= 0
        d2 = np.where(valid, res.sq_distances, H * H)
        density = MASS * poly6(d2).sum(axis=1)
        density += MASS * poly6(np.zeros(n))  # self-contribution

        # Simple state equation + symmetric pressure push.
        pressure = STIFFNESS * np.clip(density / REST_DENSITY - 1.0, 0.0, None)
        force = np.zeros_like(pos)
        rows = np.repeat(np.arange(n), valid.sum(axis=1))
        cols = res.indices[valid]
        diff = pos[rows] - pos[cols]
        dist = np.linalg.norm(diff, axis=1)
        push = (pressure[rows] + pressure[cols])[:, None] * diff
        push /= np.maximum(dist, 1e-6)[:, None]
        np.add.at(force, rows, push)

        vel += (force / np.maximum(density, 1e-9)[:, None] + GRAVITY) * DT
        # A new array: the session holds the last one it was given.
        pos = pos + vel * DT
        # Box walls: clamp + damp.
        for axis in range(3):
            low = pos[:, axis] < 0.0
            high = pos[:, axis] > 1.0
            pos[low, axis] = 0.0
            pos[high, axis] = 1.0
            vel[low | high, axis] *= -0.3

        print(
            f"step {step:2d}: mean density {density.mean():8.1f}, "
            f"mean |v| {np.linalg.norm(vel, axis=1).mean():6.3f}, "
            f"search {res.report.modeled_time * 1e3:.3f} modeled ms, "
            f"refit {refit_s * 1e6:.2f} us, "
            f"{res.report.n_bvh_builds} BVH builds"
        )

    print(f"\ntotal modeled neighbor-search time: {total_modeled * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
