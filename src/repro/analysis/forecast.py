"""Leak-rate estimation and OOM forecasting from blocked-goroutine series.

Input: the hourly ``(hour, blocked_goroutines)`` series produced by
:func:`repro.service.longrun.run_longrun` (or any monitoring pipeline
with the same shape) plus the redeploy marks.  Output:

- per-deployment-window leak rates (the closed-form least-squares
  slope);
- a consolidated :class:`LeakForecast`: the steady leak rate, whether
  the service is leaking at all, and the projected time until the
  blocked-goroutine population crosses a capacity threshold — the
  "out-of-memory exceptions and system crashes" trajectory the paper's
  introduction describes.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

#: Minimum per-hour slope, the median across deployment windows, for a
#: service to count as leaking: filters noise from transient request
#: backlogs.
LEAK_RATE_FLOOR = 0.5


class DeployWindow:
    """One deployment's samples and fitted leak rate."""

    __slots__ = ("start_hour", "end_hour", "samples", "rate_per_hour",
                 "intercept")

    def __init__(self, start_hour: int, end_hour: int,
                 samples: List[Tuple[int, int]]):
        self.start_hour = start_hour
        self.end_hour = end_hour
        self.samples = samples
        self.rate_per_hour = 0.0
        self.intercept = 0.0
        self._fit()

    def _fit(self) -> None:
        if len(self.samples) < 2:
            return
        start = self.samples[0][0]
        hours = [float(h - start) for h, _ in self.samples]
        counts = [float(c) for _, c in self.samples]
        mean_h = sum(hours) / len(hours)
        mean_c = sum(counts) / len(counts)
        sxx = sum((h - mean_h) ** 2 for h in hours)
        sxy = sum((h - mean_h) * (c - mean_c)
                  for h, c in zip(hours, counts))
        slope = sxy / sxx if sxx else 0.0
        self.rate_per_hour = slope
        self.intercept = mean_c - slope * mean_h

    def __repr__(self) -> str:
        return (
            f"<window {self.start_hour}..{self.end_hour}h "
            f"rate={self.rate_per_hour:.2f}/h>"
        )


class LeakForecast:
    """The consolidated verdict over all windows."""

    __slots__ = ("windows", "rate_per_hour", "rate_stddev", "leaking",
                 "hours_to_threshold", "threshold")

    def __init__(self, windows: List[DeployWindow],
                 rate_per_hour: float, rate_stddev: float,
                 leaking: bool, hours_to_threshold: Optional[float],
                 threshold: int):
        self.windows = windows
        self.rate_per_hour = rate_per_hour
        self.rate_stddev = rate_stddev
        self.leaking = leaking
        self.hours_to_threshold = hours_to_threshold
        self.threshold = threshold

    def format(self) -> str:
        lines = [
            f"deploy windows analyzed: {len(self.windows)}",
            f"steady leak rate: {self.rate_per_hour:.2f} ± "
            f"{self.rate_stddev:.2f} blocked goroutines/hour",
        ]
        if not self.leaking:
            lines.append("verdict: not leaking")
        elif self.hours_to_threshold is None:
            lines.append("verdict: leaking (threshold never crossed "
                         "within a deploy window)")
        else:
            lines.append(
                f"verdict: LEAKING — {self.threshold} blocked goroutines "
                f"reached ~{self.hours_to_threshold:.0f}h after a deploy"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<forecast rate={self.rate_per_hour:.2f}/h "
            f"leaking={self.leaking}>"
        )


def split_deploy_windows(
    series: Sequence[Tuple[int, int]],
    redeploys: Sequence[int],
) -> List[DeployWindow]:
    """Cut the series at each redeploy hour."""
    boundaries = sorted(set(redeploys))
    windows: List[DeployWindow] = []
    start = series[0][0] if series else 0
    remaining = list(series)
    for boundary in boundaries + [
            (series[-1][0] + 1) if series else 0]:
        chunk = [(h, c) for h, c in remaining if start <= h < boundary]
        if len(chunk) >= 2:
            windows.append(DeployWindow(start, boundary, chunk))
        start = boundary
    return windows


def forecast_series(
    series: Sequence[Tuple[int, int]],
    redeploys: Sequence[int] = (),
    threshold: int = 10_000,
) -> LeakForecast:
    """Analyze a blocked-goroutine series for leak behavior.

    Args:
        series: ``(hour, count)`` samples.
        redeploys: hours at which the process restarted (counts reset).
        threshold: the blocked-goroutine population treated as the
            OOM/capacity ceiling for the forecast.
    """
    if not series:
        raise ValueError("empty series")
    windows = (split_deploy_windows(series, redeploys)
               if redeploys else [DeployWindow(
                   series[0][0], series[-1][0] + 1, list(series))])
    rates = [w.rate_per_hour for w in windows] or [0.0]
    rate = statistics.median(rates)
    stddev = statistics.pstdev(rates)
    leaking = rate >= LEAK_RATE_FLOOR

    hours_to_threshold: Optional[float] = None
    if leaking and rate > 0:
        hours_to_threshold = threshold / rate
    return LeakForecast(windows, rate, stddev, leaking,
                        hours_to_threshold, threshold)
