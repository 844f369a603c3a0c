"""Figure 1: blocked goroutines over time in a leaking service.

Paper: weekday redeployments hide the leak; the count spikes over
weekends and holidays.  We run 21 virtual days with a two-day holiday and
check the sawtooth: weekend/holiday peaks far above the post-redeploy
weekday levels, and a flat profile once GOLF reclaims the leaks.
"""

from benchmarks.conftest import emit
from repro.experiments import format_figure1, run_figure1
from repro.service.longrun import LongRunConfig


def test_figure1_leak_sawtooth():
    config = LongRunConfig(days=21, requests_per_hour=120, leak_every=6,
                           procs=4, seed=3)
    result = run_figure1(config, include_golf=True)
    emit("figure1", format_figure1(result))

    base = result.baseline
    assert base.weekend_peak() > 3 * base.weekday_evening_mean()
    assert base.peak() > 200
    assert len(base.redeploys) >= 10
    # GOLF flattens the curve by more than an order of magnitude.
    assert result.golf.peak() < base.peak() / 10
