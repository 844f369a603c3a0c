"""RQ1(c): GOLF on the production service for 24 hours.

Paper: 252 individual partial deadlocks over 24 h, narrowed to exactly 3
source locations (the Listing 7 ``SendEmail`` shape).  Scale: 4 virtual
hours with the leak cadence calibrated to the paper's rate
(~10.5 leaks per hour across the three endpoints).
"""

from benchmarks.conftest import emit
from repro.experiments import format_rq1c, run_rq1c
from repro.service.production import ProductionConfig

HOURS = 4.0


def test_rq1c_real_service_deployment():
    config = ProductionConfig(hours=HOURS, leak_every=3000, seed=2)
    result = run_rq1c(config)
    emit("rq1c", format_rq1c(result))

    assert result.distinct_sources == 3, "paper: 3 source locations"
    assert result.individual_reports > 0
    # Extrapolated to 24h, the rate lands near the paper's 252.
    assert 120 <= result.reports_per_24h() <= 500
