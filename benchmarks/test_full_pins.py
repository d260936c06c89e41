"""Full-scale pins of the two fleet experiments.

``SCENARIOS[name].full`` runs an experiment at the size EXPERIMENTS.md
reports. Its payload must hash to the pin in the registry and carry no
violations. These two runs kill hosts, drain them and fail post-copy
migrations, so they cover the fleet's teardown and failover paths at
full scale; together they take about 4 s on a 2-vCPU box. The
megascale ``frontdoor-p99`` full run (minutes) is left to the perf
harness.
"""

import pytest

from repro.scenarios import PIN_SEED, SCENARIOS, fingerprint


@pytest.mark.parametrize("name", ["fleet-migration", "frontdoor-overload"])
def test_full_scale_run_hits_its_pin(name):
    full = SCENARIOS[name].full
    payload = full.runner(PIN_SEED)
    assert payload["violations"] == []
    assert fingerprint(payload) == full.pin
