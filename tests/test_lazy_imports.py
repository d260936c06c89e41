"""The single-host clone path imports no fleet tier (PEP 562 re-exports)."""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Modules the clone path must not load.
TIERS = ("repro.fleet", "repro.frontdoor", "repro.experiments",
         "repro.faults.chaos")


def _loaded_after(statement: str) -> list[str]:
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return [name for name in json.loads(out)
            if name.startswith(TIERS)]


def test_platform_import_loads_no_fleet_tier():
    assert _loaded_after("import repro.platform") == []


def test_session_import_loads_no_fleet_tier():
    assert _loaded_after("from repro import NepheleSession") == []


def test_fleet_names_resolve_on_first_use():
    loaded = _loaded_after("from repro import FleetSession, NoCapacity")
    assert "repro.frontdoor.session" in loaded


def test_public_names_unchanged():
    assert set(repro.__all__) <= set(dir(repro))
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    from repro.frontdoor.session import FleetSession

    assert repro.FleetSession is FleetSession


def test_faults_chaos_names_resolve_lazily():
    import repro.faults
    from repro.faults.chaos import audit_platform

    assert repro.faults.audit_platform is audit_platform
    assert set(repro.faults.__all__) <= set(dir(repro.faults))
