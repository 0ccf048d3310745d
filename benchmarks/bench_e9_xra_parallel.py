"""E9 — PRISMA/DB usage: XRA programs.

Paper artifacts: Section 1/5 — XRA "has been used as the primary
database language" of PRISMA/DB, and the language was "extended with
special operators to support parallel data processing".

The bench measures the full XRA path — parse + type + plan + run — for
a representative script, the same script with live telemetry accounting
on, and the same work through the Python API.  The difference is the
XRA front-end overhead; the expected shape is a small constant.

The parallel half of the paper's claim is a correctness property of
Theorems 3.2/3.3, checked by ``tests/test_fragmentation.py`` rather
than timed here.
"""

import pytest

from repro.language import Session
from repro.workloads import BeerWorkload
from repro.xra import XRAInterpreter

SCRIPT = """
? groupby[(country), AVG, alcperc](join[%2 = %4](beer, brewery));
? proj[%1](sel[%6 = 'Netherlands'](join[%2 = %4](beer, brewery)));
update(beer, sel[brewery = 'Brouwerij-0001'](beer), (%1, %2, %3 * 1.1));
"""


def fresh_database():
    return BeerWorkload(beers=8_000, breweries=150, seed=91).database()


@pytest.mark.benchmark(group="e9-xra")
def test_xra_script_end_to_end(benchmark):
    def run_script():
        database = fresh_database()
        interpreter = XRAInterpreter(database)
        return interpreter.run(SCRIPT)

    result = benchmark(run_script)
    assert result.committed
    assert len(result.outputs) == 2


@pytest.mark.benchmark(group="e9-xra")
def test_xra_script_telemetry_on(benchmark):
    """The same script with live telemetry accounting switched on.

    Metrics-only recording plus an active
    :class:`~repro.obs.telemetry.ResourceAccount` is exactly what every
    server request pays when ``--telemetry`` is configured (with no
    scraper attached).  ``tools/bench_diff.py`` compares this against
    ``test_xra_script_end_to_end`` and warns when the overhead exceeds
    its ``--telemetry-budget`` (default 3%).
    """
    from repro import obs
    from repro.obs.telemetry import ResourceAccount, activate

    obs.enable_metrics()
    try:

        def run_script():
            database = fresh_database()
            interpreter = XRAInterpreter(database)
            with activate(ResourceAccount()):
                return interpreter.run(SCRIPT)

        result = benchmark(run_script)
    finally:
        obs.reset()
    assert result.committed
    assert len(result.outputs) == 2


@pytest.mark.benchmark(group="e9-xra")
def test_equivalent_python_api(benchmark):
    def run_api():
        database = fresh_database()
        session = Session(database)
        beer = session.relation("beer")
        brewery = session.relation("brewery")
        first = session.query(
            beer.join(brewery, "%2 = %4").group_by(["%6"], "AVG", "%3")
        )
        second = session.query(
            beer.join(brewery, "%2 = %4")
            .select("%6 = 'Netherlands'")
            .project(["%1"])
        )
        session.update(
            "beer",
            beer.select("brewery = 'Brouwerij-0001'"),
            ["%1", "%2", "%3 * 1.1"],
        )
        return first, second

    first, second = benchmark(run_api)
    assert first and second
