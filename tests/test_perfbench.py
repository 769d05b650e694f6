"""Smoke test of the benchmark's traced mode against the current package.

``perfbench/tracing.py`` rebinds module-level names of ``exactdet`` and
replays condensation stages from the recorded mitigation logs; this checks
that those names and that replay still fit the package.  No timings are
asserted.
"""

import pathlib

from exactdet.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def test_traced_requests(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    tracer = Tracer(seed=1)
    tracer.install()
    try:
        idx = tracer.begin_request("restart4")
        code = main(["det", str(FIXTURES / "restart4.txt")])
        tracer.end_request(idx, code)
        assert code == 0
        assert tracer.counts["mitigate.restarts"] == 1

        idx = tracer.begin_request("allyl")
        code = main(["huckel", "--edges", str(FIXTURES / "allyl.edges"),
                     "--alpha", "-1", "--beta", "-1"])
        tracer.end_request(idx, code)
        assert code == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    names = {span[0] for span in tracer.spans}
    assert "condense.mitigate_interior_zeros" in names
    assert "huckel.energy_levels" in names
    assert len(tracer.replays) == 2
    tracer.micro()  # raises if a stage replay disagrees
