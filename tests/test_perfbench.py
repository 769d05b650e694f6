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


# its first two attempts each end at a zero divisor in stage 3
TWO_RESTARTS = "-1 2 2 -1 0\n2 1 2 -2 2\n-2 1 0 2 -1\n-1 1 2 2 1\n1 -1 -1 -1 2\n"
# no plan clears a zero interior; reals fall back to elimination_det, as
# exact rings do, so only --method bareiss reaches the bareiss_det hook
REAL_FALLS_BACK = "0.0 0.0 0.0\n0.0 0.0 0.0\n0.0 0.0 0.0\n"


def test_traced_requests(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    (tmp_path / "two_restarts.txt").write_text(TWO_RESTARTS)
    (tmp_path / "real_falls_back.txt").write_text(REAL_FALLS_BACK)
    tracer = Tracer(seed=1)
    tracer.install()
    try:
        idx = tracer.begin_request("restart4")
        code = main(["det", str(FIXTURES / "restart4.txt")])
        tracer.end_request(idx, code)
        assert code == 0
        assert tracer.counts["mitigate.restarts"] == 1

        idx = tracer.begin_request("two_restarts")
        code = main(["det", str(tmp_path / "two_restarts.txt")])
        tracer.end_request(idx, code)
        assert code == 0
        assert tracer.counts["mitigate.restarts"] == 1 + 2  # counts add up over requests

        idx = tracer.begin_request("falls_back")
        # two additive repairs end at zero divisors, and the second takes
        # the work of failed attempts past two clean runs: one restart
        # between the two mitigation calls, then the fallback
        code = main(["det", str(FIXTURES / "falls_back4.txt")])
        tracer.end_request(idx, code)
        assert code == 0
        assert tracer.counts["mitigate.restarts"] == 1 + 2 + 1
        assert tracer.counts["condense.fallbacks"] == 1

        idx = tracer.begin_request("real_falls_back")
        code = main(["det", str(tmp_path / "real_falls_back.txt")])
        tracer.end_request(idx, code)
        assert code == 0
        assert tracer.counts["condense.fallbacks"] == 2

        idx = tracer.begin_request("bareiss")
        code = main(["det", str(tmp_path / "real_falls_back.txt"), "--method", "bareiss"])
        tracer.end_request(idx, code)
        assert code == 0

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
    assert "oracle.bareiss_det" in names
    assert set(tracer.replays) == {"restart4", "two_restarts", "allyl"}
    tracer.micro()  # raises if a stage replay disagrees
