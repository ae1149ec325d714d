"""Figure 6: the cost of introducing Snowflake authorization to RMI.

Paper bars (270 MHz Ultra 5, ms): basic RMI 4.8, RMI+ssh 13, RMI+Sf 18.
Section 7.2 text: ~470 ms to establish a new Snowflake-authorized RMI
connection (the client's delegation signature plus server proof
processing); 190 ms for the server to parse and verify a fresh proof.

Each benchmark measures the *real* wall-clock of this implementation; the
assertions compare the *simulated* totals — charged by the same code paths
that did the work — against the paper's numbers.
"""

import pytest

from benchmarks._scenarios import rmi_world, span
from repro.sim.metrics import BarChart, ComparisonTable, shape_preserved
from repro.sim.regression import linear_regression

PAPER = {"basic": 4.8, "ssh": 13.0, "sf": 18.0, "new_conn": 470.0, "verify": 190.0}


def test_basic_rmi_call(benchmark, keypool, rng):
    call, meter, _ = rmi_world(keypool, rng, mode="basic")
    call()
    benchmark(call)
    assert span(meter, call) == pytest.approx(PAPER["basic"], rel=0.05)


def test_rmi_over_ssh(benchmark, keypool, rng):
    call, meter, _ = rmi_world(keypool, rng, mode="ssh")
    call()
    benchmark(call)
    assert span(meter, call) == pytest.approx(PAPER["ssh"], rel=0.05)


def test_rmi_with_snowflake_warm(benchmark, keypool, rng):
    call, meter, _ = rmi_world(keypool, rng, mode="sf")
    call()  # authorize once; steady state follows
    benchmark(call)
    assert span(meter, call) == pytest.approx(PAPER["sf"], rel=0.05)


def test_new_snowflake_connection_cost(benchmark, keypool, rng):
    """The 470 ms figure, as the first-call-minus-warm-call delta over a
    fresh channel the client must delegate to."""

    def cold_authorization():
        call, meter, extras = rmi_world(keypool, rng, mode="sf")
        first = span(meter, call)
        warm = span(meter, call)
        return first - warm

    delta = benchmark.pedantic(cold_authorization, iterations=1, rounds=3)
    assert delta == pytest.approx(PAPER["new_conn"], rel=0.15)


def test_server_proof_verification_cost(benchmark, keypool, rng):
    """The 190 ms figure: client caches its delegation, server forgets its
    copy after each use (Section 7.2's experiment)."""
    call, meter, extras = rmi_world(keypool, rng, mode="sf")
    call()

    def forced_reverify():
        extras["server"].auth.cache.forget()
        return call()

    benchmark(forced_reverify)
    extras["server"].auth.cache.forget()
    before = dict(meter.breakdown())
    call()
    after = meter.breakdown()
    # The forced re-verification pays exactly one fresh proof processing
    # charge — the paper's 190 ms — and no new public-key signature (the
    # client's delegation is cached).
    assert after["proof_parse_verify"] - before.get("proof_parse_verify", 0) == (
        pytest.approx(PAPER["verify"])
    )
    assert after.get("pk_sign", 0) == before.get("pk_sign", 0)


def test_copy_cost_separated_by_regression(benchmark, keypool, rng):
    """Section 7.1's method: vary the file length, regress, and check the
    intercept is the per-call cost and the slope the per-KB copy cost."""

    def sweep():
        sizes = [1024, 4096, 16384, 65536]
        points = []
        for size in sizes:
            call, meter, _ = rmi_world(keypool, rng, mode="sf", file_bytes=size)
            call()
            points.append((size / 1024.0, span(meter, call)))
        return linear_regression([p[0] for p in points], [p[1] for p in points])

    fit = benchmark.pedantic(sweep, iterations=1, rounds=1)
    assert fit.intercept == pytest.approx(PAPER["sf"], rel=0.05)
    assert fit.slope == pytest.approx(2.0, rel=0.05)  # serialize_per_kb
    assert fit.r_squared > 0.999


def test_figure6_shape(benchmark, keypool, rng):
    """Regenerate the whole figure; every pairwise ordering must hold."""

    def build_figure():
        chart = BarChart("Figure 6: RMI authorization cost (simulated)")
        for label, mode in (("basic RMI", "basic"), ("RMI+ssh", "ssh"), ("RMI+Sf", "sf")):
            call, meter, _ = rmi_world(keypool, rng, mode=mode)
            call()
            chart.add(label, span(meter, call))
        return chart

    chart = benchmark.pedantic(build_figure, iterations=1, rounds=1)
    table = ComparisonTable("Figure 6 (paper vs simulated, ms)")
    for label, key in (("basic RMI", "basic"), ("RMI+ssh", "ssh"), ("RMI+Sf", "sf")):
        table.add(label, PAPER[key], chart.value(label))
    print()
    print(chart.render())
    print(table.render())
    pairs = [(PAPER[k], chart.value(label)) for label, k in
             (("basic RMI", "basic"), ("RMI+ssh", "ssh"), ("RMI+Sf", "sf"))]
    assert shape_preserved(pairs)
    assert table.max_relative_error() < 0.05
