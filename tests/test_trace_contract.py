"""The benchmark's layer trace still finds every name its per-layer metrics read.

perfbench/run.py reports a per-layer metric from spans around module-level
entopt names (perfbench/tracing.py). A name that still exists but is no
longer called on a workload leaves its metric without a value, and the
traced run reports it absent. This test runs a small seeded call set of each
workload under the tracer and computes every metric of run.LAYERS, so such a
change fails here first. It only imports the benchmark modules.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import entopt.cli  # noqa: F401  (the tracer wraps cli.main only once it is imported)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The run, tracing and workloads modules, removed from sys.modules afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import tracing
        import workloads

        yield run, tracing, workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("run", "tracing", "workloads", "oracles"):
            sys.modules.pop(name, None)


def small_call_set(name, wl, rng):
    if name == "sweep":
        return wl.make_round(rng, (5,))  # one 5-row sweep per coupling class
    if name == "phase":
        return [spec for spec in wl.make_round(rng) if spec.items <= 100]
    if name == "search":
        spec = wl.make_round(rng)[0]
        argv = list(spec.argv)
        argv[argv.index("--restarts") + 1] = "2"
        return [dataclasses.replace(spec, argv=argv)]
    return wl.make_round(rng, 20)


@pytest.mark.parametrize("name", ["sweep", "phase", "search", "states"])
def test_every_layer_metric_is_measured(bench, name):
    run, tracing, workloads = bench
    wl = workloads.WORKLOADS[name]
    specs = small_call_set(name, wl, np.random.default_rng(0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for spec in specs:
            wl.call(spec)  # a nonzero CLI exit raises
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    items = sum(spec.items for spec in specs)
    absent = {}
    for metric, _, fn in run.LAYERS[name]:
        try:
            value = fn(stats, items)
        except LookupError as exc:
            absent[metric] = str(exc)
        else:
            assert np.isfinite(value), (metric, value)
    assert absent == {}
