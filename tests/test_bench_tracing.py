"""The benchmark's per-layer tracer still finds every function it wraps.

``bench/tracing.py`` replaces named module attributes of localspec for the
length of a traced run; a function renamed or deleted here would otherwise
first show up as a failing ``bench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import pytest

import localspec
import localspec.cli  # noqa: F401  loads every module the tracer binds, as bench/run.py does
from localspec import bipartite_fixture

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(tracing):
    return [getattr(getattr(localspec, module), func) for module, func, *_ in tracing.BINDINGS]


def test_every_binding_resolves(tracing):
    for module, func, *_ in tracing.BINDINGS:
        assert callable(getattr(getattr(localspec, module), func, None)), f"{module}.{func}"


def test_install_wraps_and_remove_restores(tracing):
    originals = _bound(tracing)
    tracer = tracing.Tracer(localspec)
    tracer.install()
    try:
        assert all(w is not o for w, o in zip(_bound(tracing), originals))
        localspec.localizability.localizable_everywhere(bipartite_fixture())
    finally:
        tracer.remove()
    assert all(r is o for r, o in zip(_bound(tracing), originals))
    assert tracer.totals["localizability.vertices_tested"] == 6
    assert tracer.totals["localizability.localizable_everywhere_s"] > 0


def test_one_vertex_analysis_feeds_the_solver_metrics(tracing):
    u = localspec.simulate(bipartite_fixture(), [1.0, 0.5, -0.3, 0.2, 0.8, -1.1], 60).local(1)
    tracer = tracing.Tracer(localspec)
    tracer.install()
    try:
        localspec.spectral.analyze_vertex(u, 6)
    finally:
        tracer.remove()
    assert tracer.totals["embedding.fit_companion_calls"] == 1
    assert tracer.totals["embedding.lstsq_s"] > 0
    assert tracer.totals["spectral.vandermonde_lstsq_s"] > 0
