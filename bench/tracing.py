"""Per-layer timing and counts, taken by wrapping localspec's public functions.

Nothing is traced inside the program: each function is replaced, for the
length of a traced run, at the module binding its caller looks up. A
function bound in two modules is wrapped in both (``fit_companion`` in
``embedding`` and ``spectral``; ``lstsq_min_norm`` in ``embedding``, where
it solves the companion fit, and in ``spectral``, where it solves the
Vandermonde system).
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict


def _count_calls(counts, _args, _result):
    counts["embedding.fit_companion_calls"] += 1


def _count_read(counts, args, _result):
    counts["io.bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, args, _result):
    counts["io.bytes_written"] += os.path.getsize(args[0])


def _count_states(counts, _args, result):
    counts["dynsys.states_produced"] += result.states.shape[0]


def _count_vertex(counts, _args, _result):
    counts["localizability.vertices_tested"] += 1


# (module, function, timed metric or None, count hook or None)
BINDINGS = (
    ("embedding", "fit_companion", "embedding.fit_companion_s", _count_calls),
    ("spectral", "fit_companion", "embedding.fit_companion_s", _count_calls),
    ("embedding", "lstsq_min_norm", "embedding.lstsq_s", None),
    ("spectral", "local_eigenvalues", "spectral.local_eigenvalues_s", None),
    ("spectral", "local_eigenvector_components", "spectral.local_eigenvector_components_s", None),
    ("spectral", "lstsq_min_norm", "spectral.vandermonde_lstsq_s", None),
    ("spectral", "consensus_cluster_count", "spectral.cluster_count_s", None),
    ("spectral", "decentralized_cluster_labels", "spectral.cluster_labels_s", None),
    ("spectral", "is_bipartite_spectrum", "spectral.is_bipartite_spectrum_s", None),
    ("io", "load_trajectory", "io.load_trajectory_s", _count_read),
    ("io", "save_trajectory", "io.save_trajectory_s", _count_written),
    ("io", "load_system", "io.load_system_s", _count_read),
    ("dynsys", "simulate", "dynsys.simulate_s", _count_states),
    ("localizability", "localizable_everywhere", "localizability.localizable_everywhere_s", None),
    ("localizability", "is_localizable", None, _count_vertex),
    ("localizability", "r_matrix", "localizability.r_matrix_s", None),
    ("localizability", "singular_values", "localizability.rank_s", None),
    ("localizability", "numeric_rank", "localizability.rank_s", None),
)

METRICS = (
    ("embedding.fit_companion_s", "s/op"),
    ("embedding.fit_companion_calls", "calls/op"),
    ("embedding.lstsq_s", "s/op"),
    ("spectral.local_eigenvalues_s", "s/op"),
    ("spectral.local_eigenvector_components_s", "s/op"),
    ("spectral.vandermonde_lstsq_s", "s/op"),
    ("spectral.cluster_count_s", "s/op"),
    ("spectral.cluster_labels_s", "s/op"),
    ("spectral.is_bipartite_spectrum_s", "s/op"),
    ("io.load_trajectory_s", "s/op"),
    ("io.save_trajectory_s", "s/op"),
    ("io.load_system_s", "s/op"),
    ("io.bytes_read", "B/op"),
    ("io.bytes_written", "B/op"),
    ("dynsys.simulate_s", "s/op"),
    ("dynsys.states_produced", "states/op"),
    ("localizability.localizable_everywhere_s", "s/op"),
    ("localizability.r_matrix_s", "s/op"),
    ("localizability.rank_s", "s/op"),
    ("localizability.vertices_tested", "vertices/op"),
    ("cli.self_s", "s/op"),
)


class Tracer:
    """Wraps the bindings while installed; sums time and counts per metric.

    ``library_s`` is the time spent in outermost wrapped calls, so an
    operation's time minus it is the CLI's own share (argparse, JSON and
    CSV output, manifests).
    """

    def __init__(self, package):
        self.package = package
        self.totals: dict[str, float] = defaultdict(float)
        self.library_s = 0.0
        self._depth = 0
        self._saved = []

    def install(self) -> None:
        for module_name, func_name, metric, hook in BINDINGS:
            module = getattr(self.package, module_name)
            original = getattr(module, func_name)
            self._saved.append((module, func_name, original))
            setattr(module, func_name, self._wrap(original, metric, hook))

    def remove(self) -> None:
        for module, func_name, original in reversed(self._saved):
            setattr(module, func_name, original)
        self._saved.clear()

    def reset(self) -> None:
        self.totals.clear()
        self.library_s = 0.0

    def _wrap(self, func, metric, hook):
        totals = self.totals

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if metric is None:
                result = func(*args, **kwargs)
            else:
                self._depth += 1
                start = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self._depth -= 1
                    totals[metric] += elapsed
                    if self._depth == 0:
                        self.library_s += elapsed
            if hook is not None:
                hook(totals, args, result)
            return result

        return wrapper

    def per_op(self, ops: int, op_seconds: float) -> dict[str, dict]:
        """Every per-layer metric as a mean per operation."""
        values = dict(self.totals)
        values["cli.self_s"] = op_seconds - self.library_s
        return {name: {"value": values.get(name, 0.0) / ops, "unit": unit}
                for name, unit in METRICS}
