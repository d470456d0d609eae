"""Each correctness check accepts a right output and rejects a corrupted one.

Run from the root of a checkout: python3 -m pytest -q bench/test_checks.py
"""

import csv
import io

import numpy as np
import pytest

import checks


def _orthogonal(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _trajectory_csv(states):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k"] + [f"x{i}" for i in range(1, states.shape[1] + 1)])
    for k, row in enumerate(states):
        writer.writerow([k] + [format(v, ".17g") for v in row])
    return buf.getvalue()


@pytest.fixture
def orbit():
    a = _orthogonal(6, 1)
    states = np.empty((40, 6))
    states[0] = np.random.default_rng(2).standard_normal(6)
    for k in range(39):
        states[k + 1] = a @ states[k]
    return a, states


def test_labels_swapped_between_blocks_are_rejected():
    blocks = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    labels = {v: [5, 5, 5, 7, 7, 7, 6, 6, 6][v - 1] for v in range(1, 10)}
    assert checks.labels_match_blocks(labels, blocks) == []
    labels[3], labels[4] = labels[4], labels[3]
    assert checks.labels_match_blocks(labels, blocks)


def test_merged_blocks_are_rejected():
    blocks = [0, 0, 1, 1, 2, 2]
    assert checks.labels_match_blocks({v: int(v > 2) for v in range(1, 7)}, blocks)


def test_non_finite_component_is_rejected():
    header = ["vertex"] + [f"c{l}_{p}" for l in (1, 2) for p in ("re", "im")]
    values = np.array([[1, 0.5, 0, 0.1, 0], [2, 0.4, 0, -0.2, 0]], dtype=float)
    assert checks.components_finite(header, values, 2, 2) == []
    values[1, 3] = np.nan
    assert checks.components_finite(header, values, 2, 2)
    assert checks.components_finite(header, values[:1], 2, 2)


def test_unit_mode_off_sqrt_degree_is_rejected():
    degrees = np.array([1.0, 4.0, 9.0])
    c1 = 0.3 * np.sqrt(degrees) + 0j
    assert checks.unit_mode_follows_degree(c1, degrees, 1e-5) == []
    c1[2] *= 1 + 1e-4
    assert checks.unit_mode_follows_degree(c1, degrees, 1e-5)


def test_wrong_cluster_count_is_rejected():
    assert checks.cluster_count_is({"cluster_count": 3}, 3) == []
    assert checks.cluster_count_is({"cluster_count": 28}, 3)


def test_hautus_flags_planted_cases():
    direct_sum = np.zeros((4, 4))
    direct_sum[:2, :2] = [[0.5, 0.3], [-0.2, 0.4]]
    direct_sum[2:, 2:] = [[0.1, 0.7], [0.6, -0.3]]
    assert checks.hautus_localizable(direct_sum) == [False] * 4
    dense = np.random.default_rng(0).standard_normal((5, 5))
    assert checks.hautus_localizable(dense) == [True] * 5


def test_flipped_localizability_flag_is_rejected():
    payload = {
        "reports": [{"vertex": v, "localizable": v != 2} for v in (1, 2, 3)],
        "localizable_everywhere": False,
    }
    assert checks.localizability_flags(payload, [True, False, True]) == []
    payload["reports"][0]["localizable"] = False
    assert checks.localizability_flags(payload, [True, False, True])
    payload["reports"][0]["localizable"] = True
    payload["localizable_everywhere"] = True
    assert checks.localizability_flags(payload, [True, False, True])


def test_altered_csv_value_is_rejected(orbit):
    _, states = orbit
    text = _trajectory_csv(states)
    assert checks.trajectory_matches(text, states, 1e-12) == []
    original = format(states[17, 4], ".17g")
    altered = format(states[17, 4] * (1 + 1e-9), ".17g")
    assert checks.trajectory_matches(text.replace(original, altered), states, 1e-12)
    truncated = "".join(text.splitlines(keepends=True)[:-1])
    assert checks.trajectory_matches(truncated, states, 1e-12)


def test_perturbed_eigenvalue_is_rejected(orbit):
    a, _ = orbit
    true = np.linalg.eigvals(a)
    estimate = true[::-1].copy()  # order does not matter
    assert checks.spectrum_matches(estimate, true, 1e-8) == []
    assert checks.unit_modulus(estimate, 1e-8) == []
    estimate[0] += 1e-6
    assert checks.spectrum_matches(estimate, true, 1e-8)
    assert checks.unit_modulus(estimate, 1e-8)


def test_wrong_trace_or_determinant_is_rejected(orbit):
    a, _ = orbit
    trace, det = float(np.trace(a)), float(np.linalg.det(a))
    assert checks.trace_det_match(trace, det, a, 1e-8) == []
    assert checks.trace_det_match(trace + 1e-6, det, a, 1e-8)
    assert checks.trace_det_match(trace, -det, a, 1e-8)


def test_wrong_bipartite_flag_is_rejected():
    assert checks.bipartite_flag(True, True) == []
    assert checks.bipartite_flag(False, True)
    assert checks.bipartite_flag(None, False)


def test_wrong_mode_coefficients_are_rejected(orbit):
    a, states = orbit
    eigs, vecs = np.linalg.eig(a)
    amplitudes = np.linalg.solve(vecs, states[0])
    comps = vecs[2] * amplitudes  # vertex 3
    assert checks.modes_reconstruct(states[:, 2], eigs, comps, 1e-8) == []
    comps[1] *= 1 + 1e-6
    assert checks.modes_reconstruct(states[:, 2], eigs, comps, 1e-8)
