"""Acceptance suite: one test per release criterion, stated tolerances pinned.

Each test prints an `ACCEPTANCE nn PASS` line on success (visible with -s or
-rA) and carries its timing budget where one applies.
"""

from __future__ import annotations

import json
import math
import random
import resource
import time

import numpy as np
import pytest

from recipnet.cli import EXIT_OK, main
from recipnet.graph import DyadCensus
from recipnet.ingest import aggregate_event_file, save_snapshot
from recipnet.metrics import (
    DyadClass,
    classify,
    concentration,
    degree_assortativity,
    equidispersion_prediction,
    reciprocity,
    reciprocity_value,
)
from recipnet.nullmodels import equidisperse, maslov_sneppen_rewire
from recipnet.report import analyze, run_regime_comparison
from recipnet.synth import DegreeSpec, SynthConfig, generate

from conftest import digraph, mutual_pairs, random_digraph
from test_graph import brute_force_census
from test_nullmodels import backbone_degrees


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_equidispersed_scores_reduce_to_degree_ratio():
    """100 random 500-vertex graphs: after the equal-split transform every
    mutual dyad's score equals |ln k_b - ln k_a| within 1e-9, in under 10 s."""
    start = time.perf_counter()
    rnd = random.Random(4242)
    dyads_checked = 0
    for _ in range(100):
        g = random_digraph(rnd, 500, arc_fraction=0.008, mutual_bias=0.6)
        eq = equidisperse(g)
        for a, b in mutual_pairs(eq):
            predicted = equidispersion_prediction(eq.out_degree(a), eq.out_degree(b))
            assert abs(reciprocity(eq, a, b) - predicted) <= 1e-9
            dyads_checked += 1
    elapsed = time.perf_counter() - start
    assert dyads_checked > 10_000
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _announce(1, f"{dyads_checked} dyads across 100 graphs in {elapsed:.1f}s")


def test_criterion_02_probability_and_weight_ratio_forms_agree():
    """Both algebraic forms of the score agree within 1e-12 on 1e5 fuzzed
    dyads in under 5 s."""
    start = time.perf_counter()
    rnd = random.Random(99)
    log = math.log
    for _ in range(100_000):
        w_ab = rnd.uniform(1e-3, 1e3)
        w_ba = rnd.uniform(1e-3, 1e3)
        s_a = w_ab + rnd.uniform(0.0, 1e3)
        s_b = w_ba + rnd.uniform(0.0, 1e3)
        lhs = reciprocity_value(w_ab, w_ba, s_a, s_b)
        rhs = abs(log((w_ab / w_ba) * (s_b / s_a)))
        assert abs(lhs - rhs) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _announce(2, f"1e5 dyads in {elapsed:.1f}s")


def test_criterion_03_equal_strength_and_equal_weight_special_cases():
    """Equal-strength dyads reduce to the weight ratio, equal-weight dyads to
    the strength ratio, both within 1e-12."""
    checked = 0
    strength = 24.0
    for w_ab in range(1, 13):
        for w_ba in range(1, 13):
            g = digraph(
                4,
                [
                    (0, 1, float(w_ab)),
                    (0, 2, strength - w_ab),
                    (1, 0, float(w_ba)),
                    (1, 3, strength - w_ba),
                ],
            )
            r = reciprocity(g, 0, 1)
            assert abs(r - abs(math.log(w_ab) - math.log(w_ba))) <= 1e-12
            checked += 1
    for fill_a in range(1, 11):
        for fill_b in range(1, 11):
            if fill_a == fill_b:
                continue
            g = digraph(
                4,
                [
                    (0, 1, 3.0),
                    (0, 2, float(fill_a)),
                    (1, 0, 3.0),
                    (1, 3, float(fill_b)),
                ],
            )
            r = reciprocity(g, 0, 1)
            s_a, s_b = 3.0 + fill_a, 3.0 + fill_b
            assert abs(r - abs(math.log(s_b) - math.log(s_a))) <= 1e-12
            checked += 1
    _announce(3, f"{checked} constructed dyads")


def test_criterion_04_classification_thresholds():
    """Probability ratios 1.5 and 9.0 land at 0.405 and 2.197 within 5e-3,
    and a 20-ratio table classifies into the three classes correctly."""
    assert math.log(1.5) == pytest.approx(0.405, abs=5e-3)
    assert math.log(9.0) == pytest.approx(2.197, abs=5e-3)
    # Derived from a dyad with those probability ratios, not just the logs:
    g = digraph(
        4, [(0, 1, 3.0), (0, 2, 1.0), (1, 0, 2.0), (1, 3, 2.0)]
    )
    assert reciprocity(g, 0, 1) == pytest.approx(0.405, abs=5e-3)
    g9 = digraph(
        4, [(0, 1, 9.0), (0, 2, 1.0), (1, 0, 1.0), (1, 3, 9.0)]
    )
    assert reciprocity(g9, 0, 1) == pytest.approx(2.197, abs=5e-3)

    table = [
        (1.0, DyadClass.RECIPROCAL),
        (1.05, DyadClass.RECIPROCAL),
        (1.1, DyadClass.RECIPROCAL),
        (1.2, DyadClass.RECIPROCAL),
        (1.3, DyadClass.RECIPROCAL),
        (1.45, DyadClass.RECIPROCAL),
        (1.5, DyadClass.RECIPROCAL),
        (1.51, DyadClass.PARTIALLY_RECIPROCAL),
        (1.8, DyadClass.PARTIALLY_RECIPROCAL),
        (2.0, DyadClass.PARTIALLY_RECIPROCAL),
        (3.0, DyadClass.PARTIALLY_RECIPROCAL),
        (4.5, DyadClass.PARTIALLY_RECIPROCAL),
        (6.0, DyadClass.PARTIALLY_RECIPROCAL),
        (8.0, DyadClass.PARTIALLY_RECIPROCAL),
        (8.9, DyadClass.PARTIALLY_RECIPROCAL),
        (9.0, DyadClass.PARTIALLY_RECIPROCAL),
        (9.1, DyadClass.NON_RECIPROCAL),
        (12.0, DyadClass.NON_RECIPROCAL),
        (50.0, DyadClass.NON_RECIPROCAL),
        (1000.0, DyadClass.NON_RECIPROCAL),
    ]
    assert len(table) == 20
    for ratio, expected in table:
        assert classify(math.log(ratio)) is expected, ratio
    _announce(4, "thresholds and 20-ratio class table")


def test_criterion_05_rewiring_neutralizes_assortativity():
    """Assortative synthetic graph (r >= 0.3, ~1e4 edges): 10x swap budget
    brings |r| under 0.02 with the sorted degree vector intact, under 30 s."""
    start = time.perf_counter()
    g = generate(
        SynthConfig(2500, DegreeSpec("poisson", 8.0), 0.4, 0.4, seed=31)
    )
    edge_count = g.dyad_census().mutual
    assert 9_000 <= edge_count <= 11_000
    before = degree_assortativity(g)["r"]
    assert before >= 0.3

    rewired, _ = maslov_sneppen_rewire(g, np.random.default_rng(77), swap_multiplier=10)
    after = degree_assortativity(rewired)["r"]
    assert abs(after) < 0.02
    assert sorted(backbone_degrees(rewired)) == sorted(backbone_degrees(g))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _announce(
        5,
        f"{edge_count} edges, r {before:.3f} -> {after:.4f} in {elapsed:.1f}s",
    )


def test_criterion_06_concentration_endpoints():
    """Equal splits score 0 within 1e-12; near-total concentration on one of
    k >= 2 neighbors scores above 0.99."""
    for k in (2, 3, 4, 7, 25):
        g = digraph(k + 1, [(0, v, 5.0) for v in range(1, k + 1)])
        assert abs(concentration(g, 0)[1]) <= 1e-12
    for k in (2, 5, 40):
        arcs = [(0, 1, 1e12)] + [(0, v, 1e-6) for v in range(2, k + 1)]
        g = digraph(k + 1, arcs)
        assert concentration(g, 0)[1] > 0.99
    _announce(6, "equal-split zero and near-total concentration")


def test_criterion_07_regime_ordering_reproduced():
    """V=5000 synthetic networks (target r 0.33, mean concentration ~0.3):
    the strict mean ordering holds for 5/5 seeds, the extreme class share
    rises and the reciprocal share falls between the extreme cells; < 2 min."""
    start = time.perf_counter()
    for seed in (1, 2, 3, 4, 5):
        g = generate(
            SynthConfig(5000, DegreeSpec("powerlaw", 2.5), 0.33, 0.3, seed=seed)
        )
        [cmp], _ = run_regime_comparison(g, [seed], swap_multiplier=10)
        assert cmp["verdict"]["final_ordering"], (seed, cmp["verdict"]["means"])
        assert cmp["verdict"]["partial_ordering"]
        most_reciprocal = cmp["reports"]["observed_equidispersed"]["reciprocity"]["class_proportions"]
        least_reciprocal = cmp["reports"]["rewired"]["reciprocity"]["class_proportions"]
        assert least_reciprocal["non_reciprocal"] > most_reciprocal["non_reciprocal"]  # extreme share rises
        assert least_reciprocal["reciprocal"] < most_reciprocal["reciprocal"]  # reciprocal share falls
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _announce(7, f"5/5 seeds ordered in {elapsed:.1f}s")


def test_criterion_08_census_identities_and_brute_force():
    """asymmetric + 2*mutual = total arcs plus full O(V^2) census equality on
    200 fuzz cases with V <= 100."""
    rnd = random.Random(808)
    for case in range(200):
        v = rnd.randint(2, 100)
        g = random_digraph(
            rnd, v, arc_fraction=rnd.uniform(0.005, 0.3), mutual_bias=rnd.random()
        )
        c = g.dyad_census()
        assert c.arc_identity_holds()
        assert c.pair_identity_holds(g.vertex_count)
        assert c == brute_force_census(g)
    _announce(8, "200 fuzz cases against the quadratic oracle")


def test_criterion_09_pipeline_determinism(tmp_path):
    """Same fixture + same seed: byte-identical regime reports. Different
    seed: different rewired histogram."""
    fixture = tmp_path / "fixture.csv"
    g = generate(SynthConfig(400, DegreeSpec("poisson", 6.0), 0.3, 0.4, seed=12))
    save_snapshot(g, fixture)

    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    for outdir, seed in ((out_a, "5"), (out_b, "5"), (out_c, "6")):
        code = main(
            ["regimes", str(fixture), "--outdir", str(outdir), "--seed", seed]
        )
        assert code == EXIT_OK

    names = [
        "observed.json",
        "observed_equidispersed.json",
        "rewired.json",
        "rewired_equidispersed.json",
        "comparison.json",
    ]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    hist_same_seed = json.loads((out_a / "rewired.json").read_bytes())["histogram"]
    hist_other_seed = json.loads((out_c / "rewired.json").read_bytes())["histogram"]
    assert hist_same_seed["bins"] != hist_other_seed["bins"]
    _announce(9, "byte-identical reruns; seed change moves the rewired histogram")


def test_criterion_10_scale_smoke(tmp_path):
    """1e7 events into ~1e5 arcs: ingest plus the full metric sweep finish in
    under 60 s with memory growth bounded by arcs, not events, in this
    process and in the helper process that counts the second half of the log."""
    events = tmp_path / "big_events.csv"
    rng = np.random.default_rng(1010)
    v_count = 20_000
    pair_count = 50_000
    src = rng.integers(0, v_count, size=pair_count)
    dst = rng.integers(0, v_count, size=pair_count)
    clash = src == dst
    dst[clash] = (src[clash] + 1) % v_count
    ids = [f"u{i}" for i in range(v_count)]
    arc_lines = []
    for s, d in zip(src.tolist(), dst.tolist()):
        arc_lines.append(f",{ids[s]},{ids[d]}")
        arc_lines.append(f",{ids[d]},{ids[s]}")

    total_events = 10_000_000
    chunk = 1_000_000
    with open(events, "w", encoding="utf-8") as f:
        f.write("timestamp,caller,callee\n")
        for _ in range(total_events // chunk):
            draws = rng.integers(0, len(arc_lines), size=chunk)
            f.write("\n".join([arc_lines[j] for j in draws.tolist()]))
            f.write("\n")
    del arc_lines, ids, src, dst, draws

    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # a forked helper starts with this process's pages, so its peak is measured from this process's
    children_before_kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, rss_before_kb)
    start = time.perf_counter()
    g, accounting = aggregate_event_file(events)
    report = analyze(g)
    elapsed = time.perf_counter() - start
    rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_after_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    assert accounting["events_read"] == total_events
    assert 90_000 <= g.arc_count <= 100_000
    assert report["census"]["mutual"] > 40_000
    assert sum(c for _, _, c in report["histogram"]["bins"]) == report["census"]["mutual"]
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    growth_kb = rss_after_kb - rss_before_kb
    assert growth_kb < 750_000, f"peak RSS grew by {growth_kb / 1024:.0f} MiB"
    helper_growth_kb = children_after_kb - children_before_kb
    assert helper_growth_kb < 750_000, f"a helper's peak RSS grew by {helper_growth_kb / 1024:.0f} MiB"
    _announce(
        10,
        f"ingest+metrics on {g.arc_count} arcs in {elapsed:.1f}s, "
        f"peak RSS +{growth_kb / 1024:.0f} MiB, helper {helper_growth_kb / 1024:+.0f} MiB",
    )
