"""Synthetic network generation: determinism, targets, dispersion control."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from recipnet import nullmodels, synth
from recipnet.cli import EXIT_OK, main
from recipnet.errors import DomainError
from recipnet.metrics import concentration_arrays, degree_assortativity, dyad_scores
from recipnet.synth import DegreeSpec, SynthConfig, _draw_degrees, _place_leftovers, generate


def mean_h_star(g) -> float:
    return float(np.mean(concentration_arrays(g)[2]))


class TestDegreeSpec:
    def test_parse(self):
        assert DegreeSpec.parse("powerlaw:2.5") == DegreeSpec("powerlaw", 2.5)
        assert DegreeSpec.parse("poisson:8") == DegreeSpec("poisson", 8.0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            DegreeSpec.parse("powerlaw")
        with pytest.raises(DomainError):
            DegreeSpec.parse("zipf:2")

    @pytest.mark.parametrize(
        "kind, param",
        [
            ("regular", float("inf")),
            ("regular", 2.7),
            ("powerlaw", float("inf")),
            ("poisson", float("nan")),
            ("powerlaw", 0.0),
        ],
    )
    def test_rejects_parameters_it_cannot_honour(self, kind, param):
        with pytest.raises(DomainError):
            DegreeSpec(kind, param)


class TestGenerate:
    def test_same_seed_same_graph(self):
        cfg = SynthConfig(300, DegreeSpec("poisson", 5.0), 0.2, 0.3, seed=42)
        assert generate(cfg) == generate(cfg)

    def test_different_seed_different_graph(self):
        cfg1 = SynthConfig(300, DegreeSpec("poisson", 5.0), 0.2, 0.3, seed=1)
        cfg2 = SynthConfig(300, DegreeSpec("poisson", 5.0), 0.2, 0.3, seed=2)
        assert generate(cfg1) != generate(cfg2)

    def test_dispersion_zero_is_exactly_equidispersed(self):
        g = generate(SynthConfig(200, DegreeSpec("poisson", 6.0), 0.1, 0.0, seed=7))
        for h_star in concentration_arrays(g)[2].tolist():
            assert abs(h_star) <= 1e-12

    def test_regular_equal_split_graph_is_fully_reciprocal(self):
        g = generate(SynthConfig(100, DegreeSpec("regular", 4.0), 0.0, 0.0, seed=3))
        r = dyad_scores(g).r_value.tolist()
        assert r
        assert all(x == 0.0 for x in r)

    def test_undefined_r_misses_a_nonzero_target_loudly(self):
        # Every edge end of a regular graph has the same degree, so r is undefined.
        with pytest.warns(UserWarning, match="assortativity target 0.3 not reached; r is undefined"):
            generate(SynthConfig(200, DegreeSpec("regular", 4.0), 0.3, 0.0, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate(SynthConfig(200, DegreeSpec("regular", 4.0), 0.0, 0.0, seed=0))

    def test_all_dyads_mutual(self):
        g = generate(SynthConfig(150, DegreeSpec("powerlaw", 2.5), 0.1, 0.4, seed=5))
        census = g.dyad_census()
        assert census.asymmetric == 0
        assert census.mutual > 0
        assert census.arc_identity_holds()

    def test_assortativity_target_hit_at_scale(self):
        cfg = SynthConfig(5000, DegreeSpec("powerlaw", 2.5), 0.33, 0.3, seed=11)
        g = generate(cfg)
        r = degree_assortativity(g)["r"]
        assert 0.28 <= r <= 0.38

    def test_dispersion_monotone_in_realized_concentration(self):
        levels = [0.05, 0.15, 0.3, 0.5, 0.7, 0.9]
        realized = []
        for d in levels:
            g = generate(SynthConfig(800, DegreeSpec("poisson", 6.0), 0.0, d, seed=13))
            realized.append(mean_h_star(g))
        rho = sps.spearmanr(levels, realized).statistic
        assert rho > 0.9

    def test_dispersion_targets_mean_h_star(self):
        g = generate(SynthConfig(2000, DegreeSpec("poisson", 8.0), 0.0, 0.3, seed=17))
        assert mean_h_star(g) == pytest.approx(0.3, abs=0.05)

    def test_infeasible_regular_degree_rejected(self):
        with pytest.raises(DomainError):
            generate(SynthConfig(101, DegreeSpec("regular", 3.0), 0.0, 0.0, seed=1))

    @pytest.mark.parametrize(
        "spec",
        [DegreeSpec("powerlaw", 2.1), DegreeSpec("powerlaw", 2.5), DegreeSpec("poisson", 6.0), DegreeSpec("regular", 4.0)],
    )
    @pytest.mark.parametrize("vertices", [100, 400, 2000])
    def test_degree_sequence_is_exact(self, spec, vertices):
        for seed in range(3):
            cfg = SynthConfig(vertices, spec, 0.2, 0.3, seed)
            want = _draw_degrees(cfg, np.random.default_rng(seed))
            # A regular spec gives every vertex one degree, so r is undefined and the target unreachable.
            undefined = pytest.warns(UserWarning, match="target 0.2 not reached; r is undefined")
            with undefined if spec.kind == "regular" else contextlib.nullcontext():
                g = generate(cfg)
            assert np.diff(g._indptr).tolist() == want.tolist()

    def test_unplaced_stub_pairs_are_reported(self):
        """Every shortfall against the drawn degrees is named in a warning, never lost silently."""
        short_seeds = 0
        for seed in range(30):
            cfg = SynthConfig(10, DegreeSpec("regular", 8.0), 0.0, 0.0, seed)
            want = int(_draw_degrees(cfg, np.random.default_rng(seed)).sum())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                g = generate(cfg)
            short = want - g.arc_count
            messages = [str(w.message) for w in caught if "stub pair" in str(w.message)]
            if short:
                short_seeds += 1
                assert messages == [f"dropped {short // 2} stub pair(s) that could not be placed; "
                                    f"degrees are {short} stubs short"]
            else:
                assert messages == []
        assert short_seeds > 0  # the dense case does drop pairs on some seeds

    def test_placement_stops_once_no_stuck_pair_fits_any_edge(self):
        cfg = SynthConfig(10, DegreeSpec("regular", 8.0), 0.0, 0.0, seed=15)
        with mock.patch.object(synth, "_valid_swaps", wraps=nullmodels._valid_swaps) as rounds:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                generate(cfg)
        assert rounds.call_count < synth._PLACEMENT_ROUNDS // 10
        assert [str(w.message) for w in caught] == [  # as when all 500 rounds ran
            "dropped 2 stub pair(s) that could not be placed; degrees are 4 stubs short",
            "assortativity target 0.0 not reached; achieved -0.3571",
        ]

    def test_no_edge_to_split_drops_every_pair_loudly(self):
        cfg = SynthConfig(3, DegreeSpec("powerlaw", 2.5), 0.0, 0.0, seed=15)  # every pair a self-pair
        with pytest.warns(UserWarning, match="dropped 3 stub pair"):
            with pytest.raises(DomainError, match="produced no edges"):
                generate(cfg)

    def test_dispersion_one_puts_the_strength_on_one_neighbour(self):
        for spec in (DegreeSpec("powerlaw", 2.5), DegreeSpec("poisson", 6.0)):
            g = generate(SynthConfig(500, spec, 0.1, 1.0, seed=4))
            k = np.diff(g._indptr)
            top = np.maximum.reduceat(g._weights, g._indptr[:-1])
            # The strength is re-summed from the arcs, so allow a few ulps of rounding.
            assert (top / g._out_strength >= 1 - (k - 1) * 1e-12 - 4 * np.finfo(float).eps).all()

    def test_bad_config_rejected(self):
        with pytest.raises(DomainError):
            SynthConfig(10, DegreeSpec("poisson", 5.0), 1.5, 0.0)
        with pytest.raises(DomainError):
            SynthConfig(10, DegreeSpec("poisson", 5.0), 0.0, 1.5)


@st.composite
def placements(draw):
    """Kept edges on a few vertices and stuck stub pairs: self-pairs, repeats of kept edges, copies of one pair."""
    v = draw(st.integers(2, 8))
    vertex = st.integers(0, v - 1)
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    kept = draw(st.lists(st.sampled_from(pairs), min_size=v // 2, unique=True))
    kinds = [vertex.map(lambda x: (x, x)), st.tuples(vertex, vertex)]
    if kept:
        kinds.append(st.sampled_from(kept).flatmap(lambda e: st.sampled_from([e, e[::-1]])))
    stuck = draw(st.lists(st.one_of(kinds), max_size=4))
    stuck += [draw(st.tuples(vertex, vertex))] * draw(st.integers(0, 3))
    return v, kept, draw(st.permutations(stuck)), draw(st.integers(0, 2**32 - 1))


@given(placements())
@settings(max_examples=100, deadline=None)
def test_leftover_placement_keeps_a_simple_graph_and_counts_what_it_drops(case):
    v, kept, stuck, seed = case

    def degrees(pairs):
        return np.bincount(np.array(pairs, dtype=np.int64).ravel(), minlength=v)

    keys = np.array([a * v + b for a, b in kept], dtype=np.int64)
    rng = np.random.default_rng(seed)
    out, dropped = _place_leftovers(np.array(stuck, dtype=np.int64).reshape(-1, 2), keys, v, rng)
    a, b = np.divmod(out, v)
    assert (a < b).all() and len(set(out.tolist())) == len(out)
    placed = len(out) - len(kept)  # each placed pair splits one edge into two
    assert dropped == len(stuck) - placed
    # Some `placed` of the stuck pairs account for every vertex's new degree.
    gain = degrees(np.column_stack((a, b))) - degrees(kept)
    assert any((degrees(c) == gain).all() for c in itertools.combinations(stuck, placed))


@given(placements())
@settings(max_examples=100, deadline=None)
def test_placeable_means_some_stuck_pair_fits_some_edge(case):
    v, kept, stuck, _ = case
    edges = set(kept)

    def fits(s1, s2, u, w):  # edge (u,w) becomes (s1,u) and (w,s2)
        new = {(min(s1, u), max(s1, u)), (min(w, s2), max(w, s2))}
        return s1 != u and w != s2 and not new & edges

    want = any(fits(s1, s2, u, w) or fits(s1, s2, w, u) for s1, s2 in stuck for u, w in kept)
    keys = np.array([a * v + b for a, b in kept], dtype=np.int64)
    assert synth._placeable(np.array(stuck, dtype=np.int64).reshape(-1, 2), keys, v) == want


#: sha256 of the snapshot and sidecar `synth` writes for the argv below; a
#: change to these bytes changes what one seed generates and must be named.
PINNED_SYNTH_SHA256 = {
    "s.csv": "d35c1a4f0b3dbc030a10860a3613961f461551506d8e11a78711bda4fd61a5fc",
    "s.vertices.csv": "e0fefbe2905171fb19e3e2c4854fbbe18464cc240c0de526d2af52dd997c3971",
}


def test_seeded_synth_output_is_pinned(tmp_path, capsys):
    argv = ["synth", "-o", str(tmp_path / "s.csv"), "--vertices", "300", "--degree-dist", "powerlaw:2.5"]
    assert main([*argv, "--assortativity", "0.2", "--dispersion", "0.3", "--seed", "5"]) == EXIT_OK
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == PINNED_SYNTH_SHA256
