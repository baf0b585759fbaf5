"""Experiment harness: purity, reproducibility, and small-scale behavior."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from qwalk import walks
from qwalk.experiments import ExperimentConfig, make_host, run_experiment
from qwalk.graph import gen_complete
from qwalk.rng import DOMAIN_TRIALS, derive_seed
from qwalk.walks import ListModel, run_walk, stationary, walk_steps, walk_subgraph


def cfg_density(**over):
    base = dict(experiment="density", n=120, seed=5,
                generator_params={"p": 0.5}, alpha=0.3, eps=0.1, trials=2)
    base.update(over)
    return ExperimentConfig(**base)


class TestConfig:
    def test_seed_mandatory(self):
        with pytest.raises(TypeError):
            ExperimentConfig(experiment="density", n=10)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="density", n=10, seed=-1)

    def test_fraction_ranges(self):
        with pytest.raises(ValueError):
            cfg_density(eps=1.5)
        with pytest.raises(ValueError):
            cfg_density(alpha=-0.1)
        with pytest.raises(ValueError):
            cfg_density(generator_params={"p": 2.0})

    @pytest.mark.parametrize("over", [
        {"schedule": [-1, 2]}, {"monotone_steps": [2, -4]},
        {"monotone_steps": [2, 3]}, {"degree_sweep": [4, 1]},
        {"tree_max_degree": 1}, {"disc_trials": 0}, {"mixing_trials": 0},
        {"schedule": []}, {"schedule": [0, 2, 2, 10]},
        {"schedule": [0, 2, 4, 10], "monotone_steps": [10, 2]},
        {"schedule": [0, 2, 4, 10], "monotone_steps": [2, 2, 4]}])
    def test_step_lists_counts_and_degree_caps(self, over):
        with pytest.raises(ValueError):
            cfg_density(**over)

    @pytest.mark.parametrize("over,message", [
        ({"tree_depth": -1}, "tree_depth must be non-negative"),
        ({"tree_branching": 0}, "tree_branching must be at least 1"),
        ({"tree_branching": -2}, "tree_branching must be at least 1")])
    def test_tree_parameters(self, over, message):
        for experiment in ("tree_embedding", "tree_counterexample"):
            with pytest.raises(ValueError, match=message):
                cfg_density(experiment=experiment, **over)

    @pytest.mark.parametrize("experiment", ["preservation", "tree_counterexample"])
    def test_eps_n_at_least_one_where_discrepancy_is_checked(self, experiment):
        with pytest.raises(ValueError, match=r"eps\*n must be at least 1"):
            ExperimentConfig(experiment=experiment, n=40, seed=1, eps=0.01)
        ExperimentConfig(experiment=experiment, n=40, seed=1, eps=0.025)
        # experiments that run no discrepancy estimator take any eps
        ExperimentConfig(experiment="mixing", n=6, seed=1, eps=0.01)

    def test_json_round_trip(self):
        cfg = cfg_density()
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("text,message", [
        ('{"experiment": "density", "n": 10, "seed": 1, "bogus": 1}',
         "unknown config keys: bogus"),
        ("[1]", "config must be a JSON object, got list"),
    ])
    def test_from_json_rejects_non_config(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json(text)

    def test_unknown_generator_params_rejected(self):
        # "pp" once ran silently at the default p = 0.5
        with pytest.raises(ValueError, match=re.escape(
                "unknown generator_params ['pp']; choose from ['eps', 'p']")):
            cfg_density(generator_params={"pp": 0.1})

    def test_visits_at_alpha_zero_rejected(self):
        # a walk of no steps predicts no visit at any vertex, so there is no
        # deviation to report; other experiments report a walk of no steps
        with pytest.raises(ValueError, match=re.escape(
                "alpha must be positive for visits, got 0.0")):
            cfg_density(experiment="visits", alpha=0.0)
        assert cfg_density(alpha=0.0).alpha == 0.0

    @pytest.mark.parametrize("over,message", [
        ({"alpha": math.inf}, "alpha must be finite, got inf"),
        ({"alpha": math.nan}, "alpha must be finite, got nan"),
        ({"generator_params": {"eps": -math.inf}}, "generator eps must be finite, got -inf"),
    ])
    def test_non_finite_alpha_and_generator_eps_rejected(self, over, message):
        # an infinite alpha once passed here and overflowed in int(alpha * n * n)
        with pytest.raises(ValueError, match=re.escape(message)):
            cfg_density(**over)

    @pytest.mark.parametrize("over", [
        {"trials": "2"}, {"tree_kind": 3}, {"schedule": [0.5]},
        {"crossing_interval": [0.1, 0.5, 0.9]},
        {"crossing_interval": [0.9, 0.1]}])
    def test_wrong_type_length_or_order(self, over):
        with pytest.raises(ValueError):
            cfg_density(**over)
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(json.dumps(
                {"experiment": "density", "n": 10, "seed": 1, **over}))


class TestReportInvariants:
    def test_byte_identical_on_rerun(self):
        for name, kw in [
            ("density", {}),
            ("visits", {}),
            ("mixing", dict(n=80, mixing_trials=2000, schedule=[0, 2, 4])),
        ]:
            cfg = cfg_density(experiment=name, **kw)
            assert run_experiment(cfg).to_json() == run_experiment(cfg).to_json()

    def test_aggregates_recomputable(self):
        report = run_experiment(cfg_density(trials=4))
        values = [r["walk_edges"] for r in report.per_trial]
        agg = report.aggregates["walk_edges"]
        assert agg["mean"] == pytest.approx(np.mean(values))
        assert agg["sd"] == pytest.approx(np.std(values, ddof=1))
        assert agg["min"] == min(values) and agg["max"] == max(values)
        assert sum(agg["histogram"]["counts"]) == len(values)

    def test_predicted_carries_formula(self):
        report = run_experiment(cfg_density())
        assert "formula" in report.predicted
        assert report.version

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(cfg_density(experiment="nope"))


# sha256 of the report JSON, recorded before the experiments shared one
# trial loop and report builder; any change to a seeded report shows here
PINNED_REPORTS = {
    "density": (
        dict(experiment="density", n=300, seed=5, trials=3),
        "55bd7fa0fb369bd9737740ac98e10a4e35271f0a2b32d2fbccf4ea264f2d66ce"),
    "visits": (
        dict(experiment="visits", n=300, seed=5, trials=3),
        "20f6026a424fa563d2ac4196c46d4bdddad1e6c1b83deedc9140ce7292d2cab2"),
    "preservation": (
        dict(experiment="preservation", n=120, seed=5, eps=0.1, trials=2,
             disc_trials=200),
        "7bc90aad6af0d9a189e6139d3e05358f5ba2ccdfd73b2f303670a4681877c0ea"),
    "pathology": (
        dict(experiment="pathology", n=300, seed=5,
             generator="two_clique_bridge", generator_params={"eps": 0.3},
             alpha=0.25, trials=20),
        "3729a3e9f1ca1d8618856fcbce2349a31db07963396a976616338138fd1a8df6"),
    "mixing": (
        dict(experiment="mixing", n=80, seed=5, mixing_trials=2000,
             schedule=[0, 2, 4, 10]),
        "39291a3e185fc4d2e0872dc82aa6ff1901c6f9efa85c39e343804272df007294"),
    "mixing_disconnected": (
        dict(experiment="mixing", n=6, seed=1, generator_params={"p": 0.0}),
        "2044032ef0f5656f99385486fcbb596850e50461f03599e6f19422c6386c0845"),
    "tree_counterexample": (
        dict(experiment="tree_counterexample", n=200, seed=4,
             generator="complete", eps=0.1, trials=2, disc_trials=300),
        "37a47b11cdfe55ed3f282f85e5b0ebf3871e4e8a8a800239d37f2da0e5a09920"),
    "density_complete_start": (
        dict(experiment="density", n=100, seed=2, generator="complete",
             start=7, trials=2),
        "38a8883926d9bd382dbe8a2d3bfa2de910803d9644d51e54c7df8018c29953b0"),
    "tree_embedding_path": (
        dict(experiment="tree_embedding", n=100, seed=21, alpha=0.25,
             eps=0.1, trials=2, tree_kind="path"),
        "7eb04f1fdef8526bbbd5ab059327d2b8787cf61f88e36291d0a7227f6e343e32"),
    "tree_embedding_nary": (
        dict(experiment="tree_embedding", n=100, seed=3, eps=0.1, trials=2,
             tree_kind="nary", tree_branching=3, tree_depth=4),
        "8c3d07907829ec6e87616a3d6b0d797dd6c0c8784c632d3d6eb394df4fac53b9"),
    "tree_embedding_random_sweep": (
        dict(experiment="tree_embedding", n=100, seed=3, alpha=0.2, eps=0.1,
             trials=2, degree_sweep=[2, 4, 8]),
        "3da8d4ee0f99c7203beed3dcf619ffe9c15c0aaff00a645388cb86ee7cce4578"),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_seeded_report_is_pinned(case):
    config, digest = PINNED_REPORTS[case]
    text = run_experiment(ExperimentConfig(**config)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDensityExperiment:
    def test_holds_no_trace(self, c_backend):
        # 720k steps on G(300, 1/2): the walk is marked a block at a time,
        # so the run peaks below half of what its int32 trace would take
        cfg = cfg_density(n=300, alpha=8.0, trials=1)
        trace_bytes = 4 * (walk_steps(8.0, 300) + 1)
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trace_bytes / 2
        g = make_host(cfg)
        trace = run_walk(g, ListModel(g, derive_seed(5, DOMAIN_TRIALS, 0)),
                         report.notes["start"], walk_steps(8.0, 300))
        assert report.per_trial[0]["walk_edges"] == len(walk_subgraph(trace))

    def test_alpha_zero_no_edges(self):
        report = run_experiment(cfg_density(alpha=0.0, tolerances={"rel_edges": 0}))
        assert all(r["walk_edges"] == 0 for r in report.per_trial)

    def test_complete_host_matches_closed_form(self):
        cfg = cfg_density(n=200, generator="complete", alpha=0.4, trials=3,
                          tolerances={"rel_edges": 0.02})
        report = run_experiment(cfg)
        assert report.passed, report.checks
        pred = (1 - math.exp(-2 * 0.4)) * (200 * 199 / 2)
        assert report.predicted["value"] == pytest.approx(pred)


class TestVisitsExperiment:
    def test_zero_steps_zero_visits(self):
        g = gen_complete(20)
        trace = run_walk(g, ListModel(g, 1), 0, 0)
        assert trace.visit_counts.sum() == 0

    def test_holds_no_trace(self, c_backend):
        # criterion 4's walk, 5e5 steps on G(1000, 1/2): X_v is read from
        # the list model, so the run peaks below the 2 MB of its int32 trace
        cfg = ExperimentConfig(experiment="visits", n=1000, seed=20240601,
                               generator_params={"p": 0.5}, alpha=0.5, eps=0.05, trials=1)
        steps = walk_steps(0.5, 1000)
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (steps + 1)
        g = make_host(cfg)
        trace = run_walk(g, ListModel(g, derive_seed(cfg.seed, DOMAIN_TRIALS, 0)),
                         report.notes["start"], steps)
        pred = 0.5 / report.notes["rho"] * g.degrees
        rel = np.abs(trace.visit_counts / pred - 1.0)
        assert report.per_trial[0]["frac_within_band"] == float(np.mean(rel <= 0.10))
        assert report.per_trial[0]["max_rel_deviation"] == float(rel.max())

    def test_report_structure(self):
        report = run_experiment(cfg_density(experiment="visits", trials=2,
                                            tolerances={"frac_within": 0.0}))
        assert report.passed
        assert 0 <= report.per_trial[0]["frac_within_band"] <= 1


class TestStartSelection:
    def test_explicit_unbalanced_start_warns(self):
        # the small-clique corner of a two-clique host is never balanced
        cfg = cfg_density(n=200, alpha=0.02, trials=1, start=0, eps=0.05,
                          generator="two_clique_bridge",
                          generator_params={"eps": 0.4},
                          tolerances={"rel_edges": 10.0})
        with pytest.warns(UserWarning, match="not balanced"):
            run_experiment(cfg)


class TestPreservationExperiment:
    def test_demotes_below_min_degree_floor(self):
        cfg = cfg_density(experiment="preservation", n=60, alpha=0.2,
                          trials=1, disc_trials=50,
                          generator_params={"p": 0.15},
                          tolerances={"disc_slack": 1.0})
        with pytest.warns(UserWarning, match="minimum degree"):
            report = run_experiment(cfg)
        assert report.notes["mode"] == "general"

    def test_walk_subgraph_inside_host(self):
        cfg = cfg_density(experiment="preservation", n=100, alpha=0.4,
                          trials=1, disc_trials=100,
                          tolerances={"disc_slack": 1.0})
        g = make_host(cfg)
        model = ListModel(g, 1)
        trace = run_walk(g, model, 0, int(0.4 * 100 * 100))
        gw = walk_subgraph(trace)
        for u, v in gw.edge_array():
            assert g.has_edge(int(u), int(v))
        report = run_experiment(cfg)
        assert report.notes["mode"] in {"min-degree", "general"}

    def test_saturating_walk_reproduces_host(self):
        # long enough walks traverse every edge of a small complete host
        cfg = cfg_density(experiment="preservation", n=24, alpha=10.0,
                          generator="complete", trials=1, disc_trials=200,
                          tolerances={"disc_slack": 1e-12})
        report = run_experiment(cfg)
        assert report.passed
        g = make_host(cfg)
        assert report.per_trial[0]["walk_edges"] == g.edge_count
        assert report.per_trial[0]["walk_discrepancy"] == \
            report.notes["host_discrepancy"]


class TestPathologyExperiment:
    def test_wrong_host_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(cfg_density(experiment="pathology"))

    def test_structure_and_containment(self):
        cfg = ExperimentConfig(
            experiment="pathology", n=160, seed=9,
            generator="two_clique_bridge", generator_params={"eps": 0.4},
            alpha=0.3, eps=0.1, trials=12,
            crossing_interval=[0.0, 1.0])
        report = run_experiment(cfg)
        p = float(np.mean([r["crossed"] for r in report.per_trial]))
        assert 0.0 <= p <= 1.0
        assert report.notes["small_clique"] == math.ceil(0.16 * 160 / 2)

    def test_start_inside_small_clique_always_crosses(self):
        cfg = ExperimentConfig(
            experiment="pathology", n=160, seed=9,
            generator="two_clique_bridge", generator_params={"eps": 0.4},
            alpha=0.05, eps=0.1, trials=3, start=0,
            crossing_interval=[0.0, 1.0])
        report = run_experiment(cfg)
        assert all(r["crossed"] for r in report.per_trial)

    @pytest.mark.parametrize("alpha,start", [
        (0.2, None), (0.05, 0), (0.05, 12), (0.05, 100),   # 5120 or 1280 steps, rows
        (0.01, None), (0.01, 5),                          # 256 steps, keys
        (0.0, 3), (0.0, None),                            # no step
    ])
    def test_crossed_read_from_edges_is_the_walks(self, backend, monkeypatch, alpha, start):
        # a walk enters the small clique 0..12 iff it starts there or one
        # of its edges ends there: the edges give the trace's answer, on
        # either side of the rows rule and across blocks of 100 steps
        monkeypatch.setattr(walks, "_BLOCK", 100)
        cfg = ExperimentConfig(
            experiment="pathology", n=160, seed=9,
            generator="two_clique_bridge", generator_params={"eps": 0.4},
            alpha=alpha, eps=0.1, trials=8, start=start,
            crossing_interval=[0.0, 1.0])
        report = run_experiment(cfg)
        g, s, first = make_host(cfg), report.notes["small_clique"], report.notes["start"]
        assert s == 13
        for r in report.per_trial:
            model = ListModel(g, derive_seed(9, DOMAIN_TRIALS, r["trial"]))
            trace = run_walk(g, model, first, walk_steps(alpha, 160))
            assert r["crossed"] == bool((trace.sequence < s).any())
            assert r["walk_edges"] == len(walk_subgraph(trace))
        if (alpha, start) == (0.2, None):  # both outcomes occur
            assert len({r["crossed"] for r in report.per_trial}) == 2


class TestMixingExperiment:
    def test_step_zero_tv_is_one_minus_pi_start(self):
        cfg = cfg_density(experiment="mixing", n=60, mixing_trials=4000,
                          schedule=[0], monotone_steps=[])
        report = run_experiment(cfg)
        g = make_host(cfg)
        pi = stationary(g)
        start = report.notes["start"]
        assert report.per_trial[0]["tv"] == pytest.approx(
            1 - float(pi.probs[start]), abs=1e-12)

    def test_decay_and_checks(self):
        cfg = cfg_density(experiment="mixing", n=100, mixing_trials=40_000,
                          schedule=[0, 2, 4, 8, 10],
                          monotone_steps=[2, 4, 8])
        report = run_experiment(cfg)
        tvs = {r["step"]: r["tv"] for r in report.per_trial}
        assert tvs[10] < 0.05
        assert report.passed, report.checks

    def test_degenerate_host_flagged_no_assertions(self):
        # an edgeless host is disconnected, so the step law cannot converge
        cfg = ExperimentConfig(experiment="mixing", n=6, seed=1,
                               generator="gnp", generator_params={"p": 0.0})
        report = run_experiment(cfg)
        assert report.notes.get("flagged")
        assert report.checks == [] and report.passed


class TestTreeExperiments:
    def test_counterexample_small(self):
        cfg = ExperimentConfig(
            experiment="tree_counterexample", n=200, seed=4,
            generator="complete", eps=0.1, trials=2, disc_trials=300,
            tolerances={"rel_distinct": 0.15})
        report = run_experiment(cfg)
        pred = report.predicted["value"]
        assert pred == pytest.approx(199 * (1 - (1 - 1 / 199) ** 100))
        for r in report.per_trial:
            assert abs(r["distinct_depth1_images"] / pred - 1) < 0.15
            assert r["structured_witness_deviation"] > 0.1
            assert r["refined_discrepancy"] >= r["sampled_discrepancy"]
            assert r["refined_discrepancy"] > 0.1

    def test_path_embedding_matches_density_numbers(self):
        base = dict(n=100, seed=21, generator_params={"p": 0.5},
                    alpha=0.25, eps=0.1, trials=2)
        dens = run_experiment(ExperimentConfig(experiment="density", **base))
        tree = run_experiment(ExperimentConfig(
            experiment="tree_embedding", tree_kind="path", **base))
        assert [r["image_edges"] for r in tree.per_trial] == \
            [r["walk_edges"] for r in dens.per_trial]

    def test_random_tree_embedding_report(self):
        cfg = ExperimentConfig(
            experiment="tree_embedding", n=100, seed=3,
            generator_params={"p": 0.5}, alpha=0.2, eps=0.1, trials=2,
            tree_max_degree=4, tolerances={"rel_edges": 0.1},
            degree_sweep=[2, 4, 8])
        report = run_experiment(cfg)
        assert len(report.notes["degree_sweep"]) == 3
        assert report.passed, report.checks
