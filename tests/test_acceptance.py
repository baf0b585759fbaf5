"""Acceptance battery: twelve frozen quantitative criteria.

Each test prints one [PASS]/[FAIL] line with the measured numbers (run
with ``pytest -s`` to see them all).  Every tolerance is pinned here;
nothing is calibrated at run time.

One criterion encodes a target that is statistically unattainable at
its stated parameters and is expected to fail; it is kept as written
rather than loosened, and its docstring carries the variance arithmetic
and measured values:

* criterion 4: with walk length alpha*n^2 = 5e5 on n = 1000 the visit
  counts are binomial-like with relative sd ~ (alpha*n)^-0.5 = 4.5%, so
  a 10% band is only 2.2 sigma and about 2.5% of vertices fall outside;
  requiring 99% inside cannot hold (it would at n = 2000, where the
  band is 3.2 sigma).

Criterion 11's discrepancy clause is met by the best-response lower
bound (``discrepancy_refined``) started from the uniform sampler's
witness; the sampler alone finds maxima near 0.04 on that image, since
its per-pair deviation has sd about 0.014 and 0.1 would be a 7+ sigma
sample.
"""

import math

import numpy as np

from qwalk.certify import (discrepancy_exhaustive, discrepancy_sampled,
                           lambda_bound_from_trace, lambda_estimate, trace_p4)
from qwalk.experiments import ExperimentConfig, run_experiment
from qwalk.graph import (build_graph, gen_complete, gen_gnp,
                         gen_two_clique_bridge)
from qwalk.rng import DOMAIN_TRIALS, derive_seed
from qwalk.trees import (decompose_tree, gen_path_tree, gen_random_tree,
                         random_homomorphism)
from qwalk.walks import (ListModel, balanced_start, list_subgraph, run_walk,
                         sandwich_bounds, walk_subgraph)

MASTER_SEED = 20240601


def report(num, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {detail}")
    return passed


def cycle_graph(k):
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def walk_matrix_eigs(g):
    a = g.adjacency_dense()
    s = 1.0 / np.sqrt(a.sum(1))
    return np.linalg.eigvalsh(a * s[:, None] * s[None, :])


def test_criterion_01_density_prediction():
    """Mean walk-subgraph edge count within 1.5% of the retention formula."""
    n, p, alpha, trials = 2000, 0.5, 0.5, 10
    g = gen_gnp(n, p, derive_seed(MASTER_SEED, DOMAIN_TRIALS, 1))
    start = balanced_start(g, 0.05)
    steps = int(alpha * n * n)
    counts = []
    for t in range(trials):
        model = ListModel(g, derive_seed(MASTER_SEED, DOMAIN_TRIALS, 100 + t))
        counts.append(len(walk_subgraph(run_walk(g, model, start, steps))))
    predicted = (1 - math.exp(-2)) * 0.5 * (n * (n - 1) / 2)
    mean = float(np.mean(counts))
    rel = abs(mean / predicted - 1)
    ok = rel <= 0.015
    assert report(1, ok,
                  f"mean |E(G_W)| = {mean:.0f} vs predicted {predicted:.0f} "
                  f"(rel err {rel:.4%}, tolerance 1.5%)")


def test_criterion_02_edge_retention_closed_form():
    """Monte-Carlo prefix retention on a 100-regular host matches
    1 - 0.99^100 within 3 standard errors over 1e5 trials."""
    g = gen_complete(101)  # 100-regular
    k = int(0.5 * 100)
    trials = 100_000
    hits = 0
    for t in range(trials):
        model = ListModel(g, derive_seed(MASTER_SEED, DOMAIN_TRIALS, 200_000 + t))
        hits += (0 in model.entries(1, k)) or (1 in model.entries(0, k))
    p_hat = hits / trials
    p = 1 - (1 - 1 / 100) ** 100
    se = math.sqrt(p * (1 - p) / trials)
    ok = abs(p_hat - p) < 3 * se
    assert report(2, ok,
                  f"retention {p_hat:.4f} vs {p:.4f} "
                  f"(|dev| = {abs(p_hat - p) / se:.2f} se, limit 3 se)")


def test_criterion_03_coupling_sandwich():
    """list_subgraph(a_lo) <= walk_subgraph <= list_subgraph(a_hi), exactly,
    for 100 seeded runs across 5 hosts."""
    hosts = [
        gen_gnp(80, 0.5, 11), gen_gnp(120, 0.3, 12), gen_complete(60),
        gen_two_clique_bridge(150, 0.4), gen_gnp(100, 0.7, 13),
    ]
    violations = 0
    runs = 0
    for h_idx, g in enumerate(hosts):
        start = balanced_start(g, 0.4)
        for r in range(20):
            seed = derive_seed(MASTER_SEED, DOMAIN_TRIALS, 300_000 + 100 * h_idx + r)
            trace = run_walk(g, ListModel(g, seed), start, 1500)
            lo, hi = sandwich_bounds(trace, g)
            fresh = ListModel(g, seed)
            gw = walk_subgraph(trace)
            if not (list_subgraph(g, fresh, lo).issubset(gw)
                    and gw.issubset(list_subgraph(g, fresh, hi))):
                violations += 1
            runs += 1
    ok = violations == 0 and runs == 100
    assert report(3, ok, f"{runs} coupled runs, {violations} sandwich violations")


def test_criterion_04_visit_concentration():
    """On G(1000, 0.5) with alpha = 0.5, at least 99% of vertices within
    10% of (alpha/rho) d(v), for each of 5 seeds.

    Expected to fail: the relative sd of X_v here is (alpha*n)^-0.5 = 4.5%,
    so the 10% band is 2.24 sigma and only ~97.5% of vertices sit inside.
    """
    cfg = ExperimentConfig(
        experiment="visits", n=1000, seed=MASTER_SEED,
        generator_params={"p": 0.5}, alpha=0.5, eps=0.05, trials=5,
        tolerances={"rel_visits": 0.10, "frac_within": 0.99})
    rep = run_experiment(cfg)
    fracs = [r["frac_within_band"] for r in rep.per_trial]
    ok = rep.passed
    assert report(4, ok,
                  f"fraction within 10% per seed = "
                  f"{[f'{f:.3f}' for f in fracs]} (need >= 0.99 each)")


def test_criterion_05_spectral_certification():
    """trace vs eigensolver at 1e-9 on 50 small graphs; trace bound <= 0.5
    on G(500, 0.5) for 5 seeds; circulant closed forms at 1e-8."""
    worst = 0.0
    checked = 0
    for s in range(200):
        if checked >= 50:
            break
        g = gen_gnp(4 + s % 7, 0.6, derive_seed(MASTER_SEED, DOMAIN_TRIALS, 400_000 + s))
        if g.n < 2 or g.degrees.min() == 0:
            continue
        worst = max(worst, abs(trace_p4(g) - float((walk_matrix_eigs(g) ** 4).sum())))
        checked += 1
    bounds = []
    for s in range(5):
        g = gen_gnp(500, 0.5, derive_seed(MASTER_SEED, DOMAIN_TRIALS, 500_000 + s))
        bounds.append(lambda_bound_from_trace(g))
    c5_err = abs(lambda_estimate(cycle_graph(5))
                 - abs(math.cos(4 * math.pi / 5)))
    c7_err = abs(lambda_estimate(cycle_graph(7))
                 - math.cos(math.pi / 7))
    ok = (checked == 50 and worst <= 1e-9 and max(bounds) <= 0.5
          and c5_err <= 1e-8 and c7_err <= 1e-8)
    assert report(5, ok,
                  f"trace err {worst:.2e} over {checked} graphs; "
                  f"max bound {max(bounds):.3f} (<= 0.5); "
                  f"C5/C7 errs {c5_err:.1e}/{c7_err:.1e}")


def test_criterion_06_discrepancy_oracle_equivalence():
    """Sampled discrepancy with an exhaustive trial budget equals the
    exhaustive value exactly on 30 small graphs."""
    mismatches = 0
    for s in range(30):
        n = 5 + s % 3
        g = gen_gnp(n, 0.4 + 0.05 * (s % 5),
                    derive_seed(MASTER_SEED, DOMAIN_TRIALS, 600_000 + s))
        eps = 0.5
        lo = math.ceil(eps * n)
        q_subsets = sum(math.comb(n, r) for r in range(lo, n + 1))
        q_pairs = q_subsets ** 2
        trials = int(q_pairs * (math.log(q_pairs) + 30))
        exact, _ = discrepancy_exhaustive(g, eps)
        approx, _ = discrepancy_sampled(g, eps, trials, s)
        if approx != exact:
            mismatches += 1
    ok = mismatches == 0
    assert report(6, ok, f"30 graphs, {mismatches} sampled != exhaustive")


def test_criterion_07_quasirandomness_preservation():
    """Sampled discrepancy of the walk subgraph within 0.02 of the host's
    at eps = 0.05 on G(1000, 0.5), for each of 5 seeds."""
    overshoots = []
    for s in range(5):
        cfg = ExperimentConfig(
            experiment="preservation", n=1000,
            seed=derive_seed(MASTER_SEED, DOMAIN_TRIALS, 700_000 + s),
            generator_params={"p": 0.5}, alpha=0.5, eps=0.05, trials=1,
            disc_trials=1000, tolerances={"disc_slack": 0.02})
        rep = run_experiment(cfg)
        overshoots.append(rep.checks[0]["observed"])
        if not rep.passed:
            break
    ok = len(overshoots) == 5 and max(overshoots) <= 0.02
    assert report(7, ok,
                  f"walk minus host discrepancy per seed = "
                  f"{[f'{o:+.4f}' for o in overshoots]} (slack 0.02)")


def test_criterion_08_mixing():
    """d_TV(W_10, pi) < 0.05 with 1e5 trials on G(300, 0.5); d_TV
    non-increasing within 2 se along steps 2, 4, 8, 16."""
    cfg = ExperimentConfig(
        experiment="mixing", n=300, seed=MASTER_SEED,
        generator_params={"p": 0.5}, eps=0.05,
        schedule=[2, 4, 8, 10, 16], monotone_steps=[2, 4, 8, 16],
        mixing_trials=100_000)
    rep = run_experiment(cfg)
    tvs = {r["step"]: r["tv"] for r in rep.per_trial}
    ok = rep.passed
    assert report(8, ok,
                  f"tv = {[f'{i}:{tvs[i]:.4f}' for i in sorted(tvs)]}; "
                  f"checks {'all pass' if ok else [c for c in rep.checks if not c['passed']]}")


def test_criterion_09_tree_decomposition():
    """1000 random trees, random L: pieces edge-disjoint, covering,
    connected-rooted, sizes in [L, 3L]; zero violations."""
    rng = np.random.default_rng(MASTER_SEED)
    violations = 0
    for k in range(1000):
        size = int(rng.integers(2, 201))
        max_deg = int(rng.integers(2, 8))
        t = gen_random_tree(size, max_deg, derive_seed(MASTER_SEED, DOMAIN_TRIALS, 800_000 + k))
        L = int(rng.integers(1, t.n_edges + 1))
        dec = decompose_tree(t, L)
        seen = set()
        good = True
        for root, edges in dec.pieces:
            if not L <= len(edges) <= 3 * L:
                good = False
            verts = {root}
            pending = list(edges)
            while pending:
                rest = [(p, c) for p, c in pending if p not in verts]
                for p, c in pending:
                    if p in verts:
                        verts.add(c)
                if len(rest) == len(pending):
                    good = False
                    break
                pending = rest
            for e in edges:
                if e in seen:
                    good = False
                seen.add(e)
        if seen != {(int(t.parents[j]), j) for j in range(1, t.size)}:
            good = False
        if not good:
            violations += 1
    ok = violations == 0
    assert report(9, ok, f"1000 trees decomposed, {violations} violations")


def test_criterion_10_path_tree_coupling():
    """random_homomorphism on a path tree reproduces run_walk exactly,
    for 50 seeds."""
    g = gen_gnp(60, 0.5, 21)
    start = balanced_start(g, 0.2)
    steps = 400
    mismatches = 0
    for s in range(50):
        seed = derive_seed(MASTER_SEED, DOMAIN_TRIALS, 900_000 + s)
        walk = run_walk(g, ListModel(g, seed), start, steps)
        hom = random_homomorphism(g, gen_path_tree(steps), ListModel(g, seed), start)
        if not np.array_equal(hom.image, walk.sequence):
            mismatches += 1
    ok = mismatches == 0
    assert report(10, ok, f"50 seeds, {mismatches} sequence mismatches")


def test_criterion_11_tree_counterexample():
    """On K_2000 with the 1000-ary depth-2 tree: distinct depth-1 images
    within 3% of the occupancy formula, and discrepancy at eps = 0.1
    above 0.1, for each of 5 seeds.

    The discrepancy is the best-response lower bound started from the
    uniform sampler's witness (measured ~0.54-0.55).  The sampler alone
    finds maxima ~0.04 on this image, although the structured witness
    shows it is far from 0.1-quasirandom (deviation ~0.32).
    """
    cfg = ExperimentConfig(
        experiment="tree_counterexample", n=2000, seed=MASTER_SEED,
        generator="complete", eps=0.1, trials=5, disc_trials=2000,
        tolerances={"rel_distinct": 0.03})
    rep = run_experiment(cfg)
    pred = rep.predicted["value"]
    distinct = [r["distinct_depth1_images"] for r in rep.per_trial]
    discs = [r["sampled_discrepancy"] for r in rep.per_trial]
    refined = [r["refined_discrepancy"] for r in rep.per_trial]
    wits = [r["structured_witness_deviation"] for r in rep.per_trial]
    ok = rep.passed
    assert report(11, ok,
                  f"distinct = {distinct} vs {pred:.1f} (3% band); refined "
                  f"disc = {[f'{d:.3f}' for d in refined]} (need > 0.1) from "
                  f"sampled {[f'{d:.3f}' for d in discs]}; "
                  f"witness dev = {[f'{w:.3f}' for w in wits]}")


def test_criterion_12_two_clique_pathology():
    """On the (600, 0.3) two-clique host with calibrated alpha = 0.25:
    crossing probability strictly inside (0.05, 0.95) over 200 trials and
    conditional edge-count means more than 2 pooled se apart."""
    cfg = ExperimentConfig(
        experiment="pathology", n=600, seed=MASTER_SEED,
        generator="two_clique_bridge", generator_params={"eps": 0.3},
        alpha=0.25, eps=0.05, trials=200,
        crossing_interval=[0.05, 0.95])
    rep = run_experiment(cfg)
    p_cross = rep.checks[0]["observed"]
    sep = rep.checks[1]["observed"]
    ok = rep.passed
    assert report(12, ok,
                  f"crossing probability {p_cross:.3f} in (0.05, 0.95); "
                  f"conditional mean separation {sep:.1f} pooled se (need > 2)")
