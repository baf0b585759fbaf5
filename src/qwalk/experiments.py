"""Seeded, reproducible experiments with JSON reports.

Every experiment is a pure function of its configuration, including the
mandatory seed: the host graph, per-trial list models, and samplers all
draw from streams derived from the master seed, trials are reported in
index order, and re-running a config yields byte-identical JSON.
Reports embed the full config, the package version, per-trial
measurements, aggregates recomputable from them, the closed-form
predicted value with the formula it came from, and one pass flag per
configured tolerance.

Seed hygiene: a derived integer seed may safely be shared by a list
model and a subset sampler because the two consume different stream
domains; distinct trials get distinct derived seeds.
"""

from __future__ import annotations

import json
import math
import types
import typing
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .certify import discrepancy_refined, discrepancy_sampled
from .graph import (Graph, VertexSet, balanced_vertices, connectivity_profile,
                    density, edges_between, gen_complete, gen_gnp,
                    gen_two_clique_bridge, small_clique_size)
from .rng import DOMAIN_HOST, DOMAIN_STEP_LAW, DOMAIN_TRIALS, derive_seed, stream
from .trees import (gen_nary_tree, gen_path_tree, gen_random_tree,
                    image_subgraph, random_homomorphism)
from .walks import (Distribution, ListModel, balanced_start, stationary,
                    step_positions, tv_distance, walk_edges, walk_steps)


# what each check in an experiment passes at, unless config.tolerances says
TOLERANCES = {
    "rel_edges": 0.015,     # density, tree_embedding: mean edges vs prediction
    "rel_visits": 0.10,     # visits: the relative band around (alpha/rho)d(v)
    "frac_within": 0.99,    # visits: least fraction of vertices in the band
    "disc_slack": 0.02,     # preservation: walk discrepancy over the host's
    "burn_in": 2,           # mixing: first step of the nonincreasing tail
    "tv_at_10": 0.05,       # mixing: tv bound at step 10
    "rel_distinct": 0.03,   # tree_counterexample: distinct depth-1 images
}

# experiments whose checks run the discrepancy estimators, which need eps*n >= 1
_CERTIFYING = ("preservation", "tree_counterexample")


@dataclass
class ExperimentConfig:
    """Parameters for one experiment run; the seed is mandatory.

    Construction checks each field against its annotation, each name
    against its table and each value against its range, and raises
    ValueError on the first that fails.
    """

    experiment: str
    n: int
    seed: int
    generator: str = "gnp"              # a key of HOSTS
    generator_params: dict[str, float] = field(default_factory=dict)
    alpha: float = 0.5
    eps: float = 0.05
    trials: int = 5
    disc_trials: int = 1000             # subset-sampler budget per certification
    start: int | None = None            # default: lowest-id balanced vertex
    tolerances: dict[str, float] = field(default_factory=dict)  # keys of TOLERANCES
    # knobs for specific experiments
    schedule: list[int] = field(default_factory=lambda: [0, 1, 2, 4, 8, 10, 16])
    monotone_steps: list[int] | None = None  # default: all scheduled steps >= burn-in
    mixing_trials: int = 100_000
    gamma_coefficient: float = 0.5      # gamma = C * eps^(1/4) min-degree floor
    crossing_interval: list[float] = field(default_factory=lambda: [0.05, 0.95])  # [lo, hi]
    tree_kind: str = "random"           # a key of TREES
    tree_max_degree: int = 4
    tree_branching: int | None = None
    tree_depth: int = 2
    degree_sweep: list[int] = field(default_factory=list)

    def __post_init__(self):
        for key, hint in _FIELD_TYPES.items():
            value = getattr(self, key)
            why = _mismatch(value, hint)
            if why is None and key == "crossing_interval" and len(value) != 2:
                why = f"must hold 2 items, got {len(value)}"
            if why:
                raise ValueError(f"config key '{key}' {why}")
        for key, table in (("experiment", EXPERIMENTS), ("generator", HOSTS),
                           ("tree_kind", TREES)):
            value = getattr(self, key)
            if value not in table:
                raise ValueError(f"unknown {key} {value!r}; "
                                 f"choose from {sorted(table)}")
        for key, names in (("generator_params", ["eps", "p"]),
                           ("tolerances", sorted(TOLERANCES))):
            unknown = sorted(set(getattr(self, key)) - set(names))
            if unknown:
                raise ValueError(f"unknown {key} {unknown}; choose from {names}")
        if self.seed < 0:
            raise ValueError("a non-negative seed is mandatory")
        for key, value in (("alpha", self.alpha),
                           ("generator eps", self.generator_params.get("eps", 0.0))):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.experiment == "visits" and self.alpha == 0:
            # no vertex has a positive predicted count to compare against
            raise ValueError(f"alpha must be positive for visits, got {self.alpha}")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie strictly between 0 and 1")
        if self.experiment in _CERTIFYING and self.eps * self.n < 1:
            raise ValueError(f"eps*n must be at least 1 for {self.experiment}'s "
                             f"discrepancy checks, got eps={self.eps} and n={self.n}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.start is not None and not 0 <= self.start < self.n:
            raise ValueError(f"start must be a vertex of the host, 0..{self.n - 1}")
        if min(self.disc_trials, self.mixing_trials) < 1:
            raise ValueError("disc_trials and mixing_trials must be at least 1")
        p = self.generator_params.get("p")
        if p is not None and not 0 <= p <= 1:
            raise ValueError("generator p must lie in [0, 1]")
        lo, hi = self.crossing_interval
        if not 0 <= lo < hi <= 1:
            raise ValueError("crossing_interval [lo, hi] needs 0 <= lo < hi <= 1")
        for key in ("schedule", "monotone_steps"):
            if any(i < 0 for i in getattr(self, key) or ()):
                raise ValueError(f"{key} steps must be non-negative")
        if not self.schedule:
            raise ValueError("schedule must hold at least one step")
        if len(set(self.schedule)) < len(self.schedule):
            raise ValueError("schedule steps must be distinct")
        if not set(self.monotone_steps or ()) <= set(self.schedule):
            raise ValueError("monotone_steps must be steps of the schedule")
        steps = self.monotone_steps or []
        if any(a >= b for a, b in zip(steps, steps[1:])):
            raise ValueError("monotone_steps must be strictly ascending")
        if min([self.tree_max_degree, *self.degree_sweep]) < 2:
            raise ValueError("tree_max_degree and degree_sweep caps must be "
                             "at least 2")
        if self.tree_branching is not None and self.tree_branching < 1:
            raise ValueError("tree_branching must be at least 1")
        if self.tree_depth < 0:
            raise ValueError("tree_depth must be non-negative")

    def tolerance(self, name: str) -> float:
        """The configured tolerance ``name``, or its default in TOLERANCES."""
        return float(self.tolerances.get(name, TOLERANCES[name]))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**config_keys(json.loads(text)))


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def config_keys(data) -> dict:
    """``data`` if it is a dict whose keys all name ExperimentConfig fields;
    else ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_FIELD_TYPES))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _type_name(t: type) -> str:
    return "None" if t is type(None) else t.__name__


def _mismatch(value, hint) -> str | None:
    """Why ``value`` is not of type ``hint``, or None if it is: an int is a
    float, a bool is no number, list and dict items are checked."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    kinds = [typing.get_origin(t) or t for t in options]
    for option, kind in zip(options, kinds):
        if (isinstance(value, bool) and kind is not bool
                or not isinstance(value, (int, float) if kind is float else kind)):
            continue
        args = typing.get_args(option)
        items = (value.items() if kind is dict else enumerate(value)) if args else ()
        for k, item in items:
            why = _mismatch(item, args[-1])
            if why:
                return f"item {k!r} {why}"
        return None
    return (f"must be {' or '.join(map(_type_name, kinds))}, "
            f"got {_type_name(type(value))}")


@dataclass
class ExperimentReport:
    """Measurements, aggregates, prediction, and pass flags for one run."""

    experiment: str
    config: dict
    version: str
    per_trial: list
    aggregates: dict
    predicted: dict
    checks: list
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _aggregate(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    hist_counts, hist_edges = np.histogram(arr, bins=min(10, max(1, len(arr))))
    return {
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "histogram": {"edges": hist_edges.tolist(),
                      "counts": hist_counts.tolist()},
    }


def _check(name: str, observed: float, bound: float, ok: bool) -> dict:
    return {"name": name, "observed": float(observed), "bound": float(bound),
            "passed": bool(ok)}


def _aggregates(per_trial: list, *keys: str) -> dict:
    return {k: _aggregate([r[k] for r in per_trial]) for k in keys}


def _report(cfg: ExperimentConfig, per_trial: list, aggregates: dict,
            predicted: dict, checks: list, notes: dict) -> ExperimentReport:
    return ExperimentReport(
        experiment=cfg.experiment, config=asdict(cfg), version=__version__,
        per_trial=per_trial, aggregates=aggregates, predicted=predicted,
        checks=checks, passed=all(c["passed"] for c in checks), notes=notes)


def _clique_eps(cfg: ExperimentConfig) -> float:
    return float(cfg.generator_params.get("eps", 0.3))


# generator -> (n, p, eps, seed) -> the host; each reads what it needs
HOSTS = {
    "gnp": lambda n, p, eps, seed: gen_gnp(n, p, seed),
    "complete": lambda n, p, eps, seed: gen_complete(n),
    "two_clique_bridge": lambda n, p, eps, seed: gen_two_clique_bridge(n, eps),
}


def make_host(cfg: ExperimentConfig) -> Graph:
    return HOSTS[cfg.generator](cfg.n, float(cfg.generator_params.get("p", 0.5)),
                                _clique_eps(cfg),
                                derive_seed(cfg.seed, DOMAIN_HOST, 0))


def _trial_seed(cfg: ExperimentConfig, t: int) -> int:
    return derive_seed(cfg.seed, DOMAIN_TRIALS, t)


def _pick_start(cfg: ExperimentConfig, g: Graph) -> int:
    if cfg.start is not None:
        profile = balanced_vertices(g, cfg.eps)
        if cfg.start not in profile.balanced:
            warnings.warn(
                f"start vertex {cfg.start} is not balanced at eps={cfg.eps}")
        return cfg.start
    return balanced_start(g, cfg.eps)


def _setup(cfg: ExperimentConfig) -> tuple[Graph, float, int, int]:
    """The host, its density, the start vertex and the alpha*n^2 steps."""
    g = make_host(cfg)
    return g, density(g), _pick_start(cfg, g), walk_steps(cfg.alpha, cfg.n)


def _walk_trials(cfg: ExperimentConfig, g: Graph, start: int, steps: int):
    """Yield ``(t, visits, edges)`` per trial: the X_v (``consumed``) and the
    edges (``walk_edges``) of a walk on a fresh list model, which is dropped
    once they are read, so no trial holds a trace or another's model."""
    for t in range(cfg.trials):
        model = ListModel(g, _trial_seed(cfg, t))
        edges = walk_edges(g, model, start, steps)
        yield t, model.consumed, edges


def _retention_prediction(alpha: float, rho: float, n: int) -> dict:
    value = (1.0 - math.exp(-2.0 * alpha / rho)) * rho * n * (n - 1) / 2.0
    return {"value": value,
            "formula": "(1 - exp(-2*alpha/rho)) * rho * C(n, 2)"}


def _retention_checks(cfg: ExperimentConfig, counts: list,
                      predicted: dict) -> list:
    tol = cfg.tolerance("rel_edges")
    mean = float(np.mean(counts))
    rel = abs(mean / predicted["value"] - 1.0) if predicted["value"] else mean
    return [_check("mean_edges_rel_error", rel, tol, rel <= tol)]


def exp_density(cfg: ExperimentConfig) -> ExperimentReport:
    """Edge count of the traversed subgraph against its closed form.

    Each walk's edges are marked as it goes (``walk_edges``): no trace of
    a walk is held.
    """
    g, rho, start, steps = _setup(cfg)
    per_trial = [{"trial": t, "walk_edges": len(gw)}
                 for t, _, gw in _walk_trials(cfg, g, start, steps)]
    predicted = _retention_prediction(cfg.alpha, rho, cfg.n)
    checks = _retention_checks(
        cfg, [r["walk_edges"] for r in per_trial], predicted)
    return _report(cfg, per_trial, _aggregates(per_trial, "walk_edges"),
                   predicted, checks,
                   {"rho": rho, "steps": steps, "start": start})


def exp_visits(cfg: ExperimentConfig) -> ExperimentReport:
    """Distribution of relative visit-count deviations from (alpha/rho)d(v).
    Each walk's X_v is its list model's ``consumed``: no trace is held."""
    g, rho, start, steps = _setup(cfg)
    band = cfg.tolerance("rel_visits")
    need = cfg.tolerance("frac_within")
    per_trial = []
    for t, visits, _ in _walk_trials(cfg, g, start, steps):
        pred = (cfg.alpha / rho) * g.degrees
        live = pred > 0
        rel = np.abs(visits[live] / pred[live] - 1.0)
        per_trial.append({"trial": t,
                          "frac_within_band": float(np.mean(rel <= band)),
                          "max_rel_deviation": float(rel.max()),
                          "mean_rel_deviation": float(rel.mean())})
    fracs = [r["frac_within_band"] for r in per_trial]
    checks = [_check("min_frac_within_band", min(fracs), need,
                     min(fracs) >= need)]
    return _report(cfg, per_trial, _aggregates(per_trial, "frac_within_band"),
                   {"value": float(cfg.alpha / rho),
                    "formula": "X_v ~ (alpha/rho) * d(v)"},
                   checks, {"rho": rho, "band": band, "start": start})


def exp_preservation(cfg: ExperimentConfig) -> ExperimentReport:
    """Sampled discrepancy of the traversed subgraph versus the host's.

    Host and walk subgraphs are certified with the same sampler seed, so
    the comparison is paired: both maxima run over the same set pairs.
    Each walk's edges are marked as it goes (``walk_edges``): no trace of
    a walk is held.
    """
    g, rho, start, steps = _setup(cfg)
    gamma = cfg.gamma_coefficient * cfg.eps ** 0.25
    min_deg_ok = bool(g.degrees.min() >= gamma * cfg.n)
    if not min_deg_ok:
        warnings.warn("host minimum degree below gamma*n; "
                      "eps-preservation is not guaranteed at this scale")
    host_disc, _ = discrepancy_sampled(g, cfg.eps, cfg.disc_trials, cfg.seed)
    per_trial = []
    for t, _, gw in _walk_trials(cfg, g, start, steps):
        disc, _ = discrepancy_sampled(gw, cfg.eps, cfg.disc_trials, cfg.seed)
        per_trial.append({"trial": t, "walk_discrepancy": disc,
                          "walk_edges": gw.edge_count})
    slack = cfg.tolerance("disc_slack")
    worst = max(r["walk_discrepancy"] for r in per_trial)
    checks = [_check("walk_disc_minus_host_disc", worst - host_disc, slack,
                     worst <= host_disc + slack)]
    return _report(cfg, per_trial, _aggregates(per_trial, "walk_discrepancy"),
                   {"value": host_disc,
                    "formula": "sampled discrepancy of host at same eps"},
                   checks,
                   {"rho": rho, "host_discrepancy": host_disc,
                    "mode": "min-degree" if min_deg_ok else "general",
                    "gamma": gamma, "start": start})


def exp_pathology(cfg: ExperimentConfig) -> ExperimentReport:
    """Two-clique host: the walk's edge count is not concentrated.

    Reports the empirical probability of ever entering the small clique
    and the conditional edge-count distributions; asserts the crossing
    probability is interior to the calibrated interval and that the two
    conditional means are separated by more than two pooled standard
    errors.

    Each walk's edges are marked as it goes (``walk_edges``): no trace of
    a walk is held.  A walk crossed when it starts in the small clique
    0..s-1 or some edge it traversed has an endpoint there, since every
    vertex it visits after the start ends a traversed edge.
    """
    if cfg.generator != "two_clique_bridge":
        raise ValueError("the pathology experiment needs the two-clique host")
    g = make_host(cfg)
    s = small_clique_size(cfg.n, _clique_eps(cfg))
    start = cfg.start if cfg.start is not None else s  # large-clique corner
    steps = walk_steps(cfg.alpha, cfg.n)
    per_trial = [{"trial": t, "crossed": bool(start < s or gw.indptr[s] > 0),
                  "walk_edges": len(gw)}
                 for t, _, gw in _walk_trials(cfg, g, start, steps)]
    crossed = np.array([r["crossed"] for r in per_trial])
    edges = np.array([r["walk_edges"] for r in per_trial], dtype=np.float64)
    p_cross = float(crossed.mean())
    p_lo, p_hi = cfg.crossing_interval
    checks = [_check("crossing_probability_interior", p_cross,
                     p_hi, p_lo < p_cross < p_hi)]
    separation = math.nan  # fails: too few trials on one side
    if crossed.sum() >= 2 and (~crossed).sum() >= 2:
        a, b = edges[crossed], edges[~crossed]
        pooled = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        separation = abs(a.mean() - b.mean()) / pooled if pooled else math.inf
    checks.append(_check("conditional_mean_separation_sigmas",
                         separation, 2.0, separation > 2.0))
    return _report(cfg, per_trial,
                   {"walk_edges": _aggregate(edges),
                    "crossing_probability": _aggregate(crossed)},
                   {"value": None,
                    "formula": "no concentration: both crossing outcomes "
                               "keep probability bounded away from 0 and 1"},
                   checks,
                   {"small_clique": s, "start": start,
                    "crossing_interval": [p_lo, p_hi]})


def exp_mixing(cfg: ExperimentConfig) -> ExperimentReport:
    """Total variation distance to stationarity along a step schedule.

    Bipartite or disconnected hosts are flagged and nothing is asserted
    since the step law does not converge there.
    """
    g = make_host(cfg)
    connected, bipartite = connectivity_profile(g)
    if bipartite or not connected:
        return _report(cfg, [], {},
                       {"value": None,
                        "formula": "no convergence on bipartite or "
                                   "disconnected hosts"},
                       [], {"connected": connected, "bipartite": bipartite,
                            "flagged": True})
    start = _pick_start(cfg, g)
    pi = stationary(g)
    batches = min(20, cfg.mixing_trials)  # for standard errors of the tv trend
    per = cfg.mixing_trials // batches
    used = per * batches
    per_trial = []
    batch_tv = {}
    for k, i in enumerate(cfg.schedule):
        gen = stream(_trial_seed(cfg, k), DOMAIN_STEP_LAW, 0)
        counts = np.array([np.bincount(step_positions(g, start, int(i), per, gen),
                                       minlength=g.n) for _ in range(batches)])
        law = Distribution.from_counts(counts.sum(axis=0))
        tv = tv_distance(law, pi)
        batch_tv[int(i)] = np.array(
            [tv_distance(Distribution.from_counts(c), pi) for c in counts])
        per_trial.append({"step": int(i), "tv": tv})
    tvs = {r["step"]: r["tv"] for r in per_trial}
    burn_in = int(cfg.tolerance("burn_in"))
    checks = []
    if 10 in tvs:
        lim = cfg.tolerance("tv_at_10")
        checks.append(_check("tv_at_step_10", tvs[10], lim, tvs[10] < lim))
    tail = cfg.monotone_steps or [i for i in sorted(tvs) if i >= burn_in]
    for a, b in zip(tail, tail[1:]):
        diffs = batch_tv[b] - batch_tv[a]
        se = float(diffs.std(ddof=1) / math.sqrt(batches))
        checks.append(_check(f"tv_nonincreasing_{a}_to_{b}",
                             tvs[b] - tvs[a], 2 * se,
                             tvs[b] - tvs[a] <= 2 * se))
    # geometric envelope fitted on the decaying tail; reported, not asserted
    pts = [(i, tvs[i]) for i in sorted(tvs) if i >= 1 and tvs[i] > 0]
    rate = None
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.log([p[1] for p in pts])
        rate = math.exp(float(np.polyfit(xs, ys, 1)[0]))
    # Monte-Carlo resolution: the expected tv of a perfectly mixed sample
    noise_floor = float(
        0.5 * math.sqrt(2 / math.pi)
        * np.sqrt(pi.probs * (1 - pi.probs) / used).sum())
    return _report(cfg, per_trial, _aggregates(per_trial, "tv"),
                   {"value": rate,
                    "formula": "tv(i) <= c * lambda^i; fitted geometric rate"},
                   checks,
                   {"start": start, "batches": batches, "trials_used": used,
                    "noise_floor": noise_floor,
                    "connected": connected, "bipartite": bipartite})


def exp_tree_counterexample(cfg: ExperimentConfig) -> ExperimentReport:
    """Depth-2 high-arity tree into K_n: the image is dense but lopsided.

    Every image edge touches the root's image or a depth-1 image, so the
    pair (complement, complement) carries zero edges and its deviation
    equals the image density, far above any quasirandomness target.  The
    uniform sampled estimator cannot see that lopsidedness (its maxima
    sit far below eps), so the discrepancy check tests
    ``discrepancy_refined`` started from the sampler's witness: still a
    lower bound, and never below the sampled value.  Both are reported
    alongside the structured witness.
    """
    g = gen_complete(cfg.n)
    branching = cfg.n // 2 if cfg.tree_branching is None else cfg.tree_branching
    t = gen_nary_tree(branching, 2)
    root_image = cfg.start if cfg.start is not None else 0
    pred_distinct = (cfg.n - 1) * (1 - (1 - 1 / (cfg.n - 1)) ** branching)
    per_trial = []
    for tr in range(cfg.trials):
        model = ListModel(g, _trial_seed(cfg, tr))
        hom = random_homomorphism(g, t, model, root_image)
        depth1 = hom.image[1:1 + branching]
        distinct = int(len(np.unique(depth1)))
        gt = image_subgraph(hom)
        disc, sampled_pair = discrepancy_sampled(gt, cfg.eps, cfg.disc_trials,
                                                 _trial_seed(cfg, tr))
        refined, _ = discrepancy_refined(gt, cfg.eps, sampled_pair)
        hubs = np.zeros(cfg.n, dtype=bool)
        hubs[depth1] = True
        hubs[root_image] = True
        outside = VertexSet.from_mask(cfg.n, ~hubs)
        witness_dev = None
        if outside.size >= cfg.eps * cfg.n:
            e_out = edges_between(gt, outside, outside)
            witness_dev = abs(e_out - density(gt) * outside.size ** 2) \
                / outside.size ** 2
        per_trial.append({"trial": tr, "distinct_depth1_images": distinct,
                          "image_edges": gt.edge_count,
                          "sampled_discrepancy": disc,
                          "refined_discrepancy": refined,
                          "structured_witness_deviation": witness_dev})
    rel_tol = cfg.tolerance("rel_distinct")
    worst_rel = max(abs(r["distinct_depth1_images"] / pred_distinct - 1.0)
                    for r in per_trial)
    min_disc = min(r["refined_discrepancy"] for r in per_trial)
    checks = [
        _check("distinct_depth1_rel_error", worst_rel, rel_tol,
               worst_rel <= rel_tol),
        _check("refined_discrepancy_exceeds_eps", min_disc, cfg.eps,
               min_disc > cfg.eps),
    ]
    return _report(cfg, per_trial,
                   _aggregates(per_trial, "distinct_depth1_images",
                               "sampled_discrepancy", "refined_discrepancy"),
                   {"value": pred_distinct,
                    "formula": "(n-1) * (1 - (1 - 1/(n-1))^branching)"},
                   checks, {"branching": branching, "root_image": root_image})


def _given(value, kind: str, name: str):
    """``value``, or ValueError when a tree of ``kind`` lacks it."""
    if value is None:
        raise ValueError(f"{kind} trees need {name}")
    return value


# tree_kind -> (edges, branching, depth, max_degree, seed) -> the rooted
# tree; each reads what it needs, and None stands for a parameter not given
TREES = {
    "path": lambda edges, branching, depth, max_degree, seed:
        gen_path_tree(_given(edges, "path", "edges")),
    "nary": lambda edges, branching, depth, max_degree, seed:
        gen_nary_tree(_given(branching, "nary", "branching"), depth),
    "random": lambda edges, branching, depth, max_degree, seed:
        gen_random_tree(_given(edges, "random", "edges") + 1, max_degree, seed),
}


def _image_edges(g: Graph, tree, seed: int, start: int) -> int:
    """Edge count of the image of ``tree`` under a fresh seeded model."""
    return len(image_subgraph(
        random_homomorphism(g, tree, ListModel(g, seed), start)))


def exp_tree_embedding(cfg: ExperimentConfig) -> ExperimentReport:
    """Edge count of a random tree image against the retention closed form.

    With a path tree this reduces, seed for seed, to the density
    experiment.  An optional maximum-degree sweep reports the same
    measurement per degree cap without asserting anything; how large the
    cap may grow is an open question, so the sweep is observational.
    """
    g, rho, start, edges = _setup(cfg)
    branching = 2 if cfg.tree_branching is None else cfg.tree_branching
    per_trial = []
    for t in range(cfg.trials):
        seed = _trial_seed(cfg, t)
        tree = TREES[cfg.tree_kind](edges, branching, cfg.tree_depth,
                                    cfg.tree_max_degree, seed)
        per_trial.append({"trial": t,
                          "image_edges": _image_edges(g, tree, seed, start),
                          "tree_max_degree": int(tree.max_degree)})
    predicted = _retention_prediction(cfg.alpha, rho, cfg.n)
    checks = _retention_checks(
        cfg, [r["image_edges"] for r in per_trial], predicted)
    sweep = []
    for cap in map(int, cfg.degree_sweep):
        tree = gen_random_tree(edges + 1, cap, _trial_seed(cfg, 10_000 + cap))
        sweep.append({"max_degree": cap, "image_edges": _image_edges(
            g, tree, _trial_seed(cfg, 20_000 + cap), start)})
    return _report(cfg, per_trial, _aggregates(per_trial, "image_edges"),
                   predicted, checks,
                   {"rho": rho, "start": start, "tree_edges": edges,
                    "degree_sweep": sweep})


EXPERIMENTS = {
    "density": exp_density,
    "visits": exp_visits,
    "preservation": exp_preservation,
    "pathology": exp_pathology,
    "mixing": exp_mixing,
    "tree_counterexample": exp_tree_counterexample,
    "tree_embedding": exp_tree_embedding,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return EXPERIMENTS[cfg.experiment](cfg)
