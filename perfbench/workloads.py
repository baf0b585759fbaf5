"""The benchmark's workloads: inputs, entry-point call and output checks.

Each workload makes its inputs from the workload seed alone and calls one
user-facing entry point of qwalk, looked up at call time so that a traced
run goes through the tracer's wrappers.  Checks run outside the timed
region and come in two kinds:

* pinned: on a seed with a stored reference, every pinned ``per_trial``
  and ``predicted`` value, and the exit code of a command-line call, must
  keep its value; added keys, ``version``, ``checks`` and ``passed`` are
  ignored;
* cross-checks: two code paths that must agree on any seed, such as the
  walk/list-model sandwich, a path tree replaying a walk, and a replayed
  tree homomorphism.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

def _qwalk(module: str):
    return importlib.import_module(f"qwalk.{module}")


# -- entry-point calls ------------------------------------------------------

def run_report(config: dict) -> str:
    """One ``run_experiment`` call, finished as its JSON report."""
    exp = _qwalk("experiments")
    return exp.run_experiment(exp.ExperimentConfig(**config)).to_json()


def run_cli(argv: list) -> tuple[int, str]:
    """One in-process ``qwalk`` command-line call: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _qwalk("cli").main(argv)
    return code, out.getvalue()


# -- pinned comparison -------------------------------------------------------

def diff_pinned(got, want, where: str = "", rel: float = 0.0) -> list[str]:
    """Where ``got`` departs from the pinned ``want``; keys only in ``got`` pass.

    Floats compare exactly when ``rel`` is 0 and to ``rel`` relative
    otherwise; every other scalar compares exactly, booleans by type too.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object, got {got!r}"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(diff_pinned(got[key], value, f"{where}.{key}", rel))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected a list of {len(want)}, got {got!r:.80}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in diff_pinned(g, w, f"{where}[{i}]", rel)]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isnan(want) and math.isnan(got):
            return []
        if rel and math.isclose(got, want, rel_tol=rel, abs_tol=0.0):
            return []
    if type(got) is bool or type(want) is bool:
        same = type(got) is type(want) and got == want
    else:
        same = got == want
    return [] if same else [f"{where}: pinned {want!r}, got {got!r}"]


def pin_experiment(text: str) -> dict:
    report = json.loads(text)
    return {"per_trial": report["per_trial"], "predicted": report["predicted"]}


def check_experiment(text: str, ref: dict) -> list[str]:
    return diff_pinned(json.loads(text), ref, "report")


def pin_cli_experiment(output) -> dict:
    code, text = output
    return dict(pin_experiment(text), exit_code=code)


def check_cli_experiment(output, ref: dict) -> list[str]:
    code, text = output
    problems = diff_pinned(json.loads(text), {k: v for k, v in ref.items() if k != "exit_code"},
                           "report")
    if code != ref["exit_code"]:
        problems.append(f"exit code {code}, pinned {ref['exit_code']}")
    return problems


# -- cross-checks ------------------------------------------------------------

def _trial_model_seed(seed: int, trial: int) -> int:
    rng = _qwalk("rng")
    return rng.derive_seed(seed, rng.DOMAIN_TRIALS, trial)


def replay_walk_trial(g, start: int, steps: int, model_seed: int, row: dict):
    """Replay one trial's walk from a fresh model and check it against the
    report row and against a path tree.  Returns (problems, trace)."""
    w, t = _qwalk("walks"), _qwalk("trees")
    trace = w.run_walk(g, w.ListModel(g, model_seed), start, steps)
    edges = len(w.walk_subgraph(trace))
    problems = []
    if row.get("walk_edges") != edges:
        problems.append(f"trial 0 walk_edges {row.get('walk_edges')}, replay gives {edges}")
    hom = t.random_homomorphism(g, t.gen_path_tree(steps), w.ListModel(g, model_seed), start)
    if not np.array_equal(hom.image, trace.sequence):
        problems.append("path tree does not reproduce the walk sequence")
    return problems, trace


def check_sandwich(g, trace, model_seed: int) -> list[str]:
    """list_subgraph(alpha_lo) <= walk subgraph <= list_subgraph(alpha_hi)."""
    w = _qwalk("walks")
    walked = w.walk_subgraph(trace)
    lo, hi = w.sandwich_bounds(trace, g)
    fresh = w.ListModel(g, model_seed)
    problems = []
    if not w.list_subgraph(g, fresh, lo).issubset(walked):
        problems.append(f"list_subgraph(alpha_lo={lo}) is not inside the walk subgraph")
    if not walked.issubset(w.list_subgraph(g, fresh, hi)):
        problems.append(f"walk subgraph is not inside list_subgraph(alpha_hi={hi})")
    return problems


def _experiment_basics(report: dict, config: dict) -> list[str]:
    rows = report.get("per_trial", [])
    if [r.get("trial") for r in rows] != list(range(config["trials"])):
        return [f"per_trial rows are not trials 0..{config['trials'] - 1}"]
    return []


def cross_walk_long(seed: int, output, argv: list) -> list[str]:
    exp, w = _qwalk("experiments"), _qwalk("walks")
    code, text = output
    report = json.loads(text)
    config = report["config"]
    problems = _experiment_basics(report, config)
    if code != (0 if report["passed"] else 1):
        problems.append(f"exit code {code} disagrees with passed={report['passed']}")
    cfg = exp.ExperimentConfig(**config)
    if (cfg.experiment, cfg.n, cfg.seed, cfg.alpha, cfg.trials) != ("density", 2000, seed, 0.5, 1):
        problems.append(f"report config {config} is not the requested one")
    g = exp.make_host(cfg)
    start = w.balanced_start(g, cfg.eps)
    if report["notes"].get("start") != start:
        problems.append(f"notes.start {report['notes'].get('start')}, expected {start}")
    model_seed = _trial_model_seed(seed, 0)
    found, trace = replay_walk_trial(g, start, int(cfg.alpha * cfg.n * cfg.n), model_seed,
                                     report["per_trial"][0])
    return problems + found + check_sandwich(g, trace, model_seed)


def cross_tree_star(seed: int, text: str, config: dict) -> list[str]:
    report = json.loads(text)
    problems = _experiment_basics(report, config)
    graph, w, t = _qwalk("graph"), _qwalk("walks"), _qwalk("trees")
    n = config["n"]
    g = graph.gen_complete(n)
    tree = t.gen_nary_tree(n // 2, 2)
    hom = t.random_homomorphism(g, tree, w.ListModel(g, _trial_model_seed(seed, 0)), 0)
    if not hom.is_edge_preserving():
        problems.append("trial 0 homomorphism is not edge preserving")
    row = report["per_trial"][0]
    distinct = len(np.unique(hom.image[1:1 + n // 2]))
    if row.get("distinct_depth1_images") != distinct:
        problems.append(f"trial 0 distinct_depth1_images {row.get('distinct_depth1_images')}, "
                        f"replay gives {distinct}")
    edges = len(t.image_subgraph(hom))
    if row.get("image_edges") != edges:
        problems.append(f"trial 0 image_edges {row.get('image_edges')}, replay gives {edges}")
    return problems


# -- inputs --------------------------------------------------------------------

def walk_long_inputs(seed: int) -> list:
    return ["experiment", "density", "--n", "2000", "--p", "0.5", "--alpha", "0.5",
            "--eps", "0.05", "--trials", "1", "--seed", str(seed)]


def tree_star_inputs(seed: int) -> dict:
    return {"experiment": "tree_counterexample", "n": 2000, "seed": seed,
            "generator": "complete", "eps": 0.1, "trials": 1, "disc_trials": 2000,
            "tolerances": {"rel_distinct": 0.03}}


@dataclass(frozen=True)
class Workload:
    call_s: float             # one call's wall time at the commit that added the benchmark
    inputs: Callable          # seed -> what the program receives
    call: Callable            # inputs -> output
    pin: Callable             # output -> pinned reference
    check_pinned: Callable    # (output, reference) -> problems
    cross_check: Callable     # (seed, output, inputs) -> problems


WORKLOADS = {
    "walk_long": Workload(4.2, walk_long_inputs, run_cli, pin_cli_experiment,
                          check_cli_experiment, cross_walk_long),
    "tree_star": Workload(5.5, tree_star_inputs, run_report, pin_experiment,
                          check_experiment, cross_tree_star),
}
