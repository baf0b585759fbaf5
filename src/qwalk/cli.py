"""Command-line harness: generate graphs, certify them, run walks and
tree embeddings, and execute seeded experiments.

Exit codes: 0 when all assertions pass, 1 on an assertion failure,
2 on usage errors and on input that cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .certify import certify
from .experiments import (EXPERIMENTS, HOSTS, TREES, ExperimentConfig,
                          config_keys, run_experiment)
from .graph import load_graph, read_text, save_graph
from .trees import image_subgraph, random_homomorphism, save_homomorphism
from .walks import (ListModel, balanced_start, run_walk, save_trace, walk_steps,
                    walk_subgraph)


def _finite(text: str) -> float:
    """A float flag's value; argparse names the flag when it is not finite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a graph in edge-list format")
    p.add_argument("--kind", choices=sorted(HOSTS), default="gnp",
                   type=lambda k: "two_clique_bridge" if k == "two-clique" else k,
                   help="host kind; two-clique names two_clique_bridge")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--eps", type=_finite, default=0.3,
                   help="clique-size parameter for two-clique hosts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_certify(sub):
    p = sub.add_parser("certify", help="quasirandomness certification report")
    p.add_argument("--graph", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--out")


def _add_walk(sub):
    p = sub.add_parser("walk", help="run one seeded walk")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--alpha", type=float,
                   help="walk length alpha*n^2 when --steps is absent")
    p.add_argument("--start", type=int)
    p.add_argument("--eps", type=float, default=0.05,
                   help="balance tolerance for the default start")
    p.add_argument("--trace")
    p.add_argument("--subgraph")


def _add_tree(sub):
    p = sub.add_parser("tree", help="embed a rooted tree into a host graph")
    p.add_argument("--host", required=True)
    p.add_argument("--kind", choices=sorted(TREES), required=True)
    p.add_argument("--edges", type=int, help="path/random tree edge count")
    p.add_argument("--branching", type=int)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root-image", type=int, default=0)
    p.add_argument("--out-map")
    p.add_argument("--out-subgraph")


def _add_experiment(sub):
    # a flag left out falls back to the config file, then to ExperimentConfig
    p = sub.add_parser("experiment", help="run a named seeded experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--generator", choices=sorted(HOSTS))
    p.add_argument("--generator-eps", type=float,
                   help="clique-size parameter for two_clique_bridge")
    p.add_argument("--alpha", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=int)
    p.add_argument("--config", help="JSON config; flags given override it")
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="random-walk and tree-embedding laboratory for "
                    "quasirandom graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_certify(sub)
    _add_walk(sub)
    _add_tree(sub)
    _add_experiment(sub)
    return parser


def _cmd_generate(args) -> int:
    g = HOSTS[args.kind](args.n, args.p, args.eps, args.seed)
    save_graph(g, args.out)
    print(f"wrote {g} to {args.out}")
    return 0


def _cmd_certify(args) -> int:
    g = load_graph(args.graph)
    report = certify(g, args.eps, trials=args.trials, seed=args.seed,
                     exhaustive=args.exhaustive)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.quasirandom else 1


def _cmd_walk(args) -> int:
    g = load_graph(args.graph)
    if args.steps is None and args.alpha is None:
        print("error: need --steps or --alpha", file=sys.stderr)
        return 2
    steps = walk_steps(args.alpha, g.n) if args.steps is None else args.steps
    start = args.start if args.start is not None else balanced_start(g, args.eps)
    trace = run_walk(g, ListModel(g, args.seed), start, steps)
    sub = walk_subgraph(trace)
    print(json.dumps({"start": start, "steps": steps,
                      "distinct_edges": len(sub),
                      "distinct_vertices": int((sub.degrees > 0).sum()) or 1},
                     sort_keys=True))
    if args.trace:
        save_trace(trace, args.trace)
    if args.subgraph:
        save_graph(sub, args.subgraph)
    return 0


def _cmd_tree(args) -> int:
    g = load_graph(args.host)
    tree = TREES[args.kind](args.edges, args.branching, args.depth,
                            args.max_degree, args.seed)
    hom = random_homomorphism(g, tree, ListModel(g, args.seed), args.root_image)
    sub = image_subgraph(hom)
    print(json.dumps({"tree_vertices": tree.size,
                      "tree_max_degree": tree.max_degree,
                      "image_edges": len(sub)}, sort_keys=True))
    if args.out_map:
        save_homomorphism(hom, args.out_map)
    if args.out_subgraph:
        save_graph(sub, args.out_subgraph)
    return 0


def _read_config(path: str) -> dict:
    """The config object in ``path``; an error names the file and line."""
    try:
        base = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    try:
        return config_keys(base)
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None


def _cmd_experiment(args) -> int:
    # ExperimentConfig checks every value; this only says where a bad one
    # came from.  The file's values are checked before any flag overrides
    # them, with the flags' values for the keys the file leaves out, so a
    # check across keys (eps*n) sees the n and eps that will run; the
    # failure names the file unless the flags alone fail as well.
    given = vars(args)
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    flags = {k: v for k, v in given.items() if k in keys}
    flags["experiment"] = args.name
    base = {}
    if given.get("config"):
        base = _read_config(args.config)
        try:
            ExperimentConfig(**{**flags, **base})
        except ValueError as exc:
            try:
                ExperimentConfig(**flags)
            except ValueError:
                raise exc from None
            raise ValueError(f"{args.config}:1: {exc}") from None
    params = dict(base.get("generator_params", {}))
    params.update({key: given[flag] for flag, key in
                   (("p", "p"), ("generator_eps", "eps")) if flag in given})
    cfg = ExperimentConfig(**{**base, **flags, "generator_params": params})
    report = run_experiment(cfg)
    text = report.to_json()
    if given.get("out"):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "certify": _cmd_certify,
        "walk": _cmd_walk,
        "tree": _cmd_tree,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
