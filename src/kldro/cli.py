"""Command-line front end.

Subcommands:

* ``run``       -- execute a sweep described by a JSON config and write CSVs;
  ``--set KEY=VALUE`` overrides one config key (the seed too), with VALUE
  read as none/null, an int, a float or a string (comma-separated for the
  grid and the rules) and type-checked with the rest of the config;
* ``worstcase`` -- worst-case mean of a single pmf over a KL ball;
* ``radius``    -- the three radius calibrations for one action;
* ``graph``     -- dump a layered graph as an edge list.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .experiments import ExperimentConfig, emit_results, run_sweep
from .graphs import build_layered, to_edgelist
from .marginals import PmfMatrix, Support
from .radius import radius_agrawal, radius_baseline, radius_best, radius_mardia
from .worstcase import solve_dual


def _parse_value(text: str):
    """None for none/null, else an int, else a float, else the text itself;
    ``ExperimentConfig.from_dict`` then checks the type against the key."""
    if text.lower() in ("none", "null"):
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _apply_overrides(raw: dict, overrides: list[str]) -> dict:
    out = dict(raw)
    lists = {f.name for f in fields(ExperimentConfig) if f.type == "tuple"}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, text = item.split("=", 1)
        if key in lists:
            out[key] = [_parse_value(part) for part in text.split(",") if part != ""]
        else:
            out[key] = _parse_value(text)
    return out


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",") if p != ""])
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers")


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config {args.config}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValueError("invalid config: config must be a JSON object")
    try:
        cfg = ExperimentConfig.from_dict(_apply_overrides(raw, args.set or []))
    except ValueError as exc:
        raise ValueError(f"invalid config: {exc}") from exc
    results = run_sweep(cfg, workers=args.threads)
    results_path, agg_path = emit_results(results, args.out, cfg.sweep, cfg.rules)
    for point in results:
        for rule in cfg.rules:
            mean_rho, mad_rho, freq = point.aggregates[rule]
            print(
                f"{cfg.sweep}={point.sweep_value:g} {rule}: mean_rho={mean_rho:.6f} "
                f"mad_rho={mad_rho:.6f} disappointment={freq:.4f}"
            )
    print(f"wrote {results_path} and {agg_path}")
    return 0


def cmd_worstcase(args) -> int:
    points = _parse_floats(args.z, "--z")
    probs = _parse_floats(args.q, "--q")
    if not args.r >= 0:  # NaN too
        raise ValueError("--r must be nonnegative")
    sol = solve_dual(PmfMatrix(Support(points), probs), args.r)
    print(f"worst-case expected cost: {sol.value!r}")
    print(f"beta: {sol.beta!r}")
    pmf = ", ".join(f"{z:g}: {float(p)!r}" for z, p in zip(points, sol.primal.probs))
    print(f"worst-case pmf: {pmf}")
    return 0


def cmd_radius(args) -> int:
    T, d, alpha_a = args.T, args.d, args.alpha_a
    value, label = radius_best(T, d, args.A, alpha_a, alpha_a)  # checks the inputs
    print(f"baseline: {float(radius_baseline(T, d, args.A, alpha_a))!r}")
    if d >= 2:
        print(f"agrawal:  {float(radius_agrawal(T, d, alpha_a))!r}")
        if T >= 2:
            print(f"mardia:   {float(radius_mardia(T, d, alpha_a))!r}")
        else:
            print("mardia:   n/a (needs T >= 2)")
    else:
        print("agrawal:  n/a (needs d >= 2)")
        print("mardia:   n/a (needs d >= 2)")
    print(f"minimum:  {float(value)!r} ({label})")
    return 0


def cmd_graph(args) -> int:
    g = build_layered(args.layers, args.width)
    text = to_edgelist(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({g.num_nodes} nodes, {g.num_arcs} arcs)")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kldro",
        description="Distributionally robust rules for data-driven shortest paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker processes (at most one per CPU)")
    p_run.set_defaults(func=cmd_run)

    p_wc = sub.add_parser("worstcase", help="worst-case mean over a KL ball")
    p_wc.add_argument("--z", required=True, help="support points, e.g. 1,2")
    p_wc.add_argument("--q", required=True, help="pmf, e.g. 0.5,0.5")
    p_wc.add_argument("--r", type=float, required=True, help="ball radius")
    p_wc.set_defaults(func=cmd_worstcase)

    p_rad = sub.add_parser("radius", help="the three radius calibrations")
    p_rad.add_argument("--T", type=int, required=True, help="sample count of the action")
    p_rad.add_argument("--d", type=int, required=True, help="support size of the action")
    p_rad.add_argument("--A", type=int, required=True, help="number of actions")
    p_rad.add_argument("--alpha-a", dest="alpha_a", type=float, required=True,
                       help="per-action confidence in (0, 1)")
    p_rad.set_defaults(func=cmd_radius)

    p_g = sub.add_parser("graph", help="dump a layered graph as an edge list")
    p_g.add_argument("--layers", type=int, required=True, help="intermediate layer count h")
    p_g.add_argument("--width", type=int, required=True, help="nodes per layer w")
    p_g.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_g.set_defaults(func=cmd_graph)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # the one place a validation error becomes exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
