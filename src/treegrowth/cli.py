"""Command-line interface: generate graphs, run trials, count paths, drive campaigns.

Exit codes: 0 on success, 1 when a verdict or acceptance criterion fails,
2 on usage or configuration errors.  The TREEGROWTH_OUTDIR environment
variable supplies the default output directory for commands that write files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import harness
from .families import (
    KINDS,
    FamilyError,
    FamilySpec,
    build_family,
    plan_family,
)
from .graphs import BudgetExceededError, GraphError
from .harness import (
    ExperimentSpec,
    HarnessError,
    resolve_start,
    run_experiment,
    write_outputs,
)

PARAM_FLAGS = ("n", "d", "k", "L", "delta", "m", "max_degree", "diameter")


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=KINDS)
    for name in PARAM_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, default=None)
    parser.add_argument(
        "--a",
        type=float,
        default=None,
        help="route-competition constant for lower-bound overrides (must exceed e^2)",
    )


def _family_spec(args: argparse.Namespace) -> FamilySpec:
    params = {}
    for name in PARAM_FLAGS + ("a",):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    return FamilySpec(args.family, params)


def _start_policy(args: argparse.Namespace) -> str | int:
    """An explicit --s wins over --s-policy."""
    return args.s if args.s is not None else args.s_policy


def _add_start_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s", type=int, default=None, help="explicit start vertex")
    parser.add_argument(
        "--s-policy", choices=("first-vertex", "group-V1"), default="first-vertex"
    )


def _outdir(args: argparse.Namespace) -> Path | None:
    out = args.out or os.environ.get("TREEGROWTH_OUTDIR")
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = _family_spec(args)
    if args.plan:
        print(json.dumps(plan_family(spec), indent=2))
        return 0
    g, meta = build_family(spec, max_vertices=args.max_vertices)
    outdir = _outdir(args)
    if outdir is not None:
        graph_path = outdir / "graph.txt"
        meta_path = outdir / "meta.json"
        graph_path.write_text(g.to_text())
        meta_path.write_text(json.dumps(meta.to_json_dict(), indent=2) + "\n")
        print(graph_path)
        print(meta_path)
        return 0
    sys.stdout.write(g.to_text())
    if args.meta:
        print(json.dumps(meta.to_json_dict(), indent=2))
    return 0


def _cmd_trial(args: argparse.Namespace) -> int:
    """``grow`` or ``fpp``: trial 0 of a one-trial campaign, run by the
    campaign's own block code."""
    fpp = args.command == "fpp"
    spec = ExperimentSpec(
        family=_family_spec(args),
        s_policy=_start_policy(args),
        process="fpp" if fpp else "discrete",
        master_seed=args.seed,
        metrics=("height", "cover_time", "hitting_times") if fpp else ("height",),
    )
    ctx = harness._make_context(spec, args.max_vertices)
    columns = harness._run_block(ctx, range(1))
    keys = ["height"]
    if fpp:
        keys += ["cover_time", "longest_weighted_path_edges", "hitting_times"]
    doc = {"family": args.family, "n": ctx.g.n, "s": ctx.s,
           "master_seed": args.seed, "process": spec.process}
    print(json.dumps(doc | {key: columns[key][0] for key in keys}))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from .counting import count_report

    g, meta = build_family(_family_spec(args), max_vertices=args.max_vertices)
    s = resolve_start(_start_policy(args), g, meta)
    label = args.family + "".join(
        f"_{key}{value}" for key, value in sorted(meta.params.items())
        if isinstance(value, int)
    )
    rows = count_report(g, meta, label, s, args.max_length, budget=args.budget)
    print("graph,s,length,exact,bound_kind,bound_value,pass")
    failed = False
    for r in rows:
        s_field = "" if r.s is None else r.s
        print(
            f"{r.graph_label},{s_field},{r.length},{r.exact},{r.bound_kind},"
            f"{r.bound_value},{str(r.passed).lower()}"
        )
        failed = failed or not r.passed
    return 1 if failed else 0


def _cmd_expt(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    overrides = {"master_seed": args.seed, "trials": args.trials, "workers": args.workers}
    spec = dataclasses.replace(
        ExperimentSpec.from_json_dict(doc),
        **{k: v for k, v in overrides.items() if v is not None},
    )
    records, summary = run_experiment(spec, max_vertices=args.max_vertices)
    outdir = _outdir(args) or Path(".")
    write_outputs(outdir, spec, records, summary)
    for v in summary.verdicts:
        flag = "PASS" if v.passed else "FAIL"
        print(f"{flag} {v.check_id}: empirical {v.empirical!r} vs allowance {v.threshold!r}")
    print(f"wrote {outdir}")
    return 0 if summary.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import run_suite

    results = run_suite(args.suite, workers=args.workers)
    failed = False
    for res in results:
        print(res.render())
        failed = failed or not res.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegrowth",
        description="Spanning-tree growth and first-passage percolation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a family graph and its metadata")
    _add_family_arguments(p_gen)
    p_gen.add_argument("--plan", action="store_true", help="print resolved parameters only")
    p_gen.add_argument("--meta", action="store_true", help="also print metadata JSON")
    p_gen.add_argument("--out", default=None, help="write graph.txt and meta.json here")
    p_gen.add_argument("--max-vertices", type=int, default=1 << 20)
    p_gen.set_defaults(func=_cmd_gen)

    p_grow = sub.add_parser("grow", help="one discrete-process trial")
    _add_family_arguments(p_grow)
    _add_start_arguments(p_grow)
    p_grow.add_argument("--seed", type=int, default=0)
    p_grow.add_argument("--max-vertices", type=int, default=1 << 20)
    p_grow.set_defaults(func=_cmd_trial)

    p_fpp = sub.add_parser("fpp", help="one weighted trial with hitting times")
    _add_family_arguments(p_fpp)
    _add_start_arguments(p_fpp)
    p_fpp.add_argument("--seed", type=int, default=0)
    p_fpp.add_argument("--max-vertices", type=int, default=1 << 20)
    p_fpp.set_defaults(func=_cmd_trial)

    p_count = sub.add_parser("count", help="exact counts vs closed-form ceilings")
    _add_family_arguments(p_count)
    _add_start_arguments(p_count)
    p_count.add_argument("--max-length", type=int, default=6)
    p_count.add_argument("--budget", type=int, default=10**8)
    p_count.add_argument("--max-vertices", type=int, default=1 << 20)
    p_count.set_defaults(func=_cmd_count)

    p_expt = sub.add_parser("expt", help="run a campaign from a JSON config")
    p_expt.add_argument("--config", required=True)
    p_expt.add_argument("--out", default=None)
    p_expt.add_argument("--seed", type=int, default=None)
    p_expt.add_argument("--trials", type=int, default=None)
    p_expt.add_argument("--workers", type=int, default=None)
    p_expt.add_argument("--max-vertices", type=int, default=1 << 20)
    p_expt.set_defaults(func=_cmd_expt)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--suite", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FamilyError, HarnessError, GraphError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
