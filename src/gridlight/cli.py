"""Command-line entry point.

Subcommands:
    generate-flow <syn-light|syn-heavy> --out FILE
    run        --config FILE --seed N --out DIR [--checkpoint FILE]
    train      --config FILE --out DIR [--jobs N]
    eval       --config FILE --checkpoint FILE --out DIR [--seed N]
    compare    --configs FILE... --out DIR [--jobs N]
    case-study --telemetry FILE --out DIR

Set GRIDLIGHT_LOG to a logging level name (debug, info, warning) to control
verbosity.  Exit status is 0 on success and 1 on any fault, with a
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import statistics
import sys

from .experiment import (
    ExperimentConfig,
    build_events,
    build_network,
    check_target_sync,
    evaluate,
    run_single,
    train_many,
    write_case_study,
)
from .flows import save_flow_file, syn_heavy_flows, syn_light_flows
from .network import build_grid
from .telemetry import read_decisions_csv, write_metrics_json

log = logging.getLogger("gridlight")

# every character str.splitlines breaks at, escaped so a diagnostic stays one line
_ESCAPED_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _setup_logging() -> None:
    level = os.environ.get("GRIDLIGHT_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _cmd_generate_flow(args: argparse.Namespace) -> int:
    net = build_grid(3, 3, 300.0, 300.0)
    flows = syn_light_flows(net) if args.pattern == "syn-light" else syn_heavy_flows(net)
    save_flow_file(flows, args.out)
    print(f"wrote {len(flows)} flow records to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    result = run_single(config, seed=args.seed, out_dir=args.out, checkpoint=args.checkpoint)
    m = result.metrics
    print(
        f"seed {args.seed}: average travel time {m.average_travel_time:.2f} s, "
        f"throughput {m.throughput}/{m.generated}"
    )
    print(f"outputs in {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    summary = train_many(config, out_dir=args.out, jobs=args.jobs)
    print(
        "median greedy-eval travel time: "
        f"best {summary['median_best_eval_travel_time']:.2f} s / "
        f"final {summary['median_final_eval_travel_time']:.2f} s "
        f"over seeds {summary['seeds']}"
    )
    print(f"outputs in {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    metrics = evaluate(config, args.checkpoint, seed=args.seed, out_dir=args.out)
    print(
        f"average travel time {metrics.average_travel_time:.2f} s, "
        f"throughput {metrics.throughput}/{metrics.generated}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # every config, its network and its demand are checked before any runs;
    # each writes its outputs under its file's name
    configs: dict[str, ExperimentConfig] = {}
    for path in args.configs:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in configs:
            raise ValueError(f"two configs are named {name!r}; each writes its outputs under its file's name")
        config = configs[name] = ExperimentConfig.from_json(path)
        try:
            net = build_network(config)
            build_events(config, net)
            if config.controller.kind == "dqn":
                check_target_sync(config, net)
        except (ValueError, OSError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    rows = []
    for name, config in configs.items():
        sub = os.path.join(args.out, name)
        if config.controller.kind == "dqn":
            summary = train_many(config, out_dir=sub, jobs=args.jobs)
            rows.append(
                (name, summary["median_best_eval_travel_time"], summary["median_best_eval_throughput"])
            )
        else:
            # metrics only: a seed's world and decision log go before the next seed runs
            per_seed = [
                run_single(config, seed=s, out_dir=os.path.join(sub, f"seed_{s}")).metrics for s in config.seeds
            ]
            rows.append(
                (
                    name,
                    statistics.median(m.average_travel_time for m in per_seed),
                    statistics.median(m.throughput for m in per_seed),
                )
            )
    width = max(len(name) for name, _, _ in rows)
    lines = [
        f"{'controller':<{width}}  {'avg travel time':>16}  {'throughput':>10}",
        f"{'-' * width}  {'-' * 16}  {'-' * 10}",
    ]
    for name, att, tp in rows:
        lines.append(f"{name:<{width}}  {att:>16.2f}  {tp:>10.0f}")
    table = "\n".join(lines)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "comparison.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    write_metrics_json(
        os.path.join(args.out, "comparison.json"),
        {name: {"average_travel_time": att, "throughput": tp} for name, att, tp in rows},
    )
    print(table)
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    records = read_decisions_csv(args.telemetry)
    study = write_case_study(args.out, records)
    print(
        f"{study.decisions_total} decisions; max-count phase chosen "
        f"{study.max_choice_frequency:.3f} of the time "
        f"({study.unique_max_decisions} unique-max decisions)"
    )
    print(f"outputs in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlight", description="grid-traffic simulation and signal control"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-flow", help="write a synthetic flow file")
    p.add_argument("pattern", choices=["syn-light", "syn-heavy"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate_flow)

    p = sub.add_parser("run", help="run one episode and write its telemetry")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("train", help="train the DQN controller on all configured seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("compare", help="run several configs and tabulate their metrics")
    p.add_argument("--configs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("case-study", help="derive case-study tables from a decisions file")
    p.add_argument("--telemetry", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_case_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    log.debug("command: %s", args.command)
    try:
        # run and eval take --seed; a negative one would fail only once numpy draws from it
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be an integer >= 1, got {args.jobs}")
        return args.fn(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"gridlight: error: {str(exc).translate(_ESCAPED_BREAKS)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
