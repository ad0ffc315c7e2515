"""gridlight benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload heavy-prcol-3x3 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload repeats whole rounds for
``--seconds`` seconds and the end-to-end metrics are printed.  With
``--trace 1`` the run does a self-test of the checks, one untraced round
and one traced round, writes the spans, checks every controller decision
and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` (trips that ended
inside the horizon, and those among them that beat free flow) and
``metrics``.  Exit status is 1 when any check fails, 2 on bad usage.
"""

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
PROBES_PER_ROUND = 3


class _SetupDone(Exception):
    """Raised at the first simulated tick of a set-up probe."""


class FirstTick:
    """Notes the host time of the next simulated tick, then steps aside."""

    def __init__(self, world_cls) -> None:
        self.world_cls = world_cls
        self.at: float | None = None

    def arm(self, abort: bool = False) -> None:
        world_cls, original = self.world_cls, self.world_cls.step
        self.at = None

        def first_step(world, *args, **kwargs):
            world_cls.step = original
            self.at = perf_counter()
            if abort:
                raise _SetupDone
            return original(world, *args, **kwargs)

        world_cls.step = first_step


class Runner:
    """Rounds of one workload, with the benchmark's checks around them."""

    def __init__(self, workload, work_dir: Path) -> None:
        from gridlight import experiment
        from gridlight.engine import World

        self.wl = workload
        self.work_dir = work_dir
        self.experiment = experiment
        self.first_tick = FirstTick(World)
        self.span = lambda name: contextlib.nullcontext()
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.episodes: list[dict] = []
        self.excluded = 0.0
        self.full_checks = False

    def _capture(self, run_episode):
        """Check each episode as it ends; the check's host time is not run time."""
        import checks

        def captured(*args, **kwargs):
            result = run_episode(*args, **kwargs)
            started = perf_counter()
            with self.span("bench.check"):
                horizon = (kwargs.get("config") or args[0]).horizon
                trips = checks.trip_check(result.world.vehicles, result.world.net.lanes)
                problems = checks.episode_problems(result, self.wl.expected_generated, horizon)
                if self.full_checks and not self.wl.telemetry_written:
                    problems += checks.memory_problems(result, result.world.net, self.wl.config.yellow)
                closed = [r for r in result.decisions if r.actual_discharged is not None]
                self.episodes.append(
                    {
                        "trips": trips,
                        "veh_s": result.metrics.average_travel_time * result.metrics.generated,
                        "ideal": sum(r.ideal_npass for r in closed),
                        "actual": sum(r.actual_discharged for r in closed),
                        "lanes": len(result.world.net.lanes),
                    }
                )
                self.problems += [f"episode {len(self.episodes)}: {p}" for p in problems]
            self.excluded += perf_counter() - started
            return result

        return captured

    # ------------------------------------------------------------------ set-up

    def probe_setup(self) -> float:
        """Host time from the workload call to its first simulated tick."""
        self.first_tick.arm(abort=True)
        started = perf_counter()
        try:
            self.wl.body(str(self.work_dir / "probe"))
        except _SetupDone:
            return self.first_tick.at - started
        raise RuntimeError(f"{self.wl.name} finished without simulating a tick")

    # ------------------------------------------------------------------ rounds

    def round(self, out_dir: Path, first: bool) -> dict:
        """One timed pass of the workload body; its artifacts must match the first round's."""
        import checks

        self.episodes, self.excluded, self.full_checks = [], 0.0, first
        run_episode = self.experiment.run_episode
        self.experiment.run_episode = self._capture(run_episode)
        try:
            self.first_tick.arm()
            started = perf_counter()
            returned = self.wl.body(str(out_dir))
            ended = perf_counter()
        finally:
            self.experiment.run_episode = run_episode
        trips = checks.TripStats()
        for ep in self.episodes:
            trips.add(ep["trips"])
        rnd = {
            "setup_s": self.first_tick.at - started,
            "run_s": ended - self.first_tick.at - self.excluded,
            "excluded": self.excluded,
            "veh_s": sum(ep["veh_s"] for ep in self.episodes),
            "trips": trips,
            "episodes": self.episodes,
            "returned": returned,
        }
        digests = {a: checks.artifact_digest(str(out_dir / a)) for a in self.wl.artifacts}
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(a for a in digests if digests[a] != self.reference[a])
            self.problems.append(f"artifacts differ from the first round: {changed}")
        return rnd

    # -------------------------------------------------------------- the runs

    def timed(self, seconds: float) -> dict:
        """Whole rounds for about ``seconds``; set-up probes between them.

        Host speed on a shared machine drifts over seconds, so set-up is
        sampled before every round rather than all at once, and a round is
        started only if the last one's length still fits in ``seconds``.
        """
        started = perf_counter()
        setups: list[float] = []
        rounds: list[dict] = []
        while True:
            for _ in range(PROBES_PER_ROUND):
                gc.collect()
                setups.append(self.probe_setup())
            if rounds:
                rounds[-1].pop("returned")
            gc.collect()
            round_started = perf_counter()
            rounds.append(self.round(self.work_dir / "round", first=not rounds))
            if perf_counter() - started + (perf_counter() - round_started) > seconds:
                break
        # before the artifact checks, which read the files back
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.problems += self.wl.check(str(self.work_dir / "round"), rounds[-1].pop("returned"))
        setups += [r["setup_s"] for r in rounds]
        run_s = [r["run_s"] for r in rounds]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(run_s), "s"),
            "veh_s_per_s": (statistics.median(r["veh_s"] / r["run_s"] for r in rounds), "veh.s/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        info = f"rounds={len(rounds)} run_s={[round(x, 3) for x in run_s]}"
        return self._result(rounds, metrics, info)

    def traced(self) -> dict:
        import layers
        import selftest
        import tracing
        import workloads
        from gridlight.engine import World

        self.problems += [f"self-test: {p}" for p in selftest.run(self.work_dir / "selftest")]
        gc.collect()
        plain = self.round(self.work_dir / "untraced", first=True)
        self.problems += self.wl.check(str(self.work_dir / "untraced"), plain.pop("returned"))

        tracer = tracing.Tracer()
        hooks = layers.LayerHooks(tracer, World)
        patches = tracing.Patches()
        self.span = tracer.span
        tracing.install(tracer, patches, extra_modules=[workloads], hooks=hooks.hooks())
        try:
            gc.collect()
            started = perf_counter()
            with tracer.span("bench.round"):
                traced = self.round(self.work_dir / "traced", first=False)
            wall = perf_counter() - started
        finally:
            patches.undo()
            self.span = lambda name: contextlib.nullcontext()

        out_dir = self.work_dir / "traced"
        run = traced["returned"]
        rescaled_differ = 0
        if hooks.greedy_records:  # the DQN workload's greedy evaluations
            rescaled_differ = hooks.check_greedy(
                {
                    id(run.final_net): str(out_dir / "checkpoint_final.npz"),
                    id(run.best_net): str(out_dir / "checkpoint_best.npz"),
                }
            )
        self.problems += [f"decision check: {p}" for p in hooks.decision_problems.result()]
        if not hooks.decisions_checked:
            self.problems.append("decision check: no decision was checked")
        tracer.write(str(out_dir / "spans.csv"))

        summary = tracer.summary()
        bench_ns = sum(v["self_ns"] for n, v in summary.items() if n.startswith("bench.") and n != "bench.round")
        # the capture checks ran in bench spans, so take them out once, with the hooks
        traced_run_s = traced["run_s"] + traced["excluded"] - bench_ns / 1e9
        metrics = layers.layer_metrics(summary, hooks, traced["episodes"], traced["episodes"][0]["lanes"])
        self_sum = sum(v["self_ns"] for v in summary.values()) / 1e9
        metrics.update(
            {
                "trace.wall_s": (wall, "s"),
                "trace.self_sum_ratio": (self_sum / wall, "ratio"),
                "trace.untraced_run_s": (plain["run_s"], "s"),
                "trace.run_s": (traced_run_s, "s"),
                "trace.overhead_s": (traced_run_s - plain["run_s"], "s"),
                "trace.spans": (len(tracer.spans), "count"),
                "check.decisions_checked": (hooks.decisions_checked, "count"),
            }
        )
        if not 0.97 <= self_sum / wall <= 1.03:
            self.problems.append(f"layer self times sum to {self_sum:.3f} s of {wall:.3f} s traced")
        info = (
            f"spans={len(tracer.spans)} decisions_checked={hooks.decisions_checked}"
            + (f" greedy_phases_changed_by_single_obs_scaling={rescaled_differ}" if rescaled_differ else "")
        )
        return self._result([plain, traced], metrics, info)

    def _result(self, rounds: list[dict], metrics: dict, info: str) -> dict:
        attempted = sum(r["trips"].attempted for r in rounds)
        failed = sum(r["trips"].failed for r in rounds)
        worst = max(rounds, key=lambda r: r["trips"].worst_early_s)["trips"]
        digest = "".join(self.reference[a][:8] for a in self.wl.artifacts) if self.reference else ""
        print(
            f"perfbench: {self.wl.name} {info} trips={attempted} beat_free_flow={failed} "
            f"worst={worst.worst_early_s:.1f}s_early_on_{worst.worst_route_s:.1f}s_route "
            f"artifacts={digest}",
            file=sys.stderr,
        )
        for problem in self.problems:
            print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gridlight" / "__init__.py").is_file():
        print(f"perfbench: no gridlight sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    work_dir = OUT_ROOT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](str(work_dir))
    runner = Runner(workload, work_dir)
    result = runner.traced() if args.trace else runner.timed(args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
