"""Classic controllers head to head on both synthetic demand patterns.

The fixed-time plan wastes half its cycle on empty left-turn phases (the
synthetic traffic only goes straight), max-pressure reacts to queues, and
the greedy spillback-aware rule additionally refuses to serve movements
whose outgoing lane is full.  Heavy rush-hour demand separates them far
more than light demand does.
"""

from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig, run_single

controllers = {
    "fixed-time (10 s cycle)": ControllerConfig(kind="fixed"),
    "max-pressure": ControllerConfig(kind="maxpressure"),
    "greedy prcol": ControllerConfig(kind="greedy_prcol"),
    "greedy prcol + dynamic green": ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
}

for flow in ("syn-light", "syn-heavy"):
    print(f"=== {flow} ===")
    print(f"{'controller':<30} {'avg travel':>10} {'throughput':>10}")
    for name, controller in controllers.items():
        config = ExperimentConfig(flow={"kind": flow}, controller=controller)
        result = run_single(config, seed=0)
        m = result.metrics
        print(f"{name:<30} {m.average_travel_time:>9.1f}s {m.throughput:>7}/{m.generated}")
    print()
