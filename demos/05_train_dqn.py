"""Train the DQN controller on light traffic, briefly.

Eight episodes are enough to watch the learner move: one shared Q-network
controls all nine intersections, transitions from every decision land in a
pooled replay buffer, and exploration decays linearly.  For the full runs
behind the acceptance suite use 100 episodes (see README).  Takes a minute
or two on a laptop.
"""

from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig, run_single, train

config = ExperimentConfig(
    controller=ControllerConfig(kind="dqn", reward_kind="prcol"),
    episodes=8,
)

print("episode  epsilon  avg travel  throughput  mean loss")
run = train(
    config,
    seed=0,
    progress=lambda r: print(
        f"{r['episode']:>7}  {r['epsilon']:>7.2f}  {r['avg_travel_time']:>9.1f}s"
        f"  {r['throughput']:>10}  {r['mean_loss']:>9.2f}"
    ),
)
print()
print(f"greedy evaluation of the final network : {run.final_eval.average_travel_time:.1f} s")
print(f"greedy evaluation of the best network  : {run.best_eval.average_travel_time:.1f} s")

baseline = run_single(ExperimentConfig(controller=ControllerConfig(kind="fixed")), seed=0)
print(f"fixed-time baseline                    : {baseline.metrics.average_travel_time:.1f} s")
