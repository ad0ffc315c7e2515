"""Case-study telemetry: what did the controller actually do with its greens?

Runs the greedy spillback-aware controller with dynamic green durations on
heavy rush-hour demand and derives the decision-log tables: how often each
phase was chosen vs how loaded it was, how green time tracked demand over
the hour, and how the vehicles a green was sized for (n_pass) compare with
the vehicles it actually discharged — the delivered count never exceeds
the promise.
"""

from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig, case_study, run_single

config = ExperimentConfig(
    flow={"kind": "syn-heavy"},
    controller=ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
)
result = run_single(config, seed=0)
study = case_study(result.decisions)

print(f"decisions: {study.decisions_total}")
print(f"{'phase':>5} {'times chosen':>12} {'mean vehicles':>13}")
for k in range(4):
    print(f"{k:>5} {study.phase_choice_counts[k]:>12} {study.phase_mean_counts[k]:>13.2f}")
print()
print(
    f"max-count phase chosen {study.max_choice_frequency:.3f} of the time "
    f"({study.unique_max_decisions} decisions with a unique busiest phase; "
    f"0.25 would be random)"
)
print()

print("green duration vs promised and delivered vehicles:")
print(f"{'green':>5} {'intervals':>9} {'ideal mean':>10} {'actual mean':>11}")
for duration, slot in sorted(study.duration_table.items()):
    print(
        f"{duration:>5} {slot['intervals']:>9} {slot['ideal_mean']:>10.2f} {slot['actual_mean']:>11.2f}"
    )
violations = sum(
    1
    for d in result.decisions
    if d.actual_discharged is not None and d.actual_discharged > d.ideal_npass
)
print(f"\nintervals where delivered exceeded promised: {violations}")

# green time follows demand over the four 900 s periods
print("\nmean green duration per quarter hour:")
for q in range(4):
    window = [d for d in result.decisions if 900 * q <= d.time < 900 * (q + 1)]
    mean = sum(d.green_duration for d in window) / len(window)
    print(f"  [{900*q:>4}, {900*(q+1):>4}) s: {mean:.1f} s")
