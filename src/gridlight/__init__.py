"""gridlight: mesoscopic grid-traffic simulation and adaptive signal control.

A self-contained toolkit: build signalized grid networks, generate or load
traffic demand, simulate queue dynamics with spillback, and control the
signals with fixed-time, max-pressure, greedy spillback-aware, or DQN
controllers whose reward is pluggable.
"""

from .network import (
    APPROACHES,
    Intersection,
    Lane,
    Movement,
    Phase,
    Road,
    RoadNetwork,
    Turn,
    build_grid,
    lane_capacity,
    resolve_route,
    standard_phase_table,
    validate,
)
from .signalmath import (
    DEFAULT_KINEMATICS,
    KinematicParams,
    MovementCounts,
    green_duration,
    n_pass,
    phase_score,
    platoon_clear_time,
    prcol,
    pressure,
    reward,
)
from .engine import SignalState, StepTelemetry, Vehicle, World
from .flows import (
    FlowSpec,
    SpawnEvent,
    expand_flows,
    gen_syn_heavy,
    gen_syn_light,
    load_flow_file,
    save_flow_file,
    syn_heavy_flows,
    syn_light_flows,
)
from .learner import (
    EpsilonSchedule,
    QNetwork,
    ReplayBuffer,
    Transition,
    epsilon,
    forward,
    load_checkpoint,
    save_checkpoint,
    sync_target,
    td_target,
    train_step,
)
from .control import (
    ControllerConfig,
    Decision,
    DQNController,
    FixedTimeController,
    GreedyPrcolController,
    MaxPressureController,
    build_controller,
    decide_dqn,
    decide_greedy,
    decide_maxpressure,
)
from .experiment import (
    CaseStudy,
    ExperimentConfig,
    MetricsReport,
    avg_travel_time,
    case_study,
    evaluate,
    run_episode,
    run_single,
    throughput,
    train,
    train_many,
    write_case_study,
)
from .roadnet import load_roadnet, save_roadnet

__version__ = "0.1.0"
