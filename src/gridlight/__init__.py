"""gridlight: mesoscopic grid-traffic simulation and adaptive signal control.

A self-contained toolkit: build signalized grid networks, generate or load
traffic demand, simulate queue dynamics with spillback, and control the
signals with fixed-time, max-pressure, greedy spillback-aware, or DQN
controllers whose reward is pluggable.
"""

__version__ = "0.1.0"
