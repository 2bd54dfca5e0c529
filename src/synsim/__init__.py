"""Backlog simulator for half-open connection floods with adaptive tuning.

A deterministic discrete-event model of a server's half-open connection
buffer under mixed regular/attack traffic, a learning-automata controller
that tunes the hold time h and capacity m against Ploss, Pr and the
objective Pr / (Pa * Ploss), and a closed-form oracle for validation: under
a fixed (h, m) the backlog is a two-class Erlang loss system in either hold
mode, whose steady state depends on the mean holding times only.
"""

from .automata import Automaton
from .controller import LaController, StaticController, feedback_signal, make_controller
from .domain import (DefenseParams, LaSettings, RequestClass, SimConfig,
                     TrafficModel, config_from_dict, load_config, validate_config)
from .engine import BacklogState, SimReport, run_simulation
from .harness import SweepSpec, run_single, run_sweep, run_validate
from .metrics import WindowMetrics, cumulative_metrics, finalize_window, objective
from .oracle import LossSteadyState, erlang_b, steady_state, two_class_loss

__all__ = [
    "Automaton", "BacklogState", "DefenseParams", "LaController",
    "LaSettings", "LossSteadyState", "RequestClass", "SimConfig", "SimReport",
    "StaticController", "SweepSpec", "TrafficModel", "WindowMetrics",
    "config_from_dict", "cumulative_metrics", "erlang_b", "feedback_signal",
    "finalize_window", "load_config", "make_controller", "objective",
    "run_simulation", "run_single", "run_sweep", "run_validate",
    "steady_state", "two_class_loss", "validate_config",
]

__version__ = "0.1.0"
