"""Dynamic facility location over doubling metrics: a hierarchical net
decomposition maintained under client insertions and deletions, with
constant-time cost queries, a from-scratch reference oracle, and an exact
small-instance optimum for differential testing."""

from .engine import Annotations, DirtyHeap, Engine
from .hierarchy import C1, C2, C3, C4, CX, CY, APPROX_FACTOR, \
    ASSIGN_RADIUS_FACTOR, PAYMENT_BOUND_FACTOR, Hierarchy, \
    build_separated_sets, build_tree, radius
from .instance import Instance, InstanceError, NetflocError, cround, \
    derive_parameters, largest_power_of_five_at_most
from .oracle import HierarchyMismatch, OracleView, brute_force_opt, \
    compare_states, engine_snapshot, logical_violations
from .harness import TraceError, TraceEvent, bench_trace, opt_command, \
    parse_trace, parse_trace_text, run_trace, verify_trace

__all__ = [
    "Annotations", "DirtyHeap", "Engine",
    "C1", "C2", "C3", "C4", "CX", "CY", "APPROX_FACTOR",
    "ASSIGN_RADIUS_FACTOR", "PAYMENT_BOUND_FACTOR", "Hierarchy",
    "build_separated_sets", "build_tree", "radius",
    "Instance", "InstanceError", "NetflocError", "cround",
    "derive_parameters", "largest_power_of_five_at_most",
    "HierarchyMismatch", "OracleView", "brute_force_opt", "compare_states",
    "engine_snapshot", "logical_violations",
    "TraceError", "TraceEvent", "bench_trace", "opt_command", "parse_trace",
    "parse_trace_text", "run_trace", "verify_trace",
]
