"""Pareto-optimal comfort-aware trajectory planning on an SE(2) lattice."""

from .gridmap import (RobotModel, WorkspaceMap, footprint_free, load_map,
                      obstruction_field, obstruction_ratio, obstruction_ratios)
from .lattice import (CostVector, LatticeEdge, LatticeGraph, LatticeNode,
                      build_lattice)
from .moastar import (GoalSpec, ParetoFront, brute_force_front, dominates,
                      pareto_filter, plan_pareto)
from .rrt import PolyPath, RrtParams, best_of_n, curvature_sign_changes, rrt_plan
from .trajectory import (CostReport, SegmentPath, TimedTrajectory, eval_costs,
                         timed_from_json, timed_to_json, to_segment_path,
                         to_timed)

__all__ = [
    "RobotModel", "WorkspaceMap", "footprint_free", "load_map",
    "obstruction_field", "obstruction_ratio", "obstruction_ratios",
    "CostVector", "LatticeEdge", "LatticeGraph", "LatticeNode",
    "build_lattice",
    "GoalSpec", "ParetoFront", "brute_force_front", "dominates",
    "pareto_filter", "plan_pareto",
    "PolyPath", "RrtParams", "best_of_n", "curvature_sign_changes", "rrt_plan",
    "CostReport", "SegmentPath", "TimedTrajectory", "eval_costs",
    "timed_from_json", "timed_to_json", "to_segment_path", "to_timed",
]

__version__ = "0.1.0"
