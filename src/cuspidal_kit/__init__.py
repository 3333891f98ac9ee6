"""Toolkit for cuspidal serial manipulators: identification, graph-based
joint path planning over complete IK solution sets, and workpiece pose
optimization."""

from .cuspidality import (
    Verdict,
    Witness,
    identify_cuspidal,
    nonsingular_pair_check,
    validate_witness,
)
from .ik import (
    IKConfig,
    IKSolution,
    IKSolutionSet,
    solution_count_map,
    solve_all_ik,
    solve_ik_along_path,
)
from .kinematics import (
    Pose,
    RobotModel,
    forward_kinematics,
    jacobian,
    jacobian_determinant,
    manipulability,
    wrap_to_pi,
)
from .optimizer import (
    OptResult,
    ReducedParams,
    WorkpiecePose,
    decompose_rz_rxy,
    nelder_mead,
    objective,
    optimize_workpiece_pose,
    price_placements,
    random_feasible_start,
    reduced_to_pose,
    transform_toolpath,
)
from .planner import (
    JointPath,
    PlanGraph,
    PlanResult,
    PlannerConfig,
    RepeatabilityReport,
    TaskPath,
    analyze_repeatability,
    build_layers,
    build_plan_graph,
    path_cost,
    plan_path,
    shortest_joint_path,
)

__version__ = "0.1.0"
