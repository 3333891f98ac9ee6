import numpy as np
import pytest

from cuspidal_kit.kinematics import RobotModel
from cuspidal_kit.scenarios import canonical_3r, elbow_3r, three_parallel_6r


@pytest.fixture(scope="session")
def r3():
    return canonical_3r()


@pytest.fixture(scope="session")
def r6():
    return three_parallel_6r()


@pytest.fixture(scope="session")
def elbow():
    return elbow_3r()


def count_calls(monkeypatch, module, name: str) -> list:
    """Wraps module.name so that each call appends one entry to the
    returned list."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def random_6r(rng) -> RobotModel:
    axes = rng.normal(size=(6, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return RobotModel(axes=axes, offsets=rng.normal(size=(6, 3)) * 0.4,
                      tool_offset=rng.normal(size=3) * 0.2, name="random-6r")


def random_3r(rng) -> RobotModel:
    axes = rng.normal(size=(3, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return RobotModel(axes=axes, offsets=rng.normal(size=(3, 3)),
                      tool_offset=rng.normal(size=3), name="random-3r")


def degenerate_3r_arms() -> list[RobotModel]:
    """3R arms whose det J vanishes for every joint vector, so that no
    target has isolated IK solutions: joint 3 cannot move a tool point on
    its axis (an axis-aligned arm, and a random arm whose M is invertible),
    and coaxial joints 1 and 2 turn as one."""
    still = RobotModel(axes=np.eye(3), offsets=np.eye(3), tool_offset=[0.0, 0.0, 0.7],
                       name="still")
    coaxial = RobotModel(axes=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                         offsets=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 1.0, 0.0]],
                         tool_offset=[0.3, 0.2, 0.1], name="coaxial-1-2")
    arm = random_3r(np.random.default_rng(3))
    on_axis = RobotModel(axes=arm.axes, offsets=arm.offsets, tool_offset=0.7 * arm.axes[2],
                         name="tool-on-axis-3")
    return [still, coaxial, on_axis]


def coaxial_6r() -> RobotModel:
    """A random 6R arm whose joint 2 is coaxial with joint 1, so that they
    turn as one and det J vanishes for every joint vector."""
    arm = random_6r(np.random.default_rng(2))
    axes, offsets = arm.axes.copy(), arm.offsets.copy()
    axes[1], offsets[1] = axes[0], 0.5 * axes[0]
    return RobotModel(axes=axes, offsets=offsets, tool_offset=arm.tool_offset,
                      name="coaxial-6r-1-2")
