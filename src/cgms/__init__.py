"""Certified Gaussian-manifold sampling for variable impedance control.

A numpy library for learning task-space stiffness/damping schedules that
satisfy a Lyapunov stability certificate by construction, with a torque
governor for actuator limits and numerical boundedness verification.  Names live in the submodules, e.g.
``from cgms.learning import train``.
"""

__version__ = "0.1.0"
