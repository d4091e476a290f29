"""Co-design toolkit for ergonomic human-robot collaborative lifting.

Parametrizes an articulated floating-base mechanism by link geometry and
density, evaluates coupled human-robot-payload statics, and solves a
nonlinear program picking hardware parameters and whole-body postures
that minimize static joint torques across a set of payload heights.
"""

__version__ = "0.1.0"

from .shapes import Box, Cylinder, LinkHardware, Sphere  # noqa: F401
