"""Parallelism degrees, group matrices (paper Eqs. 1/3/4), and placement.

A *logical* rank grid is fixed by Megatron's formulas: tensor-parallel
groups are consecutive rank blocks (Eq. 1), pipeline groups stride by
``t*d`` (Eq. 3), and data-parallel groups stride by ``t`` within a stage
(Eq. 4).  What Holmes changes is the *placement*: the mapping from logical
ranks to physical devices (:mod:`repro.parallel.mapping`), chosen so that
communication-heavy groups land on fast homogeneous NICs.
"""

from repro._lazy import lazy_exports

__all__ = ["ParallelConfig", "ParallelLayout", "Placement", "identity_placement"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.parallel.degrees": ("ParallelConfig",),
    "repro.parallel.groups": ("ParallelLayout",),
    "repro.parallel.mapping": ("Placement", "identity_placement"),
})
