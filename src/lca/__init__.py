"""Exact Lie-theoretic calculator and auditor for centralizer tables."""

from .fixdim import ClassFusion, TraceTable, base_trace_table, fixed_point_dimension, solve_traces
from .repth import (
    Character,
    Embedding,
    adjoint_character,
    dominant_character,
    has_trivial_factor,
    restrict,
    semisimplify,
    weyl_dimension,
)
from .rootsys import (
    RootSystem,
    SemisimpleTypeLabel,
    SimpleType,
    build_root_system,
    fold,
    root_system,
)
from .spin2 import (
    SignVector,
    classical_centralizer,
    classically_irreducible,
    eigen_partition,
    identify_2group,
    lift_commute,
    so_centralizer_type,
    spin_lift_order,
)
from .tabver import AuditReport, TableSet, load_tables, run_full_audit
from .torsion import (
    KacCoordinates,
    adjoint_trace,
    enumerate_irreducible_elements,
    eigenvalue_profile,
    torsion_centralizer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
