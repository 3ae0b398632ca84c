"""cohprobe: coherence probes for finitely presented connected graded algebras.

Degree-truncated Groebner bases, minimal resolutions and Tor profiles,
right/left coherence evidence probes, Veronese subalgebra presentations and
Z-algebra window checks, all over exact fields (Q or F_p).
"""

__version__ = "0.1.0"

from .linalg import QQ, PrimeField, parse_field
from .freealg import GeneratorTable, NcPoly, parse_poly, poly_str
from .gbasis import (
    AlgebraPresentation,
    RelationFamily,
    TruncatedGroebnerBasis,
    complete_to_degree,
    component_dim_bruteforce,
    hilbert_dims,
    normal_word_counts,
    opposite,
    validate_presentation,
)
from .grmod import (
    FreeModule,
    ModuleMap,
    kernel_min_generators,
    minimal_resolution,
)
from .coherence import (
    RightIdealSpec,
    builtin_corpus,
    probe_algebra,
    probe_ideal,
)
from .veronese import pm_module_presentations, veronese_cross_check, veronese_presentation
from .zalg import cohproj_hom, projective_window, transport_module
from .algfile import parse_algebra_file

__all__ = [
    "QQ",
    "PrimeField",
    "parse_field",
    "GeneratorTable",
    "NcPoly",
    "parse_poly",
    "poly_str",
    "AlgebraPresentation",
    "RelationFamily",
    "TruncatedGroebnerBasis",
    "complete_to_degree",
    "component_dim_bruteforce",
    "hilbert_dims",
    "normal_word_counts",
    "opposite",
    "validate_presentation",
    "FreeModule",
    "ModuleMap",
    "kernel_min_generators",
    "minimal_resolution",
    "RightIdealSpec",
    "builtin_corpus",
    "probe_algebra",
    "probe_ideal",
    "pm_module_presentations",
    "veronese_cross_check",
    "veronese_presentation",
    "cohproj_hom",
    "projective_window",
    "transport_module",
    "parse_algebra_file",
]
