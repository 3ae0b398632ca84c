"""cohprobe: coherence probes for finitely presented connected graded algebras.

Degree-truncated Groebner bases, minimal resolutions and Tor profiles,
right/left coherence evidence probes, Veronese subalgebra presentations and
Z-algebra window checks, all over exact fields (Q or F_p).
"""

__version__ = "0.1.0"
