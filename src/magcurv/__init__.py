"""magcurv: spectral and curvature toolkit for magnetic graphs.

Magnetic Laplacians and their spectra, Bakry-Emery-style curvature forms with
exact CD(n, kappa) certificates, covering-graph lifts, magnetic girth,
frustration indices, Cheeger numbers, and numerical verification of the
Harnack / eigenvalue / Cheeger inequalities that tie them together.
"""

from .bounds import (AlphaRecord, BoundsReport, CheegerBoundRecord,
                     EigenvalueBoundRecord, HarnackRecord, LiftDiameterResult,
                     alpha_bound_check, cheeger_bound_check,
                     eigenvalue_lower_bound, harnack_check, lift_diameter_check,
                     verify_report)
from .combinatorics import (CheegerResult, FrustrationResult, cheeger_number,
                            frustration_index, magnetic_girth)
from .curvature import (CDFunctionCheck, CDGraphCheck, CurvatureResult,
                        cd_check_function, cd_check_graph, kappa_max)
from .errors import (DimensionError, EmptySubsetError, MagcurvError,
                     NumericalError, ParseError, PreconditionError, SizeError,
                     ValidationError)
from .graphs import (Edge, MagneticGraph, SignatureStatus, connected_components,
                     diameter, from_edge_list, hop_distances, is_connected,
                     load_graph, random_magnetic_graph, signature_status)
from .lift import (LiftGraph, LiftIdentityReport, build_lift, lift_diameter,
                   lift_function, verify_lift_identities)
from .operators import (SpectralData, as_vertex_function, energy, gamma, gamma2,
                        laplacian_matrix, spectrum)

__version__ = "0.1.0"
