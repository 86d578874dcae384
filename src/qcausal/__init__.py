"""Two-qubit causal-structure discrimination from Pauli correlation statistics.

The library simulates the measurement statistics that distinguish a joint
preparation (common cause) from a unitary channel (direct cause), maps
both scenarios into the correlation cube, certifies the +-1/27 bounds of
the product statistic, and runs the basis-rotation experiments that make
points in the ambiguous overlap decidable.
"""

from .basis_change import (
    ESCAPE_V_SET,
    EscapeResult,
    escape_experiment,
    escape_witness,
    transform_density,
    transform_unitary,
)
from .bounds import (
    BoundReport,
    grid_extremum,
    multistart_state_extremum,
    multistart_unitary_extremum,
    polish_extremum,
)
from .correlation import (
    MixtureScenario,
    PPoint,
    cc_corr_index,
    cc_pvector,
    dc_corr_index,
    dc_pvector,
    mixture_pvector,
    statistic_c,
)
from .errors import ConsistencyError, SamplingExhaustedError, ValidationError
from .geometry import (
    RegionLabel,
    Tetrahedron,
    barycentric,
    classify,
    contains,
    in_otc,
    in_otd,
    in_overlap,
    state_from_weights,
    tcc,
    tdc,
    unitary_from_probs,
)
from .qmath import (
    bell,
    is_density,
    is_unitary,
    pauli,
    pauli_eigenbasis,
    projector,
    tensor_product,
)
from .samplers import (
    SamplerConfig,
    sample_complex_pure,
    sample_density,
    sample_in_region,
    sample_real_pure,
    sample_unitary,
)

__version__ = "0.1.0"
