"""ptsense: simulation and quantum-metrology toolkit for a PT-symmetric
two-level sensor realized via Naimark dilation with post-selection or via a
dissipative three-level system.

All operations are pure functions over immutable inputs.
"""

from . import errors
from .dilation import (
    PostSelectionOutcome,
    dilate_initial,
    evolve_enlarged,
    hamiltonian_4d,
    metric_operator,
    postselect,
    propagator_4d,
)
from .linalg import dagger
from .lindblad import (
    LindbladModel,
    analytic_rho_3l,
    artificial_pt,
    effective_evolve,
    integrate_lindblad,
    lindblad_model,
    liouvillian_is_defective,
    liouvillian_matrix,
    postselect_3l,
)
from .metrology import (
    FdConfig,
    QfiReport,
    ResourceReport,
    population_shift,
    qfi_pt,
    qfi_pure,
    qfi_sld,
    qfi_spectral,
    qfi_two_level,
    resource_metrics,
    sld,
    susceptibility_a,
    susceptibility_eff,
    susceptibility_enlarged,
    susceptibility_pt,
    weighted_qfi_scheme1,
    weighted_qfi_scheme2,
)
from .params import PtParams
from .pt_system import (
    evolve_density,
    evolve_state,
    hamiltonian_pt,
    integrate_nh_master,
    propagator_pt,
)
from .states import (
    DensityMatrix2,
    DensityMatrix3,
    DensityMatrix4,
    PureState2,
    PureState4,
    UnnormalizedMatrix2,
    bloch_probe,
    minus_y,
    plus_y,
    pure_density,
)
from .sweeps import SweepConfig, figure_preset, run

__version__ = "0.1.0"

__all__ = [
    "errors",
    "PtParams",
    "plus_y",
    "minus_y",
    "bloch_probe",
    "pure_density",
    "PureState2",
    "PureState4",
    "DensityMatrix2",
    "DensityMatrix3",
    "DensityMatrix4",
    "UnnormalizedMatrix2",
    "dagger",
    "hamiltonian_pt",
    "propagator_pt",
    "evolve_state",
    "evolve_density",
    "integrate_nh_master",
    "PostSelectionOutcome",
    "metric_operator",
    "dilate_initial",
    "hamiltonian_4d",
    "propagator_4d",
    "evolve_enlarged",
    "postselect",
    "LindbladModel",
    "lindblad_model",
    "integrate_lindblad",
    "analytic_rho_3l",
    "effective_evolve",
    "artificial_pt",
    "postselect_3l",
    "liouvillian_matrix",
    "liouvillian_is_defective",
    "FdConfig",
    "QfiReport",
    "ResourceReport",
    "population_shift",
    "susceptibility_pt",
    "susceptibility_a",
    "susceptibility_enlarged",
    "susceptibility_eff",
    "sld",
    "qfi_sld",
    "qfi_spectral",
    "qfi_two_level",
    "qfi_pure",
    "qfi_pt",
    "weighted_qfi_scheme1",
    "weighted_qfi_scheme2",
    "resource_metrics",
    "SweepConfig",
    "run",
    "figure_preset",
]
