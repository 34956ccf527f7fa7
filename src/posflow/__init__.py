"""posflow: positive transport flows on metric graphs.

Simulation of linear transport networks with scattering boundary conditions,
exact along characteristics, together with the machinery to verify their
positivity, admissibility and feedback properties numerically: a lattice
toolbox on quadrature grids, a finite-dimensional positive-system oracle,
graph assembly, the network flow operators, a closed-loop solver and a
scenario-driven CLI.
"""

from .graph import AssumptionReport, MetricGraph, check_assumptions
from .lattice import (
    Quadrature,
    SpectralRadiusResult,
    dense_spectral_radius,
    spectral_radius,
)
from .poslti import (
    FeedbackResult,
    NeumannResult,
    PosLTI,
    expm_apply,
    feedback_compose,
    io_response,
    neumann_resolvent,
    positivity_classify,
    simulate_interconnection,
    simulate_mild,
    transfer,
)
from .scenario import Scenario, ScenarioError, flux_preserving_kernel, parse_scenario
from .signals import StepSignal
from .solver import ClosedLoopSolution, TraceLedger, closed_loop_solve
from .transport import (
    Absorption,
    CharacteristicGateError,
    ScatteringKernel,
    StateField,
    TransportSystem,
    boundary_traces,
    characteristic_read,
    closed_loop_resolvent,
    dirichlet_apply,
    flow_trace,
    input_map,
    io_map,
    resolvent_apply,
    semigroup_apply,
    transfer_max_entry,
    transfer_operator,
    transfer_radius,
)
from .wellposed import (
    AdmissibilityReport,
    FeedbackReport,
    PosLTIHandle,
    RegularityReport,
    TransportHandle,
    ZeroClassFit,
    ZeroClassScan,
    control_admissibility,
    feedback_admissibility,
    observation_admissibility,
    regularity_probe,
    step_probes,
    zero_class_scan,
)

__version__ = "0.1.0"
