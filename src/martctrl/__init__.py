"""Desk-scale toolkit for controlled SDEs driven by Hilbert-space-valued
continuous square-integrable martingales.

The package simulates dX = F(t, X, u) dt + G(t, X) dM forward on a fixed
grid, builds spike (needle) variations of a control, integrates the
first-variation process, solves the adjoint backward equation (explicitly
where a closed form applies, by least-squares Monte Carlo regression
otherwise), and checks Hamiltonian-based necessary and sufficient
optimality conditions at declared statistical and discretization
tolerances.  Two linear(-quadratic) scenarios with known structure are
packaged end to end, runnable from Python or the ``martctrl`` command line.
"""

__version__ = "0.1.0"

from .martingale import (IsometryReport, MartingaleDriver, NoiseBundle,
                         PathGrid, ScalarIntensity, sample_increments,
                         verify_isometry)
from .dynamics import (AffineDiffusion, BallSet, BlowUpError, BoxSet,
                       ControlProblem, CostReport, FeedbackPolicy, FiniteSet,
                       FirstVariation, OpenLoopPolicy, SpikeSpec,
                       TrajectoryBundle, apply_spike, evaluate_cost,
                       finite_diff_check, integrate_forward,
                       integrate_variational, spiked_costs, stream_spiked)
from .adjoint import (AdjointSolution, RegressionBasis, RegressionRankError,
                      duality_check, grad_x_hamiltonian, hamiltonian,
                      solve_adjoint_explicit, solve_adjoint_lsmc)
from .pmp import (Example1Config, Example2Config, GateauxReport,
                  MarginReport, RateReport, ScenarioReport, SufficiencyReport,
                  build_example1_problem, build_example2_problem,
                  gateaux_check, necessary_check, rate_experiments,
                  run_example1, run_example2, sufficient_check)

__all__ = [
    "__version__",
    "IsometryReport", "MartingaleDriver", "NoiseBundle", "PathGrid",
    "ScalarIntensity", "sample_increments", "verify_isometry",
    "AffineDiffusion", "BallSet", "BlowUpError", "BoxSet", "ControlProblem",
    "CostReport",
    "FeedbackPolicy", "FiniteSet", "FirstVariation", "OpenLoopPolicy",
    "SpikeSpec", "TrajectoryBundle", "apply_spike", "evaluate_cost",
    "finite_diff_check", "integrate_forward", "integrate_variational",
    "spiked_costs", "stream_spiked",
    "AdjointSolution", "RegressionBasis", "RegressionRankError",
    "duality_check", "grad_x_hamiltonian", "hamiltonian",
    "solve_adjoint_explicit", "solve_adjoint_lsmc",
    "Example1Config", "Example2Config", "GateauxReport",
    "MarginReport", "RateReport", "ScenarioReport", "SufficiencyReport",
    "build_example1_problem", "build_example2_problem", "gateaux_check",
    "necessary_check", "rate_experiments", "run_example1", "run_example2",
    "sufficient_check",
]
