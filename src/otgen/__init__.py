"""Transport-based generation of physical data distributions.

Learns a pseudo-time-indexed map between probability distributions of
measured data (stress-strain curves, reduced field coefficients) with a
pair of small networks constrained by an equation of motion and Lagrangian
mass conservation, then generates the distribution and its mean at unseen
conditions. Ships with exact discrete transport solvers, Riemannian
geodesic tools, a functional-PCA/GP regression baseline, and a
score-driven probability-flow sampler.
"""

__version__ = "0.1.0"

from .density import (CurveSnapshot, GaussianCurveDensity,
                      ReducedGaussianDensity, field_to_samples)
from .discrete import (DiscreteDistribution, PiecewiseLinearTrajectory,
                       TransportMap, plan_cost, quadratic_cost, solve_monge,
                       solve_monge_time_dependent, trajectory_cost)
from .pca import PcaBasis, fit_pca, project, reconstruct
from .transport import (ConditionNormalizer, SnapshotDataset, Snapshot,
                        TrainConfig, TransportModel, compute_loss,
                        generate_density, generate_mean, nrmse, train)

__all__ = [
    "CurveSnapshot", "GaussianCurveDensity", "ReducedGaussianDensity",
    "field_to_samples",
    "DiscreteDistribution", "PiecewiseLinearTrajectory", "TransportMap",
    "plan_cost", "quadratic_cost", "solve_monge",
    "solve_monge_time_dependent", "trajectory_cost",
    "PcaBasis", "fit_pca", "project", "reconstruct",
    "ConditionNormalizer", "SnapshotDataset", "Snapshot", "TrainConfig",
    "TransportModel", "compute_loss", "generate_density", "generate_mean",
    "nrmse", "train",
]
