"""Numerical toolkit for first and second order necessary optimality
conditions of constrained stochastic evolution-equation control problems."""

from . import (adjoint_first, adjoint_second, benchmarks, cli, conditions,
               cones, errors, forward, model, regression, reporting, suites)
from .adjoint_first import (DiscreteBVMeasure, TranspositionSolution,
                            check_transposition_identity, measure_pairing,
                            solve_first_adjoint)
from .adjoint_second import (RelaxedSolution, SecondAdjointData,
                             check_relaxed_identity, solve_second_adjoint)
from .conditions import (ActiveSetAnalysis, MultiplierSet, analyze_active_sets,
                         first_order_integral_check, first_order_pointwise_check,
                         search_multipliers, second_order_check)
from .cones import (AffineSet, Ball, Box, ConeDescriptor, CustomSet, Polyhedron,
                    SetDescriptor, Singleton, Verdict, WholeSpace, adjacent_cone,
                    cone_membership_oracle, distance, dual_cone,
                    dual_of_intersection, normal_cone,
                    polyhedral_support_decomposition, project)
from .forward import (RemainderReport, VariationData, remainder_study_first,
                      remainder_study_second, simulate_first_variation,
                      simulate_forward, simulate_second_variation)
from .model import (BrownianEnsemble, Functional, PathEnsemble, ProblemSpec,
                    RunningCost, TimeGrid, ValidationReport, bolza_reduce,
                    generate_brownian, validate_spec)
from .reporting import ConditionReport

__version__ = "0.1.0"
