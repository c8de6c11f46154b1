"""Finite-alphabet workbench for common information, Renyi divergences,
strong-converse exponents, and distributed source synthesis simulation."""

from .errors import (CommonInfoError, ConfigError, DomainError,
                     ResourceBudgetError, SamplingError)
from .probability import (FinitePmf, JointPmf, MarkovCoupling, induced_joint,
                          coupling_information, load_joint_text)
from .divergences import renyi, tv, pinsker_lb, sason_inf, sason_closed_lb
from .ci_solver import wyner_ci, CiSolution
from .exponents import (ExponentPoint, big_omega_min, r_alpha_min, r_sh,
                        f_point, f_rate, tabulate_omega, theta_limit_check)
from .typicality import (count_windows, cond_typical_defect_exact,
                         contyplem_bound)
from .synthesis import (SynthesisCode, DivergenceEstimate, build_code,
                        induced_joint_exact, estimate_tv, estimate_renyi,
                        oneshot_bound_verify,
                        truncation_check, rate_bound_check)
from .experiments import (ExperimentPlan, SweepResult, parse_plan, load_plan,
                          run_plan, render_summary, to_csv, to_json)

__version__ = "0.1.0"
