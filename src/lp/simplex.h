// Dense two-phase primal simplex.
//
// This is the exact reference solver for the small LPs in tests and for the
// exact variants of min-congestion routing. The large-scale paths are solved
// by the restricted Frank–Wolfe solve in min_congestion.h; simplex results
// are used to validate it.
#pragma once

#include <vector>

namespace sor {

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

/// kNumericalError: the final basis violates the LP's rows or has negative
/// basic values beyond round-off, so it is no optimum; nothing is returned.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kNumericalError };

/// minimize c.x  subject to  A x (rel) b,  x >= 0.
struct LinearProgram {
  std::vector<double> objective;            ///< c, size = num variables
  std::vector<std::vector<double>> rows;    ///< A, each row size = num vars
  std::vector<double> rhs;                  ///< b
  std::vector<Relation> relations;          ///< one per row

  std::size_t num_variables() const { return objective.size(); }
  std::size_t num_constraints() const { return rows.size(); }

  /// Appends a constraint. `coeffs` must have num_variables() entries.
  void add_constraint(std::vector<double> coeffs, Relation rel, double b);
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
};

/// Solves with Bland's rule (no cycling). Intended for small/medium dense
/// instances (hundreds of rows/columns). kOptimal is reported only for a
/// solution that satisfies every row and x >= 0 to a relative 1e-6.
LpSolution solve(const LinearProgram& lp);

}  // namespace sor
