#include "lp/simplex.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace sor {
namespace {

constexpr double kEps = 1e-9;
// The ratio test's floor on a pivot entry. An entry of round-off size
// still passes a kEps test, and dividing by it blows the basic values up
// (to -1e11 on a 22-vertex edge-flow LP) while every step looks legal.
constexpr double kPivotEps = 1e-6;
// Slack of the final check that the basis is feasible, relative to the
// magnitude of each row's terms.
constexpr double kFeasibilityTol = 1e-6;

/// Standard-form tableau solver: minimize c.x with A x = b, b >= 0, x >= 0,
/// starting from the given basis (one basic variable per row).
class Tableau {
 public:
  Tableau(std::vector<std::vector<double>> a, std::vector<double> b,
          std::vector<int> basis)
      : a_(std::move(a)), b_(std::move(b)), basis_(std::move(basis)) {}

  /// Runs phase optimization for cost vector `cost` (size = #columns);
  /// only columns below `num_entering` may enter the basis. Returns false
  /// if unbounded.
  bool optimize(const std::vector<double>& cost, std::size_t num_entering) {
    const std::size_t m = a_.size();
    for (;;) {
      // Reduced costs: r_j = c_j - c_B . B^-1 A_j; with an explicit tableau
      // (A already transformed so basic columns are unit), this is
      // r_j = c_j - sum_i c_basis[i] * a[i][j].
      int entering = -1;
      for (std::size_t j = 0; j < num_entering; ++j) {
        double r = cost[j];
        for (std::size_t i = 0; i < m; ++i) {
          r -= cost[static_cast<std::size_t>(basis_[i])] * a_[i][j];
        }
        if (r < -kEps) {  // Bland: first improving column.
          entering = static_cast<int>(j);
          break;
        }
      }
      if (entering < 0) return true;  // optimal

      // Ratio test, Bland tie-break on smallest basic variable index.
      int leaving_row = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < m; ++i) {
        if (a_[i][static_cast<std::size_t>(entering)] > kPivotEps) {
          const double ratio =
              b_[i] / a_[i][static_cast<std::size_t>(entering)];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leaving_row < 0 ||
                basis_[i] < basis_[static_cast<std::size_t>(leaving_row)]))) {
            best_ratio = ratio;
            leaving_row = static_cast<int>(i);
          }
        }
      }
      if (leaving_row < 0) return false;  // unbounded
      pivot(static_cast<std::size_t>(leaving_row),
            static_cast<std::size_t>(entering));
    }
  }

  /// Drives artificial variables (columns >= first_artificial) out of the
  /// basis where possible; rows where that fails are redundant (all-zero).
  void purge_artificials(std::size_t first_artificial) {
    const std::size_t m = a_.size();
    for (std::size_t i = 0; i < m; ++i) {
      if (static_cast<std::size_t>(basis_[i]) < first_artificial) continue;
      // Find a non-artificial column with nonzero coefficient in this row.
      for (std::size_t j = 0; j < first_artificial; ++j) {
        if (std::abs(a_[i][j]) > kEps) {
          pivot(i, j);
          break;
        }
      }
    }
  }

  const std::vector<double>& rhs() const { return b_; }
  const std::vector<int>& basis() const { return basis_; }

 private:
  void pivot(std::size_t row, std::size_t col) {
    const std::size_t m = a_.size();
    const std::size_t n = a_[0].size();
    const double p = a_[row][col];
    assert(std::abs(p) > kEps);
    for (std::size_t j = 0; j < n; ++j) a_[row][j] /= p;
    b_[row] /= p;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == row) continue;
      const double factor = a_[i][col];
      if (std::abs(factor) < kEps) continue;
      for (std::size_t j = 0; j < n; ++j) a_[i][j] -= factor * a_[row][j];
      b_[i] -= factor * b_[row];
      if (b_[i] < 0.0 && b_[i] > -kEps) b_[i] = 0.0;
    }
    // The new basic column is exactly a unit column, also in the rows the
    // loop skipped: a residue left there would give the basic column a
    // reduced cost below -kEps, and it would re-enter in a no-op pivot
    // forever.
    for (std::size_t i = 0; i < m; ++i) a_[i][col] = i == row ? 1.0 : 0.0;
    basis_[row] = static_cast<int>(col);
  }

  std::vector<std::vector<double>> a_;
  std::vector<double> b_;
  std::vector<int> basis_;
};

/// Whether `x` satisfies every row of `lp` and the tableau's basic values
/// `basic` are non-negative, up to kFeasibilityTol.
bool feasible(const LinearProgram& lp, const std::vector<double>& x,
              const std::vector<double>& basic) {
  for (double v : basic) {
    if (v < -kFeasibilityTol) return false;
  }
  for (std::size_t i = 0; i < lp.num_constraints(); ++i) {
    double lhs = 0.0;
    double scale = 1.0 + std::abs(lp.rhs[i]);
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double term = lp.rows[i][j] * x[j];
      lhs += term;
      scale += std::abs(term);
    }
    const double slack = kFeasibilityTol * scale;
    const double excess = lhs - lp.rhs[i];
    switch (lp.relations[i]) {
      case Relation::kLessEqual:
        if (excess > slack) return false;
        break;
      case Relation::kGreaterEqual:
        if (excess < -slack) return false;
        break;
      case Relation::kEqual:
        if (std::abs(excess) > slack) return false;
        break;
    }
  }
  return true;
}

}  // namespace

void LinearProgram::add_constraint(std::vector<double> coeffs, Relation rel,
                                   double b) {
  assert(coeffs.size() == num_variables());
  rows.push_back(std::move(coeffs));
  relations.push_back(rel);
  rhs.push_back(b);
}

LpSolution solve(const LinearProgram& lp) {
  const std::size_t m = lp.num_constraints();
  const std::size_t n = lp.num_variables();
  assert(lp.rhs.size() == m && lp.relations.size() == m);

  // Normalize to A x (rel) b with b >= 0 (flip rows with negative rhs).
  std::vector<std::vector<double>> rows = lp.rows;
  std::vector<double> rhs = lp.rhs;
  std::vector<Relation> rels = lp.relations;
  for (std::size_t i = 0; i < m; ++i) {
    if (rhs[i] < 0.0) {
      for (double& v : rows[i]) v = -v;
      rhs[i] = -rhs[i];
      if (rels[i] == Relation::kLessEqual) rels[i] = Relation::kGreaterEqual;
      else if (rels[i] == Relation::kGreaterEqual) rels[i] = Relation::kLessEqual;
    }
  }

  // Count slack/surplus columns.
  std::size_t num_slack = 0;
  for (Relation r : rels) {
    if (r != Relation::kEqual) ++num_slack;
  }
  const std::size_t first_slack = n;
  const std::size_t first_artificial = n + num_slack;
  const std::size_t total_cols = first_artificial + m;  // artificial per row

  std::vector<std::vector<double>> a(m, std::vector<double>(total_cols, 0.0));
  std::vector<int> basis(m, -1);
  std::size_t slack_idx = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a[i][j] = rows[i][j];
    if (rels[i] == Relation::kLessEqual) {
      a[i][first_slack + slack_idx] = 1.0;
      basis[i] = static_cast<int>(first_slack + slack_idx);
      ++slack_idx;
    } else if (rels[i] == Relation::kGreaterEqual) {
      a[i][first_slack + slack_idx] = -1.0;
      ++slack_idx;
    }
    // Artificial always present so we have an immediate basis; for <= rows
    // the slack is basic and the artificial column stays at zero.
    a[i][first_artificial + i] = 1.0;
    if (basis[i] < 0) basis[i] = static_cast<int>(first_artificial + i);
  }

  Tableau tableau(std::move(a), rhs, std::move(basis));

  // Phase 1: minimize the sum of artificials.
  std::vector<double> phase1_cost(total_cols, 0.0);
  for (std::size_t i = 0; i < m; ++i) phase1_cost[first_artificial + i] = 1.0;
  const bool phase1_bounded = tableau.optimize(phase1_cost, total_cols);
  assert(phase1_bounded);
  (void)phase1_bounded;
  double artificial_sum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (static_cast<std::size_t>(tableau.basis()[i]) >= first_artificial) {
      artificial_sum += tableau.rhs()[i];
    }
  }
  if (artificial_sum > 1e-7) {
    return LpSolution{LpStatus::kInfeasible, 0.0, {}};
  }
  tableau.purge_artificials(first_artificial);

  // Phase 2: minimize c over original + slack columns. No artificial may
  // enter, and the ones still basic sit at 0 in redundant rows (e.g. the
  // last conservation row of each commodity), priced 0 so that they add
  // nothing to any reduced cost: a large price there lifts the round-off
  // of every reduced cost above kEps, and Bland's rule then cycles.
  std::vector<double> phase2_cost(total_cols, 0.0);
  for (std::size_t j = 0; j < n; ++j) phase2_cost[j] = lp.objective[j];
  if (!tableau.optimize(phase2_cost, first_artificial)) {
    return LpSolution{LpStatus::kUnbounded, 0.0, {}};
  }

  LpSolution solution;
  solution.status = LpStatus::kOptimal;
  solution.x.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t col = static_cast<std::size_t>(tableau.basis()[i]);
    if (col < n) solution.x[col] = tableau.rhs()[i];
  }
  // Round-off can carry the basis off the feasible region with no pivot
  // looking wrong; such a basis is no optimum.
  if (!feasible(lp, solution.x, tableau.rhs())) {
    return LpSolution{LpStatus::kNumericalError, 0.0, {}};
  }
  solution.objective = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    solution.objective += lp.objective[j] * solution.x[j];
  }
  return solution;
}

}  // namespace sor
