// Migration-aware rescheduling — the paper's stated future work ("extend
// our co-scheduling methods to solve the optimal mapping of virtual
// machines on physical machines... allow the VM migrations between
// physical machines").
//
// A running placement identifies machines; a fresh co-schedule is only a
// partition. The bridge is an assignment problem: map new groups onto old
// machines so as many processes as possible stay put (max-weight matching
// on group overlap; Hungarian). Replanning then trades contention
// degradation against the number of migrations.
#pragma once

#include <cstdint>
#include <span>

#include "core/objective.hpp"
#include "core/problem.hpp"
#include "vm/hungarian.hpp"

namespace cosched {

/// Relabels `fresh.machines` so that machine k inherits the identity of the
/// old machine it overlaps most (max-weight assignment). Both solutions
/// must partition the same process set into the same number of machines.
/// The weighted overload maximizes the summed `move_weight` of processes
/// that stay put — weight-0 processes (e.g. newly admitted jobs with no
/// current home, or idle padding) do not influence the alignment.
Solution align_to_placement(const Solution& old_placement, Solution fresh);
Solution align_to_placement(const Solution& old_placement, Solution fresh,
                            std::span<const Real> move_weight);

/// Minimum number of processes that must move to turn `old_placement` into
/// (a machine-relabeling of) `fresh`.
std::int32_t min_migrations(const Solution& old_placement,
                            const Solution& fresh);

/// Minimum total `move_weight` of processes that must move (weighted
/// generalization; min_migrations is the all-ones special case).
Real weighted_migrations(const Solution& old_placement, const Solution& fresh,
                         std::span<const Real> move_weight);

struct ReplanOptions {
  /// Cost (in degradation units) charged per migrated process. 0 replans
  /// freely; large values pin the current placement.
  Real migration_cost = 0.05;
  /// Swap-improvement passes for the migration-aware local search.
  std::uint64_t max_passes = 30;
  /// Per-process move weight (indexed by ProcessId; empty = all ones).
  /// The combined objective charges migration_cost × weight per move, so
  /// weight-0 processes relocate freely — how the online service marks
  /// newly admitted jobs and idle padding slots.
  std::vector<Real> move_weight;
  /// Processes the swap search first places greedily, in this order
  /// (SwapEngine::fill) — how a repair seats newly admitted processes.
  /// Each must move free (move weight 0, or migration_cost 0).
  std::vector<ProcessId> fill;
};

/// First-improvement pairwise-swap search with delta evaluation, under
///   combined = Eq. 13 degradation + migration_cost × moved weight,
/// where the moved weight is that of the best machine relabeling of the
/// placement onto `reference` (weighted_migrations), so the charge does
/// not depend on where the swaps leave the machine labels.
///
/// A swap is priced incrementally: only the two touched machines are
/// re-evaluated, and only the jobs with a process on them are
/// re-aggregated (Σ for serial jobs, the Eq. 13 max for parallel ones).
/// The machine-overlap matrix is updated in O(1) per swap, and the
/// relabeling assignment runs only when the swap's degradation alone
/// already beats the current combined objective — the charge is never
/// negative, so that filter rejects nothing the full objective would
/// accept. With migration_cost 0 no assignment runs at all.
class SwapEngine {
 public:
  SwapEngine(const Problem& problem, const Solution& reference,
             Solution start, Real migration_cost,
             std::span<const Real> move_weight = {});

  /// Swaps placement()[a][i] with placement()[b][j] (a != b) if that
  /// improves combined() by more than kObjectiveEps; returns whether it did.
  bool try_swap(std::size_t a, std::size_t i, std::size_t b, std::size_t j);
  /// Applies the swap whatever it costs.
  void apply_swap(std::size_t a, std::size_t i, std::size_t b,
                  std::size_t j);
  /// Greedy fill: each process of `admitted`, in order, swaps with the idle
  /// slot (free-moving Imaginary padding on another machine) that lowers
  /// combined() most — a best-improvement pass over its swaps with idle
  /// padding. Both sides move free, so only the degradation changes; a swap
  /// that leaves it equal is taken when it lowers the summed per-process
  /// degradation, which crosses the plateaus of a parallel job's max.
  /// Passes repeat until none moves a process, so on return no such single
  /// swap improves combined(). Every admitted process must move free.
  /// Returns the number of swaps applied.
  std::uint64_t fill(std::span<const ProcessId> admitted);
  /// First-improvement passes over every (machine pair, slot pair) until a
  /// pass improves nothing or `max_passes` passes ran. Returns the number
  /// of passes that improved.
  std::uint64_t run(std::uint64_t max_passes);

  /// Positional: machine labels are wherever the swaps left them.
  const Solution& placement() const { return work_; }
  Solution take_placement() { return std::move(work_); }
  Real degradation() const { return degradation_; }
  Real migration_charge() const { return charge_; }
  Real combined() const { return degradation_ + charge_; }
  std::uint64_t swaps_applied() const { return swaps_applied_; }

 private:
  bool swap(std::size_t a, std::size_t i, std::size_t b, std::size_t j,
            bool force);
  struct Staged {
    Real degradation;  ///< Eq. 13 objective after the swap
    Real load_delta;   ///< change of the summed per-process degradation
  };
  /// Swaps the two slots and re-prices what they touch (the two machines'
  /// degradations, the jobs on them, the overlap matrix). commit() or
  /// unstage() must follow.
  Staged stage(std::size_t a, std::size_t i, std::size_t b, std::size_t j);
  void unstage(std::size_t a, std::size_t i, std::size_t b, std::size_t j);
  void commit(Real charge);
  bool moves_free(ProcessId p) const;
  Real degradation_at(const std::vector<ProcessId>& machine,
                      std::size_t slot);
  Real contribution(JobId job) const;
  void move_overlap(ProcessId p, std::size_t from, std::size_t to);
  Real kept_weight();

  const Problem& problem_;
  const DegradationModel& model_;
  Solution work_;
  Real migration_cost_ = 0.0;

  std::vector<JobId> job_of_;          ///< per process
  std::vector<Real> d_;                ///< per-process degradation
  std::vector<Real> contrib_;          ///< per-job Eq. 13 contribution
  Real degradation_ = 0.0;             ///< Σ contrib_
  Real charge_ = 0.0;                  ///< migration_cost × moved weight
  std::uint64_t swaps_applied_ = 0;

  // Relabel-invariant migration pricing (only when migration_cost > 0).
  std::vector<std::int32_t> home_;     ///< reference machine per process
  std::vector<Real> weight_;           ///< move weight per process
  Real total_weight_ = 0.0;
  std::vector<Real> overlap_;          ///< [home * m + current] weight
  std::vector<std::int32_t> assignment_;
  AssignmentSolver solver_;

  // Per-swap scratch, reused.
  std::vector<ProcessId> co_;
  std::vector<Real> saved_d_;
  std::vector<std::pair<std::size_t, Real>> saved_overlap_;
  std::vector<std::pair<JobId, Real>> touched_;
  std::vector<std::uint64_t> stamp_;   ///< per job: last swap that touched
  std::uint64_t epoch_ = 0;
};

struct ReplanResult {
  Solution placement;          ///< machine-aligned to the old placement
  Real degradation = 0.0;      ///< Eq. 13 objective of the placement
  std::int32_t migrations = 0; ///< processes with weight > 0 that moved
  Real migration_charge = 0.0; ///< migration_cost × total moved weight
  Real combined = 0.0;         ///< degradation + migration_charge
};

/// Replans an existing placement: takes the better of `current` and a
/// migration-aligned fresh schedule, seats `options.fill` greedily in it
/// (SwapEngine::fill), applies a local search over process swaps under the
/// combined objective, and returns the best placement seen.
/// Never returns anything worse (combined-objective-wise) than keeping
/// `current`. The returned placement is aligned to `current`, so the
/// processes it moves by position are exactly the `migrations` it reports.
/// The fresh candidate is solved with HA* internally; the `fresh` overload
/// takes a precomputed candidate instead (nullptr = none: a pure repair of
/// `current`). The online service repairs, passing a candidate only when a
/// batch takes every free slot (a migration-blind swap descent); the HA*
/// overload is the offline planner and the replan oracle's reference.
ReplanResult replan_with_migrations(const Problem& problem,
                                    const Solution& current,
                                    const ReplanOptions& options = {});
ReplanResult replan_with_migrations(const Problem& problem,
                                    const Solution& current,
                                    const Solution* fresh,
                                    const ReplanOptions& options = {});

}  // namespace cosched
