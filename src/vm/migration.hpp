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
/// old machine it overlaps most (max-weight assignment), and sorts each
/// machine. Both solutions must partition the same process set into the
/// same number of machines. The assignment maximizes the summed
/// `move_weight` of processes that stay put — weight-0 processes (e.g.
/// newly admitted jobs with no current home, or idle padding) do not
/// influence the alignment; empty weights count every process as 1.
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
/// A candidate swap is priced by its arithmetic alone: one
/// DegradationModel::machine_degradations call per touched machine, and a
/// re-aggregation (Σ for serial jobs, the Eq. 13 max for parallel ones) of
/// only the jobs with a process on them, read from a flat per-job table of
/// consecutive process ids. Most candidates fail on degradation alone and
/// never touch the machine-overlap matrix. One whose degradation beats the
/// target moves its two processes in the overlap (O(1)), rescans the at
/// most two rows they change for the per-row maxima, and sums those maxima
/// into a bound on the kept weight (O(m)). The relabeling assignment runs only
/// when the swap still wins under the charge of that bound (a charge never
/// above the exact one). The constructor runs none on an aligned start
/// (every weighted process on its reference machine), and with
/// migration_cost 0 none runs at all. DESIGN.md §"Online replans" shows
/// why none of this changes a decision.
///
/// Idle slots (Imaginary processes that move free) are interchangeable:
/// by the DegradationModel contract an imaginary process suffers nothing
/// and inflicts nothing, so the passes skip every swap whose outcome an
/// already priced one decides (two idle slots; a second idle slot in the
/// same run of imaginary slots). DESIGN.md §"Online replans" proves each
/// skip exact: the decisions are those of the full scan.
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
  /// d_i of every process under placement(), by ProcessId (imaginary 0).
  const std::vector<Real>& per_process() const { return d_; }
  Real migration_charge() const { return charge_; }
  Real combined() const { return degradation_ + charge_; }
  std::uint64_t swaps_applied() const { return swaps_applied_; }
  /// Candidate swaps re-priced so far (applied ones included).
  std::uint64_t swaps_priced() const { return swaps_priced_; }
  /// Relabeling assignments (Hungarian solves) run so far.
  std::uint64_t assignments() const { return assignments_; }

 private:
  bool swap(std::size_t a, std::size_t i, std::size_t b, std::size_t j,
            bool force);
  /// Swaps the two slots and re-prices the degradation they touch (the two
  /// machines' per-process degradations, the jobs on them); returns the
  /// Eq. 13 objective after the swap. commit() or unstage() must follow.
  Real stage(std::size_t a, std::size_t i, std::size_t b, std::size_t j);
  /// Change of the summed per-process degradation under the swap staged
  /// between machines a and b.
  Real staged_load_delta(std::size_t a, std::size_t b) const;
  /// After stage(): moves the swapped processes in the overlap matrix and
  /// rescans the row maxima they change. unstage() undoes this too.
  void stage_overlap(std::size_t a, std::size_t i, std::size_t b,
                     std::size_t j);
  void unstage(std::size_t a, std::size_t i, std::size_t b, std::size_t j);
  void commit(Real charge);
  bool moves_free(ProcessId p) const;
  bool idle(ProcessId p) const {
    return idle_[static_cast<std::size_t>(p)] != 0;
  }
  bool imaginary(ProcessId p) const {
    return imaginary_[static_cast<std::size_t>(p)] != 0;
  }
  /// Writes the degradation of every process on `machine` into d_.
  void price_machine(const std::vector<ProcessId>& machine);
  Real contribution(JobId job) const;
  void move_overlap(ProcessId p, std::size_t from, std::size_t to);
  Real charge_of(Real kept) const {
    return migration_cost_ * (total_weight_ - kept);
  }
  Real kept_weight();
  Real kept_weight_bound() const;

  /// A job's processes, consecutive ids first .. first + size - 1.
  struct JobSlice {
    ProcessId first;
    std::int32_t size;
    JobKind kind;
  };

  const Problem& problem_;
  const DegradationModel& model_;
  Solution work_;
  Real migration_cost_ = 0.0;

  std::vector<JobSlice> jobs_;         ///< per job
  std::vector<JobId> job_of_;          ///< per process
  std::vector<char> imaginary_;        ///< per process: Imaginary job
  std::vector<char> idle_;             ///< per process: imaginary, moves free
  std::vector<Real> d_;                ///< per-process degradation
  std::vector<Real> contrib_;          ///< per-job Eq. 13 contribution
  Real degradation_ = 0.0;             ///< Σ contrib_
  Real charge_ = 0.0;                  ///< migration_cost × moved weight
  std::uint64_t swaps_applied_ = 0;
  std::uint64_t swaps_priced_ = 0;
  std::uint64_t assignments_ = 0;

  // Relabel-invariant migration pricing (only when migration_cost > 0).
  std::vector<std::int32_t> home_;     ///< reference machine per process
  std::vector<Real> weight_;           ///< move weight per process
  Real total_weight_ = 0.0;
  std::vector<Real> overlap_;          ///< [home * m + current] weight
  std::vector<Real> row_max_;          ///< per home row: max over overlap_
  std::vector<std::int32_t> assignment_;
  AssignmentSolver solver_;

  // Per-swap scratch, reused.
  std::vector<Real> fresh_;            ///< one machine's degradations
  std::vector<Real> saved_d_;
  std::vector<std::pair<std::size_t, Real>> saved_overlap_;
  std::vector<std::pair<std::size_t, Real>> saved_row_max_;
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
  Real stay_combined = 0.0;    ///< combined objective of keeping `current`
  /// d_i of the placement, by ProcessId; imaginary processes read 0 (the
  /// DegradationModel contract).
  std::vector<Real> per_process;
  std::uint64_t swaps_priced = 0;  ///< candidate swaps the search priced
  std::uint64_t swaps_applied = 0; ///< swaps it took, fill moves included
  std::uint64_t assignments = 0;   ///< Hungarian solves, alignments included
};

/// Replans an existing placement: takes the better of `current` and a
/// migration-aligned fresh schedule, seats `options.fill` greedily in it
/// (SwapEngine::fill), applies a local search over process swaps under the
/// combined objective, and returns the best placement seen.
/// Never returns anything worse (combined-objective-wise) than keeping
/// `current`. The returned placement is aligned to `current`, so the
/// processes it moves by position are exactly the `migrations` it reports.
/// Each placement is priced once: `current` by the SwapEngine started on
/// it, which is also `stay_combined`; an aligned candidate (the fresh one,
/// the swapped one) by evaluate_solution, whose per-process degradations
/// the result keeps.
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
