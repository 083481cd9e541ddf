#include "vm/migration.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "astar/search.hpp"
#include "obs/trace.hpp"

namespace cosched {
namespace {

Real weight_of(std::span<const Real> weights, ProcessId p) {
  if (weights.empty()) return 1.0;
  COSCHED_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < weights.size());
  return weights[static_cast<std::size_t>(p)];
}

/// machine index hosting each process (dense; ids must be < n).
std::vector<std::int32_t> machine_index(const Solution& s) {
  std::int32_t n = 0;
  for (const auto& m : s.machines) n += static_cast<std::int32_t>(m.size());
  std::vector<std::int32_t> idx(static_cast<std::size_t>(n), -1);
  for (std::size_t m = 0; m < s.machines.size(); ++m)
    for (ProcessId p : s.machines[m]) {
      COSCHED_EXPECTS(p >= 0 && p < n);
      idx[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(m);
    }
  return idx;
}

/// weight[old][new] = summed move weight of processes in both machines.
std::vector<std::vector<Real>> overlap_matrix(
    const Solution& old_placement, const Solution& fresh,
    std::span<const Real> weights) {
  const std::size_t m = old_placement.machines.size();
  COSCHED_EXPECTS(fresh.machines.size() == m);
  auto fresh_machine = machine_index(fresh);
  std::vector<std::vector<Real>> w(m, std::vector<Real>(m, 0.0));
  for (std::size_t a = 0; a < m; ++a) {
    for (ProcessId p : old_placement.machines[a]) {
      std::int32_t b = fresh_machine[static_cast<std::size_t>(p)];
      COSCHED_EXPECTS(b >= 0);
      w[a][static_cast<std::size_t>(b)] += weight_of(weights, p);
    }
  }
  return w;
}

std::int32_t total_processes(const Solution& s) {
  std::int32_t n = 0;
  for (const auto& m : s.machines)
    n += static_cast<std::int32_t>(m.size());
  return n;
}

}  // namespace

Solution align_to_placement(const Solution& old_placement, Solution fresh,
                            std::span<const Real> move_weight) {
  auto w = overlap_matrix(old_placement, fresh, move_weight);
  // assignment[a] = index of the fresh group that old machine a keeps.
  auto assignment = solve_assignment_max(w);
  Solution aligned;
  aligned.machines.resize(old_placement.machines.size());
  for (std::size_t a = 0; a < assignment.size(); ++a)
    aligned.machines[a] =
        std::move(fresh.machines[static_cast<std::size_t>(assignment[a])]);
  for (auto& m : aligned.machines) std::sort(m.begin(), m.end());
  return aligned;
}

std::int32_t min_migrations(const Solution& old_placement,
                            const Solution& fresh) {
  auto w = overlap_matrix(old_placement, fresh, {});
  auto assignment = solve_assignment_max(w);
  Real kept = 0.0;
  for (std::size_t a = 0; a < assignment.size(); ++a)
    kept += w[a][static_cast<std::size_t>(assignment[a])];
  return total_processes(old_placement) - static_cast<std::int32_t>(kept);
}

Real weighted_migrations(const Solution& old_placement, const Solution& fresh,
                         std::span<const Real> move_weight) {
  auto w = overlap_matrix(old_placement, fresh, move_weight);
  auto assignment = solve_assignment_max(w);
  auto fresh_machine = machine_index(fresh);
  Real moved = 0.0;
  for (std::size_t a = 0; a < old_placement.machines.size(); ++a)
    for (ProcessId p : old_placement.machines[a])
      if (fresh_machine[static_cast<std::size_t>(p)] != assignment[a])
        moved += weight_of(move_weight, p);
  return moved;
}

// ------------------------------------------------------------ SwapEngine

SwapEngine::SwapEngine(const Problem& problem, const Solution& reference,
                       Solution start, Real migration_cost,
                       std::span<const Real> move_weight)
    : problem_(problem),
      model_(*problem.full_model),
      work_(std::move(start)),
      migration_cost_(migration_cost) {
  problem.check();
  validate_solution(problem, work_);
  COSCHED_EXPECTS(migration_cost >= 0.0);
  const std::size_t n = static_cast<std::size_t>(problem.n());
  const std::size_t m = work_.machines.size();
  const std::size_t u = static_cast<std::size_t>(problem.u());

  const std::size_t jobs = static_cast<std::size_t>(problem.batch.job_count());
  jobs_.reserve(jobs);
  job_of_.resize(n);
  imaginary_.resize(n);
  for (const Job& job : problem.batch.jobs()) {
    COSCHED_EXPECTS(!job.processes.empty());
    const ProcessId first = job.processes.front();
    const auto size = static_cast<std::int32_t>(job.processes.size());
    for (std::int32_t k = 0; k < size; ++k) {
      // contribution() reads a job's degradations as one consecutive run.
      COSCHED_EXPECTS(job.processes[static_cast<std::size_t>(k)] ==
                      first + k);
      job_of_[static_cast<std::size_t>(first + k)] = job.id;
      imaginary_[static_cast<std::size_t>(first + k)] =
          job.kind == JobKind::Imaginary;
    }
    COSCHED_EXPECTS(static_cast<std::size_t>(job.id) == jobs_.size());
    jobs_.push_back({first, size, job.kind});
  }
  fresh_.resize(u);
  saved_d_.resize(2 * u);
  d_.assign(n, 0.0);
  for (const auto& machine : work_.machines) price_machine(machine);
  // Summed in job order, exactly as evaluate_solution does.
  contrib_.resize(jobs);
  stamp_.assign(jobs, 0);
  for (std::size_t j = 0; j < jobs; ++j) {
    contrib_[j] = contribution(static_cast<JobId>(j));
    degradation_ += contrib_[j];
  }

  if (migration_cost_ > 0.0) {
    validate_solution(problem, reference);
    if (!move_weight.empty()) COSCHED_EXPECTS(move_weight.size() == n);
    home_ = machine_index(reference);
    const auto current = machine_index(work_);
    weight_.resize(n);
    overlap_.assign(m * m, 0.0);
    bool aligned = true;
    for (std::size_t p = 0; p < n; ++p) {
      weight_[p] = weight_of(move_weight, static_cast<ProcessId>(p));
      COSCHED_EXPECTS(weight_[p] >= 0.0);
      total_weight_ += weight_[p];
      overlap_[static_cast<std::size_t>(home_[p]) * m +
               static_cast<std::size_t>(current[p])] += weight_[p];
      if (weight_[p] != 0.0 && home_[p] != current[p]) aligned = false;
    }
    row_max_.assign(m, 0.0);
    for (std::size_t h = 0; h < m; ++h)
      for (std::size_t c = 0; c < m; ++c)
        row_max_[h] = std::max(row_max_[h], overlap_[h * m + c]);
    assignment_.resize(m);
    // Every weighted process at home: the overlap matrix is diagonal, so
    // the identity is the best relabeling, and its kept weight summed in
    // row order is what the Hungarian would return.
    Real kept = 0.0;
    if (aligned) {
      for (std::size_t h = 0; h < m; ++h) kept += overlap_[h * m + h];
    } else {
      kept = kept_weight();
    }
    charge_ = charge_of(kept);
  }
  idle_.resize(n);
  for (std::size_t p = 0; p < n; ++p)
    idle_[p] = imaginary_[p] && moves_free(static_cast<ProcessId>(p));
}

void SwapEngine::price_machine(const std::vector<ProcessId>& machine) {
  model_.machine_degradations(machine, fresh_);
  // An imaginary process suffers nothing (the DegradationModel contract).
  for (std::size_t k = 0; k < machine.size(); ++k)
    d_[static_cast<std::size_t>(machine[k])] =
        imaginary(machine[k]) ? 0.0 : fresh_[k];
}

Real SwapEngine::contribution(JobId job_id) const {
  const JobSlice& job = jobs_[static_cast<std::size_t>(job_id)];
  const Real* d = d_.data() + job.first;
  Real contrib = 0.0;
  if (job.kind == JobKind::Imaginary) return contrib;
  if (is_parallel_kind(job.kind)) {
    for (std::int32_t k = 0; k < job.size; ++k)
      contrib = std::max(contrib, d[k]);
  } else {
    for (std::int32_t k = 0; k < job.size; ++k) contrib += d[k];
  }
  return contrib;
}

void SwapEngine::move_overlap(ProcessId p, std::size_t from, std::size_t to) {
  const Real w = weight_[static_cast<std::size_t>(p)];
  if (w == 0.0) return;
  const std::size_t m = work_.machines.size();
  const auto h = static_cast<std::size_t>(home_[static_cast<std::size_t>(p)]);
  Real* row = overlap_.data() + h * m;
  saved_overlap_.emplace_back(h * m + from, row[from]);
  row[from] -= w;
  saved_overlap_.emplace_back(h * m + to, row[to]);
  row[to] += w;
  saved_row_max_.emplace_back(h, row_max_[h]);
  Real row_max = 0.0;
  for (std::size_t c = 0; c < m; ++c) row_max = std::max(row_max, row[c]);
  row_max_[h] = row_max;
}

Real SwapEngine::kept_weight() {
  ++assignments_;
  return solver_.solve_max(overlap_, work_.machines.size(), assignment_);
}

Real SwapEngine::kept_weight_bound() const {
  // Σ_h max_c overlap[h][c], summed in row order like solve_max's total:
  // each term is at least the one the assignment picks for row h, and
  // rounded addition is monotone, so the bound is at least kept_weight().
  // A swap changes at most two rows, and move_overlap rescans just those.
  Real bound = 0.0;
  for (Real row_max : row_max_) bound += row_max;
  return bound;
}

Real SwapEngine::stage(std::size_t a, std::size_t i, std::size_t b,
                       std::size_t j) {
  COSCHED_EXPECTS(a != b && a < work_.machines.size() &&
                  b < work_.machines.size());
  auto& ma = work_.machines[a];
  auto& mb = work_.machines[b];
  const std::size_t u = ma.size();
  COSCHED_EXPECTS(i < u && j < u);
  std::swap(ma[i], mb[j]);
  ++swaps_priced_;

  // Only the two touched machines change degradations.
  for (std::size_t k = 0; k < u; ++k) {
    saved_d_[k] = d_[static_cast<std::size_t>(ma[k])];
    saved_d_[u + k] = d_[static_cast<std::size_t>(mb[k])];
  }
  price_machine(ma);
  price_machine(mb);

  // ... and only the jobs with a process on them change contributions.
  // An imaginary job contributes 0 before and after, and adding +0 to the
  // delta (a sum of terms c - c' that starts at +0) changes no bit. A
  // serial job's one process is touched once, so it needs no stamp.
  ++epoch_;
  touched_.clear();
  Real delta = 0.0;
  auto touch = [&](ProcessId x) {
    if (imaginary(x)) return;
    const JobId job = job_of_[static_cast<std::size_t>(x)];
    if (jobs_[static_cast<std::size_t>(job)].size > 1) {
      if (stamp_[static_cast<std::size_t>(job)] == epoch_) return;
      stamp_[static_cast<std::size_t>(job)] = epoch_;
    }
    const Real c = contribution(job);
    touched_.emplace_back(job, c);
    delta += c - contrib_[static_cast<std::size_t>(job)];
  };
  for (ProcessId x : ma) touch(x);
  for (ProcessId x : mb) touch(x);
  return degradation_ + delta;
}

Real SwapEngine::staged_load_delta(std::size_t a, std::size_t b) const {
  const auto& ma = work_.machines[a];
  const auto& mb = work_.machines[b];
  const std::size_t u = ma.size();
  Real load_delta = 0.0;
  for (std::size_t k = 0; k < u; ++k)
    load_delta += (d_[static_cast<std::size_t>(ma[k])] - saved_d_[k]) +
                  (d_[static_cast<std::size_t>(mb[k])] - saved_d_[u + k]);
  return load_delta;
}

void SwapEngine::stage_overlap(std::size_t a, std::size_t i, std::size_t b,
                               std::size_t j) {
  // stage() swapped the slots: a's process now sits at b[j], b's at a[i].
  move_overlap(work_.machines[b][j], a, b);
  move_overlap(work_.machines[a][i], b, a);
}

void SwapEngine::unstage(std::size_t a, std::size_t i, std::size_t b,
                         std::size_t j) {
  auto& ma = work_.machines[a];
  auto& mb = work_.machines[b];
  const std::size_t u = ma.size();
  for (std::size_t k = 0; k < u; ++k) {
    d_[static_cast<std::size_t>(ma[k])] = saved_d_[k];
    d_[static_cast<std::size_t>(mb[k])] = saved_d_[u + k];
  }
  for (auto it = saved_overlap_.rbegin(); it != saved_overlap_.rend(); ++it)
    overlap_[it->first] = it->second;
  for (auto it = saved_row_max_.rbegin(); it != saved_row_max_.rend(); ++it)
    row_max_[it->first] = it->second;
  saved_overlap_.clear();
  saved_row_max_.clear();
  std::swap(ma[i], mb[j]);
}

void SwapEngine::commit(Real charge) {
  for (const auto& [job, c] : touched_)
    contrib_[static_cast<std::size_t>(job)] = c;
  // Re-summed in job order, so the tracked objective never drifts from
  // evaluate_solution.
  degradation_ = 0.0;
  for (Real c : contrib_) degradation_ += c;
  charge_ = charge;
  saved_overlap_.clear();
  saved_row_max_.clear();
  ++swaps_applied_;
}

bool SwapEngine::swap(std::size_t a, std::size_t i, std::size_t b,
                      std::size_t j, bool force) {
  const Real degradation = stage(a, i, b, j);
  const Real target = combined() - kObjectiveEps;
  // The charge is never negative: a swap whose degradation alone does not
  // beat the target cannot be accepted, so it leaves the overlap matrix
  // alone. Nor can one that misses the target under the charge of the
  // row-maximum bound, which is at most the exact charge (subtraction,
  // scaling by a cost >= 0 and addition all round monotonically); it skips
  // the assignment.
  Real charge = 0.0;
  bool accept = force || degradation < target;
  if (migration_cost_ > 0.0 && accept) {
    stage_overlap(a, i, b, j);
    if (force || degradation + charge_of(kept_weight_bound()) < target) {
      charge = charge_of(kept_weight());
      accept = force || degradation + charge < target;
    } else {
      accept = false;
    }
  }
  if (!accept) {
    unstage(a, i, b, j);
    return false;
  }
  commit(charge);
  return true;
}

bool SwapEngine::try_swap(std::size_t a, std::size_t i, std::size_t b,
                          std::size_t j) {
  return swap(a, i, b, j, false);
}

void SwapEngine::apply_swap(std::size_t a, std::size_t i, std::size_t b,
                            std::size_t j) {
  swap(a, i, b, j, true);
}

bool SwapEngine::moves_free(ProcessId p) const {
  return migration_cost_ == 0.0 || weight_[static_cast<std::size_t>(p)] == 0.0;
}

std::uint64_t SwapEngine::fill(std::span<const ProcessId> admitted) {
  const std::size_t m = work_.machines.size();
  const std::size_t u = static_cast<std::size_t>(problem_.u());
  auto slot_of = [&](ProcessId p) {
    for (std::size_t a = 0; a < m; ++a) {
      const auto& machine = work_.machines[a];
      const auto it = std::find(machine.begin(), machine.end(), p);
      if (it != machine.end())
        return std::pair{a, static_cast<std::size_t>(it - machine.begin())};
    }
    COSCHED_ENSURES(false);  // validate_solution placed every process
    return std::pair{m, u};
  };
  for (ProcessId p : admitted) {
    COSCHED_EXPECTS(p >= 0 && p < problem_.n());
    COSCHED_EXPECTS(moves_free(p));
  }
  // A swap between two free movers leaves the machine-overlap matrix, and
  // so the charge, as it is: the objective changes by the degradation only.
  // Every move lowers (Eq. 13, summed degradation) lexicographically, so
  // the passes end.
  std::uint64_t moves = 0;
  for (bool moved = true; moved;) {
    moved = false;
    for (ProcessId p : admitted) {
      const auto [a, i] = slot_of(p);
      // Lexicographic: the Eq. 13 objective first, then the summed
      // per-process degradation. The second key crosses the plateaus of a
      // parallel job's max: moving a process that does not hold its job's
      // max leaves Eq. 13 as it is, but frees the way for the holder.
      Real best_degradation = degradation_;
      Real best_load_delta = 0.0;
      std::size_t best_b = m;
      std::size_t best_j = 0;
      for (std::size_t b = 0; b < m; ++b) {
        if (b == a) continue;
        // An idle slot whose run of imaginary slots on b already had one
        // priced stages bit-identical values (see run()) and so never wins
        // the strict comparisons below. The load delta adds a's and b's
        // slot-k terms pairwise, so the run also needs a's terms to be 0
        // over it: a's slots hold imaginary processes or p's own slot.
        bool run_priced = false;
        for (std::size_t j = 0; j < u; ++j) {
          const ProcessId q = work_.machines[b][j];
          const bool zero_terms =
              imaginary(q) && (j == i || imaginary(work_.machines[a][j]));
          if (!zero_terms) run_priced = false;
          if (!idle(q) || run_priced) continue;
          run_priced = zero_terms;
          const Real cand = stage(a, i, b, j);
          const Real load_delta = staged_load_delta(a, b);
          unstage(a, i, b, j);
          if (cand < best_degradation - kObjectiveEps ||
              (cand <= best_degradation &&
               load_delta < best_load_delta - kObjectiveEps)) {
            best_degradation = cand;
            best_load_delta = load_delta;
            best_b = b;
            best_j = j;
          }
        }
      }
      if (best_b == m) continue;
      stage(a, i, best_b, best_j);
      commit(charge_);
      ++moves;
      moved = true;
    }
  }
  return moves;
}

std::uint64_t SwapEngine::run(std::uint64_t max_passes) {
  const std::size_t m = work_.machines.size();
  const std::size_t u = static_cast<std::size_t>(problem_.u());
  // Skipped without pricing, each because an equivalent swap was just
  // rejected (DESIGN.md §"Online replans" has the proofs):
  //  * two idle slots — nothing changes;
  //  * an idle slot on b after another idle slot of the same run of
  //    imaginary slots, priced against the same process on a since the
  //    last swap taken — the two results differ only in which imaginary
  //    process sits where, and every real process keeps its co-runners in
  //    the same order;
  //  * likewise an idle slot on a after another idle slot of its run on a,
  //    while no swap has been taken in this (a, b) block.
  std::uint64_t passes = 0;
  for (; passes < max_passes; ++passes) {
    bool improved = false;
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = a + 1; b < m; ++b) {
        const auto& ma = work_.machines[a];
        const auto& mb = work_.machines[b];
        bool block_taken = false;
        bool a_run_priced = false;
        for (std::size_t i = 0; i < u; ++i) {
          if (!imaginary(ma[i])) a_run_priced = false;
          if (idle(ma[i]) && !block_taken) {
            if (a_run_priced) continue;
            a_run_priced = true;
          }
          bool b_run_priced = false;
          for (std::size_t j = 0; j < u; ++j) {
            if (!imaginary(mb[j])) b_run_priced = false;
            if (idle(mb[j])) {
              if (idle(ma[i]) || b_run_priced) continue;
              b_run_priced = true;
            }
            if (try_swap(a, i, b, j)) {
              improved = block_taken = true;
              b_run_priced = false;
            }
          }
        }
      }
    if (!improved) break;
  }
  return passes;
}

// ------------------------------------------------------------- replanning

ReplanResult replan_with_migrations(const Problem& problem,
                                    const Solution& current,
                                    const ReplanOptions& options) {
  auto fresh = solve_hastar(problem);
  return replan_with_migrations(problem, current,
                                fresh.found ? &fresh.solution : nullptr,
                                options);
}

ReplanResult replan_with_migrations(const Problem& problem,
                                    const Solution& current,
                                    const Solution* fresh,
                                    const ReplanOptions& options) {
  std::span<const Real> weights(options.move_weight);
  if (!weights.empty())
    COSCHED_EXPECTS(weights.size() ==
                    static_cast<std::size_t>(problem.n()));

  // Candidate 1: stay put, priced by the engine started on `current` (its
  // constructor checks the problem and `current`). Its degradation is
  // evaluate_solution's total bit for bit: the same machine_degradations
  // calls, summed in job order. Nothing moves, so nothing is charged.
  std::optional<SwapEngine> engine;
  engine.emplace(problem, current, current, options.migration_cost, weights);
  ReplanResult best;
  best.placement = current;
  best.degradation = engine->degradation();
  best.combined = best.degradation + best.migration_charge;
  best.per_process = engine->per_process();
  const Real stay_combined = best.combined;

  // Every other candidate is machine-aligned to `current`, so the processes
  // it moves are the ones off their old machine index. Its machines are
  // sorted, and a model may sum co-runners in slot order, so it is priced
  // afresh rather than read off an engine that left them in swap order.
  const auto home = machine_index(current);
  auto result_of = [&](Solution aligned) {
    ReplanResult r;
    Evaluation eval = evaluate_solution(problem, aligned);
    r.degradation = eval.total;
    r.per_process = std::move(eval.per_process);
    Real moved_weight = 0.0;
    for (std::size_t a = 0; a < aligned.machines.size(); ++a)
      for (ProcessId p : aligned.machines[a]) {
        if (home[static_cast<std::size_t>(p)] == static_cast<std::int32_t>(a))
          continue;
        Real wp = weight_of(weights, p);
        if (wp > 0.0) {
          ++r.migrations;
          moved_weight += wp;
        }
      }
    r.migration_charge = options.migration_cost * moved_weight;
    r.combined = r.degradation + r.migration_charge;
    r.placement = std::move(aligned);
    return r;
  };

  // Candidate 2: the fresh schedule (HA* unless the caller plugged in
  // another solver), machine-aligned to the old placement so its migration
  // charge is minimal. When it wins, the swap search starts from it.
  std::uint64_t alignments = 0;
  if (fresh != nullptr) {
    ReplanResult cand =
        result_of(align_to_placement(current, *fresh, weights));
    ++alignments;
    if (cand.combined < best.combined) {
      best = std::move(cand);
      engine.emplace(problem, current, best.placement, options.migration_cost,
                     weights);
    }
  }

  // Candidate 3: migration-aware swap search from the best so far, after
  // the greedy fill of options.fill. Its charge is relabel-invariant, so
  // the swaps leave machine labels anywhere; aligning again makes the
  // committed moves the counted ones.
  {
    COSCHED_TRACE_SPAN(fill_span, "replan.fill");
    engine->fill(options.fill);
  }
  {
    COSCHED_TRACE_SPAN(polish_span, "replan.polish");
    engine->run(options.max_passes);
  }
  if (engine->swaps_applied() > 0) {
    COSCHED_TRACE_SPAN(realign_span, "replan.realign");
    ReplanResult cand = result_of(
        align_to_placement(current, engine->take_placement(), weights));
    ++alignments;
    if (cand.combined < best.combined) best = std::move(cand);
  }
  best.stay_combined = stay_combined;
  best.swaps_priced = engine->swaps_priced();
  best.swaps_applied = engine->swaps_applied();
  best.assignments = engine->assignments() + alignments;
  return best;
}

}  // namespace cosched
