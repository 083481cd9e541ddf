#include "astar/search.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "graph/condensation.hpp"
#include "graph/level_stats.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/combinatorics.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/timer.hpp"

namespace cosched {
namespace {

/// A search record. Its process set and its per-parallel-job running maxima
/// (Eq. 13) live in the engine's arenas at the record's index.
struct StateRec {
  Real g_serial = 0.0;          ///< summed part of the path distance
  Real g = 0.0;                 ///< g_serial + Σ par_max
  std::int32_t parent = -1;
  std::int32_t q = 0;           ///< processes scheduled
  std::int32_t next_same = -1;  ///< next live record over the same set
  bool alive = true;            ///< false once superseded/dominated
};

struct HeapEntry {
  Real f;
  std::int64_t seq;    ///< FIFO tie-break keeps runs deterministic
  std::int32_t depth;  ///< processes scheduled; deeper first on equal f
  std::int32_t idx;
  bool operator>(const HeapEntry& o) const {
    if (f != o.f) return f > o.f;
    if (depth != o.depth) return depth < o.depth;
    return seq > o.seq;
  }
};

/// The dismissal table: open addressing (linear probing, at most half full)
/// from a process set to the newest record over it. A slot keeps the record
/// index and 32 bits of the set's hash; the set itself is not copied, a
/// probe compares against the record's words in the arena.
class SetTable {
 public:
  struct Slot {
    std::int32_t idx = -1;
    std::uint32_t hash = 0;
  };

  SetTable() : slots_(1024) {}

  /// The slot of the set hashed `hash` whose record satisfies `same`; for a
  /// set not yet present, a newly claimed slot with idx -1, which the caller
  /// fills before the next call.
  template <class Same>
  Slot& find_or_claim(std::uint64_t hash, Same&& same) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const auto tag = static_cast<std::uint32_t>(hash);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.idx < 0) {
        slot.hash = tag;
        ++size_;
        return slot;
      }
      if (slot.hash == tag && same(slot.idx)) return slot;
    }
  }

  std::size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  void grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.idx < 0) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].idx >= 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

class Engine {
 public:
  Engine(const Problem& problem, const SearchOptions& options)
      : problem_(problem),
        options_(options),
        model_(options.use_comm_model ? *problem.full_model
                                      : *problem.contention_model),
        eval_(problem, model_),
        n_(problem.n()),
        u_(problem.u()),
        num_parallel_(problem.batch.parallel_job_count()),
        words_((static_cast<std::size_t>(n_) + 63) / 64),
        stride_(static_cast<std::size_t>(num_parallel_)),
        parent_set_(static_cast<std::size_t>(n_)),
        succ_set_(static_cast<std::size_t>(n_)) {}

  SearchResult run() {
    SearchResult result;
    WallTimer total_timer;
    COSCHED_TRACE_SPAN(search_span, "astar.search", -1.0,
                       options_.heuristic_search ? "variant=HA*"
                                                 : "variant=OA*");

    prepare_level_stats(result.stats);
    condense_ = options_.condense && num_parallel_ > 0;
    mer_cap_ = options_.mer_cap > 0 ? options_.mer_cap : (n_ + u_ - 1) / u_;
    // HA* falls back to beam mode when only approximate level statistics
    // exist (see SearchOptions::beam_width).
    beam_mode_ = options_.beam_width > 0 ||
                 (options_.heuristic_search && !level_stats_.exact() &&
                  options_.heuristic != HeuristicKind::None);
    beam_width_ =
        options_.beam_width > 0 ? options_.beam_width : mer_cap_;

    WallTimer search_timer;
    // Root: nothing scheduled.
    {
      states_.emplace_back();
      bits_.assign(words_, 0);
      par_.assign(stride_, 0.0);
      const DynamicBitset empty(static_cast<std::size_t>(n_));
      table_.find_or_claim(empty.hash(), [](std::int32_t) {
        return false;
      }).idx = 0;
      if (!beam_mode_) push_heap(0, /*h=*/full_h());
    }

    if (beam_mode_) {
      run_beam(result, search_timer);
      stats_.search_seconds = search_timer.seconds();
      result.stats = stats_;
      flush_observability();
      return result;
    }

    while (!heap_.empty()) {
      if (limits_hit(search_timer)) {
        result.timed_out = true;
        break;
      }
      if (memory_hit()) {
        result.memory_exhausted = true;
        break;
      }
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const HeapEntry top = heap_.back();
      heap_.pop_back();
      // Stale entries: records superseded by a cheaper subpath over the
      // same process set. Each record is pushed exactly once.
      if (!states_[static_cast<std::size_t>(top.idx)].alive) continue;

      if (states_[static_cast<std::size_t>(top.idx)].q == n_) {
        reconstruct(top.idx, result);
        break;
      }
      expand(top.idx);
      ++stats_.expanded;
    }

    stats_.search_seconds = search_timer.seconds();
    result.stats = stats_;
    flush_observability();
    return result;
  }

 private:
  /// One batched registry update per solve: a map lookup and a few
  /// relaxed adds, instead of contended increments inside the expansion
  /// loop (the "tracing compiled in but off costs nothing" budget).
  void flush_observability() {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("cosched_astar_searches_total", "graph searches run")
        .inc();
    reg.counter("cosched_astar_expansions_total", "subpaths expanded")
        .inc(stats_.expanded);
    reg.counter("cosched_astar_generated_total",
                "successor subpaths evaluated")
        .inc(stats_.generated);
    reg.counter("cosched_astar_dismissed_total",
                "successors pruned by dismissal")
        .inc(stats_.dismissed);
    reg.counter("cosched_astar_beam_pruned_total",
                "live candidates cut at beam depth synchronization")
        .inc(stats_.beam_pruned);
    reg.counter("cosched_astar_heuristic_evals_total", "h(v) evaluations")
        .inc(stats_.heuristic_evals);
  }

  void prepare_level_stats(SearchStats& out) {
    if (options_.heuristic == HeuristicKind::None) return;
    COSCHED_TRACE_SPAN(precompute_span, "astar.precompute");
    WallTimer timer;
    std::uint64_t total = binomial(static_cast<std::uint64_t>(n_),
                                   static_cast<std::uint64_t>(u_));
    bool exact_ok = total <= options_.max_stats_nodes;
    if (!exact_ok) {
      // Approximate statistics are heuristic: acceptable for HA*, but OA*
      // would silently lose its optimality guarantee — refuse instead.
      COSCHED_EXPECTS(options_.heuristic_search &&
                      options_.heuristic != HeuristicKind::Strategy1);
      level_stats_ = LevelStats::build_approx(eval_);
    } else {
      // HA* keeps λ = 0: fitted multipliers would change its schedules.
      const HeuristicKind kind =
          options_.heuristic_search &&
                  options_.heuristic == HeuristicKind::Lagrangian
              ? HeuristicKind::Strategy2
              : options_.heuristic;
      level_stats_ =
          LevelStats::build_exact(eval_, options_.max_stats_nodes, kind);
    }
    stats_.precompute_seconds = timer.seconds();
    out.precompute_seconds = stats_.precompute_seconds;
  }

  bool limits_hit(const WallTimer& timer) {
    if (options_.max_expansions > 0 &&
        stats_.expanded >= options_.max_expansions)
      return true;
    if (options_.time_limit_seconds > 0.0 &&
        timer.seconds() > options_.time_limit_seconds)
      return true;
    return false;
  }

  /// Bytes held by the records, their arenas, the dismissal table and the
  /// open list (or the beam's candidate list): the sum of their capacities.
  std::size_t memory_bytes() const {
    return states_.capacity() * sizeof(StateRec) +
           bits_.capacity() * sizeof(std::uint64_t) +
           par_.capacity() * sizeof(Real) + table_.bytes() +
           heap_.capacity() * sizeof(HeapEntry) +
           beam_next_.capacity() * sizeof(beam_next_[0]);
  }

  bool memory_hit() const {
    return options_.max_memory_bytes > 0 &&
           memory_bytes() > options_.max_memory_bytes;
  }

  /// Depth-synchronized beam search: expand the whole frontier one graph
  /// level at a time, keep the `beam_width_` best (by g + h) distinct
  /// states, repeat. Dismissal/condensation still apply within a depth.
  void run_beam(SearchResult& result, const WallTimer& timer) {
    COSCHED_TRACE_SPAN(beam_span, "astar.beam");
    std::vector<std::int32_t> frontier{0};
    const std::int32_t depth_count = n_ / u_;
    for (std::int32_t depth = 0; depth < depth_count; ++depth) {
      beam_next_.clear();
      for (std::int32_t idx : frontier) {
        if (limits_hit(timer)) {
          result.timed_out = true;
          return;
        }
        if (memory_hit()) {
          result.memory_exhausted = true;
          return;
        }
        expand(idx);
        ++stats_.expanded;
      }
      // Two-stage selection. Stage 1: the cheap generation-time h ranks all
      // successors; keep the best 3×width alive states. Stage 2: re-rank
      // those few by g + a greedy-completion estimate — complement-pair the
      // remaining pool (heaviest with lightest) and sum true machine
      // weights — which discriminates partial schedules far better than
      // any per-level bound, at a cost paid only for the shortlist.
      std::sort(beam_next_.begin(), beam_next_.end(),
                [](const std::pair<Real, std::int32_t>& a,
                   const std::pair<Real, std::int32_t>& b) {
                  if (a.first != b.first) return a.first < b.first;
                  return a.second < b.second;
                });
      std::vector<std::pair<Real, std::int32_t>> shortlist;
      for (const auto& [f, idx] : beam_next_) {
        if (!states_[static_cast<std::size_t>(idx)].alive) continue;
        shortlist.push_back({f, idx});
        if (static_cast<std::int32_t>(shortlist.size()) >= 3 * beam_width_)
          break;
      }
      for (auto& [score, idx] : shortlist)
        score = states_[static_cast<std::size_t>(idx)].g +
                completion_estimate(idx);
      std::sort(shortlist.begin(), shortlist.end(),
                [](const std::pair<Real, std::int32_t>& a,
                   const std::pair<Real, std::int32_t>& b) {
                  if (a.first != b.first) return a.first < b.first;
                  return a.second < b.second;
                });
      frontier.clear();
      for (const auto& [score, idx] : shortlist) {
        frontier.push_back(idx);
        if (static_cast<std::int32_t>(frontier.size()) >= beam_width_)
          break;
      }
      // Everything alive this depth that did not make the frontier is a
      // beam prune (shortlist rejects and shortlist overflow alike).
      std::uint64_t alive_candidates = 0;
      for (const auto& [f, cand_idx] : beam_next_)
        if (states_[static_cast<std::size_t>(cand_idx)].alive)
          ++alive_candidates;
      stats_.beam_pruned += alive_candidates - frontier.size();
      if (frontier.empty()) return;  // should not happen on valid inputs
    }
    // The frontier now holds complete schedules; pick the cheapest.
    std::int32_t best = -1;
    for (std::int32_t idx : frontier) {
      const StateRec& rec = states_[static_cast<std::size_t>(idx)];
      COSCHED_ENSURES(rec.q == n_);
      if (best < 0 || rec.g < states_[static_cast<std::size_t>(best)].g)
        best = idx;
    }
    if (best >= 0) reconstruct(best, result);
  }

  /// Greedy-completion estimate of a partial schedule: deal the unscheduled
  /// pool across the remaining machines in serpentine order of pressure
  /// (1..m, m..1, 1..m, ...) — which near-balances per-machine pressure for
  /// any u — and sum the true machine weights. Ignores the level/lead
  /// structure: it estimates cost, it does not build the actual path.
  Real completion_estimate(std::int32_t rec) {
    thread_local std::vector<ProcessId> pool;
    pool.clear();
    parent_set_.assign_words(set_of(rec));
    parent_set_.collect_clear(pool);
    if (pool.empty()) return 0.0;
    const std::size_t machines = pool.size() / static_cast<std::size_t>(u_);
    if (machines == 0) return 0.0;
    std::sort(pool.begin(), pool.end(), [&](ProcessId a, ProcessId b) {
      Real pa = model_.pressure(a), pb = model_.pressure(b);
      if (pa != pb) return pa > pb;
      return a < b;
    });
    thread_local std::vector<std::vector<ProcessId>> deal;
    deal.assign(machines, {});
    std::size_t idx = 0;
    bool forward = true;
    for (ProcessId p : pool) {
      deal[idx].push_back(p);
      if (forward) {
        if (idx + 1 == machines) forward = false;
        else ++idx;
      } else {
        if (idx == 0) forward = true;
        else --idx;
      }
    }
    Real total = 0.0;
    for (auto& machine : deal) {
      std::sort(machine.begin(), machine.end());
      total += eval_.weight(machine);
    }
    return total;
  }

  // h(v) of the root (expansions compute h incrementally via the
  // per-expansion caches below).
  Real full_h() {
    if (n_ == 0 || options_.heuristic == HeuristicKind::None) return 0.0;
    ++stats_.heuristic_evals;
    std::int32_t k = n_ / u_;
    std::vector<ProcessId> unscheduled(static_cast<std::size_t>(n_));
    std::iota(unscheduled.begin(), unscheduled.end(), 0);
    if (options_.heuristic == HeuristicKind::Strategy1)
      return level_stats_.strategy1_h(-1, k);  // all levels are > -1
    // Strategy 2 is the Lagrangian bound at λ = 0.
    return level_stats_.lagrangian_h(unscheduled, k);
  }

  void expand(std::int32_t idx) {
    // Copy what we need into reused buffers: the records and arenas may
    // reallocate while pushing successors.
    parent_set_.assign_words(set_of(idx));
    parent_par_max_.assign(par_of(idx).begin(), par_of(idx).end());
    const Real parent_g_serial = states_[static_cast<std::size_t>(idx)].g_serial;
    const std::int32_t parent_q = states_[static_cast<std::size_t>(idx)].q;

    const ProcessId lead =
        static_cast<ProcessId>(parent_set_.find_first_clear());
    COSCHED_ENSURES(lead < n_);

    // Unscheduled ids beyond the lead form the combination pool.
    std::vector<ProcessId>& pool = pool_;
    pool.clear();
    for (std::size_t p = parent_set_.find_next_clear(
             static_cast<std::size_t>(lead) + 1);
         p < static_cast<std::size_t>(n_);
         p = parent_set_.find_next_clear(p + 1))
      pool.push_back(static_cast<ProcessId>(p));

    const std::int32_t remaining_after = n_ - parent_q - u_;
    const std::int32_t k_rem = remaining_after / u_;

    // Per-expansion heuristic caches.
    Real h1 = 0.0;
    if (options_.heuristic == HeuristicKind::Strategy1 && remaining_after > 0)
      h1 = level_stats_.strategy1_h(lead, k_rem);
    // Strategy 2 / Lagrangian: the pool's reduced level minima sorted, and
    // the pool's λ and multiplier mass (all 0 for Strategy 2).
    std::vector<std::pair<Real, ProcessId>>& s2_sorted = s2_sorted_;
    s2_sorted.clear();
    Real pool_lambda = 0.0, pool_mass = 0.0;
    if ((options_.heuristic == HeuristicKind::Strategy2 ||
         options_.heuristic == HeuristicKind::Lagrangian) &&
        remaining_after > 0) {
      for (ProcessId p : pool) {
        pool_lambda += level_stats_.multiplier(p);
        pool_mass += std::abs(level_stats_.multiplier(p));
        if (p + u_ > n_) continue;
        Real w = level_stats_.min_reduced_weight(p);
        if (w < kInfinity) s2_sorted.emplace_back(w, p);
      }
      std::sort(s2_sorted.begin(), s2_sorted.end());
    }

    // Beam-mode h: pool-average completion estimate. Strategy 1/2 sum the
    // *cheapest* remaining level minima — an admissible bound that cannot
    // penalize a successor for leaving all the heavy processes bunched at
    // the tail. The beam instead estimates the remaining cost as
    // k_rem × weight(representative machine), where the representative
    // machine holds the u pool processes whose pressure is closest to the
    // post-successor pool mean. Inadmissible, but the beam is heuristic
    // anyway, and this is what makes it balance load end to end.
    std::vector<ProcessId> pool_by_pressure;
    Real pool_pressure_sum = 0.0;
    if (beam_mode_ && remaining_after > 0) {
      pool_by_pressure = pool;
      std::sort(pool_by_pressure.begin(), pool_by_pressure.end(),
                [&](ProcessId a, ProcessId b) {
                  Real pa = model_.pressure(a), pb = model_.pressure(b);
                  if (pa != pb) return pa < pb;
                  return a < b;
                });
      for (ProcessId p : pool) pool_pressure_sum += model_.pressure(p);
    }

    auto beam_h = [&](std::span<const ProcessId> node) -> Real {
      if (remaining_after == 0) return 0.0;
      Real sum = pool_pressure_sum;
      for (ProcessId m : node)
        if (m != lead) sum -= model_.pressure(m);
      const Real mean =
          sum / static_cast<Real>(remaining_after);
      // u pool processes with pressure nearest the mean, skipping the
      // successor's members.
      auto in_node = [&](ProcessId p) {
        for (ProcessId m : node)
          if (m == p) return true;
        return false;
      };
      auto it = std::lower_bound(
          pool_by_pressure.begin(), pool_by_pressure.end(), mean,
          [&](ProcessId p, Real v) { return model_.pressure(p) < v; });
      std::ptrdiff_t hi = it - pool_by_pressure.begin();
      std::ptrdiff_t lo = hi - 1;
      thread_local std::vector<ProcessId> rep;
      rep.clear();
      const auto size =
          static_cast<std::ptrdiff_t>(pool_by_pressure.size());
      while (static_cast<std::int32_t>(rep.size()) < u_ &&
             (lo >= 0 || hi < size)) {
        bool take_hi;
        if (lo < 0) take_hi = true;
        else if (hi >= size) take_hi = false;
        else {
          Real dlo = mean - model_.pressure(pool_by_pressure[
                                static_cast<std::size_t>(lo)]);
          Real dhi = model_.pressure(pool_by_pressure[
                         static_cast<std::size_t>(hi)]) - mean;
          take_hi = dhi < dlo;
        }
        ProcessId cand = take_hi
                             ? pool_by_pressure[static_cast<std::size_t>(hi++)]
                             : pool_by_pressure[static_cast<std::size_t>(lo--)];
        if (!in_node(cand)) rep.push_back(cand);
      }
      if (rep.empty()) return 0.0;
      std::sort(rep.begin(), rep.end());
      return static_cast<Real>(k_rem) * eval_.weight(rep);
    };

    auto successor_h = [&](std::span<const ProcessId> node) -> Real {
      if (remaining_after == 0) return 0.0;
      ++stats_.heuristic_evals;
      if (beam_mode_) return beam_h(node);
      switch (options_.heuristic) {
        case HeuristicKind::None: return 0.0;
        case HeuristicKind::Strategy1: return h1;
        case HeuristicKind::Strategy2:
        case HeuristicKind::Lagrangian: {
          // λ of the ids unscheduled after taking `node`, plus the k_rem
          // smallest reduced level minima over them (walk the sorted cache,
          // skipping node members); LevelStats::lagrangian_h's slack and
          // floor.
          Real lambda = pool_lambda, mass = pool_mass;
          for (ProcessId m : node)
            if (m != lead) {
              lambda -= level_stats_.multiplier(m);
              mass -= std::abs(level_stats_.multiplier(m));
            }
          Real h = lambda;
          std::int32_t taken = 0;
          for (const auto& [w, p] : s2_sorted) {
            bool in_node = false;
            for (ProcessId m : node)
              if (m == p) {
                in_node = true;
                break;
              }
            if (in_node) continue;
            h += w;
            if (++taken == k_rem) break;
          }
          return std::max(0.0, h - LevelStats::kRoundingSlack * mass);
        }
      }
      return 0.0;
    };

    auto make_successor = [&](std::span<const ProcessId> node,
                              std::span<const Real> member_d) {
      ++stats_.generated;
      Real g_serial = parent_g_serial;
      std::vector<Real>& par_max = succ_par_max_;
      par_max = parent_par_max_;
      for (std::size_t m = 0; m < node.size(); ++m) {
        ProcessId p = node[m];
        std::int32_t pj =
            options_.aggregation == Aggregation::MaxPerParallelJob
                ? problem_.batch.parallel_index_of(p)
                : -1;
        if (pj >= 0) {
          auto& mx = par_max[static_cast<std::size_t>(pj)];
          if (member_d[m] > mx) mx = member_d[m];
        } else {
          g_serial += member_d[m];
        }
      }
      Real g = g_serial;
      for (Real mx : par_max) g += mx;

      // Dismissal is decided before anything is built: the successor's set
      // is written into a reused buffer, and one table probe finds the
      // set's newest record or, for a new set (always admitted), claims its
      // slot. A kept successor appends to the records and their arenas.
      succ_set_ = parent_set_;
      for (ProcessId p : node) succ_set_.set(static_cast<std::size_t>(p));
      const std::span<const std::uint64_t> words = succ_set_.words();
      SetTable::Slot& slot =
          table_.find_or_claim(succ_set_.hash(), [&](std::int32_t e) {
            return std::ranges::equal(set_of(e), words);
          });
      if (slot.idx >= 0 && !admit(slot.idx, g_serial, par_max, g)) {
        ++stats_.dismissed;
        return;
      }

      const auto new_idx = static_cast<std::int32_t>(states_.size());
      StateRec& rec = states_.emplace_back();
      rec.g_serial = g_serial;
      rec.g = g;
      rec.parent = idx;
      rec.q = parent_q + u_;
      bits_.insert(bits_.end(), words.begin(), words.end());
      par_.insert(par_.end(), par_max.begin(), par_max.end());
      register_record(slot, new_idx);
      Real h = successor_h(node);
      if (beam_mode_) {
        beam_next_.push_back({g + h, new_idx});
        ++stats_.visited_paths;
      } else {
        push_heap(new_idx, h);
      }
    };

    std::unordered_set<CondensationKey, CondensationKeyHash> seen_keys;
    auto condensed_duplicate = [&](std::span<const ProcessId> node) {
      if (!condense_) return false;
      CondensationKey key =
          condensation_key(node, problem_.batch, problem_.topology.get());
      if (!seen_keys.insert(std::move(key)).second) {
        ++stats_.condensed_skips;
        return true;
      }
      return false;
    };

    if (options_.heuristic_search) {
      std::int32_t request = condense_ ? mer_cap_ * 2 : mer_cap_;
      auto candidates = k_best_valid_nodes(eval_, lead, pool, u_, request,
                                           CandidateSelection::Auto);
      std::int32_t attempted = 0;
      for (const auto& cand : candidates) {
        if (condensed_duplicate(cand.node)) continue;
        make_successor(cand.node, cand.member_d);
        if (++attempted == mer_cap_) break;
      }
      if (u_ >= 2 &&
          static_cast<std::int32_t>(pool.size()) >= u_ - 1) {
        // Diversity candidates (all HA* modes): the k cheapest nodes above
        // all pair the lead with light partners, so heavy processes would
        // pile up in the tail machines — on threshold-shaped landscapes
        // that costs tens of percent. The pressure-target family sweeps the
        // whole spectrum of co-runner loads: variant j aims for a total
        // partner pressure τ_j between "u-1 lightest" and "u-1 heaviest",
        // picking, slot by slot, the unused process closest to the
        // remaining per-slot budget. The search's f-ordering (or the
        // beam's g+h ranking) arbitrates between the families.
        if (pool_by_pressure.empty()) {
          pool_by_pressure = pool;
          std::sort(pool_by_pressure.begin(), pool_by_pressure.end(),
                    [&](ProcessId a, ProcessId b) {
                      Real pa = model_.pressure(a), pb = model_.pressure(b);
                      if (pa != pb) return pa < pb;
                      return a < b;
                    });
        }
        const auto pool_size =
            static_cast<std::int32_t>(pool_by_pressure.size());
        std::vector<Real> pool_pressures(
            static_cast<std::size_t>(pool_size));
        for (std::int32_t t = 0; t < pool_size; ++t)
          pool_pressures[static_cast<std::size_t>(t)] = model_.pressure(
              pool_by_pressure[static_cast<std::size_t>(t)]);
        Real lo_sum = 0.0, hi_sum = 0.0;
        for (std::int32_t t = 0; t < u_ - 1; ++t) {
          lo_sum += pool_pressures[static_cast<std::size_t>(t)];
          hi_sum +=
              pool_pressures[static_cast<std::size_t>(pool_size - 1 - t)];
        }
        std::vector<ProcessId> node;
        std::vector<bool> used(static_cast<std::size_t>(pool_size));
        const std::int32_t variants = std::max<std::int32_t>(2, mer_cap_);
        for (std::int32_t j = 0; j < variants; ++j) {
          Real budget = lo_sum + (hi_sum - lo_sum) *
                                     static_cast<Real>(j) /
                                     static_cast<Real>(variants - 1);
          std::fill(used.begin(), used.end(), false);
          node.clear();
          node.push_back(lead);
          for (std::int32_t slot = 0; slot < u_ - 1; ++slot) {
            Real desired = budget / static_cast<Real>(u_ - 1 - slot);
            // Nearest unused pool process by pressure: binary search, then
            // probe outward (used entries cluster little, so this is ~O(1)).
            auto it = std::lower_bound(pool_pressures.begin(),
                                       pool_pressures.end(), desired);
            std::int32_t hi = static_cast<std::int32_t>(
                it - pool_pressures.begin());
            std::int32_t lo = hi - 1;
            std::int32_t best = -1;
            while (lo >= 0 || hi < pool_size) {
              bool lo_ok = lo >= 0 && !used[static_cast<std::size_t>(lo)];
              bool hi_ok =
                  hi < pool_size && !used[static_cast<std::size_t>(hi)];
              if (lo_ok && hi_ok) {
                Real dlo = desired - pool_pressures[static_cast<std::size_t>(lo)];
                Real dhi = pool_pressures[static_cast<std::size_t>(hi)] - desired;
                best = dhi < dlo ? hi : lo;
                break;
              }
              if (lo_ok) { best = lo; break; }
              if (hi_ok) { best = hi; break; }
              if (lo >= 0) --lo;
              if (hi < pool_size) ++hi;
            }
            COSCHED_ENSURES(best >= 0);
            used[static_cast<std::size_t>(best)] = true;
            ProcessId chosen =
                pool_by_pressure[static_cast<std::size_t>(best)];
            node.push_back(chosen);
            budget -= pool_pressures[static_cast<std::size_t>(best)];
          }
          std::sort(node.begin(), node.end());
          if (condensed_duplicate(node)) continue;
          eval_.weight(node, d_scratch_);
          make_successor(node, d_scratch_);
        }
      }
    } else {
      // Generate successors in ascending node-weight order (the paper keeps
      // levels weight-sorted). Correctness does not depend on the order,
      // but on f-plateaus the FIFO tie-break then prefers cheap nodes, so
      // the optimal path returned among co-optimal ones is the one a
      // weight-sorted search finds — which the Fig. 5 MER statistics
      // measure. The level's candidates live in one flat slab (u ids and u
      // member degradations each) reused across expansions; an index array
      // is sorted by (weight, node lexicographically), a total order since
      // the nodes are distinct.
      const auto width = static_cast<std::size_t>(u_);
      cand_nodes_.clear();
      cand_d_.clear();
      cand_w_.clear();
      for_each_valid_node(lead, pool, u_,
                          [&](std::span<const ProcessId> node) {
                            if (condensed_duplicate(node)) return true;
                            cand_w_.push_back(eval_.weight(node, d_scratch_));
                            cand_nodes_.insert(cand_nodes_.end(),
                                               node.begin(), node.end());
                            cand_d_.insert(cand_d_.end(), d_scratch_.begin(),
                                           d_scratch_.end());
                            return true;
                          });
      auto node_of = [&](std::size_t c) {
        return std::span<const ProcessId>(cand_nodes_).subspan(c * width,
                                                               width);
      };
      cand_order_.resize(cand_w_.size());
      std::iota(cand_order_.begin(), cand_order_.end(), std::size_t{0});
      std::sort(cand_order_.begin(), cand_order_.end(),
                [&](std::size_t a, std::size_t b) {
                  if (cand_w_[a] != cand_w_[b]) return cand_w_[a] < cand_w_[b];
                  std::span<const ProcessId> na = node_of(a), nb = node_of(b);
                  return std::lexicographical_compare(na.begin(), na.end(),
                                                      nb.begin(), nb.end());
                });
      for (std::size_t c : cand_order_)
        make_successor(node_of(c), std::span<const Real>(cand_d_).subspan(
                                       c * width, width));
    }
  }

  std::span<const std::uint64_t> set_of(std::int32_t idx) const {
    return {bits_.data() + static_cast<std::size_t>(idx) * words_, words_};
  }
  std::span<const Real> par_of(std::int32_t idx) const {
    return {par_.data() + static_cast<std::size_t>(idx) * stride_, stride_};
  }

  /// Dismissal check against the live records over the successor's process
  /// set, chained from `head`. Returns true if the successor must be kept,
  /// in which case any superseded/dominated records have been retired.
  bool admit(std::int32_t head, Real g_serial,
             std::span<const Real> par_max, Real g) {
    if (options_.dismiss == DismissPolicy::PaperMinDistance) {
      StateRec& existing = states_[static_cast<std::size_t>(head)];
      if (g < existing.g) {
        existing.alive = false;
        return true;
      }
      return false;
    }
    // Pareto dominance over (g_serial, par_max...).
    auto dominates = [](Real gs_a, std::span<const Real> pm_a, Real gs_b,
                        std::span<const Real> pm_b) {
      if (gs_a > gs_b) return false;
      for (std::size_t j = 0; j < pm_a.size(); ++j)
        if (pm_a[j] > pm_b[j]) return false;
      return true;
    };
    for (std::int32_t e = head; e >= 0;
         e = states_[static_cast<std::size_t>(e)].next_same) {
      if (dominates(states_[static_cast<std::size_t>(e)].g_serial, par_of(e),
                    g_serial, par_max))
        return false;
    }
    for (std::int32_t e = head; e >= 0;
         e = states_[static_cast<std::size_t>(e)].next_same) {
      StateRec& ex = states_[static_cast<std::size_t>(e)];
      if (dominates(g_serial, par_max, ex.g_serial, par_of(e)))
        ex.alive = false;
    }
    return true;
  }

  /// Makes the accepted successor the newest record of its set's slot,
  /// unlinking the records `admit` retired from the set's chain.
  void register_record(SetTable::Slot& slot, std::int32_t new_idx) {
    std::int32_t* link = &slot.idx;
    while (*link >= 0) {
      StateRec& rec = states_[static_cast<std::size_t>(*link)];
      if (rec.alive) link = &rec.next_same;
      else *link = rec.next_same;
    }
    states_[static_cast<std::size_t>(new_idx)].next_same = slot.idx;
    slot.idx = new_idx;
  }

  void push_heap(std::int32_t idx, Real h) {
    heap_.push_back(HeapEntry{states_[static_cast<std::size_t>(idx)].g + h,
                              seq_++, states_[static_cast<std::size_t>(idx)].q,
                              idx});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++stats_.visited_paths;
  }

  /// Each machine on the path is the set difference of a record and its
  /// parent: the node that expansion appended.
  void reconstruct(std::int32_t idx, SearchResult& result) {
    result.found = true;
    result.objective = states_[static_cast<std::size_t>(idx)].g;
    std::vector<std::vector<ProcessId>> machines;
    for (std::int32_t cur = idx;
         states_[static_cast<std::size_t>(cur)].parent >= 0;
         cur = states_[static_cast<std::size_t>(cur)].parent) {
      const auto set = set_of(cur);
      const auto parent_set =
          set_of(states_[static_cast<std::size_t>(cur)].parent);
      std::vector<ProcessId>& node = machines.emplace_back();
      for (std::size_t w = 0; w < words_; ++w)
        for (std::uint64_t bits = set[w] & ~parent_set[w]; bits != 0;
             bits &= bits - 1)
          node.push_back(static_cast<ProcessId>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
    std::reverse(machines.begin(), machines.end());
    result.solution.machines = std::move(machines);
    result.solution.canonicalize();
  }

  const Problem& problem_;
  SearchOptions options_;
  const DegradationModel& model_;
  NodeEvaluator eval_;
  const std::int32_t n_;
  const std::int32_t u_;
  const std::int32_t num_parallel_;
  const std::size_t words_;   ///< bits_ words per record
  const std::size_t stride_;  ///< par_ slots per record

  LevelStats level_stats_;
  bool condense_ = false;
  std::int32_t mer_cap_ = 0;
  bool beam_mode_ = false;
  std::int32_t beam_width_ = 0;
  std::vector<std::pair<Real, std::int32_t>> beam_next_;

  // Per-expansion and per-successor buffers, reused so that loading the
  // parent and judging a successor allocate nothing.
  DynamicBitset parent_set_;
  DynamicBitset succ_set_;
  std::vector<Real> parent_par_max_;
  std::vector<Real> succ_par_max_;
  std::vector<ProcessId> pool_;
  std::vector<std::pair<Real, ProcessId>> s2_sorted_;
  std::vector<Real> d_scratch_;
  // The full-sort path's candidate slab: u ids, u member degradations and
  // one weight per candidate, plus the sorted candidate order.
  std::vector<ProcessId> cand_nodes_;
  std::vector<Real> cand_d_;
  std::vector<Real> cand_w_;
  std::vector<std::size_t> cand_order_;

  // Record i's process set is bits_[i·words_, (i+1)·words_) and its
  // per-parallel-job maxima par_[i·stride_, (i+1)·stride_).
  std::vector<StateRec> states_;
  std::vector<std::uint64_t> bits_;
  std::vector<Real> par_;
  SetTable table_;
  std::vector<HeapEntry> heap_;  ///< binary min-heap on (f, depth, seq)
  std::int64_t seq_ = 0;
  SearchStats stats_;
};

}  // namespace

CoScheduleSearch::CoScheduleSearch(const Problem& problem,
                                   SearchOptions options)
    : problem_(problem), options_(options) {
  problem.check();
}

SearchResult CoScheduleSearch::run() {
  Engine engine(problem_, options_);
  return engine.run();
}

SearchResult solve_oastar(const Problem& problem, SearchOptions options) {
  options.heuristic_search = false;
  return CoScheduleSearch(problem, options).run();
}

SearchResult solve_hastar(const Problem& problem, SearchOptions options) {
  options.heuristic_search = true;
  return CoScheduleSearch(problem, options).run();
}

SearchResult solve_osvp(const Problem& problem, SearchOptions options) {
  options.heuristic = HeuristicKind::None;
  options.heuristic_search = false;
  return CoScheduleSearch(problem, options).run();
}

}  // namespace cosched
