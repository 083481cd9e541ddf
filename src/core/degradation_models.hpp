// Concrete degradation models.
//
//  * TabularDegradationModel   — explicit d(i,S) entries; unit tests and
//                                hand-crafted instances.
//  * SyntheticDegradationModel — closed-form model driven by per-process
//                                miss rates; the paper's "synthetic jobs"
//                                (miss rate uniform in [15%, 75%]).
//  * SdcDegradationModel       — the paper's Section V pipeline: solo SDPs →
//                                SDC competition → co-run misses → Eq. 14/15
//                                CPU times → Eq. 1 degradation. Memoized.
//  * CommAwareDegradationModel — decorator adding c(i,S)/ct_i (Eq. 9) for
//                                PC processes on top of any base model.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/machine_config.hpp"
#include "cache/stack_distance.hpp"
#include "cache/cpu_time_model.hpp"
#include "comm/comm_topology.hpp"
#include "core/degradation_model.hpp"
#include "util/rng.hpp"

namespace cosched {

/// Explicit table of degradations; unspecified entries default to 0. Every
/// process has solo time 1 and pressure 0: the table is the whole model.
class TabularDegradationModel final : public DegradationModel {
 public:
  explicit TabularDegradationModel(std::int32_t num_processes);

  /// Sets d(i, co). `co` is copied and sorted; order does not matter.
  void set(ProcessId i, std::vector<ProcessId> co, Real d);

  Real degradation(ProcessId i, std::span<const ProcessId> co) const override;
  Real solo_time(ProcessId i) const override;
  Real pressure(ProcessId i) const override;

 private:
  std::int32_t n_;
  std::map<std::pair<ProcessId, std::vector<ProcessId>>, Real> table_;
};

/// Closed-form contention model from per-process miss rates:
///   d(i,S) = s_i * Π² / (Π² + K) * C,  Π = Σ_{k∈S} r_k
/// An S-curve in combined co-runner pressure (fits-in-cache threshold, then
/// saturation); monotone in pressure and in the process's own sensitivity;
/// zero for imaginary processes (marked by r_i = 0).
///
/// The sensitivity s_i (how much the process suffers) is independent of the
/// pressure r_i (how much it inflicts): real programs span all four
/// quadrants — streaming kernels thrash the cache yet barely care, pointer
/// chasers are fragile but light. This two-dimensionality is what a scalar
/// politeness ordering (the PG baseline) cannot capture. When no
/// sensitivities are supplied, s_i = 0.3 + r_i (the one-dimensional
/// special case).
/// Response shape of the synthetic model in normalized pressure x = Π/C.
enum class SyntheticLandscape {
  /// x⁴/(x⁴+1): sharp fits-in-cache threshold. Hard packing instances —
  /// scalar heuristics (politeness) lose real margins here.
  Threshold,
  /// x/(x+1): concave diminishing returns. Every co-runner hurts some —
  /// level minima stay positive, so admissible h(v) bounds prune well.
  Smooth,
  /// c·x: bilinear in (own rate × co-runner pressure). The total objective
  /// is then Σ_machines (S_m² − Q_m)/2-shaped (balanced sums optimal).
  /// Explored as a candidate explanation for the paper's Fig. 5 / Fig. 9
  /// statistics; in practice its near-degenerate optima plateau the search
  /// instead (see EXPERIMENTS.md F2). Kept for experimentation.
  Bilinear,
};

class SyntheticDegradationModel final : public DegradationModel {
 public:
  /// miss_rates[i] in [0,1]; 0 marks an imaginary / inert process.
  explicit SyntheticDegradationModel(std::vector<Real> miss_rates);

  /// Two-dimensional variant with explicit per-process sensitivities.
  /// `capacity` is the combined co-runner pressure at the S-curve midpoint
  /// — the "working sets fill the shared cache" point. Larger machines
  /// (more cores, bigger shared cache) absorb more combined pressure, so
  /// builders scale it with u-1; the default matches a quad-core machine.
  SyntheticDegradationModel(
      std::vector<Real> miss_rates, std::vector<Real> sensitivities,
      Real capacity = 1.35,
      SyntheticLandscape landscape = SyntheticLandscape::Threshold);

  /// n processes with miss rates uniform in [lo, hi] (paper: [0.15, 0.75])
  /// and independent sensitivities uniform in [0.2, 1.2].
  static std::shared_ptr<SyntheticDegradationModel> random(
      std::int32_t num_processes, Rng& rng, Real lo = 0.15, Real hi = 0.75);

  Real miss_rate(ProcessId i) const {
    COSCHED_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < rates_.size());
    return rates_[static_cast<std::size_t>(i)];
  }
  Real sensitivity(ProcessId i) const {
    COSCHED_EXPECTS(i >= 0 &&
                    static_cast<std::size_t>(i) < sensitivities_.size());
    return sensitivities_[static_cast<std::size_t>(i)];
  }
  Real capacity() const { return capacity_; }

  Real degradation(ProcessId i, std::span<const ProcessId> co) const override;
  /// The co-runner pressure sums of degradation(), slot by slot in the same
  /// order, without a co-runner list per slot.
  void machine_degradations(std::span<const ProcessId> machine,
                            std::span<Real> out) const override;
  Real pressure(ProcessId i) const override;

 private:
  /// The landscape's response of a process of `sensitivity` to co-runner
  /// pressure `pressure_sum`.
  Real response(Real sensitivity, Real pressure_sum) const;

  std::vector<Real> rates_;
  std::vector<Real> sensitivities_;
  Real capacity_ = 1.35;  ///< co-runner pressure at the curve's midpoint
  SyntheticLandscape landscape_ = SyntheticLandscape::Threshold;
  static constexpr Real kScale = 0.5;
};

/// SDC-backed model: each process carries a characterized program (solo SDP
/// + timing); co-run degradation is predicted with the SDC competition.
class SdcDegradationModel final : public DegradationModel {
 public:
  struct ProcessProgram {
    StackDistanceProfile sdp;
    ProgramTiming timing;
    Real solo_time_seconds = 1.0;
    Real solo_miss_rate = 0.0;
  };

  /// programs[i] characterizes process i; a default-constructed entry (empty
  /// SDP) marks an imaginary process.
  SdcDegradationModel(MachineConfig machine,
                      std::vector<ProcessProgram> programs);

  Real degradation(ProcessId i, std::span<const ProcessId> co) const override;
  Real solo_time(ProcessId i) const override;
  Real pressure(ProcessId i) const override;

 private:
  bool is_inert(ProcessId i) const {
    return programs_[static_cast<std::size_t>(i)].sdp.associativity() == 0;
  }

  MachineConfig machine_;
  std::vector<ProcessProgram> programs_;
  // Memoization: key = i then sorted co ids, packed into a string of i32.
  mutable std::unordered_map<std::string, Real> memo_;
};

/// Decorator adding the Eq. 9 communication term for PC processes.
class CommAwareDegradationModel final : public DegradationModel {
 public:
  CommAwareDegradationModel(DegradationModelPtr base,
                            std::shared_ptr<const CommTopology> topology,
                            Real bandwidth_bytes_per_s);

  Real degradation(ProcessId i, std::span<const ProcessId> co) const override;
  Real solo_time(ProcessId i) const override { return base_->solo_time(i); }
  Real pressure(ProcessId i) const override { return base_->pressure(i); }

 private:
  DegradationModelPtr base_;
  std::shared_ptr<const CommTopology> topology_;
  Real bandwidth_;
};

}  // namespace cosched
