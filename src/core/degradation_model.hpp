// DegradationModel: the oracle d(i, S) every scheduler in this library
// consumes.
//
// `degradation(i, co)` returns the (communication-combined, if the model
// includes communication) degradation process i suffers when co-scheduled
// with the processes in `co` on one machine (Eq. 1 / Eq. 9). `co` excludes
// i itself and holds at most u-1 ids; imaginary padding processes may appear
// and must contribute nothing.
//
// `machine_degradations(machine, out)` prices one whole machine in one call:
// out[k] = degradation(machine[k], the other members in slot order). Every
// caller that prices a machine goes through it (the search's node weight,
// evaluate_solution, the swap repair, the online service's refresh), so a
// model that can share work across the slots overrides it. The default
// loops degradation() exactly as those callers did; an override must return
// the same bits.
//
// Models are immutable after construction and therefore freely shared by
// const reference across searches. Implementations may memoize internally
// (single-threaded use per search; see SdcDegradationModel).
#pragma once

#include <memory>
#include <span>

#include "util/common.hpp"

namespace cosched {

class DegradationModel {
 public:
  virtual ~DegradationModel() = default;

  /// d(i, S): degradation of process i when co-running with `co`.
  /// Must be >= 0 and 0 whenever i is an imaginary process.
  virtual Real degradation(ProcessId i,
                           std::span<const ProcessId> co) const = 0;

  /// out[k] = degradation(machine[k], machine without slot k, in slot
  /// order) for every slot of one machine of distinct processes;
  /// out.size() == machine.size().
  virtual void machine_degradations(std::span<const ProcessId> machine,
                                    std::span<Real> out) const;

  /// Solo execution time ct_i (seconds or normalized units); used to convert
  /// communication time into a degradation fraction (Eq. 9).
  virtual Real solo_time(ProcessId /*i*/) const { return 1.0; }

  /// Scalar cache-pressure surrogate (e.g. solo miss rate). Heuristics use
  /// it for candidate ordering only; correctness never depends on it.
  virtual Real pressure(ProcessId /*i*/) const { return 0.0; }
};

using DegradationModelPtr = std::shared_ptr<const DegradationModel>;

}  // namespace cosched
