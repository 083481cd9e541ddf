#include "core/degradation_models.hpp"

#include <algorithm>
#include <cstring>

#include "cache/sdc_model.hpp"

namespace cosched {

// ------------------------------------------------------- DegradationModel --

void DegradationModel::machine_degradations(std::span<const ProcessId> machine,
                                            std::span<Real> out) const {
  COSCHED_EXPECTS(out.size() == machine.size());
  // Stack buffer for the co-runners; u is small (2..8 in the paper).
  ProcessId stack[16];
  std::vector<ProcessId> heap;
  std::span<ProcessId> co(stack);
  if (machine.size() > co.size()) {
    heap.resize(machine.size());
    co = heap;
  }
  for (std::size_t i = 0; i < machine.size(); ++i) {
    std::size_t c = 0;
    for (std::size_t j = 0; j < machine.size(); ++j)
      if (j != i) co[c++] = machine[j];
    out[i] = degradation(machine[i], co.first(c));
  }
}

// ---------------------------------------------------------------- Tabular --

TabularDegradationModel::TabularDegradationModel(std::int32_t num_processes)
    : n_(num_processes) {
  COSCHED_EXPECTS(num_processes >= 1);
}

void TabularDegradationModel::set(ProcessId i, std::vector<ProcessId> co,
                                  Real d) {
  COSCHED_EXPECTS(i >= 0 && i < n_);
  COSCHED_EXPECTS(d >= 0.0);
  std::sort(co.begin(), co.end());
  table_[{i, std::move(co)}] = d;
}

Real TabularDegradationModel::degradation(
    ProcessId i, std::span<const ProcessId> co) const {
  COSCHED_EXPECTS(i >= 0 && i < n_);
  std::vector<ProcessId> key(co.begin(), co.end());
  std::sort(key.begin(), key.end());
  auto it = table_.find({i, key});
  return it == table_.end() ? 0.0 : it->second;
}

Real TabularDegradationModel::solo_time(ProcessId i) const {
  COSCHED_EXPECTS(i >= 0 && i < n_);
  return 1.0;
}

Real TabularDegradationModel::pressure(ProcessId i) const {
  COSCHED_EXPECTS(i >= 0 && i < n_);
  return 0.0;
}

// -------------------------------------------------------------- Synthetic --

SyntheticDegradationModel::SyntheticDegradationModel(
    std::vector<Real> miss_rates)
    : rates_(std::move(miss_rates)) {
  COSCHED_EXPECTS(!rates_.empty());
  sensitivities_.reserve(rates_.size());
  for (Real r : rates_) {
    COSCHED_EXPECTS(r >= 0.0 && r <= 1.0);
    sensitivities_.push_back(r > 0.0 ? 0.3 + r : 0.0);
  }
}

SyntheticDegradationModel::SyntheticDegradationModel(
    std::vector<Real> miss_rates, std::vector<Real> sensitivities,
    Real capacity, SyntheticLandscape landscape)
    : rates_(std::move(miss_rates)),
      sensitivities_(std::move(sensitivities)),
      capacity_(capacity),
      landscape_(landscape) {
  COSCHED_EXPECTS(!rates_.empty());
  COSCHED_EXPECTS(capacity_ > 0.0);
  COSCHED_EXPECTS(rates_.size() == sensitivities_.size());
  for (Real r : rates_) COSCHED_EXPECTS(r >= 0.0 && r <= 1.0);
  for (Real s : sensitivities_) COSCHED_EXPECTS(s >= 0.0);
}

std::shared_ptr<SyntheticDegradationModel> SyntheticDegradationModel::random(
    std::int32_t num_processes, Rng& rng, Real lo, Real hi) {
  COSCHED_EXPECTS(num_processes >= 1);
  COSCHED_EXPECTS(lo >= 0.0 && hi <= 1.0 && lo <= hi);
  std::vector<Real> rates(static_cast<std::size_t>(num_processes));
  std::vector<Real> sens(static_cast<std::size_t>(num_processes));
  for (std::size_t i = 0; i < rates.size(); ++i) {
    rates[i] = rng.uniform_real(lo, hi);
    sens[i] = rng.uniform_real(0.2, 1.2);
  }
  return std::make_shared<SyntheticDegradationModel>(std::move(rates),
                                                     std::move(sens));
}

Real SyntheticDegradationModel::degradation(
    ProcessId i, std::span<const ProcessId> co) const {
  COSCHED_EXPECTS(i >= 0 &&
                  static_cast<std::size_t>(i) < rates_.size());
  Real r_i = rates_[static_cast<std::size_t>(i)];
  if (r_i <= 0.0) return 0.0;  // imaginary / inert process
  Real pressure_sum = 0.0;
  for (ProcessId k : co) {
    COSCHED_EXPECTS(k >= 0 && static_cast<std::size_t>(k) < rates_.size());
    COSCHED_EXPECTS(k != i);
    pressure_sum += rates_[static_cast<std::size_t>(k)];
  }
  return response(sensitivities_[static_cast<std::size_t>(i)], pressure_sum);
}

void SyntheticDegradationModel::machine_degradations(
    std::span<const ProcessId> machine, std::span<Real> out) const {
  COSCHED_EXPECTS(out.size() == machine.size());
  for (ProcessId k : machine)
    COSCHED_EXPECTS(k >= 0 && static_cast<std::size_t>(k) < rates_.size());
  for (std::size_t i = 0; i < machine.size(); ++i) {
    const auto self = static_cast<std::size_t>(machine[i]);
    if (rates_[self] <= 0.0) {  // imaginary / inert process
      out[i] = 0.0;
      continue;
    }
    // Summed in slot order, as degradation() sums its co-runner list.
    Real pressure_sum = 0.0;
    for (std::size_t j = 0; j < machine.size(); ++j) {
      if (j == i) continue;
      COSCHED_EXPECTS(machine[j] != machine[i]);
      pressure_sum += rates_[static_cast<std::size_t>(machine[j])];
    }
    out[i] = response(sensitivities_[self], pressure_sum);
  }
}

Real SyntheticDegradationModel::response(Real sensitivity,
                                         Real pressure_sum) const {
  // S-curve (threshold) response: little harm while the combined working
  // set fits the shared cache, sharply growing once it overflows, then
  // saturating — the qualitative shape cache contention exhibits.
  Real x = pressure_sum / capacity_;
  switch (landscape_) {
    case SyntheticLandscape::Smooth:
      return sensitivity * x / (x + 1.0) * kScale;
    case SyntheticLandscape::Bilinear:
      return sensitivity * x * kScale;
    case SyntheticLandscape::Threshold:
      break;
  }
  Real x2 = x * x;
  Real x4 = x2 * x2;
  return sensitivity * x4 / (x4 + 1.0) * kScale;
}

Real SyntheticDegradationModel::pressure(ProcessId i) const {
  COSCHED_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < rates_.size());
  return rates_[static_cast<std::size_t>(i)];
}

// -------------------------------------------------------------------- SDC --

SdcDegradationModel::SdcDegradationModel(MachineConfig machine,
                                         std::vector<ProcessProgram> programs)
    : machine_(std::move(machine)), programs_(std::move(programs)) {
  COSCHED_EXPECTS(!programs_.empty());
  for (const auto& p : programs_) {
    if (p.sdp.associativity() == 0) continue;  // inert
    COSCHED_EXPECTS(p.sdp.associativity() ==
                    machine_.shared_cache.associativity);
    COSCHED_EXPECTS(p.solo_time_seconds > 0.0);
  }
}

Real SdcDegradationModel::degradation(ProcessId i,
                                      std::span<const ProcessId> co) const {
  COSCHED_EXPECTS(i >= 0 &&
                  static_cast<std::size_t>(i) < programs_.size());
  if (is_inert(i)) return 0.0;

  // Memo key: i followed by sorted real co-runner ids.
  std::vector<ProcessId> others;
  others.reserve(co.size());
  for (ProcessId k : co) {
    COSCHED_EXPECTS(k >= 0 &&
                    static_cast<std::size_t>(k) < programs_.size());
    COSCHED_EXPECTS(k != i);
    if (!is_inert(k)) others.push_back(k);
  }
  std::sort(others.begin(), others.end());

  std::string key(sizeof(ProcessId) * (others.size() + 1), '\0');
  std::memcpy(key.data(), &i, sizeof(ProcessId));
  if (!others.empty())
    std::memcpy(key.data() + sizeof(ProcessId), others.data(),
                sizeof(ProcessId) * others.size());
  if (auto it = memo_.find(key); it != memo_.end()) return it->second;

  Real d = 0.0;
  if (!others.empty()) {
    std::vector<const StackDistanceProfile*> profiles;
    profiles.reserve(others.size() + 1);
    profiles.push_back(&programs_[static_cast<std::size_t>(i)].sdp);
    for (ProcessId k : others)
      profiles.push_back(&programs_[static_cast<std::size_t>(k)].sdp);
    std::vector<Real> misses = sdc_predict_misses(profiles);
    d = degradation_from_misses(programs_[static_cast<std::size_t>(i)].timing,
                                misses[0], machine_);
  }
  memo_.emplace(std::move(key), d);
  return d;
}

Real SdcDegradationModel::solo_time(ProcessId i) const {
  COSCHED_EXPECTS(i >= 0 &&
                  static_cast<std::size_t>(i) < programs_.size());
  if (is_inert(i)) return 1.0;
  return programs_[static_cast<std::size_t>(i)].solo_time_seconds;
}

Real SdcDegradationModel::pressure(ProcessId i) const {
  COSCHED_EXPECTS(i >= 0 &&
                  static_cast<std::size_t>(i) < programs_.size());
  return programs_[static_cast<std::size_t>(i)].solo_miss_rate;
}

// -------------------------------------------------------------- CommAware --

CommAwareDegradationModel::CommAwareDegradationModel(
    DegradationModelPtr base, std::shared_ptr<const CommTopology> topology,
    Real bandwidth_bytes_per_s)
    : base_(std::move(base)),
      topology_(std::move(topology)),
      bandwidth_(bandwidth_bytes_per_s) {
  COSCHED_EXPECTS(base_ != nullptr);
  COSCHED_EXPECTS(topology_ != nullptr);
  COSCHED_EXPECTS(bandwidth_ > 0.0);
}

Real CommAwareDegradationModel::degradation(
    ProcessId i, std::span<const ProcessId> co) const {
  Real d = base_->degradation(i, co);
  Real c = topology_->comm_time(i, co, bandwidth_);
  if (c > 0.0) d += c / base_->solo_time(i);  // Eq. 9: + c(i,S)/ct_i
  return d;
}

}  // namespace cosched
