// Unit tests for src/core: degradation models, objective evaluation, node
// evaluation, problem builders.
#include <gtest/gtest.h>

#include "core/builders.hpp"
#include "core/degradation_models.hpp"
#include "core/node_eval.hpp"
#include "core/objective.hpp"

namespace cosched {
namespace {

// --------------------------------------------------------- TabularModel

TEST(TabularModel, LookupIgnoresCoRunnerOrder) {
  TabularDegradationModel m(4);
  m.set(0, {1, 2}, 0.5);
  ProcessId ab[2] = {1, 2}, ba[2] = {2, 1};
  EXPECT_DOUBLE_EQ(m.degradation(0, ab), 0.5);
  EXPECT_DOUBLE_EQ(m.degradation(0, ba), 0.5);
  ProcessId other[2] = {1, 3};
  EXPECT_DOUBLE_EQ(m.degradation(0, other), 0.0);  // unset -> 0
}

TEST(TabularModel, NegativeDegradationRejected) {
  TabularDegradationModel m(2);
  EXPECT_THROW(m.set(0, {1}, -0.1), ContractViolation);
}

// --------------------------------------------------------- SyntheticModel

TEST(SyntheticModel, MonotoneInCoRunnerPressure) {
  SyntheticDegradationModel m({0.5, 0.2, 0.7, 0.3});
  ProcessId low[1] = {1};   // pressure 0.2
  ProcessId high[1] = {2};  // pressure 0.7
  EXPECT_LT(m.degradation(0, low), m.degradation(0, high));
  ProcessId both[2] = {1, 2};
  EXPECT_GT(m.degradation(0, both), m.degradation(0, high));
}

TEST(SyntheticModel, InertProcessSuffersAndInflictsNothing) {
  SyntheticDegradationModel m({0.5, 0.0});
  ProcessId co0[1] = {0};
  EXPECT_DOUBLE_EQ(m.degradation(1, co0), 0.0);  // imaginary suffers nothing
  ProcessId co1[1] = {1};
  EXPECT_DOUBLE_EQ(m.degradation(0, co1), 0.0);  // and inflicts nothing
}

TEST(SyntheticModel, SensitiveProcessSuffersMore) {
  // Same co-runners, higher own rate -> higher degradation.
  SyntheticDegradationModel m({0.2, 0.7, 0.5});
  ProcessId co[1] = {2};
  EXPECT_LT(m.degradation(0, co), m.degradation(1, co));
}

TEST(SyntheticModel, RandomFactoryRespectsRange) {
  Rng rng(3);
  auto m = SyntheticDegradationModel::random(100, rng, 0.15, 0.75);
  for (ProcessId p = 0; p < 100; ++p) {
    EXPECT_GE(m->miss_rate(p), 0.15);
    EXPECT_LT(m->miss_rate(p), 0.75);
    EXPECT_DOUBLE_EQ(m->pressure(p), m->miss_rate(p));
  }
}

TEST(SyntheticModel, DegradationBounded) {
  SyntheticDegradationModel m({0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75});
  ProcessId co[7] = {1, 2, 3, 4, 5, 6, 7};
  Real d = m.degradation(0, co);
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
}

// --------------------------------------------------------------- SdcModel

SdcDegradationModel::ProcessProgram make_program(Real reuse, Real misses) {
  SdcDegradationModel::ProcessProgram p;
  std::vector<Real> hits(16, reuse);
  p.sdp = StackDistanceProfile(hits, misses);
  p.timing.base_cycles = 100000.0;
  p.timing.solo_misses = misses;
  p.solo_time_seconds = 1e-3;
  p.solo_miss_rate = misses / (misses + 16 * reuse);
  return p;
}

TEST(SdcModel, SoloDegradationIsZero) {
  std::vector<SdcDegradationModel::ProcessProgram> progs;
  progs.push_back(make_program(100, 50));
  progs.push_back(SdcDegradationModel::ProcessProgram{});  // inert
  SdcDegradationModel m(quad_core_machine(), std::move(progs));
  ProcessId co[1] = {1};  // only an imaginary co-runner
  EXPECT_DOUBLE_EQ(m.degradation(0, co), 0.0);
}

TEST(SdcModel, ContentionIncreasesWithCoRunners) {
  std::vector<SdcDegradationModel::ProcessProgram> progs;
  for (int i = 0; i < 4; ++i) progs.push_back(make_program(100, 50));
  SdcDegradationModel m(quad_core_machine(), std::move(progs));
  ProcessId one[1] = {1};
  ProcessId three[3] = {1, 2, 3};
  EXPECT_GE(m.degradation(0, three), m.degradation(0, one));
  EXPECT_GT(m.degradation(0, three), 0.0);
}

TEST(SdcModel, MemoizationConsistency) {
  std::vector<SdcDegradationModel::ProcessProgram> progs;
  for (int i = 0; i < 3; ++i) progs.push_back(make_program(50 + 20 * i, 30));
  SdcDegradationModel m(quad_core_machine(), std::move(progs));
  ProcessId co[2] = {1, 2};
  Real first = m.degradation(0, co);
  ProcessId co_rev[2] = {2, 1};
  EXPECT_DOUBLE_EQ(m.degradation(0, co_rev), first);  // memo + order-free
}

// --------------------------------------------------------- CommAware model

TEST(CommAwareModel, AddsCommTermPerEq9) {
  auto base = std::make_shared<SyntheticDegradationModel>(
      std::vector<Real>{0.5, 0.5, 0.5});
  auto topo = std::make_shared<CommTopology>();
  topo->attach(0, 0, make_1d_pattern(2, 50.0));  // processes 0,1 linked
  CommAwareDegradationModel m(base, topo, /*bandwidth=*/100.0);

  ProcessId co_local[1] = {1};
  ProcessId co_remote[1] = {2};
  Real with_peer = m.degradation(0, co_local);
  Real without_peer = m.degradation(0, co_remote);
  // Separated from its neighbour, process 0 pays 50/100 = 0.5s over
  // solo_time 1.0 -> +0.5 degradation.
  EXPECT_NEAR(without_peer - base->degradation(0, co_remote), 0.5, 1e-12);
  // Co-located with the neighbour, no comm penalty.
  EXPECT_DOUBLE_EQ(with_peer, base->degradation(0, co_local));
}

// ------------------------------------------------------- objective / eval

Problem tiny_problem(std::vector<Real> rates, std::uint32_t cores) {
  Problem p;
  p.machine = machine_by_cores(cores);
  for (std::size_t i = 0; i < rates.size(); ++i)
    p.batch.add_job(std::string("j").append(std::to_string(i)),
                    JobKind::Serial, 1);
  p.batch.pad_to_multiple(static_cast<std::int32_t>(cores));
  while (rates.size() < static_cast<std::size_t>(p.batch.process_count()))
    rates.push_back(0.0);
  auto m = std::make_shared<SyntheticDegradationModel>(std::move(rates));
  p.contention_model = m;
  p.full_model = m;
  return p;
}

TEST(Objective, ValidateRejectsBadSolutions) {
  Problem p = tiny_problem({0.3, 0.4, 0.5, 0.6}, 2);
  Solution wrong_count;
  wrong_count.machines = {{0, 1}};
  EXPECT_THROW(validate_solution(p, wrong_count), ContractViolation);
  Solution duplicate;
  duplicate.machines = {{0, 1}, {1, 2}};
  EXPECT_THROW(validate_solution(p, duplicate), ContractViolation);
  Solution ok;
  ok.machines = {{0, 1}, {2, 3}};
  EXPECT_NO_THROW(validate_solution(p, ok));
}

TEST(Objective, SerialObjectiveSumsAllProcesses) {
  Problem p = tiny_problem({0.3, 0.4, 0.5, 0.6}, 2);
  Solution s;
  s.machines = {{0, 1}, {2, 3}};
  auto ev = evaluate_solution(p, s);
  Real expected = 0.0;
  ProcessId co01[1] = {1}, co10[1] = {0}, co23[1] = {3}, co32[1] = {2};
  expected += p.full_model->degradation(0, co01);
  expected += p.full_model->degradation(1, co10);
  expected += p.full_model->degradation(2, co23);
  expected += p.full_model->degradation(3, co32);
  EXPECT_NEAR(ev.total, expected, 1e-12);
  EXPECT_NEAR(ev.average_per_job, expected / 4.0, 1e-12);
}

TEST(Objective, ParallelJobContributesItsMax) {
  Problem p;
  p.machine = machine_by_cores(2);
  p.batch.add_job("par", JobKind::ParallelNoComm, 3);
  p.batch.add_job("ser", JobKind::Serial, 1);
  auto m = std::make_shared<SyntheticDegradationModel>(
      std::vector<Real>{0.6, 0.6, 0.6, 0.3});
  p.contention_model = m;
  p.full_model = m;

  Solution s;
  s.machines = {{0, 1}, {2, 3}};
  auto max_agg = evaluate_solution(p, s, *m, Aggregation::MaxPerParallelJob);
  auto sum_agg = evaluate_solution(p, s, *m, Aggregation::SumAllProcesses);
  // Max aggregation counts the parallel job once (its worst process), so it
  // must be strictly smaller than the straight sum here.
  EXPECT_LT(max_agg.total, sum_agg.total);
  // per_job[0] equals max over processes 0..2.
  Real expected_max = std::max({max_agg.per_process[0],
                                max_agg.per_process[1],
                                max_agg.per_process[2]});
  EXPECT_DOUBLE_EQ(max_agg.per_job[0], expected_max);
}

TEST(Objective, Figure1Example) {
  // Fig. 1 of the paper: 4 processes on two dual-core nodes. As serial jobs
  // the objective is D1+D2+D3+D4; with p1..p3 parallel it is
  // max(D1,D2,D3)+D4.
  Problem serial = tiny_problem({0.5, 0.6, 0.7, 0.4}, 2);
  Solution s;
  s.machines = {{0, 1}, {2, 3}};
  auto ev_serial = evaluate_solution(serial, s);

  Problem mixed;
  mixed.machine = machine_by_cores(2);
  mixed.batch.add_job("par", JobKind::ParallelNoComm, 3);
  mixed.batch.add_job("ser", JobKind::Serial, 1);
  auto m = std::make_shared<SyntheticDegradationModel>(
      std::vector<Real>{0.5, 0.6, 0.7, 0.4});
  mixed.contention_model = m;
  mixed.full_model = m;
  auto ev_mixed = evaluate_solution(mixed, s);

  Real d4 = ev_serial.per_process[3];
  Real dmax = std::max({ev_serial.per_process[0], ev_serial.per_process[1],
                        ev_serial.per_process[2]});
  EXPECT_NEAR(ev_mixed.total, dmax + d4, 1e-12);
  EXPECT_LT(ev_mixed.total, ev_serial.total);
}

TEST(Objective, CanonicalizeSortsMachines) {
  Solution s;
  s.machines = {{3, 2}, {1, 0}};
  s.canonicalize();
  EXPECT_EQ(s.machines[0], (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(s.machines[1], (std::vector<ProcessId>{2, 3}));
  EXPECT_EQ(s.machine_of(2), 1);
  EXPECT_EQ(s.machine_of(9), -1);
}

// ------------------------------------------------------------ NodeEvaluator

TEST(NodeEvaluator, WeightSumsMemberDegradations) {
  Problem p = tiny_problem({0.3, 0.4, 0.5, 0.6}, 4);
  NodeEvaluator eval(p, *p.full_model);
  std::vector<ProcessId> node{0, 1, 2, 3};
  std::vector<Real> d;
  Real w = eval.weight(node, d);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_NEAR(w, d[0] + d[1] + d[2] + d[3], 1e-12);
  EXPECT_GT(w, 0.0);
}

TEST(NodeEvaluator, HWeightDropsParallelInAdmissibleMode) {
  Problem p;
  p.machine = machine_by_cores(2);
  p.batch.add_job("par", JobKind::ParallelNoComm, 2);
  p.batch.add_job("s0", JobKind::Serial, 1);
  p.batch.add_job("s1", JobKind::Serial, 1);
  auto m = std::make_shared<SyntheticDegradationModel>(
      std::vector<Real>{0.5, 0.5, 0.5, 0.5});
  p.contention_model = m;
  p.full_model = m;
  NodeEvaluator eval(p, *m);
  std::vector<ProcessId> mixed_node{0, 2};  // parallel + serial
  EXPECT_LT(eval.h_weight(mixed_node), eval.weight(mixed_node));
  std::vector<ProcessId> serial_node{2, 3};
  EXPECT_DOUBLE_EQ(eval.h_weight(serial_node), eval.weight(serial_node));
}

// ----------------------------------------------------------------- builders

TEST(Builders, CatalogProblemShape) {
  CatalogProblemSpec spec;
  spec.cores = 4;
  spec.serial_programs = {"BT", "CG", "EP", "FT", "IS"};
  spec.parallel_jobs.push_back({"MG-Par", 2, true, 1e5});
  spec.trace_length = 20000;
  Problem p = build_catalog_problem(spec);
  EXPECT_EQ(p.n() % 4, 0);
  EXPECT_EQ(p.batch.real_process_count(), 7);
  EXPECT_EQ(p.n(), 8);  // padded by 1
  EXPECT_EQ(p.batch.parallel_job_count(), 1);
  EXPECT_NE(p.topology, nullptr);
  EXPECT_NE(p.full_model, p.contention_model);
  // The PC process pays communication when separated from its peer.
  ProcessId peer_co[3] = {6, 0, 1};   // peer process 6 co-located
  ProcessId alone_co[3] = {0, 1, 2};  // peer elsewhere
  Real with_peer = p.full_model->degradation(5, peer_co);
  Real without = p.full_model->degradation(5, alone_co);
  EXPECT_GT(without, 0.0);
  (void)with_peer;
}

TEST(Builders, CatalogProblemWithoutPcSharesModels) {
  CatalogProblemSpec spec;
  spec.cores = 2;
  spec.serial_programs = {"BT", "CG"};
  spec.trace_length = 20000;
  Problem p = build_catalog_problem(spec);
  EXPECT_EQ(p.full_model, p.contention_model);
  EXPECT_EQ(p.topology, nullptr);
}

TEST(Builders, SyntheticProblemDeterministicPerSeed) {
  SyntheticProblemSpec spec;
  spec.cores = 4;
  spec.serial_jobs = 11;
  spec.seed = 77;
  Problem a = build_synthetic_problem(spec);
  Problem b = build_synthetic_problem(spec);
  EXPECT_EQ(a.n(), 12);  // padded
  ProcessId co[3] = {1, 2, 3};
  EXPECT_DOUBLE_EQ(a.full_model->degradation(0, co),
                   b.full_model->degradation(0, co));
}

TEST(Builders, SyntheticParallelJobSharesRate) {
  SyntheticProblemSpec spec;
  spec.cores = 2;
  spec.serial_jobs = 0;
  spec.parallel_job_sizes = {4};
  Problem p = build_synthetic_problem(spec);
  auto* m = dynamic_cast<const SyntheticDegradationModel*>(
      p.contention_model.get());
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->miss_rate(0), m->miss_rate(3));
}

TEST(Builders, SyntheticPcJobGetsTopology) {
  SyntheticProblemSpec spec;
  spec.cores = 2;
  spec.serial_jobs = 2;
  spec.parallel_job_sizes = {4};
  spec.parallel_with_comm = true;
  Problem p = build_synthetic_problem(spec);
  ASSERT_NE(p.topology, nullptr);
  EXPECT_TRUE(p.topology->has_pattern(2));  // parallel job id = 2
}

}  // namespace
}  // namespace cosched
