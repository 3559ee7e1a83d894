// Property suite for the Table 2 cost models: monotonicity and scaling
// relations that must hold for *any* parameter point, swept
// parametrically.  These catch sign errors and unit slips that a few
// pinned golden values cannot.
#include <gtest/gtest.h>

#include <string>

#include "arch/cost_model.h"

namespace memcim {
namespace {

class HitRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(HitRateSweep, ConventionalCostFallsWithHitRate) {
  const Table1 t = paper_table1();
  WorkloadSpec spec = math_workload_spec(t);
  spec.hit_ratio = GetParam();
  const ArchCost at = evaluate_conventional(spec, t);
  spec.hit_ratio = GetParam() + 0.01;
  const ArchCost better = evaluate_conventional(spec, t);
  EXPECT_LT(better.time_per_op.value(), at.time_per_op.value());
  EXPECT_LT(better.energy_per_op.value(), at.energy_per_op.value());
  EXPECT_LT(better.energy_delay_per_op(), at.energy_delay_per_op());
  EXPECT_GT(better.computing_efficiency(), at.computing_efficiency());
}

TEST_P(HitRateSweep, CimAlwaysWinsEnergyMetrics) {
  const Table1 t = paper_table1();
  WorkloadSpec spec = math_workload_spec(t);
  spec.hit_ratio = GetParam();
  const ArchCost conv = evaluate_conventional(spec, t);
  const ArchCost cim = evaluate_cim(spec, t);
  EXPECT_GT(conv.energy_per_op.value(), cim.energy_per_op.value());
  EXPECT_GT(conv.energy_delay_per_op(), cim.energy_delay_per_op());
  // ...while CMOS always wins raw per-op latency (252 ps vs 26.6 ns).
  EXPECT_LT(conv.time_per_op.value(), cim.time_per_op.value());
}

TEST_P(HitRateSweep, CimEnergyIndependentOfHitRate) {
  const Table1 t = paper_table1();
  WorkloadSpec spec = math_workload_spec(t);
  spec.hit_ratio = GetParam();
  const double e1 = evaluate_cim(spec, t).energy_per_op.value();
  spec.hit_ratio = 0.98;
  const double e2 = evaluate_cim(spec, t).energy_per_op.value();
  EXPECT_DOUBLE_EQ(e1, e2);  // non-volatile: no stall leakage term
}

INSTANTIATE_TEST_SUITE_P(Rates, HitRateSweep,
                         ::testing::Values(0.10, 0.30, 0.50, 0.70, 0.90,
                                           0.98),
                         [](const auto& tp_info) {
                           return "hit" + std::to_string(static_cast<int>(
                                              tp_info.param * 100));
                         });

class ParallelismSweep : public ::testing::TestWithParam<double> {};

TEST_P(ParallelismSweep, TotalTimeInverselyProportionalToUnits) {
  const Table1 t = paper_table1();
  WorkloadSpec spec = math_workload_spec(t);
  spec.parallel_units = GetParam();
  const ArchCost one = evaluate_cim(spec, t);
  spec.parallel_units = GetParam() * 10.0;
  const ArchCost ten = evaluate_cim(spec, t);
  EXPECT_NEAR(one.total_time.value() / ten.total_time.value(), 10.0, 0.2);
  // Total energy is work-proportional, not parallelism-dependent.
  EXPECT_DOUBLE_EQ(one.total_energy.value(), ten.total_energy.value());
}

TEST_P(ParallelismSweep, PerOpMetricsIndependentOfUnits) {
  const Table1 t = paper_table1();
  WorkloadSpec spec = math_workload_spec(t);
  spec.parallel_units = GetParam();
  const ArchCost a = evaluate_conventional(spec, t);
  spec.parallel_units = GetParam() * 100.0;
  const ArchCost b = evaluate_conventional(spec, t);
  EXPECT_DOUBLE_EQ(a.energy_delay_per_op(), b.energy_delay_per_op());
  EXPECT_DOUBLE_EQ(a.computing_efficiency(), b.computing_efficiency());
}

INSTANTIATE_TEST_SUITE_P(Units, ParallelismSweep,
                         ::testing::Values(1.0, 10.0, 1e3),
                         [](const auto& tp_info) {
                           // Appended, not "u" + temporary: GCC 12 -O3
                           // flags that with a false -Wrestrict.
                           std::string name = "u";
                           name += std::to_string(
                               static_cast<int>(tp_info.param));
                           return name;
                         });

TEST(CostModelProperty, MissPenaltyMonotone) {
  WorkloadSpec base_spec = math_workload_spec(paper_table1());
  double last_ed = 0.0;
  for (double penalty : {10.0, 50.0, 165.0, 400.0, 1000.0}) {
    Table1 t = paper_table1();
    t.cache_math.miss_penalty_cycles = penalty;
    const double ed =
        evaluate_conventional(base_spec, t).energy_delay_per_op();
    EXPECT_GT(ed, last_ed) << "penalty " << penalty;
    last_ed = ed;
  }
}

TEST(CostModelProperty, MoreReadsCostMore) {
  const Table1 t = paper_table1();
  WorkloadSpec spec = math_workload_spec(t);
  const double base = evaluate_conventional(spec, t).energy_delay_per_op();
  spec.reads_per_op = 4.0;
  EXPECT_GT(evaluate_conventional(spec, t).energy_delay_per_op(), base);
  const double cim_base = evaluate_cim(math_workload_spec(t), t)
                              .energy_delay_per_op();
  EXPECT_GT(evaluate_cim(spec, t).energy_delay_per_op(), cim_base);
}

}  // namespace
}  // namespace memcim
