// crossbar_vmm: a stream of analog vector–matrix multiplies on a 64×64
// distributed-wire (IR-drop) crossbar of nonlinear VCM junctions.  The
// weights go in through CrossbarVmm::program; each input is one
// CrossbarArray::solve on vmm.array() with rows at x·V_read and
// grounded columns.  The benchmark decodes y from the column currents
// itself, because CrossbarVmm::multiply does not say whether the solve
// converged.
#include <algorithm>

#include "crossbar/vmm.h"
#include "device/presets.h"
#include "device/vcm.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace tm = memcim::telemetry;
using memcim::CrossbarSolution;
using memcim::CrossbarVmm;
using memcim::LineBias;
using memcim::NetworkModel;
using memcim::VcmDevice;
using memcim::VmmConfig;
using memcim::Voltage;

constexpr std::size_t kSize = 64;
constexpr std::size_t kSolvesPerRound = 20;
constexpr double kWireOhms = 1.0;
constexpr double kNonlinearity = 3.0;  ///< κ of I = G·sinh(κV)/κ, 1/V
/// Allowed shortfall of a decoded output below Wᵀx, as a share of Σx
/// (the output when every weight is 1).  IR drop along 64 one-ohm
/// segments against 10 kΩ junctions, plus the sinh I–V curvature below
/// V_read, cost up to ~0.13 on these inputs; 0.2 leaves margin while a
/// lost column, a wrong sign or a wrong scale still lands far outside.
constexpr double kVmmBound = 0.2;
/// Allowed excess above Wᵀx: none beyond rounding, since both effects
/// only lose current.
constexpr double kVmmBoundAbove = 1e-9;
/// Calibration: linear junctions on lumped (ideal) wires.
constexpr double kCalibrationBound = 1e-9;

/// Decodes column currents into y = Wᵀx, as CrossbarVmm::multiply does:
/// subtract the G_min pedestal, divide by the weight window, both
/// probed on a copy of the junction device at V_read.
class Decoder {
 public:
  Decoder(const memcim::Device& prototype, Voltage v_read) : v_read_(v_read) {
    auto probe = prototype.clone();
    probe->set_state(0.0);
    g_min_ = probe->conductance(v_read).value();
    probe->set_state(1.0);
    g_max_ = probe->conductance(v_read).value();
  }

  [[nodiscard]] LineBias bias(const std::vector<double>& x) const {
    LineBias b;
    b.rows.reserve(x.size());
    for (const double xi : x) b.rows.emplace_back(v_read_ * xi);
    b.cols.assign(kSize, Voltage(0.0));
    return b;
  }

  [[nodiscard]] std::vector<double> decode(const CrossbarSolution& sol,
                                           double x_sum) const {
    const double v = v_read_.value();
    const double pedestal = g_min_ * v * x_sum;
    const double scale = v * (g_max_ - g_min_);
    std::vector<double> y(sol.col_terminal_current.size());
    for (std::size_t j = 0; j < y.size(); ++j)
      y[j] = (-sol.col_terminal_current[j] - pedestal) / scale;
    return y;
  }

 private:
  Voltage v_read_;
  double g_min_ = 0.0;
  double g_max_ = 0.0;
};

double sum(const std::vector<double>& x) {
  double s = 0.0;
  for (const double xi : x) s += xi;
  return s;
}

VmmConfig vmm_config(NetworkModel model) {
  VmmConfig cfg;
  cfg.array.rows = kSize;
  cfg.array.cols = kSize;
  cfg.array.model = model;
  cfg.array.wire_segment = memcim::Resistance(kWireOhms);
  return cfg;
}

memcim::VcmParams junction(double nonlinearity) {
  memcim::VcmParams p = memcim::presets::vcm_taox();
  p.nonlinearity = nonlinearity;
  return p;
}

class CrossbarVmmWorkload final : public Workload {
 public:
  explicit CrossbarVmmWorkload(std::uint64_t seed)
      : in_(make_vmm_inputs(sub_seed(seed, 21), kSize, kSize,
                            kSolvesPerRound + 1)),
        device_(junction(kNonlinearity), 0.0),
        decoder_(device_, vmm_config(NetworkModel::kDistributed).v_read) {
    for (const auto& x : in_.x) wtx_.push_back(weighted_sums(in_.weights, x));

    // Calibration: linear junctions on ideal wires must reproduce Wᵀx.
    setup_attempted = 1;
    const VcmDevice linear(junction(0.0), 0.0);
    const Decoder linear_decoder(linear,
                                 vmm_config(NetworkModel::kLumpedLines).v_read);
    CrossbarVmm calibration(vmm_config(NetworkModel::kLumpedLines), linear);
    calibration.program(in_.weights);
    const std::vector<double>& x = in_.x.back();
    try {
      const CrossbarSolution sol =
          calibration.array().solve(linear_decoder.bias(x));
      setup_check.merge(check_solution(sol, kSize, kSize));
      setup_check.merge(
          check_vmm_outputs(linear_decoder.decode(sol, sum(x)), wtx_.back(),
                            sum(x), kCalibrationBound, kCalibrationBound));
    } catch (const std::exception& e) {
      setup_check.fail(std::string("calibration solve threw: ") + e.what());
    }

    // Warm-up: one solve on a throwaway array.
    CrossbarVmm warm(vmm_config(NetworkModel::kDistributed), device_);
    warm.program(in_.weights);
    (void)warm.array().solve(decoder_.bias(in_.x.front()));
  }

  RoundResult round(bool traced) override {
    RoundResult out;
    out.attempted = kSolvesPerRound;
    CrossbarVmm vmm(vmm_config(NetworkModel::kDistributed), device_);
    vmm.program(in_.weights);

    const tm::MetricsSnapshot before =
        traced ? tm::Registry::global().snapshot() : tm::MetricsSnapshot{};
    for (std::size_t s = 0; s < kSolvesPerRound; ++s) {
      const std::vector<double>& x = in_.x[s];
      const LineBias bias = decoder_.bias(x);
      CrossbarSolution sol;
      const std::uint64_t t0 = steady_ns();
      try {
        sol = vmm.array().solve(bias);
      } catch (const std::exception& e) {
        out.host_s += seconds_since(t0);
        out.check.fail("solve " + std::to_string(s) + " threw: " + e.what());
        continue;
      }
      out.host_s += seconds_since(t0);
      CheckReport solve_check = check_solution(sol, kSize, kSize);
      if (solve_check.ok())
        solve_check = check_vmm_outputs(decoder_.decode(sol, sum(x)), wtx_[s],
                                        sum(x), kVmmBound, kVmmBoundAbove);
      out.check.merge(solve_check);
    }
    if (traced) {
      const tm::MetricsSnapshot after = tm::Registry::global().snapshot();
      out.layers = counter_layers(after, before);
    }
    return out;
  }

 private:
  VmmInputs in_;
  std::vector<std::vector<double>> wtx_;
  VcmDevice device_;
  Decoder decoder_;
};

}  // namespace

std::unique_ptr<Workload> make_crossbar_vmm(std::uint64_t seed) {
  return std::make_unique<CrossbarVmmWorkload>(seed);
}

}  // namespace perfbench
