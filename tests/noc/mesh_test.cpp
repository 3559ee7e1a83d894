// Cycle-accurate mesh behaviour: XY paths, credit backpressure,
// dependency releases, energy reconstruction and bitwise determinism,
// plus a differential check of seeded random traffic against digests
// pinned from the cycle-by-cycle stepping model.
#include "noc/mesh.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace memcim {
namespace {

NocParams small_params() {
  NocParams p;
  p.flit_payload_bits = 64;
  p.buffer_flits = 4;
  return p;
}

TEST(MeshNoc, SinglePacketFollowsTheXYPath) {
  MeshNoc noc(4, 3, small_params());
  NocPacket pkt;
  pkt.src = noc.node_at(0, 0);
  pkt.dst = noc.node_at(3, 2);
  pkt.flits = 3;
  pkt.fingerprint = 0x1234;
  (void)noc.inject(pkt);
  noc.run_to_completion();

  const NocDelivery& d = noc.deliveries()[0];
  ASSERT_TRUE(d.done);
  EXPECT_FALSE(d.corrupted());
  const std::size_t hops = 3 + 2;  // |dx| + |dy|
  EXPECT_EQ(noc.stats().flit_hops, hops * 3);
  EXPECT_EQ(noc.stats().ejections, 3u);
  EXPECT_GE(d.latency(), hops);

  // XY: east along row 0, then south down column 3 — exactly those
  // links carry traffic, three flit-cycles each.
  std::vector<bool> expect_busy(noc.link_population(), false);
  auto link_id = [&](std::size_t node, NocDir dir) {
    return node * kNocLinkDirs + static_cast<std::size_t>(dir);
  };
  expect_busy[link_id(noc.node_at(0, 0), NocDir::kEast)] = true;
  expect_busy[link_id(noc.node_at(1, 0), NocDir::kEast)] = true;
  expect_busy[link_id(noc.node_at(2, 0), NocDir::kEast)] = true;
  expect_busy[link_id(noc.node_at(3, 0), NocDir::kSouth)] = true;
  expect_busy[link_id(noc.node_at(3, 1), NocDir::kSouth)] = true;
  for (const NocLinkUse& use : noc.link_utilization()) {
    const std::size_t id = link_id(use.node, use.dir);
    if (expect_busy[id])
      EXPECT_EQ(use.busy_cycles, 3u) << "link " << id;
    else
      EXPECT_EQ(use.busy_cycles, 0u) << "link " << id;
  }
}

TEST(MeshNoc, SelfDeliveryWorks) {
  MeshNoc noc(2, 2, small_params());
  NocPacket pkt;
  pkt.src = 3;
  pkt.dst = 3;
  pkt.flits = 2;
  (void)noc.inject(pkt);
  noc.run_to_completion();
  EXPECT_TRUE(noc.deliveries()[0].done);
  EXPECT_EQ(noc.stats().flit_hops, 0u);  // never leaves the router
  EXPECT_EQ(noc.stats().ejections, 2u);
}

TEST(MeshNoc, DependencyReleasesAfterPredecessorDelivery) {
  MeshNoc noc(3, 1, small_params());
  NocPacket cmd;
  cmd.src = 0;
  cmd.dst = 2;
  cmd.flits = 2;
  const std::size_t cmd_handle = noc.inject(cmd);

  NocPacket resp;
  resp.src = 2;
  resp.dst = 0;
  resp.flits = 1;
  resp.after = cmd_handle;
  resp.release = 10;  // tile computes for 10 cycles
  (void)noc.inject(resp);
  noc.run_to_completion();

  const NocDelivery& c = noc.deliveries()[0];
  const NocDelivery& r = noc.deliveries()[1];
  ASSERT_TRUE(c.done && r.done);
  EXPECT_EQ(r.released, c.delivered + 10);
  EXPECT_GE(r.injected, r.released);
  EXPECT_GT(r.delivered, c.delivered + 10);
}

TEST(MeshNoc, ContentionBackpressuresThroughCredits) {
  NocParams params = small_params();
  params.buffer_flits = 1;  // tiny FIFOs: congestion bites immediately
  MeshNoc noc(4, 1, params);
  // Every west node floods node 3 through the same east chain.
  for (std::size_t src = 0; src < 3; ++src) {
    for (std::size_t burst = 0; burst < 4; ++burst) {
      NocPacket pkt;
      pkt.src = src;
      pkt.dst = 3;
      pkt.flits = 4;
      pkt.tag = src * 10 + burst;
      pkt.fingerprint = pkt.tag;
      (void)noc.inject(pkt);
    }
  }
  noc.run_to_completion();
  EXPECT_GT(noc.stats().credit_stalls, 0u);
  for (const NocDelivery& d : noc.deliveries()) EXPECT_TRUE(d.done);
  EXPECT_EQ(noc.stats().ejections, 12u * 4u);
}

TEST(MeshNoc, IdenticalInjectionsAreBitwiseDeterministic) {
  auto drive = [](MeshNoc& noc) {
    for (std::size_t i = 0; i < 12; ++i) {
      NocPacket pkt;
      pkt.src = i % noc.nodes();
      pkt.dst = (i * 7 + 3) % noc.nodes();
      pkt.flits = 1 + i % 5;
      pkt.tag = i;
      pkt.release = i / 3;
      pkt.fingerprint = 0xABCD + i;
      (void)noc.inject(pkt);
    }
    noc.run_to_completion();
  };
  MeshNoc a(3, 3, small_params());
  MeshNoc b(3, 3, small_params());
  drive(a);
  drive(b);
  ASSERT_EQ(a.deliveries().size(), b.deliveries().size());
  for (std::size_t i = 0; i < a.deliveries().size(); ++i) {
    EXPECT_EQ(a.deliveries()[i].injected, b.deliveries()[i].injected);
    EXPECT_EQ(a.deliveries()[i].delivered, b.deliveries()[i].delivered);
  }
  EXPECT_EQ(a.stats().flit_hops, b.stats().flit_hops);
  EXPECT_EQ(a.stats().credit_stalls, b.stats().credit_stalls);
  EXPECT_EQ(a.stats().cycles, b.stats().cycles);
  EXPECT_EQ(a.makespan(), b.makespan());
  EXPECT_DOUBLE_EQ(a.dynamic_energy().value(), b.dynamic_energy().value());
}

TEST(MeshNoc, DynamicEnergyIsExactlyCountsTimesQuanta) {
  MeshNoc noc(3, 2, small_params());
  for (std::size_t i = 0; i < 6; ++i) {
    NocPacket pkt;
    pkt.src = i;
    pkt.dst = 5 - i;
    pkt.flits = 2;
    pkt.fingerprint = i;
    (void)noc.inject(pkt);
  }
  noc.run_to_completion();
  const NocStats& s = noc.stats();
  const RouterPowerModel& p = noc.power();
  const double expected =
      static_cast<double>(s.buffer_writes) * p.buffer_write.value() +
      static_cast<double>(s.buffer_reads) * p.buffer_read.value() +
      static_cast<double>(s.xbar_traversals) * p.xbar_traversal.value() +
      static_cast<double>(s.flit_hops) * p.link_traversal.value();
  EXPECT_DOUBLE_EQ(noc.dynamic_energy().value(), expected);
  EXPECT_GT(expected, 0.0);
}

TEST(MeshNoc, RunToCompletionIsReentrantWithMonotonicClock) {
  MeshNoc noc(2, 2, small_params());
  NocPacket pkt;
  pkt.src = 0;
  pkt.dst = 3;
  pkt.flits = 2;
  (void)noc.inject(pkt);
  noc.run_to_completion();
  const NocCycle first = noc.makespan();

  pkt.release = noc.now();
  (void)noc.inject(pkt);
  noc.run_to_completion();
  EXPECT_GT(noc.makespan(), first);
  EXPECT_TRUE(noc.deliveries()[1].done);
}

TEST(MeshNoc, ZeroReleaseDependentInjectsTheCycleAfterDelivery) {
  MeshNoc noc(2, 1, small_params());
  NocPacket cmd;
  cmd.src = 0;
  cmd.dst = 1;
  cmd.flits = 3;
  const std::size_t cmd_handle = noc.inject(cmd);
  NocPacket resp;
  resp.src = 1;
  resp.dst = 0;
  resp.after = cmd_handle;
  resp.release = 0;
  (void)noc.inject(resp);
  noc.run_to_completion();

  const NocDelivery& c = noc.deliveries()[0];
  const NocDelivery& r = noc.deliveries()[1];
  ASSERT_TRUE(c.done && r.done);
  // The predecessor's delivery is visible to its dependents only from
  // the next cycle on: never inside the cycle that ejected its tail.
  EXPECT_EQ(r.released, c.delivered);
  EXPECT_EQ(r.injected, c.delivered + 1);
}

TEST(MeshNoc, QuiescentSkipBooksCyclesOnlyWhileANicHoldsAPacket) {
  // A one-flit, one-hop packet takes three stepped cycles: inject, hop,
  // eject.
  MeshNoc noc(2, 1, small_params());
  NocPacket cmd;
  cmd.src = 0;
  cmd.dst = 1;
  const std::size_t cmd_handle = noc.inject(cmd);
  NocPacket resp;
  resp.src = 1;
  resp.dst = 0;
  resp.after = cmd_handle;
  resp.release = 50;
  (void)noc.inject(resp);
  noc.run_to_completion();
  // While the response waits out its release, every NIC is empty: the
  // jump over those cycles is not booked.
  EXPECT_EQ(noc.deliveries()[0].delivered, 2u);
  EXPECT_EQ(noc.deliveries()[1].injected, 52u);
  EXPECT_EQ(noc.deliveries()[1].delivered, 54u);
  EXPECT_EQ(noc.stats().cycles, 6u);
  EXPECT_EQ(noc.stats().fast_forward_cycles, 0u);

  // A packet queued in its NIC for 40 cycles: the jump books them.
  NocPacket late;
  late.src = 0;
  late.dst = 1;
  late.release = noc.now() + 40;
  (void)noc.inject(late);
  noc.run_to_completion();
  EXPECT_EQ(noc.deliveries()[2].injected, 95u);
  EXPECT_EQ(noc.stats().fast_forward_cycles, 40u);
  EXPECT_EQ(noc.stats().cycles, 6u + 40u + 3u);
}

// ---------------------------------------------------------------------------
// Differential traffic: every NocDelivery field and every NocStats field
// of seeded random sessions, pinned to the values of the plain
// cycle-by-cycle model.  Any change to how the mesh is stepped must keep
// these bitwise.

struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

struct Digest {
  std::uint64_t hash = 0xCBF29CE484222325ull;  // FNV-1a over 64-bit words
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFFu;
      hash *= 0x100000001B3ull;
    }
  }
};

struct TrafficCase {
  std::size_t width;
  std::size_t height;
  std::size_t buffer_flits;
  std::uint64_t seed;
  std::size_t sessions;
  std::size_t packets_per_session;
};

/// Drives `sessions` inject/run rounds of random traffic: independent
/// packets with absolute releases (some already in the past), chains on
/// the previous packet, fan-in on the session's first packet, and
/// dependents of packets delivered in earlier sessions.  One quarter of
/// the packets target node 0 so credit stalls occur.
void drive_random_traffic(MeshNoc& noc, const TrafficCase& tc) {
  SplitMix rng{tc.seed};
  for (std::size_t session = 0; session < tc.sessions; ++session) {
    const std::size_t first = noc.deliveries().size();
    for (std::size_t i = 0; i < tc.packets_per_session; ++i) {
      const std::size_t handle = noc.deliveries().size();
      NocPacket pkt;
      pkt.src = rng.below(noc.nodes());
      pkt.dst = rng.below(4) == 0 ? 0 : rng.below(noc.nodes());
      pkt.flits = 1 + rng.below(6);
      pkt.tag = handle;
      pkt.fingerprint = rng.next();
      const NocCycle offset = rng.below(3) == 0 ? 0 : rng.below(301);
      switch (rng.below(8)) {
        case 3:
        case 4:  // chain on the previous packet of this session
          if (handle > first) pkt.after = handle - 1;
          break;
        case 5:  // fan-in: many dependents of one predecessor
          if (handle > first) pkt.after = first;
          break;
        case 6:  // predecessor delivered in an earlier session
          if (first > 0) pkt.after = rng.below(first);
          break;
        case 7:  // any earlier packet
          if (handle > 0) pkt.after = rng.below(handle);
          break;
        default:
          break;
      }
      pkt.release =
          pkt.after == kNoPacket && rng.below(2) == 0 ? noc.now() + offset
                                                      : offset;
      (void)noc.inject(pkt);
    }
    noc.run_to_completion();
  }
}

struct TrafficOutcome {
  std::uint64_t deliveries_digest;
  NocStats stats;
  NocCycle now;
  NocCycle makespan;
};

TrafficOutcome run_traffic(const TrafficCase& tc) {
  NocParams params = small_params();
  params.buffer_flits = tc.buffer_flits;
  MeshNoc noc(tc.width, tc.height, params);
  // Two stuck wires on node 0's east link, one the parity wire.
  noc.set_link_fault(0 * kNocLinkDirs + 1, 3, true);
  noc.set_link_fault(0 * kNocLinkDirs + 1, params.flit_payload_bits, false);
  drive_random_traffic(noc, tc);
  Digest digest;
  std::size_t corrupted = 0;
  for (const NocDelivery& d : noc.deliveries()) {
    EXPECT_TRUE(d.done) << "tag " << d.tag;
    if (d.corrupted()) ++corrupted;
    for (const std::uint64_t word :
         {d.tag, std::uint64_t{d.src}, std::uint64_t{d.dst},
          std::uint64_t{d.flits}, d.released, d.injected, d.delivered,
          std::uint64_t{d.done}, d.corrupted_flits,
          d.undetected_corrupted_flits, d.span_id})
      digest.add(word);
  }
  for (const NocLinkUse& use : noc.link_utilization())
    digest.add(use.busy_cycles);
  EXPECT_GT(corrupted, 0u) << "traffic never crossed the faulty link";
  return {digest.hash, noc.stats(), noc.now(), noc.makespan()};
}

void expect_pinned(const TrafficOutcome& got, const TrafficOutcome& want) {
  EXPECT_EQ(got.deliveries_digest, want.deliveries_digest);
  EXPECT_EQ(got.stats.packets, want.stats.packets);
  EXPECT_EQ(got.stats.flits, want.stats.flits);
  EXPECT_EQ(got.stats.flit_hops, want.stats.flit_hops);
  EXPECT_EQ(got.stats.ejections, want.stats.ejections);
  EXPECT_EQ(got.stats.buffer_writes, want.stats.buffer_writes);
  EXPECT_EQ(got.stats.buffer_reads, want.stats.buffer_reads);
  EXPECT_EQ(got.stats.xbar_traversals, want.stats.xbar_traversals);
  EXPECT_EQ(got.stats.credit_stalls, want.stats.credit_stalls);
  EXPECT_EQ(got.stats.cycles, want.stats.cycles);
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.makespan, want.makespan);
}

TrafficOutcome pinned(std::uint64_t digest, std::uint64_t packets,
                      std::uint64_t flits, std::uint64_t flit_hops,
                      std::uint64_t buffer_events, std::uint64_t stalls,
                      std::uint64_t cycles, NocCycle now,
                      NocCycle makespan) {
  TrafficOutcome o{digest, {}, now, makespan};
  o.stats.packets = packets;
  o.stats.flits = flits;
  o.stats.flit_hops = flit_hops;
  o.stats.ejections = flits;
  o.stats.buffer_writes = buffer_events;
  o.stats.buffer_reads = buffer_events;
  o.stats.xbar_traversals = buffer_events;
  o.stats.credit_stalls = stalls;
  o.stats.cycles = cycles;
  return o;
}

TEST(MeshNocDifferential, RandomSessionsOn2x2MatchPinnedDigest) {
  const TrafficOutcome got = run_traffic({2, 2, 1, 0x2B2B, 6, 40});
  expect_pinned(got, pinned(10556986338146791514ull, 240, 862, 907, 1769,
                            690, 2441, 2627, 2626));
}

TEST(MeshNocDifferential, RandomSessionsOn4x4MatchPinnedDigest) {
  const TrafficOutcome got = run_traffic({4, 4, 2, 0x4B4B, 5, 80});
  expect_pinned(got, pinned(7674125176473283506ull, 400, 1371, 3725, 5096,
                            996, 3165, 3287, 3286));
}

TEST(MeshNocDifferential, RandomSessionsOn3x5MatchPinnedDigest) {
  const TrafficOutcome got = run_traffic({3, 5, 4, 0x3B5B, 4, 120});
  expect_pinned(got, pinned(17320124162653553956ull, 480, 1639, 4664, 6303,
                            747, 2682, 2682, 2681));
}

}  // namespace
}  // namespace memcim
