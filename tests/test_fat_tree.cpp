// Two-level fat-tree topology extension: connectivity, latency ordering,
// spine load balancing, per-switch counters.
#include <gtest/gtest.h>

#include "net/network.h"
#include "util/stats.h"

namespace actnet::net {
namespace {

NetworkConfig fat_tree_config(int nodes = 36, int pods = 2, int spines = 2) {
  NetworkConfig cfg = NetworkConfig::cab_like();
  cfg.nodes = nodes;
  cfg.pods = pods;
  cfg.spines = spines;
  return cfg;
}

TEST(FatTree, RejectsUnevenPodSplit) {
  sim::Engine e;
  NetworkConfig cfg = fat_tree_config(35, 2, 2);
  EXPECT_THROW(Network(e, cfg, Rng(1)), Error);
}

TEST(FatTree, PodOfMapsBlocks) {
  sim::Engine e;
  Network net(e, fat_tree_config(), Rng(1));
  EXPECT_EQ(net.pod_of(0), 0);
  EXPECT_EQ(net.pod_of(17), 0);
  EXPECT_EQ(net.pod_of(18), 1);
  EXPECT_EQ(net.pod_of(35), 1);
}

TEST(FatTree, IntraPodDeliveryUsesOnlyLeaf) {
  sim::Engine e;
  Network net(e, fat_tree_config(), Rng(1));
  bool delivered = false;
  net.send(0, 5, /*flow=*/1, 1088, nullptr, [&] { delivered = true; });
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.leaf_counters(0).packets, 1u);
  EXPECT_EQ(net.leaf_counters(1).packets, 0u);
  EXPECT_EQ(net.spine_counters(0).packets + net.spine_counters(1).packets,
            0u);
}

TEST(FatTree, CrossPodDeliveryTraversesSpineAndBothLeaves) {
  sim::Engine e;
  Network net(e, fat_tree_config(), Rng(1));
  bool delivered = false;
  net.send(0, 20, /*flow=*/1, 1088, nullptr, [&] { delivered = true; });
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.leaf_counters(0).packets, 1u);
  EXPECT_EQ(net.leaf_counters(1).packets, 1u);
  EXPECT_EQ(net.spine_counters(0).packets + net.spine_counters(1).packets,
            1u);
}

TEST(FatTree, CrossPodLatencyExceedsIntraPod) {
  auto one_way = [](NodeId dst) {
    sim::Engine e;
    Network net(e, fat_tree_config(), Rng(1));
    Tick arrived = -1;
    net.send(0, dst, 1, 1088, nullptr, [&] { arrived = e.now(); });
    e.run();
    return arrived;
  };
  const Tick intra = one_way(9);
  const Tick cross = one_way(27);
  EXPECT_GT(cross, intra + units::ns(300));  // extra hop + trunk + leaf
}

TEST(FatTree, FlowsSpreadAcrossSpines) {
  sim::Engine e;
  Network net(e, fat_tree_config(36, 2, 4), Rng(1));
  for (FlowId f = 1; f <= 64; ++f)
    net.send(static_cast<NodeId>(f % 18), 20 + static_cast<NodeId>(f % 8), f,
             1088, nullptr, nullptr);
  e.run();
  for (int s = 0; s < 4; ++s)
    EXPECT_GT(net.spine_counters(s).packets, 8u) << "spine " << s;
}

TEST(FatTree, SameFlowSticksToOneSpine) {
  sim::Engine e;
  Network net(e, fat_tree_config(36, 2, 4), Rng(1));
  for (int i = 0; i < 20; ++i) net.send(0, 30, /*flow=*/7, 1088, nullptr,
                                        nullptr);
  e.run();
  int used = 0;
  for (int s = 0; s < 4; ++s)
    if (net.spine_counters(s).packets > 0) ++used;
  EXPECT_EQ(used, 1);
}

TEST(FatTree, TrunkBandwidthAutoProvisioning) {
  // With full-bisection trunks, a cross-pod bulk transfer is not much
  // slower than an intra-pod one at equal port contention.
  auto bulk_time = [](NodeId dst) {
    sim::Engine e;
    Network net(e, fat_tree_config(), Rng(1));
    int remaining = 64;
    Tick done = 0;
    for (int i = 0; i < 64; ++i)
      net.send(0, dst, 1, units::KiB(40), nullptr, [&] {
        if (--remaining == 0) done = e.now();
      });
    e.run();
    return done;
  };
  const Tick intra = bulk_time(9);
  const Tick cross = bulk_time(27);
  EXPECT_LT(cross, intra * 3 / 2);
}

TEST(FatTree, SingleSwitchDefaultIsUnchanged) {
  sim::Engine e;
  Network net(e, NetworkConfig::cab_like(), Rng(1));
  bool delivered = false;
  net.send(0, 17, 1, 1088, nullptr, [&] { delivered = true; });
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.pod_of(17), 0);
  EXPECT_EQ(net.leaf_counters(0).packets, 1u);
}

TEST(FatTree, SeventyTwoNodesFourPods) {
  sim::Engine e;
  Network net(e, fat_tree_config(72, 4, 4), Rng(1));
  int delivered = 0;
  for (NodeId src = 0; src < 72; src += 7)
    for (NodeId dst = 3; dst < 72; dst += 11)
      if (src != dst)
        net.send(src, dst, static_cast<FlowId>(src * 100 + dst), 4096,
                 nullptr, [&] { ++delivered; });
  e.run();
  EXPECT_GT(delivered, 50);
  EXPECT_EQ(net.in_flight_messages(), 0u);
}

}  // namespace
}  // namespace actnet::net
