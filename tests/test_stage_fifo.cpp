#include <vector>

#include <gtest/gtest.h>

#include "mp5/stage_fifo.hpp"

namespace mp5 {
namespace {

// The FIFO stores opaque arena references; the tests don't need a real
// arena, so they use `ref == seq` and check the ref round-trips.
PacketRef ref_for(SeqNo seq) { return static_cast<PacketRef>(seq); }

using Kind = StageFifo::PopResult::Kind;

TEST(StageFifo, PhantomBlocksUntilDataInserted) {
  StageFifo fifo(2, 0, false);
  const auto a = fifo.push_phantom(0, 0, 5, 0);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->lane, 0u);
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked);
  ASSERT_TRUE(fifo.insert_data(*a, 0, ref_for(0)));
  const auto r = fifo.pop();
  ASSERT_EQ(r.kind, Kind::kData);
  EXPECT_EQ(r.ref, ref_for(0));
  EXPECT_EQ(fifo.pop().kind, Kind::kIdle);
}

TEST(StageFifo, PopPicksSmallestTimestampAcrossLanes) {
  StageFifo fifo(2, 0, false);
  const auto s3 = fifo.push_phantom(3, 0, 0, 1);
  const auto s5 = fifo.push_phantom(5, 0, 1, 0);
  ASSERT_TRUE(s3);
  ASSERT_TRUE(s5);
  ASSERT_TRUE(fifo.insert_data(*s5, 5, ref_for(5)));
  // Lane 0's head (seq 5, data) must wait for lane 1's head (seq 3).
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked);
  ASSERT_TRUE(fifo.insert_data(*s3, 3, ref_for(3)));
  EXPECT_EQ(fifo.pop().ref, ref_for(3));
  EXPECT_EQ(fifo.pop().ref, ref_for(5));
}

TEST(StageFifo, LaterDataBlockedBehindEarlierPhantom) {
  // The Figure 3 Table III scenario: E's data is present but D's phantom
  // precedes it in the same lane.
  StageFifo fifo(1, 0, false);
  const auto d = fifo.push_phantom(3, 0, 2, 0); // D
  const auto e = fifo.push_phantom(4, 0, 2, 0); // E
  ASSERT_TRUE(d);
  ASSERT_TRUE(e);
  ASSERT_TRUE(fifo.insert_data(*e, 4, ref_for(4)));
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked);
  ASSERT_TRUE(fifo.insert_data(*d, 3, ref_for(3)));
  EXPECT_EQ(fifo.pop().ref, ref_for(3));
  EXPECT_EQ(fifo.pop().ref, ref_for(4));
}

TEST(StageFifo, BoundedLaneDropsPhantom) {
  StageFifo fifo(1, 2, false);
  const auto s0 = fifo.push_phantom(0, 0, 0, 0);
  const auto s1 = fifo.push_phantom(1, 0, 0, 0);
  EXPECT_TRUE(s0);
  EXPECT_TRUE(s1);
  EXPECT_FALSE(fifo.push_phantom(2, 0, 0, 0)); // lane full
  // The data packet for the dropped phantom holds no slot, and no queued
  // slot holds its phantom: it cannot be inserted.
  EXPECT_EQ(fifo.phantom_at(FifoSlot{}, 2), nullptr);
  EXPECT_FALSE(fifo.insert_data(FifoSlot{}, 2, ref_for(2)));
  ASSERT_TRUE(s1);
  EXPECT_EQ(fifo.phantom_at(*s1, 2), nullptr);
  EXPECT_FALSE(fifo.insert_data(*s1, 2, ref_for(2)));
  EXPECT_EQ(fifo.size(), 2u);
}

TEST(StageFifo, CancelledPhantomCostsOneWastedPop) {
  StageFifo fifo(1, 0, false);
  const auto s0 = fifo.push_phantom(0, 0, 0, 0);
  const auto s1 = fifo.push_phantom(1, 0, 0, 0);
  ASSERT_TRUE(s0);
  ASSERT_TRUE(s1);
  ASSERT_TRUE(fifo.insert_data(*s1, 1, ref_for(1)));
  EXPECT_TRUE(fifo.cancel(*s0, 0));
  EXPECT_EQ(fifo.pop().kind, Kind::kWasted); // reclaiming costs a cycle
  EXPECT_EQ(fifo.pop().ref, ref_for(1));
}

TEST(StageFifo, CancelAfterDropIsNoOp) {
  StageFifo fifo(1, 1, false);
  const auto s0 = fifo.push_phantom(0, 0, 0, 0);
  ASSERT_TRUE(s0);
  ASSERT_FALSE(fifo.push_phantom(1, 0, 0, 0));
  // Dropped phantom: nothing to cancel, through no slot or another
  // packet's slot.
  EXPECT_FALSE(fifo.cancel(FifoSlot{}, 1));
  EXPECT_FALSE(fifo.cancel(*s0, 1));
  EXPECT_EQ(fifo.size(), 1u);
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked); // seq 0 is still a phantom
}

TEST(StageFifo, HighWaterTracksPeakOccupancy) {
  StageFifo fifo(2, 0, false);
  std::vector<FifoSlot> slots;
  for (SeqNo s = 0; s < 6; ++s) {
    const auto slot = fifo.push_phantom(s, 0, 0, s % 2);
    ASSERT_TRUE(slot);
    slots.push_back(*slot);
  }
  for (SeqNo s = 0; s < 6; ++s) {
    ASSERT_TRUE(fifo.insert_data(slots[s], s, ref_for(s)));
  }
  for (int i = 0; i < 6; ++i) EXPECT_EQ(fifo.pop().kind, Kind::kData);
  EXPECT_EQ(fifo.high_water(), 6u);
  EXPECT_EQ(fifo.size(), 0u);
}

TEST(StageFifoSlots, StaleSlotAfterDrainReadsAsAbsent) {
  for (const bool ideal : {false, true}) {
    SCOPED_TRACE(ideal ? "ideal" : "lanes");
    StageFifo fifo(2, 0, ideal);
    const auto a = fifo.push_phantom(0, 0, 3, 0);
    const auto b = fifo.push_phantom(1, 0, 3, 1);
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_TRUE(fifo.drain_all().empty());
    // Lane failure drained the FIFO: the packets' slots are stale.
    EXPECT_EQ(fifo.phantom_at(*a, 0), nullptr);
    EXPECT_FALSE(fifo.insert_data(*a, 0, ref_for(0)));
    EXPECT_FALSE(fifo.cancel(*b, 1));
    EXPECT_EQ(fifo.size(), 0u);
    EXPECT_EQ(fifo.pop().kind, Kind::kIdle);
    // New pushes after the drain (the lane recovered) get fresh slots; the
    // stale ones still address nothing, even where a new entry now sits.
    const auto c = fifo.push_phantom(2, 0, 3, 0);
    ASSERT_TRUE(c);
    EXPECT_FALSE(fifo.insert_data(*a, 0, ref_for(0)));
    EXPECT_FALSE(fifo.cancel(*a, 0));
    EXPECT_EQ(fifo.pop().kind, Kind::kBlocked); // seq 2 untouched
    ASSERT_TRUE(fifo.insert_data(*c, 2, ref_for(2)));
    EXPECT_EQ(fifo.pop().ref, ref_for(2));
    EXPECT_NO_THROW(fifo.check_invariants(/*now=*/1));
  }
}

TEST(StageFifoSlots, SlotOfAnotherSeqIsRejected) {
  for (const bool ideal : {false, true}) {
    SCOPED_TRACE(ideal ? "ideal" : "lanes");
    StageFifo fifo(2, 0, ideal);
    // Two register indexes, so the ideal design queues them apart too (its
    // slot names the per-index queue, searched by seq).
    const auto a = fifo.push_phantom(0, 0, 3, 0);
    const auto b = fifo.push_phantom(1, 0, 4, 0);
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    // A slot is checked against the packet's seq: packet 1 cannot fill or
    // cancel packet 0's phantom through packet 0's slot.
    EXPECT_EQ(fifo.phantom_at(*a, 1), nullptr);
    EXPECT_FALSE(fifo.insert_data(*a, 1, ref_for(1)));
    EXPECT_FALSE(fifo.cancel(*a, 1));
    // A slot whose entry is no longer a phantom is rejected too.
    ASSERT_TRUE(fifo.insert_data(*b, 1, ref_for(1)));
    EXPECT_FALSE(fifo.insert_data(*b, 1, ref_for(7)));
    EXPECT_FALSE(fifo.cancel(*b, 1));
    ASSERT_TRUE(fifo.cancel(*a, 0));
    EXPECT_FALSE(fifo.cancel(*a, 0));
    EXPECT_FALSE(fifo.insert_data(*a, 0, ref_for(0)));
    // Packet 1's data survived every rejected access unchanged (the lane
    // FIFO first spends a wasted pop reclaiming packet 0's zombie).
    auto r = fifo.pop();
    if (!ideal) {
      EXPECT_EQ(r.kind, Kind::kWasted);
      r = fifo.pop();
    }
    EXPECT_EQ(r.kind, Kind::kData);
    EXPECT_EQ(r.ref, ref_for(1));
  }
}

TEST(StageFifoIdeal, PerIndexOrderingAvoidsHolBlocking) {
  StageFifo fifo(2, 0, true);
  // Index 7 is blocked by a phantom (seq 0); index 9's data (seq 1) is
  // independently serviceable in the ideal design.
  const auto s0 = fifo.push_phantom(0, 0, 7, 0);
  const auto s1 = fifo.push_phantom(1, 0, 9, 1);
  ASSERT_TRUE(s0);
  ASSERT_TRUE(s1);
  ASSERT_TRUE(fifo.insert_data(*s1, 1, ref_for(1)));
  const auto r = fifo.pop();
  ASSERT_EQ(r.kind, Kind::kData);
  EXPECT_EQ(r.ref, ref_for(1));
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked);
}

TEST(StageFifoIdeal, StillOrdersWithinAnIndex) {
  StageFifo fifo(1, 0, true);
  const auto s0 = fifo.push_phantom(0, 0, 7, 0);
  const auto s1 = fifo.push_phantom(1, 0, 7, 0);
  ASSERT_TRUE(s0);
  ASSERT_TRUE(s1);
  ASSERT_TRUE(fifo.insert_data(*s1, 1, ref_for(1)));
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked); // seq 1 behind seq 0's phantom
  ASSERT_TRUE(fifo.insert_data(*s0, 0, ref_for(0)));
  EXPECT_EQ(fifo.pop().ref, ref_for(0));
  EXPECT_EQ(fifo.pop().ref, ref_for(1));
}

TEST(StageFifoIdeal, CancelledEntriesReclaimedForFree) {
  StageFifo fifo(1, 0, true);
  const auto s0 = fifo.push_phantom(0, 0, 7, 0);
  const auto s1 = fifo.push_phantom(1, 0, 7, 0);
  ASSERT_TRUE(s0);
  ASSERT_TRUE(s1);
  ASSERT_TRUE(fifo.insert_data(*s1, 1, ref_for(1)));
  EXPECT_TRUE(fifo.cancel(*s0, 0));
  const auto r = fifo.pop(); // no kWasted in the ideal design
  ASSERT_EQ(r.kind, Kind::kData);
  EXPECT_EQ(r.ref, ref_for(1));
}

} // namespace
} // namespace mp5
