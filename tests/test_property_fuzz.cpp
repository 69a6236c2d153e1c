// Model-based and fuzz tests:
//   * RingFifo against a std::deque reference model;
//   * StageFifo (lane mode) against a simple sorted-list model of the
//     paper's push/insert/pop semantics;
//   * lexer/parser robustness on mutated program text (must either parse
//     or throw a library error — never crash);
//   * arithmetic edge cases shared by both interpreter and compiled code.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "mp5/stage_fifo.hpp"
#include "fuzz/program_gen.hpp"

namespace mp5 {
namespace {

TEST(RingFifoFuzz, MatchesDequeModel) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Rng rng(seed);
    const std::size_t capacity = rng.next_below(2) ? 0 : 4; // unbounded/bounded
    RingFifo<int> fifo(capacity);
    std::deque<std::pair<std::uint64_t, int>> model; // (vidx, value)
    std::map<std::uint64_t, int> by_vidx;
    int next_value = 0;

    for (int op = 0; op < 20000; ++op) {
      switch (rng.next_below(4)) {
        case 0: { // push
          const auto vidx = fifo.push(next_value);
          const bool model_full = capacity != 0 && model.size() == capacity;
          ASSERT_EQ(vidx.has_value(), !model_full);
          if (vidx) {
            model.emplace_back(*vidx, next_value);
            by_vidx[*vidx] = next_value;
          }
          ++next_value;
          break;
        }
        case 1: { // pop
          if (model.empty()) {
            EXPECT_TRUE(fifo.empty());
            break;
          }
          ASSERT_EQ(fifo.front(), model.front().second);
          ASSERT_EQ(fifo.front_vidx(), model.front().first);
          by_vidx.erase(model.front().first);
          fifo.pop_front();
          model.pop_front();
          break;
        }
        case 2: { // replace a random live entry
          if (model.empty()) break;
          const auto pick = rng.next_below(model.size());
          const auto vidx = model[pick].first;
          fifo.replace(vidx, next_value);
          model[pick].second = next_value;
          by_vidx[vidx] = next_value;
          ++next_value;
          break;
        }
        default: { // random access checks
          ASSERT_EQ(fifo.size(), model.size());
          if (!model.empty()) {
            const auto pick = rng.next_below(model.size());
            ASSERT_TRUE(fifo.contains(model[pick].first));
            ASSERT_EQ(fifo.at(model[pick].first), model[pick].second);
          }
          break;
        }
      }
    }
  }
}

/// Reference model of the logical stage FIFO: entries in push order per
/// lane; pop takes the smallest-seq lane head.
struct FifoModel {
  struct Entry {
    SeqNo seq;
    int state; // 0 phantom, 1 data, 2 cancelled
  };
  std::vector<std::deque<Entry>> lanes;
  std::size_t capacity;

  Entry* find(SeqNo seq) {
    for (auto& lane : lanes) {
      for (auto& e : lane) {
        if (e.seq == seq) return &e;
      }
    }
    return nullptr;
  }
};

TEST(StageFifoFuzz, MatchesSortedModel) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    Rng rng(seed);
    const std::uint32_t lanes = 3;
    const std::size_t capacity = rng.next_below(2) ? 0 : 5;
    StageFifo fifo(lanes, capacity, /*ideal=*/false);
    FifoModel model;
    model.lanes.resize(lanes);
    model.capacity = capacity;
    SeqNo next_seq = 0;
    std::vector<std::pair<SeqNo, FifoSlot>> live_phantoms;

    for (int op = 0; op < 20000; ++op) {
      switch (rng.next_below(5)) {
        case 0:
        case 1: { // push phantom
          const auto lane = static_cast<PipelineId>(rng.next_below(lanes));
          const auto slot = fifo.push_phantom(next_seq, 0, 0, lane);
          const bool model_ok =
              capacity == 0 || model.lanes[lane].size() < capacity;
          ASSERT_EQ(slot.has_value(), model_ok);
          if (slot) {
            ASSERT_EQ(slot->lane, lane);
            model.lanes[lane].push_back({next_seq, 0});
            live_phantoms.emplace_back(next_seq, *slot);
          }
          ++next_seq;
          break;
        }
        case 2: { // insert data for a random live phantom
          if (live_phantoms.empty()) break;
          const auto pick = rng.next_below(live_phantoms.size());
          const auto [seq, slot] = live_phantoms[pick];
          live_phantoms.erase(live_phantoms.begin() +
                              static_cast<std::ptrdiff_t>(pick));
          ASSERT_TRUE(
              fifo.insert_data(slot, seq, static_cast<PacketRef>(seq)));
          model.find(seq)->state = 1;
          break;
        }
        case 3: { // cancel a random live phantom
          if (live_phantoms.empty()) break;
          const auto pick = rng.next_below(live_phantoms.size());
          const auto [seq, slot] = live_phantoms[pick];
          live_phantoms.erase(live_phantoms.begin() +
                              static_cast<std::ptrdiff_t>(pick));
          ASSERT_TRUE(fifo.cancel(slot, seq));
          model.find(seq)->state = 2;
          break;
        }
        default: { // pop
          const auto result = fifo.pop();
          // Model: smallest-seq lane head.
          std::deque<FifoModel::Entry>* best = nullptr;
          for (auto& lane : model.lanes) {
            if (lane.empty()) continue;
            if (best == nullptr || lane.front().seq < best->front().seq) {
              best = &lane;
            }
          }
          using Kind = StageFifo::PopResult::Kind;
          if (best == nullptr) {
            ASSERT_EQ(result.kind, Kind::kIdle);
          } else if (best->front().state == 0) {
            ASSERT_EQ(result.kind, Kind::kBlocked);
          } else if (best->front().state == 2) {
            ASSERT_EQ(result.kind, Kind::kWasted);
            best->pop_front();
          } else {
            ASSERT_EQ(result.kind, Kind::kData);
            ASSERT_EQ(result.ref, static_cast<PacketRef>(best->front().seq));
            best->pop_front();
          }
          break;
        }
      }
      ASSERT_EQ(fifo.size(), [&] {
        std::size_t n = 0;
        for (const auto& lane : model.lanes) n += lane.size();
        return n;
      }());
    }
  }
}

TEST(ParserFuzz, MutatedProgramsNeverCrash) {
  int parsed = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    fuzz::ProgramGen gen(seed);
    std::string source = gen.generate();
    Rng rng(seed * 31);
    // Mutate: delete, duplicate, or swap random characters.
    const int mutations = static_cast<int>(rng.next_below(8));
    for (int m = 0; m < mutations && !source.empty(); ++m) {
      const auto pos = rng.next_below(source.size());
      switch (rng.next_below(3)) {
        case 0: source.erase(pos, 1); break;
        case 1: source.insert(pos, 1, source[pos]); break;
        default: {
          const auto pos2 = rng.next_below(source.size());
          std::swap(source[pos], source[pos2]);
          break;
        }
      }
    }
    try {
      (void)domino::compile(source);
      ++parsed;
    } catch (const Error&) {
      ++rejected; // ParseError / SemanticError / ResourceError are all fine
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Arithmetic, EdgeCasesAreTotalAndConsistent) {
  using ir::BinOp;
  EXPECT_EQ(ir::apply_bin(BinOp::kDiv, 5, 0), 0);
  EXPECT_EQ(ir::apply_bin(BinOp::kMod, 5, 0), 0);
  EXPECT_EQ(ir::apply_bin(BinOp::kShl, 1, 64), 1);   // shift masked to 0..63
  EXPECT_EQ(ir::apply_bin(BinOp::kShl, 1, 65), 2);
  EXPECT_EQ(ir::apply_bin(BinOp::kShr, -1, 1),
            static_cast<Value>(~0ull >> 1)); // logical shift
  // Wrap-around add/sub/mul are two's-complement, no UB.
  const Value big = std::numeric_limits<Value>::max();
  EXPECT_EQ(ir::apply_bin(BinOp::kAdd, big, 1),
            std::numeric_limits<Value>::min());
  EXPECT_EQ(ir::apply_un(ir::UnOp::kNeg, std::numeric_limits<Value>::min()),
            std::numeric_limits<Value>::min());
  EXPECT_EQ(ir::apply_bin(BinOp::kLAnd, 7, 0), 0);
  EXPECT_EQ(ir::apply_bin(BinOp::kLOr, 0, -3), 1);
}

} // namespace
} // namespace mp5
