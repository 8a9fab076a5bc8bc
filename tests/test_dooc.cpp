// Tests for the DOoC middleware: immutable data pool, tile prefetcher,
// LAF data migration, and filter/stream pipelines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>

#include "dooc/data_pool.hpp"
#include "dooc/filter_stream.hpp"
#include "dooc/laf.hpp"
#include "dooc/prefetcher.hpp"
#include "ooc/tile_store.hpp"

namespace nvmooc {
namespace {

// ---------- data pool --------------------------------------------------------

TEST(DataPool, WriteSealReadRoundTrip) {
  DataPool pool;
  const ArrayId id = pool.create(Bytes{64});
  const int value = 42;
  pool.write(id, Bytes{}, &value, Bytes{sizeof(value)});
  pool.seal(id);
  int back = 0;
  pool.read(id, Bytes{}, &back, Bytes{sizeof(back)});
  EXPECT_EQ(back, 42);
}

TEST(DataPool, ImmutableOnceSealed) {
  DataPool pool;
  const ArrayId id = pool.create(Bytes{16});
  pool.seal(id);
  const int value = 1;
  EXPECT_THROW(pool.write(id, Bytes{}, &value, Bytes{sizeof(value)}), std::logic_error);
}

TEST(DataPool, ReadBeforeSealRejected) {
  DataPool pool;
  const ArrayId id = pool.create(Bytes{16});
  int back = 0;
  EXPECT_THROW(pool.read(id, Bytes{}, &back, Bytes{sizeof(back)}), std::logic_error);
}

TEST(DataPool, BoundsChecked) {
  DataPool pool;
  const ArrayId id = pool.create(Bytes{8});
  const double v = 1.0;
  EXPECT_THROW(pool.write(id, Bytes{4}, &v, Bytes{sizeof(v)}), std::out_of_range);
  EXPECT_THROW(pool.read(999, Bytes{}, nullptr, Bytes{}), std::out_of_range);
}

TEST(DataPool, TracksNodeAndCount) {
  DataPool pool;
  const ArrayId a = pool.create(Bytes{8}, 3);
  const ArrayId b = pool.create(Bytes{8}, 5);
  EXPECT_NE(a, b);  // Each array gets its own id.
  EXPECT_EQ(pool.node_of(a), 3u);
  EXPECT_EQ(pool.node_of(b), 5u);
}

TEST(DataPool, ConcurrentReadersAfterSeal) {
  DataPool pool;
  const ArrayId id = pool.create(Bytes{sizeof(std::uint64_t) * 1024});
  std::vector<std::uint64_t> data(1024);
  std::iota(data.begin(), data.end(), 0);
  pool.write(id, Bytes{}, data.data(), Bytes{data.size() * sizeof(std::uint64_t)});
  pool.seal(id);

  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&pool, id, &errors] {
      std::uint64_t value = 0;
      for (int i = 0; i < 1024; ++i) {
        pool.read(id, Bytes{i * sizeof(value)}, &value, Bytes{sizeof(value)});
        if (value != static_cast<std::uint64_t>(i)) ++errors;
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(errors.load(), 0);
}

// ---------- prefetcher -------------------------------------------------------

std::vector<TilePrefetcher::TileRef> make_tiles(Bytes tile, std::size_t count) {
  std::vector<TilePrefetcher::TileRef> tiles;
  for (std::size_t i = 0; i < count; ++i) tiles.push_back({i * tile, tile});
  return tiles;
}

TEST(Prefetcher, DeliversCorrectBytes) {
  MemoryStorage storage(64 * KiB);
  for (std::size_t i = 0; i < 16; ++i) {
    std::vector<std::uint8_t> block((4 * KiB).value(), static_cast<std::uint8_t>(i));
    storage.write(i * 4 * KiB, block.data(), Bytes{block.size()});
  }
  TilePrefetcher prefetcher(storage, make_tiles(4 * KiB, 16), 4);
  for (std::size_t i = 0; i < 16; ++i) {
    const auto buffer = prefetcher.get(i);
    ASSERT_EQ(buffer->size(), (4 * KiB).value());
    EXPECT_EQ((*buffer)[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ((*buffer)[(4 * KiB).value() - 1], static_cast<std::uint8_t>(i));
  }
}

TEST(Prefetcher, AheadReadsBecomeHits) {
  MemoryStorage storage(MiB);
  TilePrefetcher prefetcher(storage, make_tiles(64 * KiB, 16), 8);
  // Give the worker a moment to run ahead, then consume with compute
  // gaps: most gets should be hits.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::size_t i = 0; i < 16; ++i) {
    prefetcher.get(i);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(prefetcher.stats().hits, prefetcher.stats().stalls);
}

TEST(Prefetcher, RestartSupportsNextSweep) {
  MemoryStorage storage(MiB);
  TilePrefetcher prefetcher(storage, make_tiles(64 * KiB, 8), 4);
  for (std::size_t i = 0; i < 8; ++i) prefetcher.get(i);
  prefetcher.restart();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(prefetcher.get(i)->size(), (64 * KiB).value());
  }
}

TEST(Prefetcher, OutOfOrderConsumptionRejected) {
  MemoryStorage storage(MiB);
  TilePrefetcher prefetcher(storage, make_tiles(64 * KiB, 8), 4);
  prefetcher.get(3);
  EXPECT_THROW(prefetcher.get(1), std::logic_error);
  EXPECT_THROW(prefetcher.get(99), std::out_of_range);
}

// ---------- LAF (linear algebra framework) -----------------------------------

TEST(Laf, MigrationRoundTripsThroughPool) {
  MemoryStorage storage(MiB);
  LafContext laf(storage);
  DataPool pool;

  // Pool array -> node storage (the pre-load directive).
  const ArrayId in = pool.create(64 * KiB, 2);
  std::vector<std::uint8_t> payload((64 * KiB).value());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131);
  }
  pool.write(in, Bytes{}, payload.data(), Bytes{payload.size()});
  pool.seal(in);
  laf.migrate_in(pool, in, Bytes{4096});

  // Node storage -> pool (publishing results).
  const ArrayId out = laf.migrate_out(pool, Bytes{4096}, 64 * KiB, 5);
  EXPECT_TRUE(pool.is_sealed(out));
  EXPECT_EQ(pool.node_of(out), 5u);
  std::vector<std::uint8_t> back((64 * KiB).value());
  pool.read(out, Bytes{}, back.data(), Bytes{back.size()});
  EXPECT_EQ(back, payload);
}

// ---------- filters & streams --------------------------------------------------

TEST(Stream, BoundedBlockingFifo) {
  Stream<int> stream(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(stream.push(i));
  EXPECT_EQ(stream.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto v = stream.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(Stream, CloseDrainsThenEnds) {
  Stream<int> stream(8);
  stream.push(1);
  stream.push(2);
  stream.close();
  EXPECT_FALSE(stream.push(3));  // Dropped after close.
  EXPECT_EQ(stream.pop().value(), 1);
  EXPECT_EQ(stream.pop().value(), 2);
  EXPECT_FALSE(stream.pop().has_value());
}

TEST(Pipeline, ProducerFilterConsumer) {
  Stream<int> raw(8);
  Stream<int> squared(8);
  std::vector<int> sink;

  Pipeline pipeline;
  pipeline.add_filter("produce", [&] {
    for (int i = 1; i <= 100; ++i) raw.push(i);
    raw.close();
  });
  pipeline.add_filter("square", [&] {
    while (auto v = raw.pop()) squared.push(*v * *v);
    squared.close();
  });
  pipeline.add_filter("consume", [&] {
    while (auto v = squared.pop()) sink.push_back(*v);
  });
  pipeline.run();

  ASSERT_EQ(sink.size(), 100u);
  EXPECT_EQ(sink[0], 1);
  EXPECT_EQ(sink[99], 10000);
}

TEST(Pipeline, FilterExceptionPropagates) {
  Pipeline pipeline;
  pipeline.add_filter("boom", [] { throw std::runtime_error("filter failed"); });
  EXPECT_THROW(pipeline.run(), std::runtime_error);
}

}  // namespace
}  // namespace nvmooc
