// Google-benchmark microbenchmarks of the hot primitives, on *wall-clock*
// time (unlike the table benches, which run on the virtual clock). Useful
// for regression-tracking the implementation itself.
#include <benchmark/benchmark.h>

#include <cstring>

#include "core/api.hpp"
#include "rio/arena.hpp"
#include "rio/heap.hpp"
#include "sim/mem_bus.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace vrep;

void BM_TxnCommit(benchmark::State& state, core::VersionKind kind) {
  core::StoreConfig config;
  config.db_size = 4ull << 20;
  sim::MemBus bus;
  rio::Arena arena = rio::Arena::create(core::required_arena_size(kind, config));
  auto store = core::make_store(kind, bus, arena, config, true);
  Rng rng(1);
  std::uint8_t* db = store->db();
  for (auto _ : state) {
    store->begin_transaction();
    for (int r = 0; r < 4; ++r) {
      const std::size_t off = rng.below(config.db_size - 64);
      store->set_range(db + off, 16);
      const std::uint32_t v = rng.next_u32();
      bus.write(db + off, &v, 4, sim::TrafficClass::kModified);
    }
    store->commit_transaction();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TxnCommit, v0_vista, core::VersionKind::kV0Vista);
BENCHMARK_CAPTURE(BM_TxnCommit, v1_mirror_copy, core::VersionKind::kV1MirrorCopy);
BENCHMARK_CAPTURE(BM_TxnCommit, v2_mirror_diff, core::VersionKind::kV2MirrorDiff);
BENCHMARK_CAPTURE(BM_TxnCommit, v3_inline_log, core::VersionKind::kV3InlineLog);

void BM_TxnAbort(benchmark::State& state) {
  core::StoreConfig config;
  config.db_size = 1ull << 20;
  sim::MemBus bus;
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  auto store = core::make_store(core::VersionKind::kV3InlineLog, bus, arena, config, true);
  Rng rng(1);
  std::uint8_t* db = store->db();
  for (auto _ : state) {
    store->begin_transaction();
    const std::size_t off = rng.below(config.db_size - 64);
    store->set_range(db + off, 32);
    const std::uint64_t v = rng.next_u64();
    bus.write(db + off, &v, 8, sim::TrafficClass::kModified);
    store->abort_transaction();
  }
}
BENCHMARK(BM_TxnAbort);

void BM_HeapAllocFree(benchmark::State& state) {
  sim::MemBus bus;
  rio::Arena arena = rio::Arena::create(4ull << 20);
  rio::PersistentHeap heap(&bus, arena.data(), arena.size(), true);
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const std::uint64_t off = heap.alloc(size);
    benchmark::DoNotOptimize(off);
    heap.free(off);
  }
}
BENCHMARK(BM_HeapAllocFree)->Arg(32)->Arg(256)->Arg(2048);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32::of(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096);

void BM_DiffCopy(benchmark::State& state) {
  sim::MemBus bus;
  std::vector<std::uint8_t> a(4096, 0), b(4096, 0);
  Rng rng(2);
  for (int i = 0; i < 64; ++i) b[rng.below(b.size())] = 0xFF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bus.diff_copy(a.data(), b.data(), b.size(), sim::TrafficClass::kUndo));
    std::memset(a.data(), 0, a.size());
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DiffCopy);

// One counter bump with the instrument looked up by name each time (a
// std::string built from a name past the 15-byte small-string buffer, the
// registry's process-wide mutex, a map walk) against the same bump through a
// handle resolved once. At 4 threads the by-name lookups queue on that one
// mutex; the handle case then only shares the counter's cache line.
void BM_MetricsCounterByName(benchmark::State& state) {
  for (auto _ : state) metrics::counter("bench.micro_ops.by_name").add(1);
}
BENCHMARK(BM_MetricsCounterByName)->Threads(1)->Threads(4);

void BM_MetricsCounterHandle(benchmark::State& state) {
  static metrics::Counter& c = metrics::counter("bench.micro_ops.handle");
  for (auto _ : state) c.add(1);
}
BENCHMARK(BM_MetricsCounterHandle)->Threads(1)->Threads(4);

}  // namespace

BENCHMARK_MAIN();
