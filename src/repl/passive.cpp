#include "repl/passive.hpp"

#include "util/check.hpp"
#include "util/metrics.hpp"

namespace vrep::repl {

void setup_passive_replication(core::TransactionStore& store, rio::Arena& primary_arena,
                               rio::Arena& backup_arena, bool ship_everything) {
  VREP_CHECK(backup_arena.size() >= primary_arena.size());
  for (const core::StoreRegion& region : store.regions()) {
    if (!region.replicate_passive && !ship_everything) continue;
    static metrics::Counter& regions_replicated =
        metrics::counter("repl.passive.regions_replicated");
    regions_replicated.add(1);
    store.bus().replicate_region(primary_arena.data() + region.offset,
                                 backup_arena.data() + region.offset);
  }
}

std::unique_ptr<core::TransactionStore> passive_takeover(core::VersionKind kind,
                                                         const core::StoreConfig& config,
                                                         sim::MemBus& backup_bus,
                                                         rio::Arena& backup_arena) {
  static metrics::Counter& takeovers = metrics::counter("repl.passive.takeovers");
  takeovers.add(1);
  auto store = core::make_store(kind, backup_bus, backup_arena, config, /*format=*/false);
  store->takeover();
  return store;
}

}  // namespace vrep::repl
