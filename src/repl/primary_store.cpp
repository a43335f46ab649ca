#include "repl/primary_store.hpp"

namespace vrep::repl {

PrimaryStore::PrimaryStore(sim::MemBus& bus, rio::Arena& arena, const core::StoreConfig& config,
                           bool format, cluster::Membership* membership, Lineage lineage,
                           std::size_t redo_history_bytes)
    : bus_(&bus),
      local_(std::make_unique<core::InlineLogStore>(bus, arena, config, format)),
      pipeline_(static_cast<RedoPipeline::Source&>(*this), /*link=*/nullptr, membership, lineage,
                redo_history_bytes) {
  bus.set_capture(local_->db(), local_->db_size(), this);
}

void PrimaryStore::on_captured_store(std::uint64_t off, const void* src, std::size_t len) {
  pipeline_.stage(off, src, len);
}

void PrimaryStore::begin_transaction() {
  pipeline_.begin();
  local_->begin_transaction();
}

void PrimaryStore::set_range(void* base, std::size_t len) { local_->set_range(base, len); }

void PrimaryStore::abort_transaction() {
  local_->abort_transaction();
  pipeline_.discard();
}

void PrimaryStore::commit_transaction() {
  local_->commit_transaction();
  // Asynchronous group commit: with the default window (W=1) and group size
  // (G=1) this ships and waits like a blocking commit; wider settings return
  // once the in-flight window has room (wait()/sync() give back the blocking
  // semantics per ticket).
  pipeline_.commit_async(local_->committed_seq());
}

int PrimaryStore::recover() {
  pipeline_.discard();
  return local_->recover();
}

}  // namespace vrep::repl
