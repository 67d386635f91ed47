#include "bench.hpp"

namespace perfbench {

using weakset::Result;
using weakset::Task;
using weakset::VersionedValue;

Task<Result<std::vector<ObjectRef>>> TimingView::read_members() {
  const std::uint64_t span = tracer_.begin("read_members", "store.client",
                                           sim().now(), parent_, op_);
  Result<std::vector<ObjectRef>> members = co_await inner_.read_members();
  tracer_.end(span, sim().now());
  co_return members;
}

Task<Result<VersionedValue>> TimingView::fetch(ObjectRef ref) {
  const std::uint64_t span =
      tracer_.begin("fetch", "store.client", sim().now(), parent_, op_);
  Result<VersionedValue> value = co_await inner_.fetch(ref);
  tracer_.end(span, sim().now());
  co_return value;
}

Task<std::vector<Result<VersionedValue>>> TimingView::fetch_many(
    std::vector<ObjectRef> refs) {
  const std::uint64_t span =
      tracer_.begin("fetch_many", "store.client", sim().now(), parent_, op_);
  std::vector<Result<VersionedValue>> values =
      co_await inner_.fetch_many(std::move(refs));
  tracer_.end(span, sim().now());
  co_return values;
}

void fill_common_layers(RoundResult& result,
                        const weakset::obs::MetricsRegistry& reg,
                        double writes) {
  auto& layer = result.layer;
  // Layers a workload does not drive read 0; the workload overwrites these.
  layer["load.ops_offered"] = 0.0;
  layer["core.prefetch_hit_ratio"] = 0.0;
  layer["core.membership_reads_per_next"] = 0.0;
  layer["net.rpc_timeouts"] = static_cast<double>(reg.counter("rpc.timeouts"));
  layer["store.admission.wait_p99_ms"] =
      hist_ms(reg, "store.admission.wait", 0.99);
  layer["store.admission.queue_depth_max"] =
      hist_max(reg, "store.admission.queue_depth");
  layer["store.client.read_all_p50_ms"] =
      hist_ms(reg, "store.client.read_all_latency_ns", 0.50);
  layer["store.client.read_all_p99_ms"] =
      hist_ms(reg, "store.client.read_all_latency_ns", 0.99);
  const double delta_hits =
      static_cast<double>(reg.counter("store.client.delta_cache_hits"));
  const double delta_misses =
      static_cast<double>(reg.counter("store.client.delta_cache_misses"));
  layer["store.client.delta_hit_ratio"] =
      ratio(delta_hits, delta_hits + delta_misses);
  layer["store.client.objects_per_fetch_rpc"] =
      ratio(static_cast<double>(reg.counter("store.server.batch_objects")),
            static_cast<double>(reg.counter("store.server.batch_fetches")));
  const double reads =
      static_cast<double>(reg.counter("store.server.snapshot_reads") +
                          reg.counter("store.server.delta_reads"));
  layer["store.server.ship_cost_ms_per_read"] = ratio(
      static_cast<double>(reg.counter("store.server.ship_cost_ns")) / 1e6,
      reads);
  const double pull_rounds =
      static_cast<double>(reg.counter("store.replica.pull_rounds"));
  layer["store.server.pull_rounds"] = pull_rounds;
  layer["store.server.pull_ops_per_round"] = ratio(
      static_cast<double>(reg.counter("store.replica.pull_ops_applied")),
      pull_rounds);
  layer["wal.fsyncs_per_write"] =
      ratio(static_cast<double>(reg.counter("wal.fsyncs")), writes);
  layer["wal.commit_p99_ms"] = hist_ms(reg, "wal.commit", 0.99);
  layer["wal.append_bytes_per_write"] =
      ratio(hist_sum(reg, "wal.append_bytes"), writes);
  layer["wal.ops_replayed"] =
      static_cast<double>(reg.counter("wal.ops_replayed"));
  const double cache_hits =
      static_cast<double>(reg.counter("store.block.cache_hits"));
  const double cache_misses =
      static_cast<double>(reg.counter("store.block.cache_misses"));
  layer["block.cache_hit_ratio"] =
      ratio(cache_hits, cache_hits + cache_misses);
  layer["block.checkpoint_blocks_written"] =
      static_cast<double>(reg.counter("store.block.checkpoint_blocks_written"));
  layer["block.recovery_read_kb"] =
      static_cast<double>(reg.counter("store.block.recovery_read_bytes")) /
      1024.0;
  layer["crdt.ops_per_pull"] = ratio(
      static_cast<double>(reg.counter("store.orset.pull_ops_applied")),
      static_cast<double>(reg.counter("store.orset.pull_rounds")));
  layer["crdt.snapshot_joins"] =
      static_cast<double>(reg.counter("store.orset.snapshot_joins"));
  layer["placement.migration_kb"] =
      hist_sum(reg, "placement.migration_bytes") / 1024.0;
  layer["placement.catchup_rounds"] =
      static_cast<double>(reg.counter("placement.catchup_rounds"));
  layer["dynset.inflight_p50"] =
      histogram_quantile(reg.histogram("dynset.inflight"), 0.5);
}

}  // namespace perfbench
