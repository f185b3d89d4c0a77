#include "core/maint_stats.h"

#include "common/string_util.h"
#include "core/pool_arena.h"

namespace ltree {

void MaintStats::SetArenaTraffic(const PoolArenaStats& now,
                                 const PoolArenaStats& base) {
  nodes_allocated = now.fresh_allocs - base.fresh_allocs;
  nodes_reused = now.reused_allocs - base.reused_allocs;
  nodes_released = now.releases - base.releases;
  arena_chunks = now.chunks - base.chunks;
}

MaintStats& MaintStats::operator+=(const MaintStats& other) {
  // A new counter must be summed below; this fails to compile until it is.
  static_assert(sizeof(MaintStats) == 16 * sizeof(uint64_t));
  inserts += other.inserts;
  erases += other.erases;
  items_relabeled += other.items_relabeled;
  rebalances += other.rebalances;
  relabel_passes += other.relabel_passes;
  coalesced_regions += other.coalesced_regions;
  nodes_allocated += other.nodes_allocated;
  nodes_reused += other.nodes_reused;
  nodes_released += other.nodes_released;
  root_splits += other.root_splits;
  escalations += other.escalations;
  tombstones_purged += other.tombstones_purged;
  ancestor_updates += other.ancestor_updates;
  nodes_relabeled += other.nodes_relabeled;
  range_counts += other.range_counts;
  arena_chunks += other.arena_chunks;
  return *this;
}

std::string MaintStats::ToString() const {
  return StrFormat(
      "MaintStats{inserts=%llu erases=%llu relabeled=%llu "
      "rebalances=%llu relabel_passes=%llu coalesced_regions=%llu "
      "nodes_allocated=%llu nodes_reused=%llu "
      "nodes_released=%llu relabels/insert=%.3f}",
      static_cast<unsigned long long>(inserts),
      static_cast<unsigned long long>(erases),
      static_cast<unsigned long long>(items_relabeled),
      static_cast<unsigned long long>(rebalances),
      static_cast<unsigned long long>(relabel_passes),
      static_cast<unsigned long long>(coalesced_regions),
      static_cast<unsigned long long>(nodes_allocated),
      static_cast<unsigned long long>(nodes_reused),
      static_cast<unsigned long long>(nodes_released), RelabelsPerInsert());
}

}  // namespace ltree
