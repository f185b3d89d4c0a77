#include "virtual_ltree/virtual_ltree.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "core/simd_search.h"

namespace ltree {

MaintStats VirtualLTree::stats() const {
  MaintStats out = stats_;
  out.SetArenaTraffic(btree_.arena_stats(), arena_base_);
  return out;
}

void VirtualLTree::ResetStats() {
  stats_ = MaintStats();
  arena_base_ = btree_.arena_stats();
}

VirtualLTree::VirtualLTree(const Params& params, PowerTable powers)
    : params_(params), powers_(std::move(powers)) {}

Result<std::unique_ptr<VirtualLTree>> VirtualLTree::Create(
    const Params& params) {
  LTREE_ASSIGN_OR_RETURN(PowerTable powers, PowerTable::Make(params));
  return std::unique_ptr<VirtualLTree>(
      new VirtualLTree(params, std::move(powers)));
}

Label VirtualLTree::TruncTo(Label x, uint32_t h) const {
  return x - x % powers_.PowF1(h);
}

uint64_t VirtualLTree::DigitAt(Label x, uint32_t h) const {
  return (x / powers_.PowF1(h)) % (params_.f + 1);
}

// --------------------------------------------------------------------------
// Label assignment (mirror of LTree::BuildOverLeaves + Relabel)
// --------------------------------------------------------------------------

void VirtualLTree::AssignOver(uint64_t count, uint32_t height, Label base,
                              std::vector<Label>* out) const {
  if (height == 0) {
    LTREE_CHECK(count == 1);
    out->push_back(base);
    return;
  }
  const uint64_t seg_cap = powers_.PowD(height - 1);
  const uint64_t m = CeilDiv(count, seg_cap);
  const uint64_t seg_base = count / m;
  const uint64_t rem = count % m;
  for (uint64_t i = 0; i < m; ++i) {
    const uint64_t len = seg_base + (i < rem ? 1 : 0);
    AssignOver(len, height - 1, base + i * powers_.PowF1(height - 1), out);
  }
}

// --------------------------------------------------------------------------
// Loading
// --------------------------------------------------------------------------

Status VirtualLTree::BulkLoad(std::span<const LeafCookie> cookies,
                              std::vector<Label>* labels) {
  if (btree_.size() != 0) {
    return Status::FailedPrecondition(
        "BulkLoad requires an empty virtual L-Tree");
  }
  const uint64_t n = cookies.size();
  if (n == 0) return Status::OK();
  const uint32_t h0 = std::max(1u, CeilLog(params_.d(), n));
  if (h0 > powers_.max_height()) {
    return Status::CapacityExceeded("bulk load exceeds 64-bit label space");
  }
  std::vector<Label> assigned;
  assigned.reserve(n);
  AssignOver(n, h0, 0, &assigned);
  std::vector<obtree::Entry> entries;
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    entries.push_back({assigned[i], PackValue(cookies[i], false)});
  }
  LTREE_RETURN_IF_ERROR(btree_.BulkBuild(entries));
  height_ = h0;
  live_leaves_ = n;
  if (labels != nullptr) {
    labels->insert(labels->end(), assigned.begin(), assigned.end());
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Maintenance
// --------------------------------------------------------------------------

Status VirtualLTree::EnsureCapacityFor(uint64_t k) const {
  auto l_new_opt = CheckedAdd(btree_.size(), k);
  if (!l_new_opt) {
    return Status::CapacityExceeded("slot count would overflow uint64");
  }
  const uint64_t l_new = *l_new_opt;
  for (uint32_t h = height_; h <= powers_.max_height(); ++h) {
    if (l_new < powers_.LeafBudget(h) &&
        CeilDiv(l_new, powers_.PowD(h - 1)) <= params_.f) {
      return Status::OK();
    }
  }
  return Status::CapacityExceeded("insertion exceeds 64-bit label space");
}

uint64_t VirtualLTree::MaybePurge(std::vector<obtree::Entry>* entries,
                                  std::span<const Label> fresh) {
  (void)fresh;
  if (!params_.purge_tombstones_on_split) return 0;
  uint64_t live = 0;
  for (const auto& e : *entries) {
    if (e.key == kInvalidLabel || !UnpackDeleted(e.value)) ++live;
  }
  if (live == entries->size()) return 0;
  std::vector<obtree::Entry> kept;
  kept.reserve(std::max<uint64_t>(live, 1));
  if (live == 0) {
    kept.push_back(entries->front());
  } else {
    for (const auto& e : *entries) {
      if (e.key == kInvalidLabel || !UnpackDeleted(e.value)) {
        kept.push_back(e);
      }
    }
  }
  const uint64_t purged = entries->size() - kept.size();
  stats_.tombstones_purged += purged;
  *entries = std::move(kept);
  return purged;
}

Status VirtualLTree::RebuildWithPending(uint32_t vh, Label anchor,
                                        Label insert_before_key,
                                        std::span<const obtree::Entry> pending,
                                        std::vector<Label>* fresh_labels) {
  const uint64_t k = pending.size();

  // ---- plan: coalesce the escalation chain without touching the tree ----
  //
  // Mirrors LTree::PlanInsertAt decision-for-decision: walk up from the
  // violator while replacing the interval by m pieces would overflow the
  // parent interval's fanout, projecting the post-insert (and post-purge)
  // occupancy per level with counting-tree probes instead of building the
  // whole candidate region once per level.
  uint32_t h = vh;
  uint32_t levels_coalesced = 0;
  uint64_t region_leaves = 0;
  uint64_t region_pieces = 0;
  bool rebuild_root = false;
  for (;;) {
    if (h >= height_) {
      rebuild_root = true;
      break;
    }
    const Label v_base = TruncTo(anchor, h);
    const uint64_t interval = powers_.PowF1(h);
    uint64_t l = k;
    if (params_.purge_tombstones_on_split) {
      // The purge projection needs the tombstone count, which only a scan
      // of the interval can see (the counting tree counts slots).
      for (const auto& e : btree_.Scan(v_base, v_base + interval)) {
        if (!UnpackDeleted(e.value)) ++l;
      }
    } else {
      l += btree_.RangeCount(v_base, v_base + interval);
      ++stats_.range_counts;
    }
    const uint64_t m = CeilDiv(l, powers_.PowD(h));
    const Label q_base = TruncTo(anchor, h + 1);
    const uint64_t q_interval = powers_.PowF1(h + 1);
    // Children of the parent interval after replacing v by m pieces.
    auto last_in_q = btree_.Predecessor(
        q_base > std::numeric_limits<Label>::max() - q_interval
            ? std::numeric_limits<Label>::max()
            : q_base + q_interval);
    LTREE_CHECK(last_in_q.ok());
    const uint64_t c_before = DigitAt(last_in_q->key, h) + 1;
    if (c_before - 1 + m <= static_cast<uint64_t>(params_.f) + 1) {
      region_leaves = l;
      region_pieces = m;
      break;
    }
    // Fanout overflow: fold this level into the region, exactly like the
    // materialized planner (only reachable through batch insertions).
    ++levels_coalesced;
    h += 1;
  }
  stats_.escalations += levels_coalesced;
  if (levels_coalesced > 0) ++stats_.coalesced_regions;

  // ---- apply: build and write back the coalesced region exactly once ----

  if (rebuild_root) {
    // Root split (Algorithm 1 lines 18-20): collect everything, grow the
    // height, reassign all labels from 0.
    std::vector<obtree::Entry> all = btree_.ScanAll();
    const size_t r = search::LowerBoundBy(
        all.data(), static_cast<uint32_t>(all.size()), insert_before_key,
        [](const obtree::Entry& e) { return e.key; });
    std::vector<obtree::Entry> combined;
    combined.reserve(all.size() + pending.size());
    combined.insert(combined.end(), all.begin(), all.begin() + r);
    for (const auto& p : pending) {
      combined.push_back({kInvalidLabel, p.value});
    }
    combined.insert(combined.end(), all.begin() + r, all.end());
    MaybePurge(&combined, {});

    const uint64_t l = combined.size();
    uint32_t new_height = 0;
    for (uint32_t hh = height_; hh <= powers_.max_height(); ++hh) {
      if (l < powers_.LeafBudget(hh) &&
          CeilDiv(l, powers_.PowD(hh - 1)) <= params_.f) {
        new_height = hh;
        break;
      }
    }
    LTREE_CHECK(new_height >= 1);  // guaranteed by EnsureCapacityFor

    std::vector<Label> assigned;
    assigned.reserve(l);
    AssignOver(l, new_height, 0, &assigned);
    std::vector<obtree::Entry> rebuilt;
    rebuilt.reserve(l);
    for (uint64_t i = 0; i < l; ++i) {
      const obtree::Entry& old = combined[i];
      rebuilt.push_back({assigned[i], old.value});
      if (old.key == kInvalidLabel) {
        if (fresh_labels != nullptr) fresh_labels->push_back(assigned[i]);
      } else if (old.key != assigned[i]) {
        ++stats_.items_relabeled;
        if (listener_ != nullptr && !UnpackDeleted(old.value)) {
          listener_->OnRelabel(UnpackCookie(old.value), old.key,
                               assigned[i]);
        }
      }
    }
    // The root split is a whole-tree range replacement; ReplaceRange
    // recognizes it and rebuilds through the node pool in one pass.
    LTREE_RETURN_IF_ERROR(btree_.ReplaceRange(
        0, std::numeric_limits<Label>::max(), rebuilt));
    height_ = new_height;
    ++stats_.rebalances;
    ++stats_.root_splits;
    ++stats_.relabel_passes;
    return Status::OK();
  }

  const Label v_base = TruncTo(anchor, h);
  const uint64_t interval = powers_.PowF1(h);
  const Label q_base = TruncTo(anchor, h + 1);
  const uint64_t q_interval = powers_.PowF1(h + 1);

  std::vector<obtree::Entry> olds = btree_.Scan(v_base, v_base + interval);
  const size_t r = search::LowerBoundBy(
      olds.data(), static_cast<uint32_t>(olds.size()), insert_before_key,
      [](const obtree::Entry& e) { return e.key; });
  std::vector<obtree::Entry> combined;
  combined.reserve(olds.size() + pending.size());
  combined.insert(combined.end(), olds.begin(), olds.begin() + r);
  for (const auto& p : pending) {
    combined.push_back({kInvalidLabel, p.value});
  }
  combined.insert(combined.end(), olds.begin() + r, olds.end());
  MaybePurge(&combined, {});

  const uint64_t l = combined.size();
  LTREE_CHECK(l == region_leaves);  // the plan's projection was exact
  const uint64_t m = region_pieces;
  const uint64_t jv = DigitAt(v_base, h);

  // New labels: m pieces based at child indices jv .. jv+m-1 of q_base,
  // then v's right siblings shifted up by (m-1) child slots.
  std::vector<Label> assigned;
  assigned.reserve(l);
  {
    const uint64_t seg_base = l / m;
    const uint64_t rem = l % m;
    for (uint64_t i = 0; i < m; ++i) {
      const uint64_t len = seg_base + (i < rem ? 1 : 0);
      AssignOver(len, h, q_base + (jv + i) * interval, &assigned);
    }
  }
  std::vector<obtree::Entry> rebuilt;
  rebuilt.reserve(l);
  for (uint64_t i = 0; i < l; ++i) {
    const obtree::Entry& old = combined[i];
    rebuilt.push_back({assigned[i], old.value});
    if (old.key == kInvalidLabel) {
      if (fresh_labels != nullptr) fresh_labels->push_back(assigned[i]);
    } else if (old.key != assigned[i]) {
      ++stats_.items_relabeled;
      if (listener_ != nullptr && !UnpackDeleted(old.value)) {
        listener_->OnRelabel(UnpackCookie(old.value), old.key, assigned[i]);
      }
    }
  }
  // Right siblings of v within the parent interval shift wholesale.
  std::vector<obtree::Entry> sibs =
      btree_.Scan(v_base + interval, q_base + q_interval);
  const uint64_t shift = (m - 1) * interval;
  for (const auto& sib : sibs) {
    rebuilt.push_back({sib.key + shift, sib.value});
    if (shift != 0) {
      ++stats_.items_relabeled;
      if (listener_ != nullptr && !UnpackDeleted(sib.value)) {
        listener_->OnRelabel(UnpackCookie(sib.value), sib.key,
                             sib.key + shift);
      }
    }
  }
  LTREE_RETURN_IF_ERROR(
      btree_.ReplaceRange(v_base, q_base + q_interval, rebuilt));
  ++stats_.rebalances;
  ++stats_.relabel_passes;
  return Status::OK();
}

Status VirtualLTree::InsertCore(Label parent_base, uint64_t j,
                                std::span<const LeafCookie> cookies,
                                std::vector<Label>* labels) {
  const uint64_t k = cookies.size();
  if (k == 0) return Status::OK();
  LTREE_RETURN_IF_ERROR(EnsureCapacityFor(k));

  // Algorithm 1 walk: find the highest virtual ancestor whose post-insert
  // leaf count reaches its budget.
  uint32_t violator_height = 0;
  bool has_violator = false;
  for (uint32_t h = 1; h <= height_; ++h) {
    const Label base = TruncTo(parent_base, h);
    const uint64_t count =
        btree_.RangeCount(base, base + powers_.PowF1(h)) + k;
    ++stats_.range_counts;
    if (count >= powers_.LeafBudget(h)) {
      violator_height = h;
      has_violator = true;
    }
  }

  std::vector<Label> fresh;
  fresh.reserve(k);
  if (!has_violator) {
    // No split: new leaves take digits j..j+k-1; old children at digits >= j
    // shift right by k (Algorithm 1 lines 12-13).
    const Label slot_end = parent_base + powers_.PowF1(1);
    std::vector<obtree::Entry> olds =
        btree_.Scan(parent_base + j, slot_end);
    std::vector<obtree::Entry> rebuilt;
    rebuilt.reserve(olds.size() + k);
    for (uint64_t i = 0; i < k; ++i) {
      const Label lab = parent_base + j + i;
      rebuilt.push_back({lab, PackValue(cookies[i], false)});
      fresh.push_back(lab);
    }
    for (const auto& old : olds) {
      const Label shifted = old.key + k;
      LTREE_CHECK(shifted < slot_end);
      rebuilt.push_back({shifted, old.value});
      ++stats_.items_relabeled;
      if (listener_ != nullptr && !UnpackDeleted(old.value)) {
        listener_->OnRelabel(UnpackCookie(old.value), old.key, shifted);
      }
    }
    LTREE_RETURN_IF_ERROR(
        btree_.ReplaceRange(parent_base + j, slot_end, rebuilt));
    ++stats_.relabel_passes;  // the no-split sibling shift is one pass
  } else {
    std::vector<obtree::Entry> pending;
    pending.reserve(k);
    for (uint64_t i = 0; i < k; ++i) {
      pending.push_back({kInvalidLabel, PackValue(cookies[i], false)});
    }
    LTREE_RETURN_IF_ERROR(RebuildWithPending(
        violator_height, parent_base, parent_base + j, pending, &fresh));
  }

  live_leaves_ += k;
  stats_.inserts += k;
  if (labels != nullptr) {
    labels->insert(labels->end(), fresh.begin(), fresh.end());
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Public update entry points
// --------------------------------------------------------------------------

// The single-leaf forms are the k = 1 batches.

Result<Label> VirtualLTree::InsertAfter(Label prev, LeafCookie cookie) {
  std::vector<Label> out;
  LTREE_RETURN_IF_ERROR(InsertBatchAfter(prev, {&cookie, 1}, &out));
  return out[0];
}

Result<Label> VirtualLTree::InsertBefore(Label next, LeafCookie cookie) {
  std::vector<Label> out;
  LTREE_RETURN_IF_ERROR(InsertBatchBefore(next, {&cookie, 1}, &out));
  return out[0];
}

Result<Label> VirtualLTree::PushBack(LeafCookie cookie) {
  std::vector<Label> out;
  LTREE_RETURN_IF_ERROR(PushBackBatch({&cookie, 1}, &out));
  return out[0];
}

Status VirtualLTree::InsertBatchAfter(Label prev,
                                      std::span<const LeafCookie> cookies,
                                      std::vector<Label>* labels) {
  if (!btree_.Contains(prev)) {
    return Status::NotFound("no leaf with the given label");
  }
  return InsertCore(TruncTo(prev, 1), DigitAt(prev, 0) + 1, cookies, labels);
}

Status VirtualLTree::InsertBatchBefore(Label next,
                                       std::span<const LeafCookie> cookies,
                                       std::vector<Label>* labels) {
  if (!btree_.Contains(next)) {
    return Status::NotFound("no leaf with the given label");
  }
  return InsertCore(TruncTo(next, 1), DigitAt(next, 0), cookies, labels);
}

Status VirtualLTree::PushBackBatch(std::span<const LeafCookie> cookies,
                                   std::vector<Label>* labels) {
  if (btree_.size() == 0) {
    return InsertCore(0, 0, cookies, labels);
  }
  auto last = btree_.Predecessor(std::numeric_limits<Label>::max());
  LTREE_CHECK(last.ok());
  return InsertBatchAfter(last->key, cookies, labels);
}

Status VirtualLTree::MarkDeleted(Label label) {
  LTREE_ASSIGN_OR_RETURN(uint64_t value, btree_.Lookup(label));
  if (UnpackDeleted(value)) {
    return Status::FailedPrecondition("leaf already deleted");
  }
  LTREE_RETURN_IF_ERROR(
      btree_.Update(label, PackValue(UnpackCookie(value), true)));
  --live_leaves_;
  ++stats_.erases;
  return Status::OK();
}

// --------------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------------

Result<LeafCookie> VirtualLTree::GetCookie(Label label) const {
  LTREE_ASSIGN_OR_RETURN(uint64_t value, btree_.Lookup(label));
  return UnpackCookie(value);
}

Result<bool> VirtualLTree::IsDeleted(Label label) const {
  LTREE_ASSIGN_OR_RETURN(uint64_t value, btree_.Lookup(label));
  return UnpackDeleted(value);
}

Result<Label> VirtualLTree::SelectSlot(uint64_t rank) const {
  LTREE_ASSIGN_OR_RETURN(obtree::Entry e, btree_.Select(rank));
  return e.key;
}

uint64_t VirtualLTree::num_slots() const { return btree_.size(); }

uint64_t VirtualLTree::label_space() const { return powers_.PowF1(height_); }

uint32_t VirtualLTree::label_bits() const {
  return BitWidth(label_space() - 1);
}

std::vector<Label> VirtualLTree::AllLabels() const {
  std::vector<Label> out;
  out.reserve(btree_.size());
  for (const auto& e : btree_.ScanAll()) out.push_back(e.key);
  return out;
}

std::vector<Label> VirtualLTree::LiveLabels() const {
  std::vector<Label> out;
  for (const auto& e : btree_.ScanAll()) {
    if (!UnpackDeleted(e.value)) out.push_back(e.key);
  }
  return out;
}

uint64_t VirtualLTree::ApproxMemoryBytes() const {
  // Measured, not estimated, now that the B+-tree's nodes live in pool
  // chunks: chunk slots plus every reachable node's buffer capacities.
  return btree_.ApproxHeapBytes();
}

// --------------------------------------------------------------------------
// Invariants
// --------------------------------------------------------------------------

audit::Report VirtualLTree::Validate() const {
  audit::Report report = btree_.Validate();
  // One pass over the slots in label order checks every rule. Per height it
  // keeps the open virtual node: its interval base, slot count and last
  // occupied child digit — O(n * H), no range-count probes.
  struct OpenNode {
    Label base = 0;
    /// Slots seen in the node; 0 while no node is open at this height.
    uint64_t count = 0;
    /// Last occupied child digit; starts at ~0 so that +1 wraps to 0.
    uint64_t last_digit = ~uint64_t{0};
    bool gap_seen = false;
  };
  std::vector<OpenNode> open(height_ + 1);
  const auto node_path = [](uint32_t h, Label base) {
    return StrFormat("virtual:/h%u@%llu", h,
                     static_cast<unsigned long long>(base));
  };
  const auto close = [&](uint32_t h) {
    const OpenNode& node = open[h];
    if (node.count >= powers_.LeafBudget(h)) {
      report.Add(node_path(h, node.base), "leaf-budget",
                 StrFormat("virtual node holds %llu >= budget %llu",
                           static_cast<unsigned long long>(node.count),
                           static_cast<unsigned long long>(
                               powers_.LeafBudget(h))));
    }
  };
  const Label space = label_space();
  uint64_t live = 0;
  Label last_key = 0;
  for (const obtree::Entry& e : btree_.ScanAll()) {
    if (!UnpackDeleted(e.value)) ++live;
    last_key = e.key;
    if (e.key >= space) continue;  // reported once below
    for (uint32_t h = height_; h >= 1; --h) {
      OpenNode& node = open[h];
      const Label base = TruncTo(e.key, h);
      if (node.count == 0 || node.base != base) {
        if (node.count != 0) close(h);
        node = OpenNode{.base = base};
      }
      ++node.count;
      // Occupied child digits must form a consecutive prefix 0..c-1.
      const uint64_t digit = DigitAt(e.key, h - 1);
      if (digit == node.last_digit) continue;
      if (digit != node.last_digit + 1) node.gap_seen = true;
      if (node.gap_seen) {
        report.Add(node_path(h, base), "child-gap",
                   StrFormat("occupied child digit %llu follows an empty one",
                             static_cast<unsigned long long>(digit)));
      }
      node.last_digit = digit;
    }
  }
  for (uint32_t h = 1; h <= height_; ++h) {
    if (open[h].count != 0) close(h);
  }
  // Tombstone accounting: live counter vs. the actual non-deleted entries.
  if (live != live_leaves_) {
    report.Add("virtual:/", "live-count",
               StrFormat("num_live_leaves() %llu != actual live slots %llu",
                         static_cast<unsigned long long>(live_leaves_),
                         static_cast<unsigned long long>(live)));
  }
  // Every label fits the current label space.
  if (btree_.size() != 0 && last_key >= space) {
    report.Add("virtual:/", "label-space",
               StrFormat("label %llu outside the current label space %llu",
                         static_cast<unsigned long long>(last_key),
                         static_cast<unsigned long long>(space)));
  }
  return report;
}

}  // namespace ltree
