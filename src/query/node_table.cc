#include "query/node_table.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/simd_search.h"

namespace ltree {
namespace query {

void NodeTable::Add(NodeRow row) {
  LTREE_CHECK(!finalized_);
  rows_.push_back(Slot{std::move(row), true});
  ++live_count_;
}

Status NodeTable::IndexRow(size_t slot_index) {
  const NodeRow& row = rows_[slot_index].row;
  if (row.region.start >= row.region.end) {
    return Status::InvalidArgument(
        StrFormat("malformed region for node %llu",
                  static_cast<unsigned long long>(row.id)));
  }
  if (!by_id_.emplace(row.id, slot_index).second) {
    return Status::AlreadyExists(
        StrFormat("duplicate node id %llu",
                  static_cast<unsigned long long>(row.id)));
  }
  if (!row.is_text) {
    auto& bucket = by_tag_[row.tag];
    // Insert keeping the bucket sorted by start label.
    const uint32_t pos = search::LowerBoundBy(
        bucket.data(), static_cast<uint32_t>(bucket.size()),
        row.region.start,
        [this](size_t a) { return rows_[a].row.region.start; });
    bucket.insert(bucket.begin() + pos, slot_index);
  }
  if (row.parent_id != 0) {
    by_parent_[row.parent_id].push_back(slot_index);
  }
  return Status::OK();
}

Status NodeTable::Finalize() {
  if (finalized_) return Status::FailedPrecondition("already finalized");
  // Sort rows by start once so tag-bucket construction is linear-ish.
  std::sort(rows_.begin(), rows_.end(), [](const Slot& a, const Slot& b) {
    return a.row.region.start < b.row.region.start;
  });
  for (size_t i = 0; i < rows_.size(); ++i) {
    LTREE_RETURN_IF_ERROR(IndexRow(i));
  }
  finalized_ = true;
  return Status::OK();
}

Status NodeTable::UpdateStart(xml::NodeId id, Label start) {
  auto it = by_id_.find(id);
  if (it == by_id_.end() || !rows_[it->second].live) {
    return Status::NotFound("unknown node id");
  }
  rows_[it->second].row.region.start = start;
  return Status::OK();
}

Status NodeTable::UpdateEnd(xml::NodeId id, Label end) {
  auto it = by_id_.find(id);
  if (it == by_id_.end() || !rows_[it->second].live) {
    return Status::NotFound("unknown node id");
  }
  rows_[it->second].row.region.end = end;
  return Status::OK();
}

Status NodeTable::Insert(NodeRow row) {
  if (!finalized_) {
    Add(std::move(row));
    return Status::OK();
  }
  rows_.push_back(Slot{std::move(row), true});
  Status st = IndexRow(rows_.size() - 1);
  if (!st.ok()) {
    rows_.pop_back();
    return st;
  }
  ++live_count_;
  return Status::OK();
}

Status NodeTable::Erase(xml::NodeId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end() || !rows_[it->second].live) {
    return Status::NotFound("unknown node id");
  }
  const size_t slot = it->second;
  NodeRow& row = rows_[slot].row;
  rows_[slot].live = false;
  by_id_.erase(it);
  if (!row.is_text) {
    auto& bucket = by_tag_[row.tag];
    bucket.erase(std::remove(bucket.begin(), bucket.end(), slot),
                 bucket.end());
  }
  if (row.parent_id != 0) {
    auto pit = by_parent_.find(row.parent_id);
    if (pit != by_parent_.end()) {
      pit->second.erase(
          std::remove(pit->second.begin(), pit->second.end(), slot),
          pit->second.end());
    }
  }
  --live_count_;
  return Status::OK();
}

Result<const NodeRow*> NodeTable::Find(xml::NodeId id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end() || !rows_[it->second].live) {
    return Status::NotFound("unknown node id");
  }
  return &rows_[it->second].row;
}

std::vector<const NodeRow*> NodeTable::ByTag(const std::string& tag) const {
  std::vector<const NodeRow*> out;
  auto it = by_tag_.find(tag);
  if (it == by_tag_.end()) return out;
  out.reserve(it->second.size());
  for (size_t slot : it->second) {
    if (rows_[slot].live) out.push_back(&rows_[slot].row);
  }
  return out;
}

std::vector<const NodeRow*> NodeTable::AllElements() const {
  std::vector<const NodeRow*> out;
  for (const Slot& slot : rows_) {
    if (slot.live && !slot.row.is_text) out.push_back(&slot.row);
  }
  std::sort(out.begin(), out.end(), [](const NodeRow* a, const NodeRow* b) {
    return a->region.start < b->region.start;
  });
  return out;
}

std::vector<const NodeRow*> NodeTable::ChildrenOf(xml::NodeId parent) const {
  std::vector<const NodeRow*> out;
  auto it = by_parent_.find(parent);
  if (it == by_parent_.end()) return out;
  for (size_t slot : it->second) {
    if (rows_[slot].live) out.push_back(&rows_[slot].row);
  }
  return out;
}

audit::Report NodeTable::Validate() const {
  audit::Report report;
  for (const auto& [tag, bucket] : by_tag_) {
    Label prev = 0;
    bool first = true;
    for (size_t slot : bucket) {
      if (!rows_[slot].live) continue;
      const NodeRow& row = rows_[slot].row;
      auto path = [&] {
        return "table:/" + tag + "/" + std::to_string(row.id);
      };
      if (row.region.start >= row.region.end) {
        report.Add(path(), "region-shape",
                   StrFormat("region [%llu, %llu] has start >= end",
                             static_cast<unsigned long long>(row.region.start),
                             static_cast<unsigned long long>(row.region.end)));
      }
      if (!first && row.region.start <= prev) {
        report.Add(path(), "tag-bucket-order",
                   StrFormat("start label %llu not above predecessor %llu",
                             static_cast<unsigned long long>(row.region.start),
                             static_cast<unsigned long long>(prev)));
      }
      prev = row.region.start;
      first = false;
    }
  }
  return report;
}

}  // namespace query
}  // namespace ltree
