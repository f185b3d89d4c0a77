#include "listlab/bender_list.h"

#include <algorithm>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace ltree {
namespace listlab {

namespace {
constexpr uint32_t kMaxBits = 62;

/// floor(i * width / count) without 64-bit overflow.
inline uint64_t Spread(uint64_t i, uint64_t width, uint64_t count) {
  return static_cast<uint64_t>(static_cast<__uint128_t>(i) * width / count);
}
}  // namespace

BenderList::BenderList(Options options)
    : options_(options), bits_(std::max(options.initial_bits, 4u)) {
  LTREE_CHECK(options_.root_density > 0.0 && options_.root_density <= 1.0);
  LTREE_CHECK(bits_ <= kMaxBits);
}

std::string BenderList::name() const {
  return StrFormat("bender(rho=%.2f)", options_.root_density);
}

double BenderList::ThresholdFor(uint32_t k) const {
  return 1.0 - (1.0 - options_.root_density) * static_cast<double>(k) /
                   static_cast<double>(bits_);
}

Status BenderList::AssignInitialLabels(uint64_t n) {
  // Size the universe so the initial density is at most root_density.
  const auto too_dense = [&] {
    return static_cast<double>(n) >
           options_.root_density * static_cast<double>(LabelUniverse());
  };
  while (bits_ < kMaxBits && too_dense()) ++bits_;
  if (too_dense()) {
    return Status::CapacityExceeded("bulk load too dense for 62-bit labels");
  }
  const uint64_t width = uint64_t{1} << bits_;
  uint64_t i = 0;
  for (ListItem* it = head_; it != nullptr; it = it->next) {
    it->label = Spread(i++, width, n);
  }
  return Status::OK();
}

void BenderList::Redistribute(ListItem* first, uint64_t count, Label base,
                              uint64_t width, const ListItem* fresh) {
  ListItem* cur = first;
  for (uint64_t i = 0; i < count; ++i) {
    LTREE_CHECK(cur != nullptr);
    const Label target = base + Spread(i, width, count);
    SetLabel(cur, target, fresh);
    cur = cur->next;
  }
  ++stats_.rebalances;
}

Status BenderList::GrowUniverse(const ListItem* fresh) {
  if (bits_ >= kMaxBits) {
    return Status::CapacityExceeded("label universe at 62-bit limit");
  }
  ++bits_;
  Redistribute(head_, live_, 0, uint64_t{1} << bits_, fresh);
  return Status::OK();
}

Status BenderList::PlaceItem(ListItem* item) {
  const ListItem* prev = item->prev;
  const ListItem* next = item->next;
  const uint64_t universe = uint64_t{1} << bits_;
  const uint64_t lo = prev == nullptr ? 0 : prev->label + 1;  // inclusive
  const uint64_t hi = next == nullptr ? universe : next->label;  // exclusive
  if (hi > lo) {
    item->label = lo + (hi - lo) / 2;
    return Status::OK();
  }

  // Gap exhausted: find the smallest enclosing aligned window that is
  // sparse enough after the insertion, and spread its items evenly.
  const Label anchor = next != nullptr ? next->label : prev->label;
  for (uint32_t k = 1; k <= bits_; ++k) {
    const uint64_t width = uint64_t{1} << k;
    const Label base = anchor & ~(width - 1);
    // Leftmost window member.
    ListItem* first = item;
    while (first->prev != nullptr && first->prev->label >= base) {
      first = first->prev;
    }
    // Count members (the fresh item counts but carries no label yet).
    uint64_t count = 0;
    for (ListItem* cur = first; cur != nullptr; cur = cur->next) {
      if (cur != item && cur->label >= base + width) break;
      ++count;
    }
    if (static_cast<double>(count) <=
            ThresholdFor(k) * static_cast<double>(width) &&
        count <= width) {
      Redistribute(first, count, base, width, item);
      return Status::OK();
    }
  }
  return GrowUniverse(item);
}

}  // namespace listlab
}  // namespace ltree
