// Differential fuzzer: CountedBTree::ReplaceRange vs a sorted-vector oracle.
//
// ReplaceRange is the virtual L-Tree's bulk relabel primitive and by far
// the most structurally aggressive CountedBTree mutation (in-place leaf
// splicing plus a bottom-up occupancy/count/separator repair). The oracle
// is a plain sorted std::vector<Entry> where the same operation is a
// trivial erase+insert. After every mutation the tree must match the
// oracle exactly (ScanAll), agree on the rank/count queries the virtual
// scheme depends on, and pass the deep auditor.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obtree/counted_btree.h"

#include "fuzz_driver.h"

namespace {

using ltree::Label;
using ltree::Status;
using ltree::obtree::CountedBTree;
using ltree::obtree::Entry;

constexpr size_t kMaxOps = 128;
constexpr size_t kMaxEntries = 4096;
// Small key universe so ranges actually overlap existing keys.
constexpr Label kKeySpace = 1 << 14;

struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool done() const { return pos >= size; }
  uint8_t U8() { return done() ? 0 : data[pos++]; }
  uint16_t U16() {
    const uint16_t lo = U8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(U8()) << 8));
  }
};

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "replace-range mismatch: %s\n", what);
  std::abort();
}

void RequireOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "replace-range: %s failed: %s\n", what,
                 s.message().c_str());
    std::abort();
  }
}

bool OracleContains(const std::vector<Entry>& oracle, Label key) {
  auto it = std::lower_bound(
      oracle.begin(), oracle.end(), key,
      [](const Entry& e, Label k) { return e.key < k; });
  return it != oracle.end() && it->key == key;
}

/// Mirrors ReplaceRange on the sorted vector: drop [lo, hi), splice in the
/// replacement run.
void OracleReplaceRange(std::vector<Entry>* oracle, Label lo, Label hi,
                        const std::vector<Entry>& entries) {
  auto first = std::lower_bound(
      oracle->begin(), oracle->end(), lo,
      [](const Entry& e, Label k) { return e.key < k; });
  auto last = std::lower_bound(
      first, oracle->end(), hi,
      [](const Entry& e, Label k) { return e.key < k; });
  const auto at = oracle->erase(first, last);
  oracle->insert(at, entries.begin(), entries.end());
}

void CheckAgainstOracle(const CountedBTree& tree,
                        const std::vector<Entry>& oracle, ByteReader* in) {
  if (tree.size() != oracle.size()) Die("size mismatch");
  if (tree.ScanAll() != oracle) Die("ScanAll mismatch");
  // Spot-check the order-statistic queries at fuzz-chosen points.
  if (!oracle.empty()) {
    const uint64_t rank = in->U16() % oracle.size();
    const auto sel = tree.Select(rank);
    if (!sel.ok() || !(*sel == oracle[rank])) Die("Select mismatch");
    const Label probe = in->U16() % kKeySpace;
    const uint64_t want_less = static_cast<uint64_t>(
        std::lower_bound(oracle.begin(), oracle.end(), probe,
                         [](const Entry& e, Label k) { return e.key < k; }) -
        oracle.begin());
    if (tree.CountLess(probe) != want_less) Die("CountLess mismatch");
  }
  const Status invariants = tree.Validate().ToStatus();
  if (!invariants.ok()) {
    std::fprintf(stderr, "replace-range: auditor: %s\n",
                 invariants.message().c_str());
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in{data, size};

  // Fuzz the node order too: occupancy repair behaves differently at the
  // minimum order than at wide nodes.
  const uint32_t order = 4 + in.U8() % 60;
  CountedBTree tree(order);
  std::vector<Entry> oracle;

  // Seed load: a strided run so ReplaceRange windows hit gaps and keys.
  const size_t seed = in.U16() % 1024;
  for (size_t i = 0; i < seed; ++i) {
    oracle.push_back(Entry{static_cast<Label>(i * 7 % kKeySpace), i});
  }
  std::sort(oracle.begin(), oracle.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  oracle.erase(std::unique(oracle.begin(), oracle.end(),
                           [](const Entry& a, const Entry& b) {
                             return a.key == b.key;
                           }),
               oracle.end());
  RequireOk(tree.BulkBuild(oracle), "BulkBuild");

  uint64_t next_value = 1 << 20;
  size_t ops = 0;
  while (!in.done() && ops < kMaxOps) {
    ++ops;
    const uint8_t op = in.U8() % 4;
    switch (op) {
      case 0: {  // Insert a fresh key
        if (oracle.size() >= kMaxEntries) break;
        const Label key = in.U16() % kKeySpace;
        const Entry entry{key, next_value++};
        if (OracleContains(oracle, key)) {
          // Differential negative: duplicate insert must be rejected and
          // must not disturb the tree.
          if (!tree.Insert(key, entry.value).IsAlreadyExists()) {
            Die("duplicate Insert not rejected");
          }
          break;
        }
        RequireOk(tree.Insert(key, entry.value), "Insert");
        OracleReplaceRange(&oracle, key, key + 1, {entry});
        break;
      }
      case 1: {  // Delete
        const Label key = in.U16() % kKeySpace;
        if (!OracleContains(oracle, key)) {
          if (!tree.Delete(key).IsNotFound()) {
            Die("Delete of absent key not rejected");
          }
          break;
        }
        RequireOk(tree.Delete(key), "Delete");
        OracleReplaceRange(&oracle, key, key + 1, {});
        break;
      }
      case 2:    // ReplaceRange with a fresh run
      case 3: {  // ReplaceRange as a pure range-erase
        Label lo = in.U16() % kKeySpace;
        Label hi = in.U16() % kKeySpace;
        if (lo > hi) std::swap(lo, hi);
        std::vector<Entry> entries;
        if (op == 2 && hi > lo) {
          // Evenly spaced replacement keys inside [lo, hi).
          const size_t k = in.U8() % 32;
          const Label width = hi - lo;
          for (size_t i = 0; i < k; ++i) {
            const Label key = lo + static_cast<Label>(i) * width / k;
            if (!entries.empty() && entries.back().key == key) continue;
            entries.push_back(Entry{key, next_value++});
          }
        }
        if (oracle.size() + entries.size() > kMaxEntries + 1024) break;
        RequireOk(tree.ReplaceRange(lo, hi, entries), "ReplaceRange");
        OracleReplaceRange(&oracle, lo, hi, entries);
        break;
      }
    }
    CheckAgainstOracle(tree, oracle, &in);
  }
  return 0;
}
