// Differential fuzzer: one byte-decoded edit script, five labeling schemes.
//
// The input is decoded into a sequence of list edits (insert before/after a
// random live position, push front/back, erase, batch insert) and replayed
// in lockstep against every scheme the factory knows, plus the purge
// variant of the materialized L-Tree. The shared oracle is the live cookie
// sequence; after every edit each scheme must agree with it exactly, and
// labels read back through the handles must be strictly increasing in list
// order (the paper's order-preservation property). Periodically — and
// always at the end — every store must also pass its own deep Validate().
//
// Schemes may legitimately diverge on *capacity*: a fixed-width scheme can
// exhaust its label space on an adversarial script while the L-Trees keep
// going. A failed insertion is therefore rolled back on the schemes where
// it succeeded (keeping the lockstep), but a failure that claims to be
// Corruption aborts immediately.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "listlab/factory.h"
#include "listlab/order_maintainer.h"

#include "fuzz_driver.h"

namespace {

using ltree::Label;
using ltree::LeafCookie;
using ltree::Status;
using ltree::listlab::ItemHandle;
using ltree::listlab::kInvalidItemHandle;
using ltree::listlab::LabelStore;

constexpr size_t kMaxOps = 256;
constexpr size_t kMaxItems = 2048;
constexpr size_t kValidateEvery = 32;

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

struct SchemeState {
  std::unique_ptr<LabelStore> store;
  // One handle per live oracle position, in list order.
  std::vector<ItemHandle> handles;
};

[[noreturn]] void Die(const SchemeState& scheme, const char* what) {
  std::fprintf(stderr, "scheme-equivalence mismatch in %s: %s\n",
               scheme.store->name().c_str(), what);
  std::abort();
}

void CheckStatusNotCorruption(const SchemeState& scheme, const Status& s) {
  if (s.IsCorruption()) {
    std::fprintf(stderr, "%s reported corruption: %s\n",
                 scheme.store->name().c_str(), s.message().c_str());
    std::abort();
  }
}

/// Full lockstep check of one scheme against the cookie oracle.
void CheckEquivalence(const SchemeState& scheme,
                      const std::vector<LeafCookie>& oracle) {
  const LabelStore& store = *scheme.store;
  if (store.size() != oracle.size()) Die(scheme, "live size mismatch");
  if (scheme.handles.size() != oracle.size()) {
    Die(scheme, "handle bookkeeping out of sync");
  }
  const LabelStore::ReadGuard guard = store.QuiescentRead();
  std::vector<std::pair<Label, LeafCookie>> walked;
  for (size_t i = 0; i < oracle.size(); ++i) {
    const auto cookie = store.CookieOf(guard, scheme.handles[i]);
    if (!cookie.ok() || *cookie != oracle[i]) Die(scheme, "cookie mismatch");
    const auto label = store.LabelOf(guard, scheme.handles[i]);
    if (!label.ok()) Die(scheme, "live handle has no label");
    if (i > 0 && *label <= walked.back().first) {
      Die(scheme, "labels not increasing");
    }
    walked.emplace_back(*label, *cookie);
  }
  // ScanAll is the store's own notion of live list order; it must agree
  // with the per-handle walk above.
  if (store.ScanAll(guard) != walked) Die(scheme, "ScanAll mismatch");
}

void CheckValidate(const SchemeState& scheme) {
  const ltree::audit::Report report = scheme.store->Validate();
  if (!report.ok()) {
    std::fprintf(stderr, "%s failed Validate():\n%s\n",
                 scheme.store->name().c_str(), report.ToString().c_str());
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Small f/s and a tight gap so rebalances and relabels fire early.
  static const char* const kSpecs[] = {
      "ltree:8:2", "ltree:8:2:purge", "virtual:8:2",
      "sequential", "gap:16",         "bender",
  };

  std::vector<SchemeState> schemes;
  for (const char* spec : kSpecs) {
    auto store = ltree::listlab::MakeLabelStore(spec);
    if (!store.ok()) std::abort();  // factory specs are hardcoded
    schemes.push_back(SchemeState{std::move(*store), {}});
  }

  ByteReader in{data, size};
  std::vector<LeafCookie> oracle;
  LeafCookie next_cookie = 1;

  // Optional bulk-loaded prefix so scripts start from a populated list.
  const size_t preload = in.U8() % 64;
  if (preload > 0) {
    std::vector<LeafCookie> cookies;
    for (size_t i = 0; i < preload; ++i) cookies.push_back(next_cookie++);
    for (SchemeState& scheme : schemes) {
      std::vector<ItemHandle> handles;
      const Status s = scheme.store->BulkLoad(cookies, &handles);
      if (!s.ok()) CheckStatusNotCorruption(scheme, s);
      if (!s.ok() || handles.size() != preload) Die(scheme, "bulk load");
      scheme.handles = std::move(handles);
    }
    oracle = cookies;
  }

  size_t ops = 0;
  while (!in.done() && ops < kMaxOps) {
    ++ops;
    const uint8_t op = in.U8() % 7;
    const size_t pos = oracle.empty() ? 0 : in.U16() % oracle.size();

    switch (op) {
      case 0:    // InsertAfter
      case 1: {  // InsertBefore
        if (oracle.empty() || oracle.size() >= kMaxItems) break;
        const LeafCookie cookie = next_cookie++;
        std::vector<ItemHandle> inserted(schemes.size(), kInvalidItemHandle);
        bool all_ok = true;
        for (size_t s = 0; s < schemes.size(); ++s) {
          auto h = op == 0 ? schemes[s].store->InsertAfter(
                                 schemes[s].handles[pos], cookie)
                           : schemes[s].store->InsertBefore(
                                 schemes[s].handles[pos], cookie);
          if (!h.ok()) {
            CheckStatusNotCorruption(schemes[s], h.status());
            all_ok = false;
            break;
          }
          inserted[s] = *h;
        }
        if (!all_ok) {
          // Roll back the schemes that did insert so lockstep holds.
          for (size_t s = 0; s < schemes.size(); ++s) {
            if (inserted[s] != kInvalidItemHandle) {
              if (!schemes[s].store->Erase(inserted[s]).ok()) {
                Die(schemes[s], "rollback erase failed");
              }
            }
          }
          break;
        }
        const size_t at = op == 0 ? pos + 1 : pos;
        oracle.insert(oracle.begin() + static_cast<ptrdiff_t>(at), cookie);
        for (size_t s = 0; s < schemes.size(); ++s) {
          schemes[s].handles.insert(
              schemes[s].handles.begin() + static_cast<ptrdiff_t>(at),
              inserted[s]);
        }
        break;
      }
      case 2:    // PushBack
      case 3: {  // front: InsertBefore(first), PushBack when empty
        if (oracle.size() >= kMaxItems) break;
        const LeafCookie cookie = next_cookie++;
        std::vector<ItemHandle> inserted(schemes.size(), kInvalidItemHandle);
        bool all_ok = true;
        for (size_t s = 0; s < schemes.size(); ++s) {
          LabelStore& store = *schemes[s].store;
          auto h = op == 2 || oracle.empty()
                       ? store.PushBack(cookie)
                       : store.InsertBefore(schemes[s].handles[0], cookie);
          if (!h.ok()) {
            CheckStatusNotCorruption(schemes[s], h.status());
            all_ok = false;
            break;
          }
          inserted[s] = *h;
        }
        if (!all_ok) {
          for (size_t s = 0; s < schemes.size(); ++s) {
            if (inserted[s] != kInvalidItemHandle) {
              if (!schemes[s].store->Erase(inserted[s]).ok()) {
                Die(schemes[s], "rollback erase failed");
              }
            }
          }
          break;
        }
        const size_t at = op == 2 ? oracle.size() : 0;
        oracle.insert(oracle.begin() + static_cast<ptrdiff_t>(at), cookie);
        for (size_t s = 0; s < schemes.size(); ++s) {
          schemes[s].handles.insert(
              schemes[s].handles.begin() + static_cast<ptrdiff_t>(at),
              inserted[s]);
        }
        break;
      }
      case 4: {  // Erase
        if (oracle.empty()) break;
        for (SchemeState& scheme : schemes) {
          // A live handle must erase cleanly in every scheme.
          if (!scheme.store->Erase(scheme.handles[pos]).ok()) {
            Die(scheme, "erase of live handle failed");
          }
          scheme.handles.erase(scheme.handles.begin() +
                               static_cast<ptrdiff_t>(pos));
        }
        oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(pos));
        break;
      }
      case 5:    // InsertBatchAfter
      case 6: {  // PushBackBatch
        const size_t k = in.U8() % 24 + 1;
        if (oracle.size() + k > kMaxItems) break;
        if (op == 5 && oracle.empty()) break;
        std::vector<LeafCookie> cookies;
        for (size_t i = 0; i < k; ++i) cookies.push_back(next_cookie++);
        std::vector<std::vector<ItemHandle>> batches(schemes.size());
        bool all_ok = true;
        for (size_t s = 0; s < schemes.size(); ++s) {
          const Status st =
              op == 5 ? schemes[s].store->InsertBatchAfter(
                            schemes[s].handles[pos], cookies, &batches[s])
                      : schemes[s].store->PushBackBatch(cookies, &batches[s]);
          if (!st.ok()) {
            CheckStatusNotCorruption(schemes[s], st);
            all_ok = false;
            break;
          }
          if (batches[s].size() != k) Die(schemes[s], "batch handle count");
        }
        if (!all_ok) {
          // Batches are all-or-nothing per scheme; undo completed ones.
          for (size_t s = 0; s < schemes.size(); ++s) {
            for (ItemHandle h : batches[s]) {
              if (!schemes[s].store->Erase(h).ok()) {
                Die(schemes[s], "rollback erase failed");
              }
            }
          }
          break;
        }
        const size_t at = op == 5 ? pos + 1 : oracle.size();
        oracle.insert(oracle.begin() + static_cast<ptrdiff_t>(at),
                      cookies.begin(), cookies.end());
        for (size_t s = 0; s < schemes.size(); ++s) {
          schemes[s].handles.insert(
              schemes[s].handles.begin() + static_cast<ptrdiff_t>(at),
              batches[s].begin(), batches[s].end());
        }
        break;
      }
    }

    for (const SchemeState& scheme : schemes) {
      CheckEquivalence(scheme, oracle);
      if (ops % kValidateEvery == 0) CheckValidate(scheme);
    }
  }

  for (const SchemeState& scheme : schemes) {
    CheckEquivalence(scheme, oracle);
    CheckValidate(scheme);
  }
  return 0;
}
