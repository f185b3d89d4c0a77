// A drop-in atomic wrapper for fields read lock-free by concurrent readers.
//
// The concurrent LabelStore read path lets reader threads load leaf labels
// and cookies while the serialized writer relabels. Making `Node::num` and
// `Leaf::cookie` plain `std::atomic` would break the large body of existing
// single-threaded code (no copy, no implicit conversion); AtomicCell keeps
// the call sites compiling by converting implicitly on read and assigning
// on write, while pinning the memory orders of the concurrent contract:
//
//   * every read is an acquire load — a reader that observes a label also
//     observes everything the writer published before storing it;
//   * every write is a release store — the writer's preceding structural
//     edits happen-before any reader that sees the new value.
//
// The wrapper is copyable (load + store) so node structs stay movable in
// containers and tests; copies are *not* atomic as a pair, which matches
// the single-writer contract (only the serialized writer copies nodes).

#ifndef LTREE_CORE_ATOMIC_CELL_H_
#define LTREE_CORE_ATOMIC_CELL_H_

#include <atomic>

namespace ltree {

template <typename T>
class AtomicCell {
 public:
  AtomicCell() = default;
  AtomicCell(T value) : value_(value) {}  // NOLINT: implicit by design
  AtomicCell(const AtomicCell& other) : value_(other.load()) {}
  AtomicCell& operator=(const AtomicCell& other) {
    store(other.load());
    return *this;
  }
  AtomicCell& operator=(T value) {
    store(value);
    return *this;
  }

  operator T() const { return load(); }  // NOLINT: implicit by design

  T load() const { return value_.load(std::memory_order_acquire); }
  void store(T value) { value_.store(value, std::memory_order_release); }

 private:
  std::atomic<T> value_{};
};

}  // namespace ltree

#endif  // LTREE_CORE_ATOMIC_CELL_H_
