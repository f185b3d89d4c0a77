// Label-change notification hook, shared by every labeling scheme.
//
// Lives apart from the L-Tree headers so that layers which only need the
// callback (the LabelStore interface, the docstore, the sharded store's
// change-feed taps) can depend on it without pulling in the materialized
// tree's internal Node type.

#ifndef LTREE_CORE_RELABEL_LISTENER_H_
#define LTREE_CORE_RELABEL_LISTENER_H_

#include "core/params.h"

namespace ltree {

/// Sentinel for "label not yet assigned".
inline constexpr Label kInvalidLabel = ~Label{0};

/// Callbacks fired by a labeling scheme as its label state evolves, so
/// external indexes (the label column of a node table, a replication
/// change-feed) can be kept in sync. Bulk loading assigns initial labels
/// and does not fire the listener; incremental maintenance does. The
/// listener only ever hears about live items: an erased item's last event
/// is its OnErase.
class RelabelListener {
 public:
  virtual ~RelabelListener() = default;

  /// An existing live item's label changed during relabeling. Never fired
  /// for the item an insertion is currently adding (the caller knows its
  /// label from the returned handle), nor for the tombstoned slots of
  /// erased items that a rebuild moves.
  virtual void OnRelabel(LeafCookie cookie, Label old_label,
                         Label new_label) = 0;

  /// An item left the order through LabelStore::Erase, with the label it
  /// held at that moment. Default no-op so relabel-only consumers (the
  /// docstore's node table) are unaffected; outward-facing consumers (the
  /// sharded store's per-shard change-feeds) override it to version erase
  /// events alongside relabels.
  virtual void OnErase(LeafCookie cookie, Label last_label) {
    (void)cookie;
    (void)last_label;
  }
};

}  // namespace ltree

#endif  // LTREE_CORE_RELABEL_LISTENER_H_
