// audit::Report plumbing and the deep L-Tree validator (LTree::Validate):
// every violation is reported with a structural path instead of stopping at
// the first.

#include "core/validate.h"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <unordered_set>

#include "common/string_util.h"
#include "core/ltree.h"

namespace ltree {
namespace audit {

std::string Violation::ToString() const {
  return StrFormat("[%s] %s: %s", rule.c_str(), path.c_str(),
                   message.c_str());
}

void Report::Add(std::string path, std::string rule, std::string message) {
  if (violations_.size() >= max_violations_) {
    ++dropped_;
    return;
  }
  violations_.push_back(
      Violation{std::move(path), std::move(rule), std::move(message)});
}

bool Report::HasRule(std::string_view rule) const {
  for (const Violation& v : violations_) {
    if (v.rule == rule) return true;
  }
  return false;
}

void Report::Absorb(const Report& other, std::string_view prefix) {
  for (const Violation& v : other.violations_) {
    Add(std::string(prefix) + v.path, v.rule, v.message);
  }
  dropped_ += other.dropped_;
}

std::string Report::ToString() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << total() << " violation(s):";
  for (const Violation& v : violations_) {
    os << "\n  " << v.ToString();
  }
  if (dropped_ > 0) {
    os << "\n  ... and " << dropped_ << " more (report cap reached)";
  }
  return os.str();
}

Status Report::ToStatus() const {
  if (ok()) return Status::OK();
  const Violation& first = violations_.front();
  std::string msg = first.ToString();
  if (total() > 1) {
    msg += StrFormat(" (+%llu more)",
                     static_cast<unsigned long long>(total() - 1));
  }
  return Status::Corruption(std::move(msg));
}

void AbortIfViolated(const Report& report, std::string_view what,
                     std::string_view op) {
  if (report.ok()) return;
  std::cerr << "LISTLAB_VALIDATE: " << what << " corrupted after " << op
            << ":\n"
            << report.ToString() << "\n";
  std::abort();
}

}  // namespace audit

// --------------------------------------------------------------------------
// Materialized L-Tree deep validator
// --------------------------------------------------------------------------

namespace {

using audit::Report;

struct LTreeAuditContext {
  const Params* params;
  const PowerTable* powers;
  Report* report;
  uint64_t leaf_slots = 0;  ///< reachable leaves, tombstones included
  uint64_t live = 0;
  uint64_t reachable_inner = 0;
  Label prev_label = 0;
  bool saw_leaf = false;
};

/// l(t) of any node: 1 for a leaf.
uint64_t LeafCount(const Node* node) {
  return node->IsLeaf() ? 1 : static_cast<const Inner*>(node)->leaf_count;
}

void AuditNode(const Node* node, const Inner* expected_parent,
               uint32_t expected_index, Label expected_num,
               const std::string& path, LTreeAuditContext* ctx) {
  if (node->parent != expected_parent) {
    ctx->report->Add(path, "parent-link",
                     "parent pointer does not point at the actual parent");
  }
  if (node->index_in_parent != expected_index) {
    ctx->report->Add(path, "child-index",
                     StrFormat("index_in_parent is %u, actual slot is %u",
                               node->index_in_parent, expected_index));
  }
  if (node->num != expected_num) {
    // The paper's label identity: num(w) = num(parent) + i * (f+1)^{h(w)}.
    ctx->report->Add(
        path, "label-identity",
        StrFormat("num is %llu, identity requires %llu at height %u",
                  static_cast<unsigned long long>(node->num),
                  static_cast<unsigned long long>(expected_num),
                  node->height));
  }
  if (node->IsLeaf()) {
    // Proposition 1: labels strictly increase in document order.
    if (ctx->saw_leaf && node->num <= ctx->prev_label) {
      ctx->report->Add(
          path, "label-order",
          StrFormat("label %llu not above predecessor %llu",
                    static_cast<unsigned long long>(node->num),
                    static_cast<unsigned long long>(ctx->prev_label)));
    }
    ctx->prev_label = node->num;
    ctx->saw_leaf = true;
    ++ctx->leaf_slots;
    if (!node->deleted) ++ctx->live;
    return;
  }

  const Inner* inner = static_cast<const Inner*>(node);
  ++ctx->reachable_inner;
  if (inner->children.empty()) {
    ctx->report->Add(path, "internal-childless",
                     "internal node with no children");
    return;
  }
  // Fanout: at most f+1 children fit the (f+1)-ary label space (f steady
  // state, f+1 transiently).
  if (inner->children.size() > static_cast<size_t>(ctx->params->f) + 1) {
    ctx->report->Add(path, "fanout",
                     StrFormat("fanout %zu exceeds f+1=%u at height %u",
                               inner->children.size(), ctx->params->f + 1,
                               inner->height));
  }
  // Proposition 2(1) upper bound: l(t) < lmax(t) after every operation.
  if (inner->leaf_count >= ctx->powers->LeafBudget(inner->height)) {
    ctx->report->Add(
        path, "leaf-budget",
        StrFormat("leaf_count %llu at height %u reaches budget %llu",
                  static_cast<unsigned long long>(inner->leaf_count),
                  inner->height,
                  static_cast<unsigned long long>(
                      ctx->powers->LeafBudget(inner->height))));
  }
  uint64_t child_leaves = 0;
  for (uint32_t i = 0; i < inner->children.size(); ++i) {
    const Node* child = inner->children[i];
    const std::string child_path = (path.back() == '/' ? path : path + "/") +
                                   std::to_string(i);
    if (child == nullptr) {
      ctx->report->Add(child_path, "null-child", "null child pointer");
      continue;
    }
    if (child->height + 1 != inner->height) {
      // The height is what says whether the child is a Leaf or an Inner,
      // so a subtree under a wrong height cannot be walked safely.
      ctx->report->Add(child_path, "height-step",
                       StrFormat("height-%u child under height-%u node",
                                 child->height, inner->height));
      continue;
    }
    const Label child_num =
        inner->num +
        static_cast<uint64_t>(i) * ctx->powers->PowF1(child->height);
    AuditNode(child, inner, i, child_num, child_path, ctx);
    child_leaves += LeafCount(child);
  }
  if (child_leaves != inner->leaf_count) {
    ctx->report->Add(
        path, "leaf-count-sum",
        StrFormat("leaf_count %llu != sum of children %llu at height %u",
                  static_cast<unsigned long long>(inner->leaf_count),
                  static_cast<unsigned long long>(child_leaves),
                  inner->height));
  }
}

/// Collects every node reachable from `node` (for the epoch-reclamation
/// rule: a retired node must not be in this set).
void CollectReachable(const Node* node,
                      std::unordered_set<const void*>* out) {
  if (node == nullptr) return;
  out->insert(node);
  if (node->IsLeaf()) return;
  for (const Node* child : static_cast<const Inner*>(node)->children) {
    CollectReachable(child, out);
  }
}

}  // namespace

audit::Report LTree::Validate() const {
  Report report;
  const Inner* root = root_;
  if (root == nullptr) {
    report.Add("ltree:/", "root-null", "null root");
    return report;
  }
  if (root->IsLeaf()) {
    report.Add("ltree:/", "root-internal", "root must be internal");
    return report;
  }
  LTreeAuditContext ctx;
  ctx.params = &params_;
  ctx.powers = &powers_;
  ctx.report = &report;
  if (root->leaf_count == 0) {
    if (!root->children.empty()) {
      report.Add("ltree:/", "leaf-count-sum",
                 "empty tree (leaf_count 0) with children");
    }
    if (live_leaves_ != 0) {
      report.Add("ltree:/", "live-count",
                 StrFormat("empty tree but num_live_leaves() is %llu",
                           static_cast<unsigned long long>(live_leaves_)));
    }
    return report;
  }
  AuditNode(root, nullptr, 0, 0, "ltree:/", &ctx);
  if (ctx.leaf_slots != root->leaf_count) {
    report.Add("ltree:/", "leaf-count-sum",
               StrFormat("root leaf_count %llu != actual leaf slots %llu",
                         static_cast<unsigned long long>(root->leaf_count),
                         static_cast<unsigned long long>(ctx.leaf_slots)));
  }
  // Tombstone accounting: the live counter must equal leaf slots minus
  // tombstones, which the walk counts directly.
  if (ctx.live != live_leaves_) {
    report.Add("ltree:/", "live-count",
               StrFormat("num_live_leaves() %llu != actual live leaves %llu",
                         static_cast<unsigned long long>(live_leaves_),
                         static_cast<unsigned long long>(ctx.live)));
  }
  // Label resolution: the arithmetic num(w) descent must resolve every
  // leaf's label (tombstoned or not) back to exactly that leaf — this is
  // what makes labels order-preserving addresses, not just comparands.
  // The walk runs only on a structurally clean tree: NextLeaf navigates
  // parent/index_in_parent links, so on a tree the rules above already
  // flagged (miswired child index, self-parent) it can cycle or index
  // out of bounds — and an auditor must stay total. The slot-count cap
  // is belt-and-braces for corruption no structural rule anticipated.
  if (report.ok()) {
    uint64_t resolved_walk = 0;
    for (LeafHandle leaf = FirstLeaf();
         leaf != nullptr && resolved_walk < num_slots();
         leaf = NextLeaf(leaf), ++resolved_walk) {
      if (FindLeafByLabel(label(leaf)) != leaf) {
        report.Add("ltree:/", "label-resolution",
                   StrFormat("label %llu does not resolve back to its leaf",
                             static_cast<unsigned long long>(label(leaf))));
      }
    }
  }
  // Arena conservation, per node type: every leaf the leaf arena considers
  // live must be reachable from the root or sitting in an epoch bucket
  // awaiting reclamation (only purged leaves are retired), every live inner
  // node must be reachable, and vice versa.
  const uint64_t pending = epoch_ != nullptr ? epoch_->pending() : 0;
  if (ctx.leaf_slots + pending != leaf_arena_.stats().live()) {
    report.Add(
        "ltree:/", "arena-conservation",
        StrFormat("%llu leaves reachable + %llu epoch-pending but the leaf "
                  "arena accounts %llu live",
                  static_cast<unsigned long long>(ctx.leaf_slots),
                  static_cast<unsigned long long>(pending),
                  static_cast<unsigned long long>(leaf_arena_.stats().live())));
  }
  if (ctx.reachable_inner != inner_arena_.stats().live()) {
    report.Add(
        "ltree:/", "arena-conservation",
        StrFormat("%llu inner nodes reachable but the inner arena accounts "
                  "%llu live",
                  static_cast<unsigned long long>(ctx.reachable_inner),
                  static_cast<unsigned long long>(
                      inner_arena_.stats().live())));
  }
  // Epoch reclamation: retired ∪ reachable must partition the live nodes —
  // no retired node may still be reachable from the root (use-after-
  // reclaim in waiting) and no node may sit in two buckets (double free).
  if (epoch_ != nullptr && pending != 0) {
    std::unordered_set<const void*> live_set;
    CollectReachable(root, &live_set);
    std::unordered_set<const void*> retired_set;
    epoch_->ForEachPending([&](const void* obj) {
      if (live_set.count(obj) != 0) {
        report.Add("ltree:/", "epoch-reclamation",
                   StrFormat("retired node %p still reachable from the root",
                             obj));
      }
      if (!retired_set.insert(obj).second) {
        report.Add("ltree:/", "epoch-reclamation",
                   StrFormat("node %p retired twice", obj));
      }
    });
  }
  return report;
}

}  // namespace ltree
