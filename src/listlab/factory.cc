#include "listlab/factory.h"

#include <cstdlib>

#include "common/macros.h"
#include "common/string_util.h"
#include "listlab/bender_list.h"
#include "listlab/gap_list.h"
#include "listlab/ltree_store.h"
#include "listlab/sequential_list.h"

namespace ltree {
namespace listlab {

Result<std::unique_ptr<LabelStore>> MakeLabelStore(const std::string& spec) {
  const auto parts = SplitString(spec, ':');
  const std::string_view kind = parts[0];
  if (kind == "sequential") {
    if (parts.size() != 1) {
      return Status::InvalidArgument("usage: sequential");
    }
    return std::unique_ptr<LabelStore>(new SequentialList);
  }
  if (kind == "gap") {
    if (parts.size() != 2) {
      return Status::InvalidArgument("usage: gap:<G>");
    }
    const uint64_t g =
        std::strtoull(std::string(parts[1]).c_str(), nullptr, 10);
    if (g < 2) return Status::InvalidArgument("gap must be >= 2");
    return std::unique_ptr<LabelStore>(new GapList(g));
  }
  if (kind == "bender") {
    BenderList::Options opts;
    if (parts.size() == 2) {
      opts.root_density = std::strtod(std::string(parts[1]).c_str(), nullptr);
      if (opts.root_density <= 0.0 || opts.root_density > 1.0) {
        return Status::InvalidArgument("bender density must be in (0, 1]");
      }
    } else if (parts.size() > 2) {
      return Status::InvalidArgument("usage: bender[:<rho>]");
    }
    return std::unique_ptr<LabelStore>(new BenderList(opts));
  }
  if (kind == "ltree" || kind == "virtual") {
    if (parts.size() != 3 && parts.size() != 4) {
      return Status::InvalidArgument("usage: (ltree|virtual):<f>:<s>[:purge]");
    }
    Params params;
    params.f = static_cast<uint32_t>(
        std::strtoul(std::string(parts[1]).c_str(), nullptr, 10));
    params.s = static_cast<uint32_t>(
        std::strtoul(std::string(parts[2]).c_str(), nullptr, 10));
    if (parts.size() == 4) {
      if (parts[3] != "purge") {
        return Status::InvalidArgument(
            "usage: (ltree|virtual):<f>:<s>[:purge]");
      }
      params.purge_tombstones_on_split = true;
    }
    if (kind == "ltree") {
      LTREE_ASSIGN_OR_RETURN(auto m, LTreeStore::Make(params));
      return std::unique_ptr<LabelStore>(std::move(m));
    }
    LTREE_ASSIGN_OR_RETURN(auto m, VirtualLTreeStore::Make(params));
    return std::unique_ptr<LabelStore>(std::move(m));
  }
  return Status::InvalidArgument("unknown labeling scheme spec: " + spec);
}

Result<std::vector<std::unique_ptr<LabelStore>>> MakeLabelStores(
    const std::string& spec, size_t count) {
  if (count == 0) {
    return Status::InvalidArgument("sharded store needs at least one shard");
  }
  std::vector<std::unique_ptr<LabelStore>> stores;
  stores.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    LTREE_ASSIGN_OR_RETURN(auto store, MakeLabelStore(spec));
    stores.push_back(std::move(store));
  }
  return stores;
}

}  // namespace listlab
}  // namespace ltree
