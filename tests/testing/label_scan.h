// Shared test helper: a LabelStore's live labels in list order, read as the
// label column of ScanAll. It reads under QuiescentRead, so call it only
// from the store's writer thread between mutations (as every test does).

#ifndef LTREE_TESTS_TESTING_LABEL_SCAN_H_
#define LTREE_TESTS_TESTING_LABEL_SCAN_H_

#include <vector>

#include "listlab/order_maintainer.h"

namespace ltree {
namespace listlab {

inline std::vector<Label> ScanLabels(const LabelStore& store) {
  std::vector<Label> labels;
  for (const auto& [label, cookie] : store.ScanAll(store.QuiescentRead())) {
    labels.push_back(label);
  }
  return labels;
}

}  // namespace listlab
}  // namespace ltree

#endif  // LTREE_TESTS_TESTING_LABEL_SCAN_H_
