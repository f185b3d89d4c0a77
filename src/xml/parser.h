// A from-scratch, dependency-free XML parser sufficient for the document
// corpus this reproduction uses: elements, attributes, text, entities,
// comments, CDATA, processing instructions and DOCTYPE (the latter three are
// skipped). Namespaces are treated as plain tag characters.

#ifndef LTREE_XML_PARSER_H_
#define LTREE_XML_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/result.h"
#include "xml/xml_node.h"

namespace ltree {
namespace xml {

/// Deepest element nesting Parse accepts; the root is depth 1. The parser
/// recurses once per open element, so deeper input is a ParseError rather
/// than a stack overflow. 256 is libxml2's default cap too, and leaves a
/// wide stack margin even in sanitizer builds (under 1 MB at the limit).
inline constexpr size_t kMaxElementDepth = 256;

struct ParseOptions {
  /// Keep text nodes that consist solely of whitespace (default: dropped,
  /// which is what layout-indented XML wants).
  bool keep_whitespace_text = false;
};

/// Parses a complete XML document. Errors carry line/column context.
/// Nesting past kMaxElementDepth is a ParseError.
Result<Document> Parse(std::string_view input,
                       const ParseOptions& options = ParseOptions());

}  // namespace xml
}  // namespace ltree

#endif  // LTREE_XML_PARSER_H_
