#include "xml/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"

namespace ltree {
namespace xml {

namespace {

class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options)
      : input_(input), options_(options) {}

  Result<Document> Run() {
    Document doc;
    SkipProlog();
    if (AtEnd()) return Status::ParseError(Where("document has no root element"));
    LTREE_ASSIGN_OR_RETURN(Node * root, ParseElement(&doc));
    LTREE_RETURN_IF_ERROR(doc.SetRoot(root));
    SkipMisc();
    if (!AtEnd()) {
      return Status::ParseError(Where("trailing content after root element"));
    }
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }

  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void AdvanceBy(size_t n) {
    for (size_t i = 0; i < n && !AtEnd(); ++i) Advance();
  }

  bool Consume(std::string_view token) {
    if (input_.substr(pos_).substr(0, token.size()) != token) return false;
    AdvanceBy(token.size());
    return true;
  }

  std::string Where(std::string_view msg) const {
    return StrFormat("%.*s (line %zu, column %zu)",
                     static_cast<int>(msg.size()), msg.data(), line_, col_);
  }

  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.';
  }

  void SkipSpace() {
    while (!AtEnd() && IsSpace(Peek())) Advance();
  }

  /// Skips <?...?>, <!DOCTYPE ...> and comments before the root.
  void SkipProlog() {
    for (;;) {
      SkipSpace();
      if (AtEnd()) return;
      if (Peek() != '<') return;
      if (PeekAt(1) == '?') {
        SkipUntil("?>");
      } else if (PeekAt(1) == '!' && PeekAt(2) == '-' && PeekAt(3) == '-') {
        SkipUntil("-->");
      } else if (PeekAt(1) == '!') {
        SkipDoctype();
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    for (;;) {
      SkipSpace();
      if (AtEnd()) return;
      if (Peek() == '<' && PeekAt(1) == '?') {
        SkipUntil("?>");
      } else if (Peek() == '<' && PeekAt(1) == '!' && PeekAt(2) == '-') {
        SkipUntil("-->");
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view terminator) {
    while (!AtEnd()) {
      if (input_.substr(pos_).substr(0, terminator.size()) == terminator) {
        AdvanceBy(terminator.size());
        return;
      }
      Advance();
    }
  }

  void SkipDoctype() {
    // <!DOCTYPE ...> possibly with an internal subset in [ ... ].
    int bracket_depth = 0;
    while (!AtEnd()) {
      char c = Peek();
      Advance();
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return;
    }
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) {
      return Status::ParseError(Where("expected a name"));
    }
    std::string name;
    while (!AtEnd() && IsNameChar(Peek())) {
      name.push_back(Peek());
      Advance();
    }
    return name;
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out.push_back(raw[i++]);
        continue;
      }
      const size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Status::ParseError(Where("unterminated entity reference"));
      }
      const std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out.push_back('<');
      } else if (ent == "gt") {
        out.push_back('>');
      } else if (ent == "amp") {
        out.push_back('&');
      } else if (ent == "quot") {
        out.push_back('"');
      } else if (ent == "apos") {
        out.push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        uint64_t code = 0;
        bool ok = ent.size() > 1;
        if (ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')) {
          for (size_t j = 2; j < ent.size() && ok; ++j) {
            const char c = ent[j];
            code = code * 16;
            if (c >= '0' && c <= '9') {
              code += static_cast<uint64_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
              code += static_cast<uint64_t>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
              code += static_cast<uint64_t>(c - 'A' + 10);
            } else {
              ok = false;
            }
          }
          ok = ok && ent.size() > 2;
        } else {
          for (size_t j = 1; j < ent.size() && ok; ++j) {
            if (ent[j] < '0' || ent[j] > '9') {
              ok = false;
            } else {
              code = code * 10 + static_cast<uint64_t>(ent[j] - '0');
            }
          }
        }
        if (!ok || code == 0 || code > 0x10FFFF) {
          return Status::ParseError(Where("invalid character reference"));
        }
        AppendUtf8(static_cast<uint32_t>(code), &out);
      } else {
        return Status::ParseError(Where("unknown entity reference"));
      }
      i = semi + 1;
    }
    return out;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseAttributes(Node* element) {
    for (;;) {
      SkipSpace();
      if (AtEnd()) return Status::ParseError(Where("unterminated start tag"));
      const char c = Peek();
      if (c == '>' || c == '/') return Status::OK();
      LTREE_ASSIGN_OR_RETURN(std::string name, ParseName());
      SkipSpace();
      if (AtEnd() || Peek() != '=') {
        return Status::ParseError(Where("expected '=' after attribute name"));
      }
      Advance();
      SkipSpace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Status::ParseError(Where("expected quoted attribute value"));
      }
      const char quote = Peek();
      Advance();
      const size_t start = pos_;
      while (!AtEnd() && Peek() != quote) Advance();
      if (AtEnd()) {
        return Status::ParseError(Where("unterminated attribute value"));
      }
      LTREE_ASSIGN_OR_RETURN(
          std::string value,
          DecodeEntities(input_.substr(start, pos_ - start)));
      Advance();  // closing quote
      for (const auto& [k, v] : element->attrs) {
        if (k == name) {
          return Status::ParseError(Where("duplicate attribute"));
        }
      }
      element->attrs.emplace_back(std::move(name), std::move(value));
    }
  }

  Result<Node*> ParseElement(Document* doc) {
    if (AtEnd() || Peek() != '<') {
      return Status::ParseError(Where("expected '<'"));
    }
    if (depth_ == kMaxElementDepth) {
      return Status::ParseError(Where(StrFormat(
          "element nesting deeper than %zu levels", kMaxElementDepth)));
    }
    Advance();
    LTREE_ASSIGN_OR_RETURN(std::string tag, ParseName());
    Node* element = doc->CreateElement(std::move(tag));
    LTREE_RETURN_IF_ERROR(ParseAttributes(element));
    if (Consume("/>")) return element;
    if (!Consume(">")) {
      return Status::ParseError(Where("malformed start tag"));
    }
    ++depth_;
    LTREE_RETURN_IF_ERROR(ParseContent(doc, element));
    --depth_;
    // ParseContent consumed "</".
    LTREE_ASSIGN_OR_RETURN(std::string close, ParseName());
    if (close != element->tag) {
      return Status::ParseError(
          Where(StrFormat("mismatched end tag </%s> for <%s>", close.c_str(),
                          element->tag.c_str())));
    }
    SkipSpace();
    if (!Consume(">")) {
      return Status::ParseError(Where("malformed end tag"));
    }
    return element;
  }

  Status ParseContent(Document* doc, Node* element) {
    std::string text;
    auto flush_text = [&]() -> Status {
      if (text.empty()) return Status::OK();
      const bool all_space =
          StripWhitespace(text).empty();
      if (!all_space || options_.keep_whitespace_text) {
        LTREE_ASSIGN_OR_RETURN(std::string decoded, DecodeEntities(text));
        LTREE_RETURN_IF_ERROR(
            doc->AppendChild(element, doc->CreateText(std::move(decoded))));
      }
      text.clear();
      return Status::OK();
    };

    for (;;) {
      if (AtEnd()) {
        return Status::ParseError(Where("unterminated element content"));
      }
      if (Peek() == '<') {
        if (PeekAt(1) == '/') {
          LTREE_RETURN_IF_ERROR(flush_text());
          AdvanceBy(2);
          return Status::OK();
        }
        if (PeekAt(1) == '!' && PeekAt(2) == '-' && PeekAt(3) == '-') {
          LTREE_RETURN_IF_ERROR(flush_text());
          SkipUntil("-->");
          continue;
        }
        if (Consume("<![CDATA[")) {
          const size_t start = pos_;
          while (!AtEnd() &&
                 input_.substr(pos_).substr(0, 3) != "]]>") {
            Advance();
          }
          if (AtEnd()) {
            return Status::ParseError(Where("unterminated CDATA section"));
          }
          // CDATA is literal: bypass entity decoding by flushing separately.
          LTREE_RETURN_IF_ERROR(flush_text());
          std::string cdata(input_.substr(start, pos_ - start));
          AdvanceBy(3);
          if (!cdata.empty()) {
            LTREE_RETURN_IF_ERROR(
                doc->AppendChild(element, doc->CreateText(std::move(cdata))));
          }
          continue;
        }
        if (PeekAt(1) == '?') {
          LTREE_RETURN_IF_ERROR(flush_text());
          SkipUntil("?>");
          continue;
        }
        LTREE_RETURN_IF_ERROR(flush_text());
        LTREE_ASSIGN_OR_RETURN(Node * child, ParseElement(doc));
        LTREE_RETURN_IF_ERROR(doc->AppendChild(element, child));
        continue;
      }
      text.push_back(Peek());
      Advance();
    }
  }

  std::string_view input_;
  ParseOptions options_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
  size_t depth_ = 0;  // elements currently open
};

}  // namespace

Result<Document> Parse(std::string_view input, const ParseOptions& options) {
  Parser parser(input, options);
  return parser.Run();
}

}  // namespace xml
}  // namespace ltree
