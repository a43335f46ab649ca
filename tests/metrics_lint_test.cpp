// Lint: every metric instrument in src/ is resolved once, never per event.
//
// metrics::counter/gauge/timer(name) takes the registry's process-wide mutex
// and walks a map (see util/metrics.hpp), so a call site that runs on every
// commit, frame or apply must not make it. A lookup is bound when it is
//   - the initializer of a function-local static reference:
//       static metrics::Counter& c = metrics::counter("...");
//   - a stored handle: its address assigned to an object's member, or an
//     element of a braced (static) table:
//       slot.shipped = &metrics::counter(prefix + ".txns_shipped");
//       static metrics::Counter* const t[] = {&metrics::counter("..."), ...};
// Anything else — a bare metrics::counter("...").add(1), a non-static local
// reference or pointer, an address passed to a call — fails this test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Violation {
  int line;
  std::string text;
};

// Blank out comments and the contents of string and character literals,
// keeping newlines so offsets still map to source lines.
std::string code_only(const std::string& src) {
  std::string out = src;
  enum { kCode, kLine, kBlock, kString, kChar } state = kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case kCode:
        if (c == '/' && next == '/') {
          state = kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          state = kString;
        } else if (c == '\'') {
          state = kChar;
        }
        break;
      case kLine:
        if (c == '\n') {
          state = kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kString:
      case kChar:
        if (c == '\\' && next != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if ((state == kString && c == '"') || (state == kChar && c == '\'')) {
          state = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::string rtrim(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.pop_back();
  return s;
}

bool is_bound(const std::string& before) {
  static const std::regex static_ref(
      R"(static\s+(const\s+)?(auto|metrics::(Counter|Gauge|Timer))\s*&\s*\w+$)");
  static const std::regex local_decl(
      R"(^\s*(const\s+)?(auto|metrics::(Counter|Gauge|Timer))\b)");
  std::string lhs = rtrim(before);
  const bool address_taken = !lhs.empty() && lhs.back() == '&';
  if (address_taken) {
    lhs = rtrim(lhs.substr(0, lhs.size() - 1));
    if (!lhs.empty() && (lhs.back() == '{' || lhs.back() == ',')) return true;  // table entry
  }
  if (lhs.empty() || lhs.back() != '=') return false;
  // The statement up to the '=': a declaration or an assignment target.
  lhs.pop_back();
  const std::size_t start = lhs.find_last_of(";{}");
  const std::string stmt = rtrim(start == std::string::npos ? lhs : lhs.substr(start + 1));
  if (!address_taken) return std::regex_search(stmt, static_ref);
  // Assigned by address: a handle kept by an object or a static, not a local.
  return stmt.find("static") != std::string::npos || !std::regex_search(stmt, local_decl);
}

std::vector<Violation> unbound_lookups(const std::string& src) {
  static const std::regex lookup(R"(\bmetrics::(counter|gauge|timer)\s*\()");
  const std::string code = code_only(src);
  std::vector<Violation> found;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), lookup);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position());
    if (is_bound(code.substr(0, at))) continue;
    const std::size_t bol = src.rfind('\n', at) + 1;  // npos + 1 == 0
    const std::size_t eol = src.find('\n', at);
    found.push_back({1 + static_cast<int>(std::count(src.begin(), src.begin() + at, '\n')),
                     src.substr(bol, eol == std::string::npos ? eol : eol - bol)});
  }
  return found;
}

TEST(MetricsLint, FlagsPerEventLookups) {
  const char* unbound[] = {
      "metrics::counter(\"a\").add(1);",
      "  metrics::gauge(\"g\")\n      .update_max(3);",
      "metrics::counter(std::string(\"net.fault.\") + which).add(1);",
      "metrics::Timer& t = metrics::timer(\"t\");",
      "auto& c = metrics::counter(\"a\");",
      "metrics::Counter* p = &metrics::counter(\"a\");",
      "record(&metrics::counter(\"a\"));",
      "static metrics::Counter& c = metrics::counter(\"a\"); metrics::counter(\"b\").add(1);",
  };
  for (const char* src : unbound) {
    EXPECT_FALSE(unbound_lookups(src).empty()) << src;
  }
}

TEST(MetricsLint, AcceptsBoundLookups) {
  const char* bound[] = {
      "static metrics::Counter& c = metrics::counter(\"a\");",
      "static metrics::Counter& long_name =\n    metrics::counter(\"a.b.c\");",
      "static const metrics::Gauge& g = metrics::gauge(\"g\");",
      "static auto& t = metrics::timer(\"t\");",
      "slot.shipped = &metrics::counter(prefix + \".txns_shipped\");",
      "static metrics::Counter* const t[2] = {\n    &metrics::counter(\"a\"),\n"
      "    &metrics::counter(\"b\"),\n};",
      "// metrics::counter(\"in a comment\").add(1);",
      "/* metrics::timer(\"x\") */ int x = 0;",
      "const char* s = \"metrics::counter(\\\"quoted\\\")\";",
  };
  for (const char* src : bound) {
    EXPECT_TRUE(unbound_lookups(src).empty()) << src;
  }
}

TEST(MetricsLint, ReportsTheOffendingLine) {
  const auto found =
      unbound_lookups("int a;\n// metrics::counter(\"x\")\n  metrics::counter(\"y\");\n");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].line, 3);
  EXPECT_EQ(found[0].text, "  metrics::counter(\"y\");");
}

TEST(MetricsLint, SourceTreeHasNoUnboundLookups) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(VREP_SOURCE_DIR) / "src";
  ASSERT_TRUE(fs::is_directory(root)) << root;
  int files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const auto ext = entry.path().extension();
    if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp")) continue;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    files++;
    for (const Violation& v : unbound_lookups(buf.str())) {
      ADD_FAILURE() << fs::relative(entry.path(), VREP_SOURCE_DIR).string() << ":" << v.line
                    << ": metric looked up by name on every execution; bind it to a "
                       "function-local static reference or a stored handle:\n"
                    << v.text;
    }
  }
  EXPECT_GT(files, 0);
}

}  // namespace
