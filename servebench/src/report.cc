#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace servebench {

void Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(3);
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": ";
}

void Json::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
}

void Json::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
}

void Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n' || c == '\t') ? ' ' : c;
  }
  body_ += "\"";
}

}  // namespace servebench
