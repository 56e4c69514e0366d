#include "common/spec_reader.h"

#include <algorithm>
#include <cctype>

namespace smoqe::common {

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

}  // namespace

std::string_view SpecReader::SwitchLanguage(std::string_view language) {
  std::swap(language, language_);
  return language;
}

void SpecReader::Skip() {
  while (pos_ < text_.size()) {
    if (text_[pos_] == '\n') {
      ++line_;
      ++pos_;
    } else if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    } else if (text_.substr(pos_, 2) == "//") {
      pos_ = std::min(text_.find('\n', pos_), text_.size());
    } else {
      return;
    }
  }
}

bool SpecReader::At(std::string_view token) {
  Skip();
  if (text_.substr(pos_, token.size()) != token) return false;
  const size_t end = pos_ + token.size();
  return !IsNameChar(token.back()) || end == text_.size() ||
         !IsNameChar(text_[end]);
}

bool SpecReader::Accept(std::string_view token) {
  if (!At(token)) return false;
  pos_ += token.size();
  return true;
}

Status SpecReader::Expect(std::string_view token) {
  if (Accept(token)) return Status::OK();
  return Error("expected '" + std::string(token) + "'");
}

StatusOr<std::string> SpecReader::Name(std::string_view what) {
  Skip();
  const size_t start = pos_;
  while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
  if (pos_ == start) return Error("expected " + std::string(what));
  return std::string(text_.substr(start, pos_ - start));
}

StatusOr<std::string> SpecReader::Quoted(std::string_view what) {
  Skip();
  if (pos_ == text_.size() || (text_[pos_] != '"' && text_[pos_] != '\'')) {
    return Error("expected a quoted " + std::string(what));
  }
  const size_t close = text_.find(text_[pos_], pos_ + 1);
  if (close == std::string_view::npos) {
    return Error("unterminated quoted " + std::string(what));
  }
  std::string s(text_.substr(pos_ + 1, close - pos_ - 1));
  line_ += static_cast<int>(std::count(s.begin(), s.end(), '\n'));
  pos_ = close + 1;
  return s;
}

bool SpecReader::AtEnd() {
  Skip();
  return pos_ == text_.size();
}

Status SpecReader::Error(std::string_view what) const {
  return Status::ParseError(std::string(language_) + ": " + std::string(what) +
                            " (line " + std::to_string(line_) + ")");
}

}  // namespace smoqe::common
