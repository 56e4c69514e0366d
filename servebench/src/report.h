// Output plumbing shared by the benchmark phases: a flat JSON object writer
// and the fatal-error exits.

#ifndef SERVEBENCH_REPORT_H_
#define SERVEBENCH_REPORT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace servebench {

/// Prints `what` to stderr and exits with status 3 (a set-up or harness
/// failure: the run produces no result).
[[noreturn]] void Fail(const std::string& what);

/// The value, or Fail with `what` and the status.
template <typename T>
T OrDie(smoqe::StatusOr<T> v, const char* what) {
  if (!v.ok()) Fail(std::string(what) + ": " + v.status().ToString());
  return v.take();
}
inline void OkOrDie(const smoqe::Status& s, const char* what) {
  if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
}

/// A flat JSON object, keys in insertion order, numbers at full precision.
class Json {
 public:
  void Num(const std::string& key, double value);
  void Int(const std::string& key, int64_t value);
  void Str(const std::string& key, const std::string& value);
  std::string str() const { return "{" + body_ + "}\n"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace servebench

#endif  // SERVEBENCH_REPORT_H_
