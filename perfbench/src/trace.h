#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. A span is one call into a
// layer's public function: name, start, end, parent span, request id. Counts
// (EvalStats fields, rows, bytes) are recorded against the span that was open
// when they were taken. Nothing is written until Write(), at exit, so the
// recorder adds only a clock read and a vector push per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open span; returns its id.
  int Begin(const std::string& name, int64_t request_id = -1);
  /// Closes span `id` (must be the innermost open span); returns its
  /// duration in seconds.
  double End(int id);
  /// Records a count at the current boundary.
  void Count(const std::string& name, double value);

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Every value recorded for count `name`.
  std::vector<double> Counts(const std::string& name) const;

  /// Writes spans (with self time: duration minus the time covered by
  /// child spans) and counts as JSON lines.
  mad::Status Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
    int64_t request = -1;
  };
  struct CountRecord {
    std::string name;
    double value = 0;
    int span = -1;
  };
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<CountRecord> counts_;
};

/// RAII span; `seconds()` is valid after Close() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { Close(); }
  double Close() {
    if (id_ >= 0) {
      seconds_ = tracer_->End(id_);
      id_ = -1;
    }
    return seconds_;
  }

 private:
  Tracer* tracer_;
  int id_;
  double seconds_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
