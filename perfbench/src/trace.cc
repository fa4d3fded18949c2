#include "trace.h"

#include <cstdio>

#include "util/string_util.h"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int64_t request_id) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_id;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_[id].start_ns = NowNs();
  return id;
}

double Tracer::End(int id) {
  const int64_t now = NowNs();
  Span& s = spans_[id];
  s.end_ns = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

void Tracer::Count(const std::string& name, double value) {
  counts_.push_back({name, value, open_.empty() ? -1 : open_.back()});
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<double> Tracer::Counts(const std::string& name) const {
  std::vector<double> out;
  for (const CountRecord& c : counts_) {
    if (c.name == name) out.push_back(c.value);
  }
  return out;
}

mad::Status Tracer::Write(const std::string& path) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return mad::Status::Internal("cannot write span file " + path);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns >= 0 ? s.end_ns - s.start_ns : 0;
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%lld,"
                 "\"self_ns\":%lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request),
                 static_cast<long long>(dur - child_ns[i]));
  }
  for (const CountRecord& c : counts_) {
    std::fprintf(f, "{\"count\":\"%s\",\"value\":%.17g,\"span\":%d}\n",
                 c.name.c_str(), c.value, c.span);
  }
  return std::fclose(f) == 0
             ? mad::Status::OK()
             : mad::Status::Internal("cannot finish span file " + path);
}

}  // namespace perfbench
