// In-memory span recorder for the pipeline benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a library layer and around each served batch; nothing inside
// the library is instrumented (the library's own obs::TraceSession stays
// off, so QueryService's per-query span never runs). All spans come from
// the single client thread, so the open-span stack needs no locking.
//
// A span records name, start, end and parent (the span open when it
// started). Disabled logs still time their Scopes — the benchmark needs
// the durations either way — but store nothing. write_chrome() dumps the
// spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  struct Span {
    const char* name;  // string literal
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;  // index into spans_, -1 for a root
  };

  /// Spans kept at most, so a long run cannot grow the trace without
  /// bound; spans past the cap are counted in dropped().
  static constexpr std::size_t kMaxSpans = 200'000;

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Records a finished leaf span under the currently open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, start, end, current_parent()});
  }

  /// RAII span: opens on construction, closes on end() or destruction.
  /// end() returns the span's duration in seconds whether or not the log
  /// is enabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name)
        : log_(log), index_(log.open(name)), start_(Clock::now()) {
      if (index_ >= 0) log_.spans_[index_].start = start_;
    }
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double end() {
      if (!open_) return seconds_;
      const Clock::time_point stop = Clock::now();
      seconds_ = seconds_between(start_, stop);
      log_.close(index_, stop);
      open_ = false;
      return seconds_;
    }

   private:
    SpanLog& log_;
    std::int64_t index_;
    Clock::time_point start_;
    double seconds_ = 0;
    bool open_ = true;
  };

  /// Writes every stored span as a Chrome "X" (complete) event; the span
  /// index and its parent's index ride in args. Returns false on an I/O
  /// error.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld}}\n",
                   i == 0 ? "" : ",", s.name,
                   seconds_between(origin_, s.start) * 1e6,
                   seconds_between(s.start, s.end) * 1e6, i,
                   static_cast<long long>(s.parent));
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"dropped_spans\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t current_parent() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  std::int64_t open(const char* name) {
    if (!enabled_) return -1;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    const auto index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, Clock::time_point{}, Clock::time_point{},
                      current_parent()});
    stack_.push_back(index);
    return index;
  }

  void close(std::int64_t index, Clock::time_point stop) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = stop;
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
