// Spans recorded by the benchmark around its calls into each layer.
//
// A span has a name, a category (the layer), a start, a duration and the
// span open around it when it began (its parent). Spans stay in memory
// and are written once, at the end of the run, as Chrome trace-event JSON
// that Perfetto and chrome://tracing load. Per-packet costs are not spans:
// they are summed in memory by the callers (see TimedSource).
//
// One recorder belongs to one thread; the benchmark opens every span on
// its main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanRecorder {
public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0; // since the recorder was created
    std::int64_t dur_ns = 0;
    std::uint64_t id = 0;      // 1-based
    std::uint64_t parent = 0;  // 0 = root
  };

  /// Opens a span on construction; closes it when end() is called or it
  /// is destroyed.
  class Scope {
  public:
    Scope(SpanRecorder& recorder, std::string name, std::string layer);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span (idempotent); returns its duration in nanoseconds.
    double end();

  private:
    SpanRecorder* recorder_;
    std::size_t index_;
    bool open_ = true;
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  Scope open(std::string name, std::string layer) {
    return Scope(*this, std::move(name), std::move(layer));
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON; `metadata` lands in "otherData".
  void write_chrome_trace(
      std::ostream& out,
      const std::map<std::string, std::string>& metadata) const;

private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

} // namespace perfbench
