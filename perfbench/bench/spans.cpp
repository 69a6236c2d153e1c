#include "bench/spans.hpp"

#include "telemetry/json_writer.hpp"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name,
                           std::string layer)
    : recorder_(&recorder), index_(recorder.spans_.size()) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.id = index_ + 1;
  span.parent =
      recorder.open_.empty() ? 0 : recorder.spans_[recorder.open_.back()].id;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - recorder.epoch_)
                      .count();
  recorder.spans_.push_back(std::move(span));
  recorder.open_.push_back(index_);
}

double SpanRecorder::Scope::end() {
  Span& span = recorder_->spans_[index_];
  if (!open_) return static_cast<double>(span.dur_ns);
  open_ = false;
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - recorder_->epoch_)
          .count();
  span.dur_ns = now_ns - span.start_ns;
  auto& open = recorder_->open_;
  for (std::size_t i = open.size(); i-- > 0;) {
    if (open[i] == index_) {
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  return static_cast<double>(span.dur_ns);
}

void SpanRecorder::write_chrome_trace(
    std::ostream& out,
    const std::map<std::string, std::string>& metadata) const {
  mp5::telemetry::JsonWriter w(out);
  w.begin_object();
  w.kv("displayTimeUnit", "ns");
  w.key("otherData").begin_object();
  for (const auto& [key, value] : metadata) w.kv(key, value);
  w.end_object();
  w.key("traceEvents").begin_array();
  for (const Span& span : spans_) {
    w.begin_object();
    w.kv("name", span.name);
    w.kv("cat", span.layer);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.kv("ts", static_cast<double>(span.start_ns) / 1e3);
    w.kv("dur", static_cast<double>(span.dur_ns) / 1e3);
    w.key("args").begin_object();
    w.kv("id", span.id);
    w.kv("parent", span.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

} // namespace perfbench
