#pragma once

// In-memory span recorder owned by the benchmark.
//
// Spans are recorded from the benchmark's own files around each public
// call into a lina layer; nothing inside lina records them. Each span
// carries its name, start and end (steady clock, ns since the recorder
// was created), the index of the enclosing span, and the id of the
// workload run it belongs to. Storage is reserved up front; a span that
// does not fit is counted in dropped() instead of being recorded, so a
// truncated trace never passes silently. The spans are written once, at
// exit, as Chrome trace-event JSON.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace linabench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = nullptr;  // static storage
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index into spans(), -1 at the root
    std::uint32_t run = 0;     // workload-run id
  };

  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {}

  /// Recording is off until enabled; begin() is then a single branch.
  void enable(bool on) {
    if (on && spans_.capacity() < capacity_) spans_.reserve(capacity_);
    enabled_ = on;
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Subsequent spans belong to workload run `id`, labelled `label` in
  /// the exported trace.
  void start_run(std::uint32_t id, std::string label) {
    run_ = id;
    run_labels_.emplace_back(id, std::move(label));
  }
  [[nodiscard]] std::uint32_t run() const { return run_; }

  /// Tokens begin() returns besides a span's index.
  static constexpr std::int32_t kDropped = -1;  // storage was full
  static constexpr std::int32_t kOff = -2;      // recording was off

  /// Opens a span; pass the returned token to end().
  std::int32_t begin(const char* name) {
    if (!enabled_) return kOff;
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    std::int32_t token = kDropped;
    if (spans_.size() < capacity_) {
      token = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(Span{name, now_ns(), 0, parent, run_});
    } else {
      ++dropped_;
    }
    // A dropped span's children attach to its nearest recorded ancestor.
    open_.push_back(token == kDropped ? parent : token);
    return token;
  }

  void end(std::int32_t token) {
    if (token == kOff) return;
    open_.pop_back();
    if (token >= 0) spans_[static_cast<std::size_t>(token)].end_ns = now_ns();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Self time of every span: its duration minus the time covered by its
  /// direct children. Spans come from one thread, so siblings never
  /// overlap and the children's durations can simply be subtracted.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& span : spans_) {
      if (span.parent >= 0)
        self[static_cast<std::size_t>(span.parent)] -=
            span.end_ns - span.start_ns;
    }
    return self;
  }

  /// Self times (ns) of every span named `name` in run `run`.
  [[nodiscard]] std::vector<std::int64_t> samples(std::string_view name,
                                                  std::uint32_t run) const {
    const std::vector<std::int64_t> self = self_ns();
    std::vector<std::int64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run == run && name == spans_[i].name)
        out.push_back(self[i]);
    }
    return out;
  }

  /// Writes every span as Chrome trace-event JSON ("X" complete events;
  /// one process per workload run, named by its label). Returns false if
  /// the file could not be written.
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::vector<std::int64_t> self = self_ns();
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& [id, label] : run_labels_) {
      out << (first ? "" : ",")
          << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << id
          << ",\"tid\":0,\"args\":{\"name\":\"" << label << "\"}}";
      first = false;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":" << s.run << ",\"tid\":0,\"ts\":"
          << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"self_us\":" << static_cast<double>(self[i]) / 1e3 << "}}";
      first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  std::size_t capacity_;
  bool enabled_ = false;
  std::uint32_t run_ = 0;
  std::uint64_t dropped_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // enclosing span per nesting level
  std::vector<std::pair<std::uint32_t, std::string>> run_labels_;
};

/// Records one span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), token_(recorder.begin(name)) {}
  ~ScopedSpan() { recorder_.end(token_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t token_;
};

}  // namespace linabench
