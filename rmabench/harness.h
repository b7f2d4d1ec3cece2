// Shared machinery of the end-to-end benchmark: command-line arguments,
// closed-loop results and their percentiles, the in-memory span tracer
// (written as Chrome trace-event JSON), per-layer samples, process counters
// from /proc, input digests, and the report whose last line is the JSON
// object the benchmark contract asks for.
#ifndef RMABENCH_HARNESS_H_
#define RMABENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "storage/relation.h"

namespace rmabench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for paged data and trace files (created on demand).
  std::string work_dir = ".bench_build/work";
};

/// Outcome of one closed-loop phase: per-statement latencies (client send to
/// last row received) and the counts behind error_rate.
struct LoopResult {
  std::vector<double> latencies_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0;

  double StatementsPerSecond() const {
    return wall_s > 0 ? static_cast<double>(attempted) / wall_s : 0;
  }
  void Merge(const LoopResult& other);
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// The highest of the percentiles 50, 75, 90, 95, 99, 99.9 that has at
/// least ten samples beyond it, its value, and how many samples lie beyond.
struct Tail {
  double percentile = 50;
  double value_ms = 0;
  int64_t beyond = 0;
};
Tail TailLatency(const std::vector<double>& latencies_ms);

/// Spans kept in memory and written as Chrome trace-event JSON at the end.
/// Spans of one statement share a statement id; each names its parent span.
class Tracer {
 public:
  Tracer();
  uint64_t NextStatement();
  uint64_t NextSpanId();
  void Add(uint64_t id, uint64_t parent, uint64_t stmt, int tid,
           const char* layer, const std::string& name,
           Clock::time_point start, Clock::time_point end);
  size_t size() const;
  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Event {
    uint64_t id, parent, stmt;
    int tid;
    const char* layer;
    std::string name;
    double ts_us, dur_us;
  };
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_stmt_ = 0;
  uint64_t next_span_ = 0;
  std::vector<Event> events_;
};

/// One span around a call into a layer. Inert when `tracer` is null, so the
/// untraced loop runs the same code without recording anything.
class Span {
 public:
  Span(Tracer* tracer, const char* layer, std::string name, uint64_t stmt,
       int tid, uint64_t parent = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  /// Records the span (once) and returns its duration in milliseconds.
  double End();

 private:
  Tracer* tracer_;
  const char* layer_;
  std::string name_;
  uint64_t stmt_, parent_, id_ = 0;
  int tid_;
  Clock::time_point start_;
  bool ended_ = false;
  double ms_ = 0;
};

/// Per-layer values collected by the traced run, keyed by metric name.
/// Thread-safe: the server workload's clients add concurrently.
class Samples {
 public:
  void Add(const std::string& name, double value);
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;
  double Mean(const std::string& name) const;
  double Value(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
};

/// Process counters.
double PeakRssMb();          ///< VmHWM of /proc/self/status
int64_t BytesWritten();      ///< wchar of /proc/self/io
int64_t DirectoryBytes(const std::string& dir);

/// FNV-1a 64: the offset basis, and the step that folds `n` bytes into `h`.
inline constexpr uint64_t kFnvBasis = 1469598103934665603ull;
void HashBytes(uint64_t* h, const void* data, size_t n);

/// FNV-1a 64 over the generated inputs, so two runs with one seed can be
/// seen to receive identical inputs.
class Digest {
 public:
  void Add(const void* data, size_t n) { HashBytes(&h_, data, n); }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  void AddRelation(const rma::Relation& r);
  std::string Hex() const;

 private:
  uint64_t h_ = kFnvBasis;
};

/// Metric lines plus the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the metrics.
  void Note(const std::string& line);
  /// Prints the notes, one "name value unit" line per metric, then the
  /// contract's JSON object as the last line of standard output.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::string> notes_;
  std::vector<Metric> metrics_;
};

/// Reports a failed or wrong statement on stderr (the first few only).
void ReportFailure(const std::string& sql, const std::string& why);

std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace rmabench

#endif  // RMABENCH_HARNESS_H_
