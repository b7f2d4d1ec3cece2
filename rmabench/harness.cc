#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace rmabench {

void LoopResult::Merge(const LoopResult& other) {
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                      other.latencies_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  wall_s = std::max(wall_s, other.wall_s);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

Tail TailLatency(const std::vector<double>& latencies_ms) {
  Tail tail;
  const int64_t n = static_cast<int64_t>(latencies_ms.size());
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const int64_t at_or_below =
        static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    const int64_t beyond = n - at_or_below;
    if (beyond < 10) break;
    tail.percentile = p;
    tail.beyond = beyond;
  }
  tail.value_ms = Percentile(latencies_ms, tail.percentile);
  if (tail.beyond == 0) {
    tail.beyond = n - static_cast<int64_t>(std::ceil(0.5 * n));
  }
  return tail;
}

// --- tracer ------------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

uint64_t Tracer::NextStatement() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_stmt_;
}

uint64_t Tracer::NextSpanId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_span_;
}

void Tracer::Add(uint64_t id, uint64_t parent, uint64_t stmt, int tid,
                 const char* layer, const std::string& name,
                 Clock::time_point start, Clock::time_point end) {
  Event e{id,
          parent,
          stmt,
          tid,
          layer,
          name,
          std::chrono::duration<double, std::micro>(start - origin_).count(),
          std::chrono::duration<double, std::micro>(end - start).count()};
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << Format("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"stmt\": %" PRIu64 ", \"span\": %" PRIu64
                  ", \"parent\": %" PRIu64 "}}",
                  JsonEscape(e.name).c_str(), e.layer, e.ts_us, e.dur_us,
                  e.tid, e.stmt, e.id, e.parent)
        << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, const char* layer, std::string name, uint64_t stmt,
           int tid, uint64_t parent)
    : tracer_(tracer),
      layer_(layer),
      name_(std::move(name)),
      stmt_(stmt),
      parent_(parent),
      tid_(tid),
      start_(Clock::now()) {
  if (tracer_ != nullptr) id_ = tracer_->NextSpanId();
}

double Span::End() {
  if (ended_) return ms_;
  ended_ = true;
  const Clock::time_point end = Clock::now();
  ms_ = MsBetween(start_, end);
  if (tracer_ != nullptr) {
    tracer_->Add(id_, parent_, stmt_, tid_, layer_, name_, start_, end);
  }
  return ms_;
}

// --- samples -------------------------------------------------------------------

void Samples::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

void Samples::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

bool Samples::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_.count(name) != 0 || samples_.count(name) != 0;
}

double Samples::Mean(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  if (it == samples_.end() || it->second.empty()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

double Samples::Value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

// --- process counters ---------------------------------------------------------

namespace {

int64_t ReadProcField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtoll(line.c_str() + klen, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ReadProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

int64_t BytesWritten() { return ReadProcField("/proc/self/io", "wchar:"); }

int64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  int64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

// --- digest --------------------------------------------------------------------

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

void Digest::AddRelation(const rma::Relation& r) {
  Add(r.schema().ToString());
  for (const rma::BatPtr& col : r.columns()) {
    const int64_t n = col->size();
    if (col->type() == rma::DataType::kString) {
      for (int64_t i = 0; i < n; ++i) Add(col->GetString(i));
    } else {
      for (int64_t i = 0; i < n; ++i) {
        const double v = col->GetDouble(i);
        Add(&v, sizeof(v));
      }
    }
  }
}

std::string Digest::Hex() const { return Format("%016" PRIx64, h_); }

// --- report ----------------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << Format("%.17g", v) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

void ReportFailure(const std::string& sql, const std::string& why) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) >= 5) return;
  std::fprintf(stderr, "statement failed (%s): %.300s\n", why.c_str(),
               sql.c_str());
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n < 0) return std::string();
  if (static_cast<size_t>(n) < sizeof(buf)) return std::string(buf, n);
  std::string out(static_cast<size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(out.data(), out.size(), fmt, args);
  va_end(args);
  out.resize(static_cast<size_t>(n));
  return out;
}

}  // namespace rmabench
